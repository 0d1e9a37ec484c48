//! Two-level Huffman decoding tables.
//!
//! A 9-bit root table resolves all codes of ≤ 9 bits with a single lookup;
//! longer codes chain to a second-level subtable. This is the structure
//! zlib's inflate uses, and is also a faithful model of the multi-bit
//! lookup the hardware decompressor performs each cycle.
//!
//! Tables come in two flavours:
//!
//! * **plain** ([`DecodeTable::new`]) — entries carry the raw symbol, as the
//!   code-length alphabet and the property tests need;
//! * **merged** ([`DecodeTable::new_litlen`] / [`DecodeTable::new_dist`]) —
//!   entries *pre-merge* the RFC 1951 base value and extra-bit count for
//!   the symbol, so the inflate hot loop resolves literal-vs-match, the
//!   length/distance base and the extra-bit width with a single u32 load
//!   instead of a symbol classification plus four LUT indirections. This is
//!   the software analogue of the accelerator's one-lookup-per-cycle
//!   decode: the hardware table also yields "what to do" and "how many
//!   bits" together.

use crate::bitio::BitReader;
use crate::lz77::{DIST_BASE, DIST_EXTRA, LENGTH_BASE, LENGTH_EXTRA};
use crate::{Error, Result};

/// Number of bits resolved by the root table.
pub const ROOT_BITS: u32 = 9;

/// Root table size; a fixed-size array so the superloop's masked index
/// provably needs no bounds check.
const ROOT_SIZE: usize = 1 << ROOT_BITS;

/// Merged-entry flag: entry is a root→subtable link.
pub(crate) const M_LINK: u32 = 1 << 31;
/// Merged-entry flag: exceptional symbol (end-of-block or reserved) — the
/// fast loop bails out to the careful loop on any entry with this bit.
pub(crate) const M_EXC: u32 = 1 << 30;
/// Merged-entry flag: end-of-block (always together with [`M_EXC`]).
pub(crate) const M_EOB: u32 = 1 << 29;
/// Merged-entry flag: literal byte (payload is the byte value).
pub(crate) const M_LIT: u32 = 1 << 28;

/// Total code bits consumed by this merged entry (root: code length;
/// subtable: full length including the 9 root bits).
#[inline]
pub(crate) fn m_consumed(e: u32) -> u32 {
    e & 0xFF
}

/// Extra-bit count pre-merged into a length/distance entry.
#[inline]
pub(crate) fn m_extra(e: u32) -> u32 {
    (e >> 8) & 0x1F
}

/// Pre-merged payload: literal byte, length base, or distance base.
#[inline]
pub(crate) fn m_payload(e: u32) -> u32 {
    (e >> 13) & 0x7FFF
}

/// Packed table entry.
///
/// Plain tables:
/// * invalid: `0`
/// * leaf: `payload = symbol`, `len = code length (consumed bits)`
/// * root link: `payload = subtable base`, `len = extra bits indexed by the
///   subtable`, `link = true`
///
/// Merged tables (bit layout; see the `m_*` accessors):
/// * bit 31 link, bit 30 exceptional, bit 29 end-of-block, bit 28 literal
/// * bits 13..=27 payload (literal byte / length base / distance base)
/// * bits 8..=12 extra-bit count, bits 0..=7 consumed code bits
/// * link entries: bits 8..=23 subtable base, bits 0..=3 index bit count
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Entry(u32);

impl Entry {
    const LINK: u32 = 1 << 31;

    fn leaf(symbol: u16, len: u8) -> Self {
        Entry(u32::from(symbol) | (u32::from(len) << 16))
    }
    fn link(base: u32, extra: u8) -> Self {
        Entry(base | (u32::from(extra) << 16) | Self::LINK)
    }
    #[inline]
    fn is_invalid(self) -> bool {
        self.0 == 0
    }
    #[inline]
    fn is_link(self) -> bool {
        self.0 & Self::LINK != 0
    }
    #[inline]
    fn payload(self) -> u32 {
        self.0 & 0xFFFF
    }
    #[inline]
    fn len(self) -> u32 {
        (self.0 >> 16) & 0xFF
    }
}

/// Which alphabet a table decodes — determines the entry encoding.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum TableKind {
    /// Raw symbols (code-length alphabet, tests).
    #[default]
    Plain,
    /// Literal/length alphabet with pre-merged length bases.
    Litlen,
    /// Distance alphabet with pre-merged distance bases.
    Dist,
}

impl TableKind {
    /// Builds the leaf entry for `sym` whose full code length is `len`
    /// bits, destined for the root (`in_sub = false`) or a subtable.
    fn leaf(self, sym: u16, len: u8, in_sub: bool) -> Entry {
        match self {
            TableKind::Plain => {
                // Plain subtable entries store only the sub-level bits; the
                // plain decoder adds ROOT_BITS itself.
                let stored = if in_sub { len - ROOT_BITS as u8 } else { len };
                Entry::leaf(sym, stored)
            }
            TableKind::Litlen => Entry(merged_litlen(sym, len)),
            TableKind::Dist => Entry(merged_dist(sym, len)),
        }
    }

    fn link(self, base: u32, idx_bits: u8) -> Entry {
        match self {
            TableKind::Plain => Entry::link(base, idx_bits),
            // Merged link: subtable base in bits 8..=23, index width in the
            // low nibble, so the fast loop can chase it without reshaping.
            _ => Entry(M_LINK | (base << 8) | u32::from(idx_bits)),
        }
    }
}

/// Merged entry for one literal/length symbol with full code length `len`.
fn merged_litlen(sym: u16, len: u8) -> u32 {
    let consumed = u32::from(len);
    match sym {
        0..=255 => M_LIT | (u32::from(sym) << 13) | consumed,
        256 => M_EXC | M_EOB | consumed,
        257..=285 => {
            let i = usize::from(sym - 257);
            (u32::from(LENGTH_BASE[i]) << 13) | (u32::from(LENGTH_EXTRA[i]) << 8) | consumed
        }
        // 286/287 are reserved: decoding one is a data error the careful
        // loop reports as InvalidLengthOrDistance.
        _ => M_EXC | consumed,
    }
}

/// Merged entry for one distance symbol with full code length `len`.
fn merged_dist(sym: u16, len: u8) -> u32 {
    let consumed = u32::from(len);
    match sym {
        0..=29 => {
            let i = usize::from(sym);
            (u32::from(DIST_BASE[i]) << 13) | (u32::from(DIST_EXTRA[i]) << 8) | consumed
        }
        _ => M_EXC | consumed,
    }
}

/// A built decoding table for one Huffman alphabet.
///
/// ```
/// use nx_deflate::huffman::decode::DecodeTable;
/// use nx_deflate::bitio::{BitReader, BitWriter};
/// use nx_deflate::huffman::canonical_codes;
///
/// # fn main() -> Result<(), nx_deflate::Error> {
/// let lengths = [2u8, 2, 2, 2];
/// let table = DecodeTable::new(&lengths)?;
/// let codes = canonical_codes(&lengths)?;
/// let mut w = BitWriter::new();
/// w.write_bits(u64::from(codes[3].bits), u32::from(codes[3].len));
/// let bytes = w.finish();
/// let mut r = BitReader::new(&bytes);
/// assert_eq!(table.decode(&mut r)?, 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct DecodeTable {
    /// Lazily boxed so `Default` allocates nothing: the decoder's
    /// `mem::take` dances construct throwaway defaults on every call, and
    /// those must stay free for the zero-allocation steady state. `None`
    /// reads as the all-invalid [`EMPTY_ROOT`].
    root: Option<Box<[Entry; ROOT_SIZE]>>,
    sub: Vec<Entry>,
    /// Reused canonical-code scratch so [`rebuild_litlen`](Self::rebuild_litlen)
    /// and friends allocate nothing in steady state.
    codes: Vec<super::Code>,
    max_len: u8,
    kind: TableKind,
}

/// Root of an unbuilt table: every slot is the invalid sentinel, so
/// lookups fail exactly as an empty alphabet should.
static EMPTY_ROOT: [Entry; ROOT_SIZE] = [Entry(0); ROOT_SIZE];

impl DecodeTable {
    /// Builds a plain (raw-symbol) table from per-symbol code lengths.
    ///
    /// Incomplete codes are allowed (unassigned patterns decode to
    /// [`Error::InvalidSymbol`]); oversubscribed codes are rejected.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidCodeLengths`] if the lengths oversubscribe the code
    /// space or exceed 15 bits.
    pub fn new(lengths: &[u8]) -> Result<Self> {
        let mut t = Self::default();
        t.build(lengths, TableKind::Plain)?;
        Ok(t)
    }

    /// Builds a merged literal/length table: every leaf pre-merges the
    /// length base and extra-bit count (RFC 1951 §3.2.5).
    ///
    /// # Errors
    ///
    /// As [`new`](Self::new).
    pub fn new_litlen(lengths: &[u8]) -> Result<Self> {
        let mut t = Self::default();
        t.build(lengths, TableKind::Litlen)?;
        Ok(t)
    }

    /// Builds a merged distance table (distance bases pre-merged).
    ///
    /// # Errors
    ///
    /// As [`new`](Self::new).
    pub fn new_dist(lengths: &[u8]) -> Result<Self> {
        let mut t = Self::default();
        t.build(lengths, TableKind::Dist)?;
        Ok(t)
    }

    /// Rebuilds this table in place as a plain table, reusing its
    /// allocations — the steady-state path for reusable decode scratch.
    ///
    /// # Errors
    ///
    /// As [`new`](Self::new).
    pub fn rebuild_plain(&mut self, lengths: &[u8]) -> Result<()> {
        self.build(lengths, TableKind::Plain)
    }

    /// Rebuilds this table in place as a merged literal/length table.
    ///
    /// # Errors
    ///
    /// As [`new`](Self::new).
    pub fn rebuild_litlen(&mut self, lengths: &[u8]) -> Result<()> {
        self.build(lengths, TableKind::Litlen)
    }

    /// Rebuilds this table in place as a merged distance table.
    ///
    /// # Errors
    ///
    /// As [`new`](Self::new).
    pub fn rebuild_dist(&mut self, lengths: &[u8]) -> Result<()> {
        self.build(lengths, TableKind::Dist)
    }

    fn build(&mut self, lengths: &[u8], kind: TableKind) -> Result<()> {
        let max_len = lengths.iter().copied().max().unwrap_or(0);
        if max_len > super::MAX_CODE_LEN {
            return Err(Error::InvalidCodeLengths);
        }
        super::canonical_codes_into(lengths, &mut self.codes)?; // validates Kraft
        self.max_len = max_len;
        self.kind = kind;
        let root = self
            .root
            .get_or_insert_with(|| Box::new([Entry::default(); ROOT_SIZE]));
        root.fill(Entry::default());
        self.sub.clear();

        // First pass: fill short codes, and record per-prefix maximum
        // extra length for long codes. Fixed 512-slot arrays replace the
        // HashMaps the builder used to allocate per block.
        let mut extra_of_prefix = [0u8; 1 << ROOT_BITS];
        let mut has_long = false;
        for (sym, code) in self.codes.iter().enumerate() {
            let len = u32::from(code.len);
            if len == 0 {
                continue;
            }
            if len <= ROOT_BITS {
                let stride = 1usize << len;
                let mut idx = usize::from(code.bits);
                let leaf = kind.leaf(sym as u16, code.len, false);
                while idx < root.len() {
                    root[idx] = leaf;
                    idx += stride;
                }
            } else {
                let prefix = usize::from(code.bits) & ((1 << ROOT_BITS) - 1);
                let extra = (len - ROOT_BITS) as u8;
                extra_of_prefix[prefix] = extra_of_prefix[prefix].max(extra);
                has_long = true;
            }
        }

        // Allocate subtables per prefix (ascending prefix order, matching
        // the previous sorted-HashMap layout).
        let mut base_of_prefix = [0u32; 1 << ROOT_BITS];
        if has_long {
            for prefix in 0..1usize << ROOT_BITS {
                let extra = extra_of_prefix[prefix];
                if extra == 0 {
                    continue;
                }
                let base = self.sub.len() as u32;
                self.sub
                    .resize(self.sub.len() + (1 << extra), Entry::default());
                base_of_prefix[prefix] = base;
                root[prefix] = kind.link(base, extra);
            }

            // Second pass: fill long codes into their subtables.
            for (sym, code) in self.codes.iter().enumerate() {
                let len = u32::from(code.len);
                if len <= ROOT_BITS {
                    continue;
                }
                let prefix = usize::from(code.bits) & ((1 << ROOT_BITS) - 1);
                let base = base_of_prefix[prefix] as usize;
                let extra = extra_of_prefix[prefix];
                let hi = usize::from(code.bits) >> ROOT_BITS; // len-ROOT_BITS bits
                let sublen = (len - ROOT_BITS) as u8;
                let stride = 1usize << sublen;
                let leaf = kind.leaf(sym as u16, code.len, true);
                let mut idx = hi;
                while idx < 1 << extra {
                    self.sub[base + idx] = leaf;
                    idx += stride;
                }
            }
        }
        Ok(())
    }

    /// The root lookup array, or the shared all-invalid root if this
    /// table was never built. Returning the fixed-size array (not a
    /// slice) keeps the bounds checks eliminated in the hot lookups.
    #[inline(always)]
    fn root_ref(&self) -> &[Entry; ROOT_SIZE] {
        match &self.root {
            Some(r) => r,
            None => &EMPTY_ROOT,
        }
    }

    /// Longest code length in this table (0 for an empty alphabet).
    pub fn max_code_len(&self) -> u8 {
        self.max_len
    }

    /// Whether this table holds merged (base/extra pre-packed) entries.
    pub fn is_merged(&self) -> bool {
        self.kind != TableKind::Plain
    }

    /// Decodes one symbol from `reader` (plain tables only).
    ///
    /// # Errors
    ///
    /// * [`Error::InvalidSymbol`] if the upcoming bits match no assigned
    ///   code;
    /// * [`Error::UnexpectedEof`] if the stream ends mid-code.
    #[inline]
    pub fn decode(&self, reader: &mut BitReader<'_>) -> Result<u16> {
        debug_assert!(!self.is_merged(), "decode() is for plain tables");
        let window = reader.peek_bits(ROOT_BITS);
        let entry = self.root_ref()[window as usize];
        if entry.is_invalid() {
            // Either an unassigned pattern or EOF-truncated bits.
            return if reader.bits_remaining() == 0 {
                Err(Error::UnexpectedEof)
            } else {
                Err(Error::InvalidSymbol)
            };
        }
        if !entry.is_link() {
            reader.consume(entry.len())?;
            return Ok(entry.payload() as u16);
        }
        let extra = entry.len();
        let wide = reader.peek_bits(ROOT_BITS + extra) >> ROOT_BITS;
        let se = self.sub[entry.payload() as usize + wide as usize];
        if se.is_invalid() {
            return if reader.bits_remaining() < u64::from(ROOT_BITS + extra) {
                Err(Error::UnexpectedEof)
            } else {
                Err(Error::InvalidSymbol)
            };
        }
        reader.consume(ROOT_BITS + se.len())?;
        Ok(se.payload() as u16)
    }

    /// Decodes one *merged* entry from `reader`, consuming its code bits.
    /// The caller interprets the returned entry via the `m_*` accessors
    /// (flags, payload, extra-bit count); extra bits are not consumed.
    ///
    /// # Errors
    ///
    /// As [`decode`](Self::decode).
    #[inline]
    pub(crate) fn decode_entry(&self, reader: &mut BitReader<'_>) -> Result<u32> {
        debug_assert!(self.is_merged(), "decode_entry() is for merged tables");
        let window = reader.peek_bits(ROOT_BITS);
        let entry = self.root_ref()[window as usize].0;
        if entry == 0 {
            return if reader.bits_remaining() == 0 {
                Err(Error::UnexpectedEof)
            } else {
                Err(Error::InvalidSymbol)
            };
        }
        if entry & M_LINK == 0 {
            reader.consume(m_consumed(entry))?;
            return Ok(entry);
        }
        let idx_bits = entry & 0xF;
        let wide = reader.peek_bits(ROOT_BITS + idx_bits) >> ROOT_BITS;
        let se = self.sub[((entry >> 8) & 0xFFFF) as usize + wide as usize].0;
        if se == 0 {
            return if reader.bits_remaining() < u64::from(ROOT_BITS + idx_bits) {
                Err(Error::UnexpectedEof)
            } else {
                Err(Error::InvalidSymbol)
            };
        }
        // Merged subtable entries carry the full consumed length.
        reader.consume(m_consumed(se))?;
        Ok(se)
    }

    /// Resolves a merged entry from the low bits of `acc` without touching
    /// any reader state — the superloop primitive. Returns 0 for an
    /// unassigned pattern.
    #[inline(always)]
    pub(crate) fn lookup(&self, acc: u64) -> u32 {
        let entry = self.root_ref()[(acc as usize) & ((1 << ROOT_BITS) - 1)].0;
        if entry & M_LINK == 0 {
            return entry;
        }
        let idx_bits = entry & 0xF;
        let idx = ((acc >> ROOT_BITS) as usize) & ((1usize << idx_bits) - 1);
        self.sub[((entry >> 8) & 0xFFFF) as usize + idx].0
    }
}

/// Round-trip helper: encodes `symbols` with the canonical code for
/// `lengths` and decodes them back. Used by property tests.
#[doc(hidden)]
pub fn roundtrip_symbols(lengths: &[u8], symbols: &[u16]) -> Result<Vec<u16>> {
    use crate::bitio::BitWriter;
    let codes = super::canonical_codes(lengths)?;
    let mut w = BitWriter::new();
    for &s in symbols {
        let c = codes[s as usize];
        assert!(c.len > 0, "encoding unused symbol {s}");
        w.write_bits(u64::from(c.bits), u32::from(c.len));
    }
    let bytes = w.finish();
    let table = DecodeTable::new(lengths)?;
    let mut r = BitReader::new(&bytes);
    let mut out = Vec::with_capacity(symbols.len());
    for _ in 0..symbols.len() {
        out.push(table.decode(&mut r)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitio::BitWriter;
    use crate::huffman::build::limited_lengths;

    #[test]
    fn decodes_short_codes() {
        let lengths = [1u8, 2, 3, 3];
        let symbols = [0u16, 1, 2, 3, 3, 2, 1, 0, 0];
        assert_eq!(roundtrip_symbols(&lengths, &symbols).unwrap(), symbols);
    }

    #[test]
    fn decodes_codes_longer_than_root() {
        // Create an alphabet that forces >9-bit codes: skewed frequencies
        // over the largest alphabet the length builder takes.
        let mut freqs = vec![0u32; crate::huffman::build::MAX_SYMBOLS];
        for (i, f) in freqs.iter_mut().enumerate() {
            *f = 1 + (i as u32 % 7) + if i < 4 { 100_000 } else { 0 };
        }
        let lengths = limited_lengths(&freqs, 15);
        assert!(
            lengths.iter().any(|&l| l > 9),
            "need long codes for this test"
        );
        let symbols: Vec<u16> = (0..freqs.len() as u16).collect();
        assert_eq!(roundtrip_symbols(&lengths, &symbols).unwrap(), symbols);
    }

    #[test]
    fn exactly_nine_and_ten_bit_boundary() {
        // 512 symbols of 9 bits: fully saturates the root table.
        let lengths = vec![9u8; 512];
        let symbols: Vec<u16> = (0..512u16).rev().collect();
        assert_eq!(roundtrip_symbols(&lengths, &symbols).unwrap(), symbols);
        // 1024 symbols of 10 bits: everything goes through subtables.
        let lengths = vec![10u8; 1024];
        let symbols: Vec<u16> = (0..1024u16).step_by(3).collect();
        assert_eq!(roundtrip_symbols(&lengths, &symbols).unwrap(), symbols);
    }

    #[test]
    fn invalid_pattern_detected() {
        // Incomplete code: single 2-bit code; patterns 0b01..0b11 invalid.
        let lengths = [2u8, 0];
        let table = DecodeTable::new(&lengths).unwrap();
        let data = [0xFFu8];
        let mut r = BitReader::new(&data);
        assert_eq!(table.decode(&mut r), Err(Error::InvalidSymbol));
    }

    #[test]
    fn eof_mid_code_detected() {
        let lengths = vec![10u8; 1024];
        let table = DecodeTable::new(&lengths).unwrap();
        let data = [0x00u8]; // only 8 bits available, need 10
        let mut r = BitReader::new(&data);
        assert_eq!(table.decode(&mut r), Err(Error::UnexpectedEof));
    }

    #[test]
    fn empty_input_is_eof() {
        let table = DecodeTable::new(&[1, 1]).unwrap();
        let mut r = BitReader::new(&[]);
        assert_eq!(table.decode(&mut r), Err(Error::UnexpectedEof));
    }

    #[test]
    fn single_symbol_table() {
        let table = DecodeTable::new(&[0, 1, 0]).unwrap();
        let data = [0b0000_0000u8];
        let mut r = BitReader::new(&data);
        assert_eq!(table.decode(&mut r).unwrap(), 1);
    }

    #[test]
    fn max_code_len_reported() {
        assert_eq!(DecodeTable::new(&[1, 2, 2]).unwrap().max_code_len(), 2);
        assert_eq!(DecodeTable::new(&[0, 0]).unwrap().max_code_len(), 0);
    }

    #[test]
    fn oversubscribed_rejected() {
        assert!(DecodeTable::new(&[1, 1, 1]).is_err());
    }

    /// Encodes `symbols` (with any per-symbol extra bits) and decodes them
    /// back through a merged table's careful path.
    fn merged_roundtrip(
        table: &DecodeTable,
        lengths: &[u8],
        symbols: &[(u16, u32, u32)], // (symbol, extra value, extra bits)
    ) -> Vec<u32> {
        let codes = crate::huffman::canonical_codes(lengths).unwrap();
        let mut w = BitWriter::new();
        for &(s, ev, eb) in symbols {
            let c = codes[usize::from(s)];
            assert!(c.len > 0);
            w.write_bits(u64::from(c.bits), u32::from(c.len));
            w.write_bits(u64::from(ev), eb);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        symbols
            .iter()
            .map(|&(_, _, _)| {
                let e = table.decode_entry(&mut r).unwrap();
                let extra = r.read_bits(m_extra(e)).unwrap();
                m_payload(e) + extra
            })
            .collect()
    }

    #[test]
    fn merged_litlen_entries_premerge_bases() {
        let lengths = crate::encoder::fixed_litlen_lengths();
        let table = DecodeTable::new_litlen(&lengths).unwrap();
        assert!(table.is_merged());
        // Literal 'A' (65), length code 268 (base 17, 1 extra bit, val 1
        // → length 18), length code 285 (base 258, 0 extra).
        let got = merged_roundtrip(&table, &lengths, &[(65, 0, 0), (268, 1, 1), (285, 0, 0)]);
        assert_eq!(got, vec![65, 18, 258]);
    }

    #[test]
    fn merged_dist_entries_premerge_bases() {
        let lengths = crate::encoder::fixed_dist_lengths();
        let table = DecodeTable::new_dist(&lengths).unwrap();
        // Dist code 0 → 1; code 10 (base 33, 4 extra, val 9 → 42);
        // code 29 (base 24577, 13 extra, val 8191 → 32768).
        let got = merged_roundtrip(&table, &lengths, &[(0, 0, 0), (10, 9, 4), (29, 8191, 13)]);
        assert_eq!(got, vec![1, 42, 32768]);
    }

    #[test]
    fn merged_flags_mark_eob_and_reserved() {
        let litlen = DecodeTable::new_litlen(&crate::encoder::fixed_litlen_lengths()).unwrap();
        let codes =
            crate::huffman::canonical_codes(&crate::encoder::fixed_litlen_lengths()).unwrap();
        for (sym, want_eob, want_exc, want_lit) in [
            (97u16, false, false, true),
            (256, true, true, false),
            (270, false, false, false),
            (286, false, true, false), // reserved
        ] {
            let c = codes[usize::from(sym)];
            let mut w = BitWriter::new();
            w.write_bits(u64::from(c.bits), u32::from(c.len));
            let bytes = w.finish();
            let mut r = BitReader::new(&bytes);
            let e = litlen.decode_entry(&mut r).unwrap();
            assert_eq!(e & M_EOB != 0, want_eob, "sym {sym}");
            assert_eq!(e & M_EXC != 0, want_exc, "sym {sym}");
            assert_eq!(e & M_LIT != 0, want_lit, "sym {sym}");
            assert_eq!(m_consumed(e), u32::from(c.len), "sym {sym}");
        }
    }

    #[test]
    fn merged_lookup_agrees_with_decode_entry() {
        // Skewed dynamic alphabet forcing subtable chains, checked for
        // every symbol: the raw-accumulator lookup and the reader-based
        // careful decode must resolve identical entries.
        let mut freqs = vec![0u32; 286];
        for (i, f) in freqs.iter_mut().enumerate() {
            *f = 1 + (i as u32 % 13) + if i < 3 { 50_000 } else { 0 };
        }
        let lengths = limited_lengths(&freqs, 15);
        assert!(lengths.iter().any(|&l| l > 9));
        let table = DecodeTable::new_litlen(&lengths).unwrap();
        let codes = crate::huffman::canonical_codes(&lengths).unwrap();
        for (sym, c) in codes.iter().enumerate() {
            if c.len == 0 {
                continue;
            }
            let mut w = BitWriter::new();
            w.write_bits(u64::from(c.bits), u32::from(c.len));
            w.write_bits(0x5A5A, 16); // trailing noise past the code
            let bytes = w.finish();
            let mut r = BitReader::new(&bytes);
            let acc = u64::from(r.peek_bits(25));
            let via_lookup = table.lookup(acc);
            let via_decode = table.decode_entry(&mut r).unwrap();
            assert_eq!(via_lookup, via_decode, "sym {sym}");
        }
    }

    #[test]
    fn rebuild_reuses_allocations_and_matches_fresh() {
        let a = crate::encoder::fixed_litlen_lengths();
        let mut freqs = vec![0u32; 286];
        for (i, f) in freqs.iter_mut().enumerate() {
            *f = 1 + (i as u32 % 5);
        }
        let b = limited_lengths(&freqs, 15);
        let mut table = DecodeTable::new_litlen(&a).unwrap();
        table.rebuild_litlen(&b).unwrap();
        let fresh = DecodeTable::new_litlen(&b).unwrap();
        assert_eq!(table.root, fresh.root);
        assert_eq!(table.sub, fresh.sub);
        // And rebuilding back restores the original layout.
        table.rebuild_litlen(&a).unwrap();
        let orig = DecodeTable::new_litlen(&a).unwrap();
        assert_eq!(table.root, orig.root);
        assert_eq!(table.sub, orig.sub);
    }

    #[test]
    fn rebuild_rejects_bad_lengths_like_new() {
        let mut table = DecodeTable::new(&[1, 1]).unwrap();
        assert_eq!(
            table.rebuild_plain(&[1, 1, 1]),
            Err(Error::InvalidCodeLengths)
        );
    }
}
