//! Marker-mode inflate: decoding from a point inside a stream without the
//! 32 KB window behind it.
//!
//! A DEFLATE stream is a chain of blocks whose boundaries are only
//! discovered by decoding — and every match may reach up to 32 KB into
//! output the decoder has not produced if it entered mid-stream. The
//! rapidgzip-style tools here split that problem in two:
//!
//! 1. **Boundary probing** ([`BlockProbe`]): a candidate bit offset is
//!    accepted as a block start only if a full block header parses there —
//!    for dynamic blocks that means HLIT/HDIST bounds, a complete
//!    code-length code, a present end-of-block symbol and a short decodable
//!    prefix of the body; for stored blocks the LEN/NLEN complement with the
//!    payload in bounds.
//! 2. **Marker decode** ([`MarkerInflater`]): decoding from an entry point
//!    into `u16` cells instead of bytes. Cells `0..=255` are resolved
//!    literals; cells `>= `[`MARKER_BASE`] encode "the byte `woff` back in
//!    the unknown 32 KB window", `woff = cell - MARKER_BASE + 1`. Matches
//!    copy cells, so markers propagate through later matches for free.
//!    Once the window is known, [`resolve_markers_into`] rewrites the cells
//!    into plain bytes in one sequential pass.
//!
//! `nx-core` runs [`MarkerInflater`] to learn which window bytes a seek
//! checkpoint's later data references, and to trial a gzip member's first
//! block header. [`BlockProbe`] and [`resolve_markers_into`] are kept only
//! for `nxbench`'s `deflate.marker_*` probes.
//!
//! The marker decoder reuses the regular decoder's tables, header parser
//! and block entry ([`crate::Inflater::resume_at`]): both paths accept
//! exactly the same streams and report the same errors.

use crate::bitio::BitReader;
use crate::decoder::{enter_block, open_block, stored_share, Body, InflateScratch, Open};
use crate::huffman::decode::{m_extra, m_payload, DecodeTable, M_EOB, M_EXC, M_LIT};
use crate::{Error, Result, WINDOW_SIZE};

/// First cell value that encodes a window reference instead of a
/// literal byte. Cell `MARKER_BASE + k` means "the byte `k + 1` back in
/// the window that preceded this chunk" (`k` in `0..WINDOW_SIZE`, so
/// markers occupy exactly the upper half of the `u16` range). Values in
/// `256..MARKER_BASE` are never produced.
pub const MARKER_BASE: u16 = 32768;

/// Cells decoded per candidate by the first-stage boundary probe:
/// enough body to reject nearly all header-shaped bit garbage, cheap
/// enough to run at thousands of candidate offsets.
const PROBE_CELLS: usize = 512;

/// Cell budget of the second-stage (deep) trial decode. Stage-1
/// survivors are rare — true boundaries plus roughly one or two
/// header-shaped coincidences per few thousand bit offsets — so an 8×
/// deeper re-decode costs almost nothing amortized while rejecting most
/// of the coincidences.
const DEEP_CELLS: usize = 4096;

/// Cap on blocks either trial stage will chain through. Real streams
/// hit the cell budget or their final block long before this; crafted
/// sequences of empty blocks stay bounded by it.
const MAX_TRIAL_BLOCKS: usize = 64;

/// An inflate engine that enters a stream at an arbitrary bit offset —
/// a block boundary, or a token inside a block — and decodes into marker
/// cells (see the module docs). Structurally a careful-path-only sibling of
/// [`crate::Inflater`]; drives the same bit reader, tables, header parser
/// and block entry. Unlike it, it does not resume after stopping.
#[derive(Debug)]
pub struct MarkerInflater<'a> {
    reader: BitReader<'a>,
    /// Absolute bit position of the start of the sliced input, so
    /// [`bit_position`](Self::bit_position) reports offsets in the same
    /// coordinate system the caller's candidates use.
    base_bits: u64,
    out: Vec<u16>,
    finished: bool,
    /// The block entered in the middle, until its rest is decoded.
    open: Option<Open>,
    scratch: InflateScratch,
}

impl<'a> MarkerInflater<'a> {
    /// Creates an engine at `bit_offset` (absolute, in bits) into
    /// `data`. The input is sliced at the containing byte so stored
    /// blocks keep their RFC 1951 byte alignment.
    ///
    /// # Errors
    ///
    /// [`Error::UnexpectedEof`] if the offset lies beyond the input.
    pub fn new_at(data: &'a [u8], bit_offset: u64) -> Result<Self> {
        let at = (bit_offset, bit_offset);
        Self::with_reuse_at(data, at, InflateScratch::default(), Vec::new())
    }

    /// As [`new_at`](Self::new_at), but entering at `(block_bit,
    /// bit_offset)` as [`crate::Inflater::resume_at`] does (equal offsets: a
    /// block boundary) and reusing a previous decode's scratch tables and
    /// cell buffer (cleared, capacity kept) — the zero-allocation steady
    /// state for workers, the probe and the seek index's marker pass.
    ///
    /// # Errors
    ///
    /// As [`crate::Inflater::resume_at`].
    // Inlined into the probe's per-candidate trial: out of line it cost ~20 %.
    #[inline(always)]
    pub fn with_reuse_at(
        data: &'a [u8],
        (block_bit, bit_offset): (u64, u64),
        mut scratch: InflateScratch,
        mut out: Vec<u16>,
    ) -> Result<Self> {
        let byte = usize::try_from(block_bit / 8).map_err(|_| Error::UnexpectedEof)?;
        let mut reader = BitReader::new(data.get(byte..).ok_or(Error::UnexpectedEof)?);
        let base_bits = block_bit / 8 * 8;
        let (block, at) = (block_bit % 8, bit_offset.saturating_sub(base_bits));
        let open = enter_block(&mut reader, &mut scratch, block, at)?;
        out.clear();
        Ok(Self {
            reader,
            base_bits,
            out,
            finished: false,
            open,
            scratch,
        })
    }

    /// Absolute bit position (same coordinates as the `bit_offset`
    /// passed at construction). After decoding a block this is exactly
    /// the next block's boundary.
    pub fn bit_position(&self) -> u64 {
        self.base_bits + self.reader.bits_consumed()
    }

    /// Whether a final (`BFINAL`) block has been decoded.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Cells decoded so far.
    pub fn cells(&self) -> &[u16] {
        &self.out
    }

    /// Consumes the engine, returning the cell buffer and the reusable
    /// scratch tables.
    pub fn into_parts(self) -> (Vec<u16>, InflateScratch) {
        (self.out, self.scratch)
    }

    /// Decodes one block (header + body) into cells — the first call, the
    /// rest of the block entered — failing with
    /// [`Error::OutputLimitExceeded`] once the buffer would exceed `limit`
    /// cells.
    ///
    /// # Errors
    ///
    /// Any [`Error`] the serial decoder would report for the same
    /// construct, plus the limit above.
    pub fn decode_block(&mut self, limit: usize) -> Result<()> {
        let open = self.open.take();
        let open = open.map_or_else(|| open_block(&mut self.reader, &mut self.scratch), Ok)?;
        match open.body {
            // All there, so a probe that hits the limit inside has proven it.
            Body::Stored(len) if u64::from(len) * 8 > self.reader.bits_remaining() => {
                return Err(Error::UnexpectedEof);
            }
            Body::Stored(len) => self.stored_block(len, limit)?,
            tables => {
                // Tables move out for the block so their borrows don't
                // pin `self`; moved back unconditionally for reuse.
                let scratch = std::mem::take(&mut self.scratch);
                let (litlen, dist) = scratch.tables(tables);
                let res = self.huffman_block(litlen, dist, limit);
                self.scratch = scratch;
                res?;
            }
        }
        self.finished |= open.last;
        Ok(())
    }

    fn stored_block(&mut self, len: u16, limit: usize) -> Result<()> {
        let (n, stop) = stored_share(len, limit.saturating_sub(self.out.len()), &self.reader);
        let mut buf = [0u8; 512];
        for at in (0..n).step_by(buf.len()) {
            let take = (n - at).min(buf.len());
            self.reader.read_bytes(&mut buf[..take])?;
            self.out.extend(buf[..take].iter().map(|&b| u16::from(b)));
        }
        stop
    }

    // Out of line: inlined into the block bookkeeping, it measured 1–8 % slower.
    #[inline(never)]
    fn huffman_block(
        &mut self,
        litlen: &DecodeTable,
        dist: &DecodeTable,
        limit: usize,
    ) -> Result<()> {
        loop {
            let e = litlen.decode_entry(&mut self.reader)?;
            if e & M_LIT != 0 {
                if self.out.len() >= limit {
                    return Err(Error::OutputLimitExceeded);
                }
                self.out.push(m_payload(e) as u16);
                continue;
            }
            if e & M_EOB != 0 {
                return Ok(());
            }
            if e & M_EXC != 0 {
                // Reserved literal/length symbols 286/287.
                return Err(Error::InvalidLengthOrDistance);
            }
            let len = m_payload(e) as usize + self.reader.read_bits(m_extra(e))? as usize;
            let de = dist.decode_entry(&mut self.reader)?;
            if de & M_EXC != 0 {
                // Reserved distance symbols 30/31.
                return Err(Error::InvalidLengthOrDistance);
            }
            let distance = m_payload(de) as usize + self.reader.read_bits(m_extra(de))? as usize;
            if distance > self.out.len() + WINDOW_SIZE {
                // Unreachable for any table the builders accept
                // (max encodable distance is WINDOW_SIZE), but the cell
                // arithmetic below must never wrap.
                return Err(Error::DistanceTooFar);
            }
            if self.out.len() + len > limit {
                return Err(Error::OutputLimitExceeded);
            }
            // Cell-wise copy: sources inside the chunk replicate the
            // cell (markers propagate); sources before the chunk emit a
            // fresh marker. `p` advances each cell, so a match may
            // straddle the chunk start.
            for _ in 0..len {
                let p = self.out.len();
                let cell = if distance > p {
                    MARKER_BASE + (distance - p - 1) as u16
                } else {
                    self.out[p - distance]
                };
                self.out.push(cell);
            }
        }
    }
}

/// Resolves a marker-cell buffer against the now-known 32 KB `window`
/// that preceded the chunk, appending plain bytes to `out`. Returns the
/// number of marker cells patched. Outside tests its only caller is
/// `nxbench`'s `deflate.marker_resolve_ns_per_byte` probe.
///
/// # Errors
///
/// * [`Error::DistanceTooFar`] — a marker reaches further back than the
///   window actually extends (the serial decoder would have failed the
///   originating match the same way).
/// * [`Error::InvalidSymbol`] — a cell in the never-produced
///   `256..MARKER_BASE` gap (corrupted buffer).
pub fn resolve_markers_into(cells: &[u16], window: &[u8], out: &mut Vec<u8>) -> Result<u64> {
    let mut patched = 0u64;
    out.reserve(cells.len());
    for &cell in cells {
        if cell < 256 {
            out.push(cell as u8);
        } else if cell >= MARKER_BASE {
            let woff = usize::from(cell - MARKER_BASE) + 1;
            if woff > window.len() {
                return Err(Error::DistanceTooFar);
            }
            out.push(window[window.len() - woff]);
            patched += 1;
        } else {
            return Err(Error::InvalidSymbol);
        }
    }
    Ok(patched)
}

/// A reusable block-boundary probe: holds the scratch tables and cell
/// buffer across candidate offsets so scanning allocates nothing in
/// steady state. Outside tests its only caller is `nxbench`'s
/// `deflate.marker_probe_ns_per_byte` probe.
#[derive(Debug, Default)]
pub struct BlockProbe {
    scratch: InflateScratch,
    cells: Vec<u16>,
}

impl BlockProbe {
    /// Fresh probe state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether `bit_offset` plausibly starts a deflate block: a
    /// stored-block header (LEN/NLEN complement, payload in bounds) or a
    /// fully valid dynamic-block header plus a decodable body parses there —
    /// first a short prefix, then (for survivors) a much deeper trial decode
    /// that chains across block boundaries. Fixed-Huffman candidates are
    /// rejected outright: their 3-bit header carries no structure, so they
    /// cannot be told from bit noise. A `true` is a candidate, not proof.
    pub fn probe(&mut self, data: &[u8], bit_offset: u64) -> bool {
        let Ok(byte) = usize::try_from(bit_offset / 8) else {
            return false;
        };
        if byte >= data.len() {
            return false;
        }
        // Quick peek at BTYPE: fixed-Huffman blocks (01) have no header
        // structure to validate, so accepting them would make ~25% of
        // random bit offsets candidates; real encoders emit them only
        // for tiny payloads. Reserved (11) is never valid.
        let mut peek = BitReader::new(&data[byte..]);
        let skip = (bit_offset % 8) as u32 + 1; // residual bits + BFINAL
        let btype = match peek.read_bits(skip).and(peek.read_bits(2)) {
            Ok(b) => b,
            Err(_) => return false,
        };
        if btype != 0b00 && btype != 0b10 {
            return false;
        }
        // Two-stage acceptance: a cheap shallow decode filters the bulk
        // of the noise, then the rare survivors pay for a much deeper
        // trial from the same offset. Header-shaped coincidences that
        // happen to decode a short valid prefix almost never sustain a
        // valid parse for thousands of cells, so the second stage
        // removes most of the false candidates the shallow probe alone
        // lets through.
        self.trial(data, bit_offset, PROBE_CELLS) && self.trial(data, bit_offset, DEEP_CELLS)
    }

    /// One trial decode from `bit_offset`, chaining blocks until the
    /// cell `budget` is spent, the stream finishes, or a decode error
    /// rejects the candidate. Each stage enters from the offset afresh, so
    /// its verdict (block count included) is a fresh decode's; the deep
    /// stage only runs for shallow survivors, keeping the re-decode cost
    /// negligible.
    fn trial(&mut self, data: &[u8], bit_offset: u64, budget: usize) -> bool {
        let scratch = std::mem::take(&mut self.scratch);
        let cells = std::mem::take(&mut self.cells);
        let at = (bit_offset, bit_offset);
        let Ok(mut inf) = MarkerInflater::with_reuse_at(data, at, scratch, cells) else {
            return false;
        };
        let mut blocks = 0usize;
        let verdict = loop {
            match inf.decode_block(budget) {
                Ok(()) => {
                    blocks += 1;
                    // A finished stream, an exhausted budget, or a
                    // pathological run of tiny blocks all end the trial
                    // with the candidate still plausible.
                    if inf.is_finished()
                        || inf.cells().len() >= budget
                        || blocks >= MAX_TRIAL_BLOCKS
                    {
                        break true;
                    }
                }
                // Still decoding cleanly when the budget ran out: pass.
                Err(Error::OutputLimitExceeded) => break true,
                Err(_) => break false,
            }
        };
        (self.cells, self.scratch) = inf.into_parts();
        verdict
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::CompressionLevel;
    use crate::Inflater;

    /// A payload big enough to force several dynamic blocks.
    fn payload() -> Vec<u8> {
        let mut data = Vec::new();
        for i in 0..40_000u32 {
            data.extend_from_slice(
                format!(
                    "record {i}: v={} flags={:x}|",
                    i.wrapping_mul(2654435761),
                    i % 4096
                )
                .as_bytes(),
            );
        }
        data
    }

    /// Serial-decodes `comp` block by block, returning the output plus
    /// each interior block boundary as (bit_offset, bytes_before).
    fn block_boundaries(comp: &[u8]) -> (Vec<u8>, Vec<(u64, usize)>) {
        let mut inf = Inflater::new(comp);
        let mut bounds = Vec::new();
        while !inf.is_finished() {
            inf.decode_block(usize::MAX).unwrap();
            if !inf.is_finished() {
                bounds.push((inf.bit_position(), inf.output().len()));
            }
        }
        (inf.into_output(), bounds)
    }

    #[test]
    fn marker_decode_matches_serial_from_every_boundary() {
        let data = payload();
        let comp = crate::deflate(&data, CompressionLevel::new(6).unwrap());
        let (serial, bounds) = block_boundaries(&comp);
        assert_eq!(serial, data);
        assert!(!bounds.is_empty(), "payload must span several blocks");
        for &(bit, out_before) in &bounds {
            let mut m = MarkerInflater::new_at(&comp, bit).unwrap();
            while !m.is_finished() {
                m.decode_block(usize::MAX).unwrap();
            }
            let win_lo = out_before.saturating_sub(WINDOW_SIZE);
            let mut resolved = Vec::new();
            resolve_markers_into(m.cells(), &serial[win_lo..out_before], &mut resolved).unwrap();
            assert_eq!(resolved, serial[out_before..], "boundary at bit {bit}");
        }
    }

    #[test]
    fn probe_accepts_true_boundaries() {
        let data = payload();
        let comp = crate::deflate(&data, CompressionLevel::new(6).unwrap());
        let (_, bounds) = block_boundaries(&comp);
        let mut probe = BlockProbe::new();
        let mut hits = 0;
        for &(bit, _) in &bounds {
            if probe.probe(&comp, bit) {
                hits += 1;
            }
        }
        // Every interior boundary of this corpus starts a dynamic
        // block; all must probe positive.
        assert_eq!(hits, bounds.len());
    }

    #[test]
    fn probe_rejects_bit_noise() {
        let data = payload();
        let comp = crate::deflate(&data, CompressionLevel::new(6).unwrap());
        let (_, bounds) = block_boundaries(&comp);
        let true_bits: std::collections::HashSet<u64> = bounds.iter().map(|&(b, _)| b).collect();
        let mut probe = BlockProbe::new();
        let mut false_hits = 0u32;
        let mut tried = 0u32;
        // Sweep a dense window of wrong offsets.
        for bit in 8 * 1000..8 * 1000 + 4096 {
            if true_bits.contains(&bit) {
                continue;
            }
            tried += 1;
            if probe.probe(&comp, bit) {
                false_hits += 1;
            }
        }
        assert!(tried > 4000);
        assert!(
            false_hits <= 2,
            "{false_hits}/{tried} random offsets probed positive"
        );
    }

    #[test]
    fn markers_propagate_through_matches() {
        // "abcabcabc..." compressed with a dictionary-less encoder still
        // opens with literals, so build the construct by hand instead:
        // a stream whose first match reaches fully into the window.
        let dict: Vec<u8> = (0..WINDOW_SIZE).map(|i| (i % 251) as u8).collect();
        let data: Vec<u8> = dict[WINDOW_SIZE - 300..].repeat(4);
        let comp =
            crate::encoder::deflate_with_dict(&data, CompressionLevel::new(6).unwrap(), &dict);
        let mut m = MarkerInflater::new_at(&comp, 0).unwrap();
        while !m.is_finished() {
            m.decode_block(usize::MAX).unwrap();
        }
        assert!(
            m.cells().iter().any(|&c| c >= MARKER_BASE),
            "window-reaching stream must emit markers"
        );
        let mut resolved = Vec::new();
        let patched = resolve_markers_into(m.cells(), &dict, &mut resolved).unwrap();
        assert!(patched > 0);
        assert_eq!(resolved, data);
    }

    #[test]
    fn resolve_rejects_gap_cells_and_short_windows() {
        let mut out = Vec::new();
        assert_eq!(
            resolve_markers_into(&[300], &[], &mut out),
            Err(Error::InvalidSymbol)
        );
        out.clear();
        assert_eq!(
            resolve_markers_into(&[MARKER_BASE + 4], &[1, 2, 3], &mut out),
            Err(Error::DistanceTooFar)
        );
        out.clear();
        assert_eq!(
            resolve_markers_into(&[b'x'.into(), MARKER_BASE, 0], &[9, 8, 7], &mut out),
            Ok(1)
        );
        assert_eq!(out, [b'x', 7, 0]);
    }

    #[test]
    fn mid_stream_entry_rejects_out_of_range_offsets() {
        assert!(MarkerInflater::new_at(&[0u8; 4], 40).is_err());
        assert!(!BlockProbe::new().probe(&[0u8; 4], 40));
    }
}
