//! Canonical Huffman (prefix) codes as used by DEFLATE.
//!
//! DEFLATE transmits only the *length* of each symbol's code; both sides
//! then derive identical canonical codes (RFC 1951 §3.2.2). This module
//! provides:
//!
//! * [`build`] — turning frequency histograms into length-limited code
//!   lengths (plain Huffman plus the package-merge algorithm for the 15-bit
//!   / 7-bit limits DEFLATE imposes);
//! * [`canonical_codes`] — the canonical length→code assignment;
//! * [`decode`] — two-level lookup tables for fast decoding.

pub mod build;
pub mod decode;

use crate::{Error, Result};

/// Maximum code length for the literal/length and distance alphabets.
pub const MAX_CODE_LEN: u8 = 15;

/// Maximum code length for the code-length alphabet.
pub const MAX_CODELEN_CODE_LEN: u8 = 7;

/// The first canonical code of each length, indexed by length: see
/// [`first_codes`].
pub type FirstCodes = [u16; MAX_CODE_LEN as usize + 1];

/// An emit-ready Huffman code for one symbol.
///
/// `bits` is stored **stream-reversed**: DEFLATE packs Huffman codes into
/// the bit stream starting from the most-significant bit of the canonical
/// code, while [`crate::bitio::BitWriter`] emits least-significant-first, so
/// the canonical value is bit-reversed once here and can then be written
/// directly with `write_bits(code.bits, code.len)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Code {
    /// Stream-reversed code value (ready for an LSB-first writer).
    pub bits: u16,
    /// Code length in bits; 0 means the symbol is unused.
    pub len: u8,
}

/// Reverses the low `n` bits of `v`.
#[inline]
pub fn reverse_bits(v: u16, n: u8) -> u16 {
    debug_assert!(n <= 16);
    if n == 0 {
        return 0;
    }
    v.reverse_bits() >> (16 - n)
}

/// Derives canonical, emit-ready codes from per-symbol code lengths.
///
/// Follows RFC 1951 §3.2.2: codes of the same length are consecutive
/// integers in symbol order, and shorter codes lexicographically precede
/// longer ones. The returned [`Code`] values are stream-reversed (see
/// [`Code`]).
///
/// # Errors
///
/// [`Error::InvalidCodeLengths`] if the lengths over-subscribe the code
/// space (Kraft sum > 1). Under-subscribed (incomplete) codes are permitted
/// — DEFLATE legitimately uses them for degenerate distance alphabets — and
/// simply leave part of the code space unassigned.
pub fn canonical_codes(lengths: &[u8]) -> Result<Vec<Code>> {
    let mut out = Vec::new();
    canonical_codes_into(lengths, &mut out)?;
    Ok(out)
}

/// Like [`canonical_codes`], but writes into a caller-provided vector so
/// steady-state decoders can rebuild per-block codes without allocating.
///
/// `out` is cleared and refilled; its capacity is reused across calls.
///
/// # Errors
///
/// As [`canonical_codes`].
pub fn canonical_codes_into(lengths: &[u8], out: &mut Vec<Code>) -> Result<()> {
    let mut next = first_codes(lengths)?;
    out.clear();
    out.resize(lengths.len(), Code::default());
    for (code, &len) in out.iter_mut().zip(lengths) {
        if len > 0 {
            *code = next_code(&mut next, len);
        }
    }
    Ok(())
}

/// The first canonical code of each length (`[len]`, RFC 1951 §3.2.2): all
/// a canonical assignment needs besides the lengths -- walk the symbols in
/// order, hand each the next code of its length. Computing it validates.
///
/// # Errors
///
/// [`Error::InvalidCodeLengths`] if a length exceeds [`MAX_CODE_LEN`] or the
/// lengths over-subscribe the code space (Kraft sum > 1).
pub fn first_codes(lengths: &[u8]) -> Result<FirstCodes> {
    if lengths.iter().fold(0, |seen, &l| seen | l) > MAX_CODE_LEN {
        return Err(Error::InvalidCodeLengths);
    }
    // Unused symbols come in long runs, each a chain of dependent
    // increments: count the used ones only.
    let mut count = build::LengthCounts::default();
    for &l in lengths {
        if l > 0 {
            count[usize::from(l & MAX_CODE_LEN)] += 1;
        }
    }
    // Kraft inequality in units of 2^-15: oversubscription is a hard error.
    let mut space = 1u32 << MAX_CODE_LEN;
    for (len, &n) in count.iter().enumerate().skip(1) {
        space = space
            .checked_sub(u32::from(n) << (usize::from(MAX_CODE_LEN) - len))
            .ok_or(Error::InvalidCodeLengths)?;
    }
    Ok(first_codes_of(&count))
}

/// [`first_codes`] from how many codes there are of each length, which the
/// length builder counts as it goes: lengths it built need no validating.
pub(crate) fn first_codes_of(count: &build::LengthCounts) -> FirstCodes {
    let mut first = FirstCodes::default();
    let mut code = 0u32;
    for len in 1..=usize::from(MAX_CODE_LEN) {
        code = (code + u32::from(count[len - 1])) << 1;
        first[len] = code as u16;
    }
    first
}

/// Hands out the next stream-reversed code of length `len > 0`.
#[inline]
pub(crate) fn next_code(next: &mut FirstCodes, len: u8) -> Code {
    let canon = next[usize::from(len)];
    next[usize::from(len)] += 1;
    Code {
        bits: reverse_bits(canon, len),
        len,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reverse_bits_basics() {
        assert_eq!(reverse_bits(0b1, 1), 0b1);
        assert_eq!(reverse_bits(0b10, 2), 0b01);
        assert_eq!(reverse_bits(0b110, 3), 0b011);
        assert_eq!(reverse_bits(0, 0), 0);
        assert_eq!(reverse_bits(0b101_0101_0101_0101, 15), 0b101_0101_0101_0101);
    }

    #[test]
    fn rfc1951_worked_example() {
        // RFC 1951 §3.2.2 example: alphabet ABCDEFGH with lengths
        // (3,3,3,3,3,2,4,4) yields codes 010..111, 00, 1110, 1111.
        let lengths = [3u8, 3, 3, 3, 3, 2, 4, 4];
        let codes = canonical_codes(&lengths).unwrap();
        let canon: Vec<u16> = codes.iter().map(|c| reverse_bits(c.bits, c.len)).collect();
        assert_eq!(
            canon,
            vec![0b010, 0b011, 0b100, 0b101, 0b110, 0b00, 0b1110, 0b1111]
        );
    }

    #[test]
    fn oversubscribed_rejected() {
        // Three 1-bit codes cannot exist.
        assert_eq!(canonical_codes(&[1, 1, 1]), Err(Error::InvalidCodeLengths));
    }

    #[test]
    fn incomplete_accepted() {
        // A single 1-bit code leaves half the space unused (legal for the
        // degenerate distance alphabet).
        let codes = canonical_codes(&[1, 0]).unwrap();
        assert_eq!(codes[0], Code { bits: 0, len: 1 });
        assert_eq!(codes[1], Code::default());
    }

    #[test]
    fn all_zero_lengths_yield_empty_code() {
        let codes = canonical_codes(&[0, 0, 0]).unwrap();
        assert!(codes.iter().all(|c| c.len == 0));
    }

    #[test]
    fn prefix_property_holds() {
        let lengths = [4u8, 4, 4, 4, 4, 4, 4, 4, 5, 5, 5, 5, 3, 2];
        let codes = canonical_codes(&lengths).unwrap();
        // No canonical code may be a prefix of another.
        for (i, a) in codes.iter().enumerate() {
            for (j, b) in codes.iter().enumerate() {
                if i == j || a.len == 0 || b.len == 0 || a.len > b.len {
                    continue;
                }
                let ca = reverse_bits(a.bits, a.len);
                let cb = reverse_bits(b.bits, b.len);
                assert!(
                    ca != cb >> (b.len - a.len),
                    "code {i} is a prefix of code {j}"
                );
            }
        }
    }

    #[test]
    fn length_over_15_rejected() {
        let mut lengths = vec![0u8; 4];
        lengths[0] = 16;
        assert_eq!(canonical_codes(&lengths), Err(Error::InvalidCodeLengths));
    }
}
