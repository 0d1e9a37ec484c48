//! Match extension shared by every LZ77 match finder.

use crate::MAX_MATCH;

/// Eight little-endian bytes at `data[pos..]` as a `u64`.
#[inline]
fn read8(data: &[u8], pos: usize) -> u64 {
    let mut w = [0u8; 8];
    w.copy_from_slice(&data[pos..pos + 8]);
    u64::from_le_bytes(w)
}

/// Returns the length of the common prefix of `data[a..]` and `data[b..]`,
/// capped at [`MAX_MATCH`] and at the end of input.
///
/// The u64-chunked compare + `trailing_zeros` extension is shared by the
/// sequential ([`super::hash4`]) and batched ([`super::batch`]) match
/// finders and by the accelerator's match-engine model.
#[inline]
pub fn match_length(data: &[u8], a: usize, b: usize) -> usize {
    debug_assert!(a < b);
    let max = MAX_MATCH.min(data.len() - b);
    let mut n = 0;
    // Compare 8 bytes at a time; the XOR's trailing zero count locates
    // the first differing byte without a per-byte loop.
    while n + 8 <= max {
        let diff = read8(data, a + n) ^ read8(data, b + n);
        if diff != 0 {
            return n + (diff.trailing_zeros() / 8) as usize;
        }
        n += 8;
    }
    while n < max && data[a + n] == data[b + n] {
        n += 1;
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn match_length_basic() {
        let data = b"abcdefgh--abcdefgh";
        assert_eq!(match_length(data, 0, 10), 8);
        let data2 = b"aaaa";
        assert_eq!(match_length(data2, 0, 1), 3);
    }

    #[test]
    fn match_length_capped_at_max_match() {
        let data = vec![7u8; 1000];
        assert_eq!(match_length(&data, 0, 100), MAX_MATCH);
    }

    #[test]
    fn match_length_capped_at_input_end() {
        let data = b"abcabc";
        assert_eq!(match_length(data, 0, 3), 3);
    }

    #[test]
    fn match_length_long_divergence() {
        let mut data = vec![5u8; 600];
        data[300 + 123] = 9; // diverge after 123 bytes
        assert_eq!(match_length(&data, 0, 300), 123);
    }
}
