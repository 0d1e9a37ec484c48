//! Adler-32 (RFC 1950 §8) implemented from scratch.
//!
//! The zlib container carries this checksum in its trailer; the accelerator
//! computes it inline when producing zlib-framed output.

/// Largest prime smaller than 65536, the Adler-32 modulus.
const MOD: u32 = 65_521;

/// Maximum bytes that can be summed before `b` can overflow a `u32`;
/// the standard zlib bound.
const NMAX: usize = 5552;

/// Byte lanes [`Adler32::update`] sums side by side.
const LANES: usize = 16;

/// Incremental Adler-32 state.
///
/// ```
/// use nx_deflate::adler32::Adler32;
///
/// let mut a = Adler32::new();
/// a.update(b"Wikipedia");
/// assert_eq!(a.finish(), 0x11E6_0398);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Adler32 {
    a: u32,
    b: u32,
}

impl Default for Adler32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Adler32 {
    /// Starts a fresh checksum (value 1).
    pub fn new() -> Self {
        Self { a: 1, b: 0 }
    }

    /// Resumes from a previously [`finish`](Self::finish)ed value.
    pub fn from_checksum(sum: u32) -> Self {
        Self {
            a: sum & 0xFFFF,
            b: sum >> 16,
        }
    }

    /// Folds `data` into the checksum, `LANES` interleaved byte lanes at a
    /// time so the inner loop vectorizes: lane `j` keeps `s[j]`, the sum of
    /// its bytes, and `t[j]`, the running sum of `s[j]`, which weighs the
    /// lane's `k`-th of `m` bytes `m - k`. Byte `LANES·k + j` of `n` belongs
    /// in `b` `n - (LANES·k + j)` times, hence the fold
    /// `b += n·a + Σ (LANES·t[j] - j·s[j])`, once per chunk of at most
    /// `NMAX` bytes (which keeps every `t[j]` far inside a `u32`).
    pub fn update(&mut self, data: &[u8]) {
        let (mut a, mut b) = (u64::from(self.a), u64::from(self.b));
        for chunk in data.chunks(NMAX) {
            let (mut s, mut t) = ([0u32; LANES], [0u32; LANES]);
            let groups = chunk.chunks_exact(LANES);
            let tail = groups.remainder();
            b += (chunk.len() - tail.len()) as u64 * a;
            for group in groups {
                for j in 0..LANES {
                    s[j] += u32::from(group[j]);
                    t[j] += s[j];
                }
            }
            for j in 0..LANES {
                a += u64::from(s[j]);
                b += LANES as u64 * u64::from(t[j]) - j as u64 * u64::from(s[j]);
            }
            for &byte in tail {
                a += u64::from(byte);
                b += a;
            }
            a %= u64::from(MOD);
            b %= u64::from(MOD);
        }
        self.a = a as u32;
        self.b = b as u32;
    }

    /// Returns the current checksum `(b << 16) | a`.
    pub fn finish(&self) -> u32 {
        (self.b << 16) | self.a
    }
}

/// One-shot Adler-32 of `data`.
pub fn adler32(data: &[u8]) -> u32 {
    let mut a = Adler32::new();
    a.update(data);
    a.finish()
}

/// Combines the Adler-32 of two concatenated byte ranges:
/// `combine(adler32(A), adler32(B), B.len()) == adler32(A ++ B)`.
///
/// The counterpart of [`crate::crc32::crc32_combine`] for zlib framing:
/// parallel workers checksum their own shards and the results fold into
/// one trailer. Unlike CRC-32 no matrix algebra is needed — both running
/// sums are linear in the inputs modulo 65521:
///
/// * `a(A‖B) = a(A) + a(B) − 1` (each `a` carries the leading `1`), and
/// * `b(A‖B) = b(A) + b(B) + len(B)·(a(A) − 1)`, because every byte of
///   `B` sees the extra `a(A) − 1` offset accumulated into `b`.
pub fn adler32_combine(adler_a: u32, adler_b: u32, len_b: u64) -> u32 {
    let rem = (len_b % u64::from(MOD)) as u32;
    let a1 = adler_a & 0xFFFF;
    let b1 = adler_a >> 16;
    let a2 = adler_b & 0xFFFF;
    let b2 = adler_b >> 16;
    // Work in u32 with additive MOD offsets so intermediates stay
    // non-negative (mirrors zlib's adler32_combine arithmetic).
    let mut sum1 = a1 + a2 + MOD - 1;
    let mut sum2 = (rem * a1) % MOD + b1 + b2 + MOD - rem;
    if sum1 >= MOD {
        sum1 -= MOD;
    }
    if sum1 >= MOD {
        sum1 -= MOD;
    }
    if sum2 >= 2 * MOD {
        sum2 -= 2 * MOD;
    }
    if sum2 >= MOD {
        sum2 -= MOD;
    }
    (sum2 << 16) | sum1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wikipedia_vector() {
        assert_eq!(adler32(b"Wikipedia"), 0x11E6_0398);
    }

    #[test]
    fn empty_is_one() {
        assert_eq!(adler32(b""), 1);
    }

    /// Byte-at-a-time Adler-32, reduced at every step.
    fn reference(data: &[u8]) -> u32 {
        let (a, b) = data.iter().fold((1u32, 0u32), |(a, b), &x| {
            let a = (a + u32::from(x)) % MOD;
            (a, (b + a) % MOD)
        });
        (b << 16) | a
    }

    #[test]
    fn lanes_equal_the_bytewise_sum_at_every_length() {
        let data: Vec<u8> = (0..3 * NMAX + 41)
            .map(|i| (i * 31 % 251) as u8 ^ (i >> 7) as u8)
            .collect();
        let near_chunk_ends = (1..=3).flat_map(|k| k * NMAX - 40..=k * NMAX + 40);
        for len in (0..=300).chain(near_chunk_ends) {
            assert_eq!(adler32(&data[..len]), reference(&data[..len]), "len {len}");
        }
        // The largest lane sums a chunk can hold.
        let ones = vec![0xFFu8; 3 * NMAX];
        assert_eq!(adler32(&ones), reference(&ones));
    }

    #[test]
    fn long_input_does_not_overflow() {
        let data = vec![0xFFu8; 1 << 20];
        // Reference computed with the naive per-byte modulo algorithm.
        let mut a: u64 = 1;
        let mut b: u64 = 0;
        for &byte in &data {
            a = (a + u64::from(byte)) % u64::from(MOD);
            b = (b + a) % u64::from(MOD);
        }
        assert_eq!(adler32(&data), ((b as u32) << 16) | a as u32);
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data: Vec<u8> = (0..255u8).cycle().take(20_000).collect();
        let mut inc = Adler32::new();
        inc.update(&data[..7000]);
        inc.update(&data[7000..7001]);
        inc.update(&data[7001..]);
        assert_eq!(inc.finish(), adler32(&data));
    }

    #[test]
    fn combine_matches_concatenation() {
        let x: Vec<u8> = (0..10_000u32).map(|i| (i * 7 % 251) as u8).collect();
        let y: Vec<u8> = (0..4_321u32).map(|i| (i * 13 % 241) as u8).collect();
        let whole = adler32(&[x.clone(), y.clone()].concat());
        assert_eq!(
            adler32_combine(adler32(&x), adler32(&y), y.len() as u64),
            whole
        );
    }

    #[test]
    fn combine_with_empty_sides() {
        let x = b"left side only";
        assert_eq!(adler32_combine(adler32(x), adler32(b""), 0), adler32(x));
        assert_eq!(
            adler32_combine(adler32(b""), adler32(x), x.len() as u64),
            adler32(x)
        );
    }

    #[test]
    fn combine_len_larger_than_modulus() {
        // len(B) > 65521 exercises the `rem` reduction.
        let x = vec![0xABu8; 3];
        let y = vec![0x5Au8; 70_000];
        let whole = adler32(&[x.clone(), y.clone()].concat());
        assert_eq!(
            adler32_combine(adler32(&x), adler32(&y), y.len() as u64),
            whole
        );
    }

    #[test]
    fn combine_is_associative_over_three_parts() {
        let parts: [&[u8]; 3] = [b"alpha-alpha", b"beta", b"gamma-gamma-gamma"];
        let whole = adler32(&parts.concat());
        let ab = adler32_combine(adler32(parts[0]), adler32(parts[1]), parts[1].len() as u64);
        let left = adler32_combine(ab, adler32(parts[2]), parts[2].len() as u64);
        let bc = adler32_combine(adler32(parts[1]), adler32(parts[2]), parts[2].len() as u64);
        let right = adler32_combine(
            adler32(parts[0]),
            bc,
            (parts[1].len() + parts[2].len()) as u64,
        );
        assert_eq!(left, whole);
        assert_eq!(right, whole);
    }

    #[test]
    fn resume_from_checksum() {
        let data = b"checkpoint and continue";
        let mut a1 = Adler32::new();
        a1.update(&data[..5]);
        let mut a2 = Adler32::from_checksum(a1.finish());
        a2.update(&data[5..]);
        assert_eq!(a2.finish(), adler32(data));
    }
}
