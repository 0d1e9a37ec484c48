//! CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`), from scratch:
//! the checksum of the gzip trailer, which both the POWER9 NX unit and the
//! z15 zEDC accelerator compute inline with the data movement.
//!
//! [`Crc32::update`] picks between two kernels by what it can observe, the
//! CPU and `data.len()` ([`kernel`] names the choice):
//!
//! * `pclmulqdq` folding, on x86-64 with `pclmulqdq` + `sse4.1` from 64
//!   bytes up: four 128-bit accumulators carried 64 bytes forward per step
//!   by carry-less multiplies with `x^(512±32) mod P`, folded into one that
//!   takes the last 16-byte blocks with `x^(128±32) mod P`, then 128 → 64 →
//!   32 bits by a last fold and a Barrett reduction (Gopal et al., "Fast CRC
//!   Computation for Generic Polynomials Using PCLMULQDQ"; zlib-ng,
//!   libdeflate and `crc32fast` ship it). It runs on the incremental state;
//!   its constants are computed here (`fold_key`) and pinned by the tests.
//! * slice-by-8 tables for the rest: under 16 bytes behind a fold, inputs
//!   under 64 (FHCRC headers, tiny chunks), any other CPU or target. The
//!   tests hold the folding kernel to it at every length and offset.

/// The reflected polynomial: bit 31 is `x^0`.
const POLY: u32 = 0xEDB8_8320;

/// Tables for slice-by-8: `TABLES[k][b]` is the CRC of byte `b` advanced by
/// `k` further zero bytes, that is `b(x) * x^(8(k+1)) mod P`.
static TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut k = 0;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            t[k][b] = multmodp(b as u32, x2nmodp(k as u64 + 1, 3));
            b += 1;
        }
        k += 1;
    }
    t
};

/// Incremental CRC-32 state.
///
/// ```
/// use nx_deflate::crc32::Crc32;
///
/// let mut crc = Crc32::new();
/// crc.update(b"123456789");
/// assert_eq!(crc.finish(), 0xCBF4_3926); // the classic check value
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Starts a fresh checksum (state `0xFFFFFFFF`).
    pub fn new() -> Self {
        Self { state: 0xFFFF_FFFF }
    }

    /// Resumes from a previously [`finish`](Self::finish)ed value.
    pub fn from_checksum(crc: u32) -> Self {
        Self { state: !crc }
    }

    /// Folds `data` into the checksum.
    pub fn update(&mut self, data: &[u8]) {
        #[cfg(target_arch = "x86_64")]
        if data.len() >= 64 && has_clmul() {
            // SAFETY: `has_clmul` just saw both features `fold` is built for.
            self.state = unsafe { fold(self.state, data) };
            return;
        }
        self.state = slice8(self.state, data);
    }

    /// Returns the finalized (bit-inverted) checksum. The state remains
    /// usable for further updates.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

/// One-shot CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(data);
    c.finish()
}

/// The kernel [`Crc32::update`] runs inputs of 64 bytes and up through on
/// this CPU: `"pclmulqdq"` or `"slice8"`.
pub fn kernel() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if has_clmul() {
        return "pclmulqdq";
    }
    "slice8"
}

/// The portable kernel: `state` advanced over `data`, eight bytes a step.
pub(crate) fn slice8(mut crc: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    crc
}

/// Whether this CPU has what `fold` is built for (std caches the probe).
#[cfg(target_arch = "x86_64")]
fn has_clmul() -> bool {
    is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
}

/// `x^n mod P` as a `pclmulqdq` operand: the product of two reflected
/// 64-bit values comes out one bit low, which the `<< 1` makes up for.
#[cfg(target_arch = "x86_64")]
const fn fold_key(n: u64) -> i64 {
    (x2nmodp(n, 0) as i64) << 1
}

/// The folding kernel: `state` advanced over `data` ([`slice8`] below one
/// 64-byte step of the four accumulators, and for the last `len % 16`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "pclmulqdq,sse4.1")]
fn fold(state: u32, data: &[u8]) -> u32 {
    use std::arch::x86_64::*;
    let load = |b: &[u8; 16]| {
        let v = u128::from_le_bytes(*b);
        _mm_set_epi64x((v >> 64) as i64, v as i64)
    };
    // `acc` carried forward onto `next`, T bits on: its qwords times
    // `keys` = x^(T+32), x^(T-32) mod P sum to acc * x^T (mod P).
    let step = |acc: __m128i, next: __m128i, keys: __m128i| {
        let lo = _mm_clmulepi64_si128(acc, keys, 0x00);
        let hi = _mm_clmulepi64_si128(acc, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi)
    };
    let (blocks, tail) = data.as_chunks::<16>();
    let (quads, singles) = blocks.as_chunks::<4>();
    let Some((first, quads)) = quads.split_first() else {
        return slice8(state, data);
    };
    let mut x = first.map(|b| load(&b));
    x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(state as i32));
    let by512 = _mm_set_epi64x(const { fold_key(512 - 32) }, const { fold_key(512 + 32) });
    for q in quads {
        for (x, b) in x.iter_mut().zip(q) {
            *x = step(*x, load(b), by512);
        }
    }
    let by128 = _mm_set_epi64x(const { fold_key(128 - 32) }, const { fold_key(128 + 32) });
    let rest = x[1..].iter().copied().chain(singles.iter().map(load));
    let x = rest.fold(x[0], |acc, next| step(acc, next, by128));
    // 128 -> 96 -> 64 bits: the low qword forward by 64, then the low dword.
    let by64 = _mm_set_epi64x(0, const { fold_key(64) });
    let low32 = _mm_set_epi32(0, 0, 0, !0);
    let x = _mm_xor_si128(_mm_clmulepi64_si128(x, by128, 0x10), _mm_srli_si128(x, 8));
    let lo = _mm_clmulepi64_si128(_mm_and_si128(x, low32), by64, 0x00);
    let x = _mm_xor_si128(lo, _mm_srli_si128(x, 4));
    // Barrett, 64 -> 32: quotient by mu = floor(x^64 / P), times P, subtract.
    let p_mu = _mm_set_epi64x(0x1_F701_1641, ((POLY as i64) << 1) | 1);
    let q = _mm_clmulepi64_si128(_mm_and_si128(x, low32), p_mu, 0x10);
    let qp = _mm_clmulepi64_si128(_mm_and_si128(q, low32), p_mu, 0x00);
    slice8(_mm_extract_epi32(_mm_xor_si128(x, qp), 1) as u32, tail)
}

/// `a(x) * b(x) mod P` over GF(2) on reflected operands.
const fn multmodp(a: u32, mut b: u32) -> u32 {
    let (mut m, mut p) = (1u32 << 31, 0u32);
    while m != 0 {
        if a & m != 0 {
            p ^= b;
        }
        m >>= 1;
        b = (b >> 1) ^ (POLY & (b & 1).wrapping_neg());
    }
    p
}

/// `X2N[k]` = `x^(2^k) mod P`; `P` is primitive, so it wraps: `x^(2^32) = x`.
const X2N: [u32; 32] = {
    let mut t = [1 << 30; 32];
    let mut k = 1;
    while k < 32 {
        t[k] = multmodp(t[k - 1], t[k - 1]);
        k += 1;
    }
    t
};

/// `x^(n * 2^k) mod P`: one multiply per set bit of `n`.
const fn x2nmodp(mut n: u64, mut k: usize) -> u32 {
    let mut p = 1 << 31;
    while n != 0 {
        if n & 1 != 0 {
            p = multmodp(X2N[k & 31], p);
        }
        n >>= 1;
        k += 1;
    }
    p
}

/// Combines the CRC-32 of two concatenated byte ranges:
/// `combine(crc32(A), crc32(B), B.len()) == crc32(A ++ B)`.
///
/// Appending `n` zero bytes multiplies a CRC by `x^(8n) mod P`: one 32-step
/// polynomial multiply per set bit of `n` (zlib 1.2.12's form). It is what
/// lets independent workers (threads, or multiple accelerator units) compress
/// one stream's chunks in parallel and still produce one valid gzip trailer.
pub fn crc32_combine(crc_a: u32, crc_b: u32, len_b: u64) -> u32 {
    multmodp(x2nmodp(len_b, 3), crc_a) ^ crc_b
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn empty_is_zero() {
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn known_vectors() {
        // Values cross-checked against the reference bitwise implementation
        // below, plus two published vectors.
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(b"abc"), 0x3524_41C2);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// Straightforward bitwise reference used to validate both kernels:
    /// `state` advanced over `data`.
    fn reference_from(mut crc: u32, data: &[u8]) -> u32 {
        for &b in data {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
            }
        }
        crc
    }

    fn reference(data: &[u8]) -> u32 {
        !reference_from(0xFFFF_FFFF, data)
    }

    /// Seeded noise (xorshift64*), so no kernel sees a pattern.
    fn noise(seed: u64, len: usize) -> Vec<u8> {
        let mut x = seed | 1;
        let mut next = || {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8
        };
        (0..len).map(|_| next()).collect()
    }

    /// What the dispatch must pick on this host, worked out without it.
    fn host_has_clmul() -> bool {
        #[cfg(target_arch = "x86_64")]
        return is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1");
        #[cfg(not(target_arch = "x86_64"))]
        false
    }

    /// The folding kernel on `data`, where this host can run it.
    fn folded(state: u32, data: &[u8]) -> Option<u32> {
        #[cfg(target_arch = "x86_64")]
        if host_has_clmul() {
            // SAFETY: both features `fold` is built for were just detected.
            return Some(unsafe { fold(state, data) });
        }
        let _ = (state, data);
        None
    }

    #[test]
    fn kernel_names_the_route_the_host_supports() {
        let want = if host_has_clmul() {
            "pclmulqdq"
        } else {
            "slice8"
        };
        assert_eq!(kernel(), want);
    }

    #[test]
    fn folding_kernel_equals_slice8_equals_bitwise_at_every_length_and_offset() {
        // Lengths 0..=1100 at 16 start offsets: unaligned heads, every tail
        // length, the short path, exactly 64, 64 + 16k, and the 4-way loop
        // with 0-3 blocks left over -- from three incremental states.
        let buf = noise(0x00C0_FFEE, 1100 + 16);
        let mut folds = 0usize;
        for state in [0xFFFF_FFFF, 0, !0x1234_5678u32] {
            for off in 0..16 {
                for len in 0..=1100 {
                    let data = &buf[off..off + len];
                    let want = reference_from(state, data);
                    let at = format!("state={state:#x} off={off} len={len}");
                    assert_eq!(slice8(state, data), want, "slice8 {at}");
                    if let Some(got) = folded(state, data) {
                        assert_eq!(got, want, "fold {at}");
                        folds += 1;
                    }
                    let mut c = Crc32::from_checksum(!state);
                    c.update(data);
                    assert_eq!(c.finish(), !want, "update {at}");
                }
            }
        }
        // Both kernels were diffed on this host exactly when it has one.
        assert_eq!(folds > 0, kernel() == "pclmulqdq");
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn fold_keys_are_the_published_constants() {
        // Gopal et al. table 2 / Linux `crc32-pclmul_asm.S`, reflected
        // CRC-32: x^(n) mod P, bit-reversed, one bit up.
        assert_eq!(fold_key(512 + 32), 0x1_5444_2BD4);
        assert_eq!(fold_key(512 - 32), 0x1_C6E4_1596);
        assert_eq!(fold_key(128 + 32), 0x1_7519_97D0);
        assert_eq!(fold_key(128 - 32), 0x0_CCAA_009E);
        assert_eq!(fold_key(64), 0x1_63CD_6124);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        #[test]
        fn any_split_into_updates_equals_oneshot(
            seed in proptest::prelude::any::<u64>(),
            len in 0usize..=256 << 10,
            cuts in proptest::collection::vec(0usize..=256 << 10, 0..12),
        ) {
            let data = noise(seed, len);
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c % (len + 1)).collect();
            cuts.sort_unstable();
            let (mut c, mut done) = (Crc32::new(), 0);
            for cut in cuts.into_iter().chain([len]) {
                c.update(&data[done..cut]);
                done = cut;
            }
            proptest::prop_assert_eq!(c.finish(), crc32(&data));
            proptest::prop_assert_eq!(c.finish(), !slice8(0xFFFF_FFFF, &data));
        }
    }

    #[test]
    fn combine_huge_lengths_obey_the_zero_padding_identity() {
        // `combine(a, crc(0^n), n) == crc(A ++ 0^n)` is checkable directly
        // only for small n; x generates GF(2^32)*, so padding by 2^32 - 1
        // zero bytes is the identity and n may be reduced modulo it.
        let a = crc32(b"head");
        for len_b in [0u64, 1, (1 << 32) - 1, 1 << 32, 1 << 40, u64::MAX] {
            let zeros = vec![0u8; (len_b % ((1 << 32) - 1)) as usize];
            let mut direct = Crc32::from_checksum(a);
            direct.update(&zeros);
            let combined = crc32_combine(a, crc32(&zeros), len_b);
            assert_eq!(combined, direct.finish(), "len_b={len_b}");
        }
    }

    #[test]
    fn matches_bitwise_reference_on_all_lengths() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1025).collect();
        for len in [0, 1, 2, 7, 8, 9, 15, 16, 63, 64, 65, 1000, 1025] {
            assert_eq!(crc32(&data[..len]), reference(&data[..len]), "len={len}");
        }
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data: Vec<u8> = (0..200u8).collect();
        let mut c = Crc32::new();
        c.update(&data[..13]);
        c.update(&data[13..99]);
        c.update(&data[99..]);
        assert_eq!(c.finish(), crc32(&data));
    }

    #[test]
    fn resume_from_checksum() {
        let data = b"split across two sessions";
        let mut c1 = Crc32::new();
        c1.update(&data[..10]);
        let mid = c1.finish();
        let mut c2 = Crc32::from_checksum(mid);
        c2.update(&data[10..]);
        assert_eq!(c2.finish(), crc32(data));
    }

    #[test]
    fn combine_matches_direct_computation() {
        let data: Vec<u8> = (0..10_000u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 11) as u8)
            .collect();
        for split in [0usize, 1, 7, 100, 4096, 9_999, 10_000] {
            let (a, b) = data.split_at(split);
            let combined = crc32_combine(crc32(a), crc32(b), b.len() as u64);
            assert_eq!(combined, crc32(&data), "split at {split}");
        }
    }

    #[test]
    fn combine_is_associative_over_three_parts() {
        let a = b"first part ".as_slice();
        let b = b"second, longer middle part ".as_slice();
        let c = b"tail".as_slice();
        let whole = [a, b, c].concat();
        // ((A+B)+C)
        let ab = crc32_combine(crc32(a), crc32(b), b.len() as u64);
        let abc = crc32_combine(ab, crc32(c), c.len() as u64);
        assert_eq!(abc, crc32(&whole));
        // (A+(B+C))
        let bc = crc32_combine(crc32(b), crc32(c), c.len() as u64);
        let abc2 = crc32_combine(crc32(a), bc, (b.len() + c.len()) as u64);
        assert_eq!(abc2, crc32(&whole));
    }

    #[test]
    fn combine_with_empty_parts() {
        let d = b"nonempty";
        assert_eq!(crc32_combine(crc32(d), crc32(b""), 0), crc32(d));
        assert_eq!(
            crc32_combine(crc32(b""), crc32(d), d.len() as u64),
            crc32(d)
        );
    }

    #[test]
    fn combine_large_lengths() {
        // Exercise many doubling steps: 1 GiB of virtual zero padding.
        let a = crc32(b"head");
        let zeros = vec![0u8; 1 << 16];
        // crc of A ++ 2^16 zeros, computed directly...
        let mut c = Crc32::from_checksum(a);
        c.update(&zeros);
        let direct = c.finish();
        // ...and via combine with crc32(zeros).
        let combined = crc32_combine(a, crc32(&zeros), zeros.len() as u64);
        assert_eq!(combined, direct);
    }
}
