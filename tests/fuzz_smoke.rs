//! Deterministic fuzz smoke: ≥10 000 mutated streams per framing
//! through the inflate oracle.
//!
//! The shimmed proptest runner derives its RNG from the test name, so
//! this is a repeatable mutational fuzzer, not a flaky one: every CI run
//! sweeps the identical corpus. Each case seeds a splitmix64 mutator,
//! picks a cached valid base stream, applies a random stack of edits,
//! and pushes the result through `inflate_with_limit` and the container
//! parser. The only acceptable outcomes are a typed error or in-limit
//! output.
//!
//! Failures found by earlier sweeps are pinned at the bottom as plain
//! `#[test]` regression cases (the shim does not shrink, so keep these
//! minimal by hand).

use nx_core::{software, Format};
use nx_deflate::CompressionLevel;
use proptest::prelude::*;
use std::sync::OnceLock;

const LIMIT: usize = 256 << 10;

/// splitmix64 — one per case, seeded by the proptest draw.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = mix(self.0);
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// Cached valid base streams (≤ 2 KiB payloads, levels 0/6/9) for one
/// framing — built once, mutated ten thousand times.
fn bases(format: Format) -> &'static [Vec<u8>] {
    static RAW: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    static GZ: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    static ZL: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    let cell = match format {
        Format::RawDeflate => &RAW,
        Format::Gzip => &GZ,
        Format::Zlib => &ZL,
    };
    cell.get_or_init(|| {
        let mut out = Vec::new();
        for (i, size) in [0usize, 1, 64, 512, 2048].iter().enumerate() {
            let data = nx_corpus::mixed(0xF022 + i as u64, *size);
            for level in [0u32, 6, 9] {
                let lvl = CompressionLevel::new(level).expect("valid level");
                out.push(software::compress(&data, lvl, format));
            }
        }
        out
    })
}

/// Applies 1–4 random edits drawn from `rng` to a copy of `base`.
fn mutate(base: &[u8], rng: &mut Rng) -> Vec<u8> {
    let mut m = base.to_vec();
    for _ in 0..rng.below(4) + 1 {
        match rng.below(7) {
            0 => m.truncate(rng.below(m.len() + 1)),
            1 if !m.is_empty() => {
                let i = rng.below(m.len());
                m[i] ^= 1 << rng.below(8);
            }
            2 if !m.is_empty() => {
                let i = rng.below(m.len());
                m[i] = rng.next() as u8;
            }
            3 => {
                let at = rng.below(m.len() + 1);
                m.insert(at, rng.next() as u8);
            }
            4 if !m.is_empty() => {
                m.remove(rng.below(m.len()));
            }
            5 if !m.is_empty() => {
                // Zero a short window (kills Huffman code words).
                let start = rng.below(m.len());
                let end = (start + rng.below(9) + 1).min(m.len());
                for b in &mut m[start..end] {
                    *b = 0;
                }
            }
            _ if !m.is_empty() => {
                // Swap two bytes across the buffer.
                let a = rng.below(m.len());
                let b = rng.below(m.len());
                m.swap(a, b);
            }
            _ => {}
        }
    }
    m
}

/// One fuzz case: mutate, decode, assert only typed outcomes.
fn case(format: Format, seed: u64) -> Result<(), TestCaseError> {
    let mut rng = Rng(seed);
    let pool = bases(format);
    let base = &pool[rng.below(pool.len())];
    let m = mutate(base, &mut rng);
    // The one-shot call decodes on this thread's long-lived scratch, whose
    // table memo the earlier cases filled; a fresh scratch is the oracle.
    let warm = nx_deflate::inflate_with_limit(&m, LIMIT);
    let mut fresh = nx_deflate::Inflater::new(&m);
    let fresh = fresh.run(LIMIT).map(|()| fresh.into_output());
    prop_assert_eq!(&warm, &fresh, "long-lived and fresh scratch disagree");
    if let Ok(out) = warm {
        prop_assert!(out.len() <= LIMIT, "inflate exceeded its output limit");
    }
    // The container parser has no explicit cap; boundedness comes from
    // DEFLATE's ≤1032:1 expansion over a ≤4 KiB input. Returning at all
    // (vs panicking/looping) is the property under test.
    let _ = software::decompress(&m, format);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10_000))]

    #[test]
    fn fuzz_raw_deflate_streams(seed in any::<u64>()) {
        case(Format::RawDeflate, seed)?;
    }

    #[test]
    fn fuzz_gzip_streams(seed in any::<u64>()) {
        case(Format::Gzip, seed)?;
    }

    #[test]
    fn fuzz_zlib_streams(seed in any::<u64>()) {
        case(Format::Zlib, seed)?;
    }
}

// ---------------------------------------------------------------------
// Pinned regression cases: minimal inputs for decoder edges the sweeps
// exercise. Each must return a typed error (or bounded Ok), not panic.
// ---------------------------------------------------------------------

#[test]
fn regression_empty_and_tiny_inputs() {
    for format in [Format::RawDeflate, Format::Gzip, Format::Zlib] {
        assert!(software::decompress(&[], format).is_err());
        for b in 0..=255u8 {
            let _ = software::decompress(&[b], format);
        }
    }
}

#[test]
fn regression_gzip_header_fragments() {
    // Magic alone, magic + method, and a header that promises FEXTRA /
    // FNAME fields the buffer does not contain.
    for frag in [
        &[0x1F, 0x8B][..],
        &[0x1F, 0x8B, 0x08][..],
        &[0x1F, 0x8B, 0x08, 0x04, 0, 0, 0, 0, 0, 0xFF][..], // FEXTRA, no extra
        &[0x1F, 0x8B, 0x08, 0x08, 0, 0, 0, 0, 0, 0xFF, b'x'][..], // FNAME, unterminated
    ] {
        assert!(
            software::decompress(frag, Format::Gzip).is_err(),
            "fragment {frag:02X?} must be rejected"
        );
    }
}

#[test]
fn regression_zlib_header_fragments() {
    // One byte short of a header; bad check bits; FDICT with no dictid.
    for frag in [&[0x78][..], &[0x78, 0x00][..], &[0x78, 0xBD][..]] {
        assert!(
            software::decompress(frag, Format::Zlib).is_err(),
            "fragment {frag:02X?} must be rejected"
        );
    }
}

#[test]
fn regression_stored_block_len_nlen_mismatch() {
    // BFINAL=1, BTYPE=00, LEN=4 but NLEN is not !LEN.
    let bad = [0x01, 0x04, 0x00, 0x00, 0x00, b'a', b'b', b'c', b'd'];
    assert!(nx_deflate::inflate_with_limit(&bad, LIMIT).is_err());
}

#[test]
fn regression_stored_block_promises_more_than_it_carries() {
    // LEN=65535 with a 4-byte body: the reader must hit EOF, not scan
    // past the buffer.
    let bad = [0x01, 0xFF, 0xFF, 0x00, 0x00, 1, 2, 3, 4];
    assert!(nx_deflate::inflate_with_limit(&bad, LIMIT).is_err());
}

#[test]
fn regression_reserved_block_type() {
    // BTYPE=11 is reserved by RFC 1951.
    assert!(nx_deflate::inflate_with_limit(&[0x07], LIMIT).is_err());
    assert!(nx_deflate::inflate_with_limit(&[0x07, 0xFF, 0x12], LIMIT).is_err());
}

#[test]
fn regression_fixed_block_with_no_end_of_block() {
    // A fixed-Huffman block that runs out of bits before symbol 256.
    assert!(nx_deflate::inflate_with_limit(&[0x03], LIMIT).is_err());
}

#[test]
fn regression_distance_before_any_output() {
    // Fixed block: length symbol then a distance pointing at history
    // that does not exist yet.
    // 0b011 (BFINAL=1, fixed) then symbol 257 + minimal distance bits.
    let bad = [0x63, 0x00, 0x02, 0x00];
    let _ = nx_deflate::inflate_with_limit(&bad, LIMIT); // must return, Ok or Err
}

#[test]
fn regression_dynamic_block_with_absurd_code_counts() {
    // BTYPE=10 with HLIT/HDIST/HCLEN fields at their maxima but no code
    // length data behind them.
    let bad = [0x05, 0xFF, 0xFF, 0xFF, 0xFF];
    assert!(nx_deflate::inflate_with_limit(&bad, LIMIT).is_err());
}
