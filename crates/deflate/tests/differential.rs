//! Differential battery: the merged-entry fast inflate loop must be
//! observationally identical to the careful per-symbol reference decoder
//! (`disable_fast_path`) — same output bytes on every valid stream, same
//! `Result` on every corrupt or truncated one.
//!
//! The adversarial generators target exactly the places where the
//! superloop's shortcuts could diverge: maximum-length Huffman codes
//! (subtable lookups past the 9-bit root), distance-1 runs copied with
//! the wide byte-splat, matches that land inside the 274-byte end-of-
//! buffer slack where the fast loop must hand off to the careful tail,
//! and streams that die mid-symbol.

use nx_deflate::bitio::BitWriter;
use nx_deflate::decoder::inflate_careful;
use nx_deflate::encoder::encode_dynamic_block;
use nx_deflate::{
    deflate, inflate, inflate_into, CompressionLevel, Error, InflateScratch, Token, MAX_MATCH,
    MIN_MATCH,
};
use proptest::prelude::*;

/// Asserts fast and careful decoders agree on `stream` and, when the
/// expected plaintext is known, that both reproduce it.
fn assert_identical(stream: &[u8], expect: Option<&[u8]>) {
    let fast = inflate(stream);
    let careful = inflate_careful(stream);
    assert_eq!(fast, careful, "fast/careful divergence");
    if let Some(want) = expect {
        assert_eq!(fast.expect("valid stream"), want, "roundtrip mismatch");
    }
}

/// Small deterministic xorshift so adversarial inputs are reproducible
/// without pulling in an RNG.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Bytes with an exponentially skewed symbol distribution: the rare tail
/// symbols get 14–15-bit codes at level 9, forcing the decoder through
/// the subtable (link-entry) path on nearly every rare literal.
fn skewed_bytes(len: usize, seed: u64) -> Vec<u8> {
    let mut state = seed | 1;
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        let r = xorshift(&mut state);
        // Geometric-ish pick: byte value grows with trailing-zero count,
        // so high values are exponentially rare.
        let rank = (r.trailing_zeros() * 13) as u64 + (r >> 56);
        out.push((rank % 256) as u8);
    }
    out
}

#[test]
fn max_length_codes_hit_subtables_identically() {
    for &len in &[4096usize, 65_536, 200_000] {
        let data = skewed_bytes(len, 0x9e37_79b9_7f4a_7c15);
        for level in [1u32, 6, 9] {
            let comp = deflate(&data, CompressionLevel::new(level).unwrap());
            assert_identical(&comp, Some(&data));
        }
    }
}

#[test]
fn distance_one_runs_splat_identically() {
    // Pure runs at lengths straddling the 258-byte max-match boundary
    // and the 274-byte fast-loop slack.
    for &n in &[
        1usize, 7, 8, 9, 257, 258, 259, 273, 274, 275, 516, 65_535, 65_536, 65_537, 262_144,
    ] {
        let data = vec![0xA5u8; n];
        let comp = deflate(&data, CompressionLevel::new(6).unwrap());
        assert_identical(&comp, Some(&data));
    }
    // Runs broken by single distinct bytes: dist-1 matches interleaved
    // with literals, which is the worst case for the literal-chain exit.
    let mut data = Vec::new();
    let mut state = 42u64;
    for i in 0..2_000 {
        data.extend(std::iter::repeat_n(
            (i % 251) as u8,
            1 + (xorshift(&mut state) % 300) as usize,
        ));
        data.push(!(i as u8));
    }
    for level in [1u32, 6, 9] {
        let comp = deflate(&data, CompressionLevel::new(level).unwrap());
        assert_identical(&comp, Some(&data));
    }
}

/// One dynamic block holding `tokens`.
fn dynamic_block(tokens: &[Token]) -> Vec<u8> {
    let mut w = BitWriter::new();
    encode_dynamic_block(&mut w, tokens, true);
    w.finish()
}

#[test]
fn run_length_and_literal_only_streams_decode_identically() {
    // Byte runs spelled as a literal and distance-1 matches only -- the
    // densest possible diet of wide splat copies -- and the same bytes as
    // literals alone, each one dynamic block built from these tokens.
    let mut data = Vec::new();
    let mut runs = Vec::new();
    let mut state = 7u64;
    for _ in 0..500 {
        let b = (xorshift(&mut state) % 256) as u8;
        let n = 1 + (xorshift(&mut state) % 400) as usize;
        data.extend(std::iter::repeat_n(b, n));
        runs.push(Token::Literal(b));
        let mut left = n - 1;
        while left >= MIN_MATCH {
            let len = left.min(MAX_MATCH);
            runs.push(Token::Match {
                len: len as u16,
                dist: 1,
            });
            left -= len;
        }
        runs.extend(std::iter::repeat_n(Token::Literal(b), left));
    }
    assert!(
        runs.iter()
            .filter(|t| matches!(t, Token::Match { .. }))
            .count()
            > 500
    );
    assert_identical(&dynamic_block(&runs), Some(&data));
    let literals: Vec<Token> = data.iter().map(|&b| Token::Literal(b)).collect();
    assert_identical(&dynamic_block(&literals), Some(&data));
}

#[test]
fn matches_near_eof_hand_off_identically() {
    // A long compressible body whose final match lands at every offset
    // within (and just past) the careful-tail slack region.
    let motif: Vec<u8> = (0u8..=255).cycle().take(97).collect();
    for tail in (0usize..=32).chain([250, 270, 273, 274, 275, 280, 300, 512]) {
        let mut data = Vec::new();
        while data.len() < 8_192 + tail {
            data.extend_from_slice(&motif);
        }
        data.truncate(8_192 + tail);
        for level in [1u32, 6, 9] {
            let comp = deflate(&data, CompressionLevel::new(level).unwrap());
            assert_identical(&comp, Some(&data));
        }
    }
}

#[test]
fn stored_blocks_and_empty_streams_agree() {
    let mut state = 0xDEAD_BEEFu64;
    let random: Vec<u8> = (0..70_000)
        .map(|_| (xorshift(&mut state) % 256) as u8)
        .collect();
    // Level 0 emits stored blocks; incompressible data at level 6 forces
    // the stored fallback too.
    for level in [0u32, 6] {
        let comp = deflate(&random, CompressionLevel::new(level).unwrap());
        assert_identical(&comp, Some(&random));
    }
    assert_identical(&deflate(&[], CompressionLevel::new(6).unwrap()), Some(&[]));
}

#[test]
fn corrupt_streams_fail_identically() {
    let data = skewed_bytes(20_000, 0xBAD_5EED);
    let comp = deflate(&data, CompressionLevel::new(9).unwrap());
    // Flip a single bit at a sweep of positions: header, code-length
    // stream, symbol stream, and the final bytes.
    let step = (comp.len() / 97).max(1);
    for pos in (0..comp.len()).step_by(step) {
        for bit in [0u8, 3, 7] {
            let mut bad = comp.clone();
            bad[pos] ^= 1 << bit;
            let fast = inflate(&bad);
            let careful = inflate_careful(&bad);
            assert_eq!(
                fast, careful,
                "divergence on corrupt stream (pos {pos}, bit {bit})"
            );
        }
    }
}

#[test]
fn truncated_streams_fail_identically() {
    let data = skewed_bytes(8_192, 0x1234_5678);
    let comp = deflate(&data, CompressionLevel::new(6).unwrap());
    for cut in 0..comp.len() {
        let fast = inflate(&comp[..cut]);
        let careful = inflate_careful(&comp[..cut]);
        assert_eq!(fast, careful, "divergence on truncation at {cut}");
        if cut + 1 < comp.len() {
            assert!(
                matches!(
                    fast,
                    Err(Error::UnexpectedEof
                        | Error::InvalidSymbol
                        | Error::InvalidCodeLengths
                        | Error::TooManyCodeLengths
                        | Error::RepeatWithoutPrevious
                        | Error::StoredLengthMismatch
                        | Error::DistanceTooFar
                        | Error::InvalidLengthOrDistance)
                ),
                "truncation at {cut} must error"
            );
        }
    }
}

#[test]
fn corpus_streams_decode_identically_with_scratch_reuse() {
    // One scratch reused across every corpus class and level: decode
    // tables from the previous stream must never leak into the next.
    let mut scratch = InflateScratch::default();
    let mut out = Vec::new();
    for &kind in nx_corpus::CorpusKind::all() {
        let data = kind.generate(0xC0FFEE, 128 << 10);
        for level in [1u32, 6, 9] {
            let comp = deflate(&data, CompressionLevel::new(level).unwrap());
            assert_identical(&comp, Some(&data));
            inflate_into(&comp, &mut scratch, &mut out).expect("valid stream");
            assert_eq!(out, data, "scratch-reuse mismatch on {}", kind.name());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fast_matches_careful_on_arbitrary_roundtrips(
        chunks in prop::collection::vec(
            prop_oneof![
                prop::collection::vec(any::<u8>(), 0..64),
                (any::<u8>(), 1usize..600).prop_map(|(b, n)| vec![b; n]),
                "[a-z ]{0,40}".prop_map(|s| s.into_bytes()),
            ],
            0..24,
        ),
        level in 0u32..=9,
    ) {
        let data = chunks.concat();
        let comp = deflate(&data, CompressionLevel::new(level).unwrap());
        let fast = inflate(&comp);
        let careful = inflate_careful(&comp);
        prop_assert_eq!(&fast, &careful);
        prop_assert_eq!(fast.unwrap(), data);
    }

    #[test]
    fn fast_matches_careful_on_garbage_streams(stream in prop::collection::vec(any::<u8>(), 0..512)) {
        // Arbitrary bytes interpreted as a DEFLATE stream: both decoders
        // must reach the same verdict, whatever it is.
        prop_assert_eq!(inflate(&stream), inflate_careful(&stream));
    }

    #[test]
    fn fast_matches_careful_on_bitflipped_streams(
        data in prop::collection::vec(any::<u8>(), 64..2048),
        flips in prop::collection::vec((0usize..4096, 0u8..8), 1..4),
        level in 1u32..=9,
    ) {
        let mut comp = deflate(&data, CompressionLevel::new(level).unwrap());
        for (pos, bit) in flips {
            let i = pos % comp.len();
            comp[i] ^= 1 << bit;
        }
        prop_assert_eq!(inflate(&comp), inflate_careful(&comp));
    }
}
