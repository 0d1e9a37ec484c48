//! Property-based tests for the DEFLATE stack: arbitrary inputs must
//! round-trip through every level and container, and arbitrary token
//! streams / histograms must satisfy the codec invariants.

use nx_deflate::bitio::{BitReader, BitWriter};
use nx_deflate::huffman::{build, canonical_codes, decode::DecodeTable};
use nx_deflate::lz77::cover::{resolve_cover, Candidate, CoverPicks, MIN_KEEP, WINDOW_LANES};
use nx_deflate::lz77::expand_tokens;
use nx_deflate::lz77::hash4::{tokenize_into_with, Hash4Matcher};
use nx_deflate::{deflate, gzip, inflate, zlib, CompressionLevel, Encoder, Engine};
use proptest::prelude::*;

/// Encodes `symbols` with the canonical code for `lengths` and decodes them
/// back.
fn roundtrip_symbols(lengths: &[u8], symbols: &[u16]) -> nx_deflate::Result<Vec<u16>> {
    let codes = canonical_codes(lengths)?;
    let mut w = BitWriter::new();
    for &s in symbols {
        let c = codes[usize::from(s)];
        assert!(c.len > 0, "encoding unused symbol {s}");
        w.write_bits(u64::from(c.bits), u32::from(c.len));
    }
    let bytes = w.finish();
    let table = DecodeTable::new(lengths)?;
    let mut r = BitReader::new(&bytes);
    symbols.iter().map(|_| table.decode(&mut r)).collect()
}

/// Byte-string strategy biased toward compressible structure: random bytes
/// interleaved with repeated motifs.
fn structured_bytes() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(
        prop_oneof![
            // random run
            prop::collection::vec(any::<u8>(), 0..64),
            // repeated motif
            (prop::collection::vec(any::<u8>(), 1..8), 1usize..40).prop_map(|(m, n)| m
                .iter()
                .copied()
                .cycle()
                .take(m.len() * n)
                .collect()),
            // ascii words
            "[a-z ]{0,40}".prop_map(|s| s.into_bytes()),
        ],
        0..24,
    )
    .prop_map(|chunks| chunks.concat())
}

/// Strategy for a valid cover-resolver input: a window size and a set of
/// candidates with strictly increasing in-window offsets, lengths ≥
/// [`MIN_KEEP`], and in-window distances.
fn candidate_window() -> impl Strategy<Value = (Vec<Candidate>, usize)> {
    (
        1usize..WINDOW_LANES + 1,
        prop::collection::vec(any::<bool>(), WINDOW_LANES),
        prop::collection::vec((MIN_KEEP..300u32, 1u32..32768), WINDOW_LANES),
    )
        .prop_map(|(window, occupied, params)| {
            let cands = (0..window)
                .filter(|&o| occupied[o])
                .map(|o| {
                    let (len, dist) = params[o];
                    Candidate {
                        offset: o as u32,
                        len,
                        dist,
                    }
                })
                .collect();
            (cands, window)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn deflate_roundtrips_all_levels(data in structured_bytes(), level in 0u32..=9) {
        let lvl = CompressionLevel::new(level).unwrap();
        let compressed = deflate(&data, lvl);
        prop_assert_eq!(inflate(&compressed).unwrap(), data);
    }

    #[test]
    fn gzip_roundtrips(data in structured_bytes(), level in 0u32..=9) {
        let lvl = CompressionLevel::new(level).unwrap();
        let gz = gzip::compress(&data, lvl);
        prop_assert_eq!(gzip::decompress(&gz).unwrap(), data);
    }

    #[test]
    fn zlib_roundtrips(data in structured_bytes(), level in 0u32..=9) {
        let lvl = CompressionLevel::new(level).unwrap();
        let z = zlib::compress(&data, lvl);
        prop_assert_eq!(zlib::decompress(&z).unwrap(), data);
    }

    #[test]
    fn tokenizers_are_lossless(data in structured_bytes(), level in 1u32..=9) {
        let mut m = Hash4Matcher::new();
        let mut tokens = Vec::new();
        tokenize_into_with(&data, 0, level, Engine::Sequential, &mut m, &mut tokens);
        prop_assert!(tokens.iter().all(|t| t.is_valid()));
        prop_assert_eq!(expand_tokens(&tokens), data);
    }

    #[test]
    fn limited_lengths_always_complete_and_bounded(
        freqs in prop::collection::vec(0u32..10_000, 2..80),
        max_len in 7u8..=15,
    ) {
        let lengths = build::limited_lengths(&freqs, max_len);
        prop_assert!(lengths.iter().all(|&l| l <= max_len));
        let used = lengths.iter().filter(|&&l| l > 0).count();
        let nonzero_freqs = freqs.iter().filter(|&&f| f > 0).count();
        prop_assert_eq!(used, nonzero_freqs);
        if nonzero_freqs >= 2 {
            // Kraft equality.
            let kraft: u64 = lengths
                .iter()
                .filter(|&&l| l > 0)
                .map(|&l| 1u64 << (max_len - l))
                .sum();
            prop_assert_eq!(kraft, 1u64 << max_len);
        }
    }

    #[test]
    fn huffman_symbol_roundtrip(
        freqs in prop::collection::vec(0u32..1000, 2..64),
        picks in prop::collection::vec(any::<prop::sample::Index>(), 1..100),
    ) {
        let lengths = build::limited_lengths(&freqs, 15);
        let used: Vec<u16> = (0..freqs.len() as u16)
            .filter(|&s| lengths[usize::from(s)] > 0)
            .collect();
        prop_assume!(!used.is_empty());
        let symbols: Vec<u16> = picks.iter().map(|ix| used[ix.index(used.len())]).collect();
        prop_assert_eq!(roundtrip_symbols(&lengths, &symbols).unwrap(), symbols);
    }

    #[test]
    fn resolved_covers_are_non_overlapping_and_in_bounds(
        (cands, window) in candidate_window(),
    ) {
        let mut picks = CoverPicks::default();
        let outcome = resolve_cover(&cands, window, &mut picks);

        let selected: Vec<Candidate> = picks.iter().flatten().copied().collect();
        prop_assert_eq!(outcome.picked, selected.len());
        prop_assert!(outcome.picked + outcome.discarded <= cands.len());

        let mut covered_in_window = 0usize;
        let mut prev_end: Option<u32> = None;
        for (k, s) in selected.iter().enumerate() {
            // Every pick anchors at one of the candidates and may only
            // have been truncated, never lengthened or displaced.
            prop_assert!(
                cands.iter().any(|c| c.offset == s.offset
                    && c.dist == s.dist
                    && s.len <= c.len),
                "pick {s:?} is not a (possibly truncated) candidate",
            );
            prop_assert!((s.offset as usize) < window, "anchor outside window");
            prop_assert!(s.len >= MIN_KEEP, "pick shorter than MIN_KEEP");
            if let Some(end) = prev_end {
                prop_assert!(s.offset >= end, "picks overlap: {selected:?}");
            }
            // Only the rightmost pick may overshoot the window edge.
            if s.offset + s.len > window as u32 {
                prop_assert_eq!(k, selected.len() - 1, "interior overshoot");
            }
            covered_in_window += s.len.min(window as u32 - s.offset) as usize;
            prev_end = Some(s.offset + s.len);
        }
        prop_assert_eq!(outcome.covered, covered_in_window);
        prop_assert!(outcome.covered <= window + nx_deflate::MAX_MATCH);
    }

    #[test]
    fn speculative_parse_is_valid_wherever_greedy_is(
        data in structured_bytes(),
        level in 1u32..=9,
    ) {
        // Wherever the sequential parse round-trips, the batched
        // speculative parse must produce valid tokens that round-trip
        // too — both at the token level and through the full encoder.
        let mut m = Hash4Matcher::new();
        let mut sequential = Vec::new();
        tokenize_into_with(&data, 0, level, Engine::Sequential, &mut m, &mut sequential);
        prop_assert_eq!(expand_tokens(&sequential), data.clone());

        m.reset();
        let mut spec = Vec::new();
        tokenize_into_with(&data, 0, level, Engine::Speculative, &mut m, &mut spec);
        prop_assert!(spec.iter().all(|t| t.is_valid()));
        prop_assert_eq!(expand_tokens(&spec), data.clone());

        let enc = Encoder::with_engine(
            CompressionLevel::new(level).unwrap(),
            Engine::Speculative,
        );
        prop_assert_eq!(inflate(&enc.compress(&data)).unwrap(), data);
    }

    #[test]
    fn canonical_codes_never_panic_on_valid_lengths(
        lengths in prop::collection::vec(0u8..=15, 0..320),
    ) {
        // Either a valid table or a clean error — never a panic.
        let _ = canonical_codes(&lengths);
    }

    #[test]
    fn inflate_never_panics_on_garbage(data in prop::collection::vec(any::<u8>(), 0..512)) {
        // Fuzzing the decoder: arbitrary bytes must either decode or fail
        // cleanly (and never allocate unboundedly thanks to the limit).
        let _ = nx_deflate::inflate_with_limit(&data, 1 << 20);
    }

    #[test]
    fn gzip_decompress_never_panics_on_garbage(data in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = gzip::decompress(&data);
    }

    #[test]
    fn chunked_streaming_equals_whole(
        data in structured_bytes(),
        cuts in prop::collection::vec(any::<prop::sample::Index>(), 0..6),
        level in 1u32..=9,
        sync in any::<bool>(),
    ) {
        use nx_deflate::stream::{Flush, StreamEncoder};
        // Split `data` at arbitrary points and stream it.
        let mut points: Vec<usize> = cuts.iter().map(|i| i.index(data.len() + 1)).collect();
        points.push(0);
        points.push(data.len());
        points.sort_unstable();
        points.dedup();
        let mut enc = StreamEncoder::new(CompressionLevel::new(level).unwrap());
        let mut out = Vec::new();
        for w in points.windows(2) {
            let flush = if sync { Flush::Sync } else { Flush::None };
            out.extend(enc.write(&data[w[0]..w[1]], flush));
        }
        out.extend(enc.finish());
        prop_assert_eq!(inflate(&out).unwrap(), data);
    }

    #[test]
    fn dictionary_roundtrips(
        dict in prop::collection::vec(any::<u8>(), 0..2048),
        data in structured_bytes(),
        level in 1u32..=9,
    ) {
        let lvl = CompressionLevel::new(level).unwrap();
        let raw = nx_deflate::deflate_with_dict(&data, lvl, &dict);
        prop_assert_eq!(nx_deflate::inflate_with_dict(&raw, &dict).unwrap(), data.clone());
        if !dict.is_empty() {
            let z = zlib::compress_with_dict(&data, lvl, &dict);
            prop_assert_eq!(zlib::decompress_with_dict(&z, &dict).unwrap(), data);
        }
    }

    #[test]
    fn dictionary_never_hurts_when_data_repeats_dict(
        dict in prop::collection::vec(any::<u8>(), 64..512),
        reps in 1usize..4,
    ) {
        let data: Vec<u8> = dict.iter().copied().cycle().take(dict.len() * reps).collect();
        let lvl = CompressionLevel::new(9).unwrap();
        let with = nx_deflate::deflate_with_dict(&data, lvl, &dict);
        let without = nx_deflate::deflate(&data, lvl);
        // Data identical to the dictionary must compress at least as well
        // with it primed (allowing a couple of bytes of header jitter).
        prop_assert!(with.len() <= without.len() + 2,
            "with {} vs without {}", with.len(), without.len());
    }

    #[test]
    fn inflate_stream_matches_oneshot_for_any_chunking(
        data in structured_bytes(),
        level in 0u32..=9,
        chunk in 1usize..300,
    ) {
        let comp = deflate(&data, CompressionLevel::new(level).unwrap());
        let mut dec = nx_deflate::InflateStream::new();
        let mut out = Vec::new();
        for c in comp.chunks(chunk) {
            out.extend(dec.push(c).unwrap());
        }
        prop_assert!(dec.is_finished());
        prop_assert_eq!(out, data);
    }

    #[test]
    fn inflate_stream_matches_oneshot_at_any_push_boundaries(
        data in structured_bytes(),
        level in 0u32..=9,
        cuts in prop::collection::vec(any::<prop::sample::Index>(), 0..12),
    ) {
        // Pushes cut anywhere — inside headers, LEN/NLEN, tokens — and each
        // returns exactly what the tokens complete so far decode to.
        let comp = deflate(&data, CompressionLevel::new(level).unwrap());
        let mut points: Vec<usize> = cuts.iter().map(|c| c.index(comp.len() + 1)).collect();
        points.extend([0, comp.len()]);
        points.sort_unstable();
        let mut dec = nx_deflate::InflateStream::new();
        let mut out = Vec::new();
        for w in points.windows(2) {
            out.extend(dec.push(&comp[w[0]..w[1]]).unwrap());
            prop_assert_eq!(&out, &complete_tokens(&comp[..w[1]]));
        }
        prop_assert!(dec.is_finished());
        prop_assert_eq!(out, data);
    }

    #[test]
    fn adler32_combine_matches_concatenation(
        x in prop::collection::vec(any::<u8>(), 0..4096),
        y in prop::collection::vec(any::<u8>(), 0..4096),
    ) {
        use nx_deflate::adler32::{adler32, adler32_combine};
        let whole = adler32(&[x.clone(), y.clone()].concat());
        prop_assert_eq!(adler32_combine(adler32(&x), adler32(&y), y.len() as u64), whole);
    }

    #[test]
    fn adler32_update_is_split_invariant(
        data in prop::collection::vec(any::<u8>(), 0..20_000),
        cuts in prop::collection::vec(any::<prop::sample::Index>(), 0..6),
    ) {
        use nx_deflate::adler32::Adler32;
        // Byte-at-a-time reference, reduced every step.
        let (a, b) = data.iter().fold((1u32, 0u32), |(a, b), &x| {
            let a = (a + u32::from(x)) % 65_521;
            (a, (b + a) % 65_521)
        });
        let mut cuts: Vec<usize> = cuts.iter().map(|c| c.index(data.len() + 1)).collect();
        cuts.sort_unstable();
        let (mut sum, mut from) = (Adler32::new(), 0);
        for cut in cuts.into_iter().chain([data.len()]) {
            sum.update(&data[from..cut]);
            from = cut;
        }
        prop_assert_eq!(sum.finish(), (b << 16) | a);
    }

    #[test]
    fn crc32_combine_matches_concatenation(
        x in prop::collection::vec(any::<u8>(), 0..4096),
        y in prop::collection::vec(any::<u8>(), 0..4096),
    ) {
        use nx_deflate::crc32::{crc32, crc32_combine};
        let whole = crc32(&[x.clone(), y.clone()].concat());
        prop_assert_eq!(crc32_combine(crc32(&x), crc32(&y), y.len() as u64), whole);
    }

    #[test]
    fn corrupted_streams_never_decode_to_wrong_crc(
        data in structured_bytes(),
        flip in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        prop_assume!(!data.is_empty());
        let mut gz = gzip::compress(&data, CompressionLevel::default_level());
        let i = flip.index(gz.len());
        gz[i] ^= 1 << bit;
        // Either an error, or (if the flip hit a don't-care bit such as OS
        // byte or padding) the same payload. Never a different payload.
        if let Ok(out) = gzip::decompress(&gz) {
            prop_assert_eq!(out, data);
        }
    }
}

/// What an engine decodes from `prefix` before the end of it cuts a header
/// or token off: every byte whose token is complete.
fn complete_tokens(prefix: &[u8]) -> Vec<u8> {
    let mut inf = nx_deflate::Inflater::new(prefix);
    let _ = inf.run(usize::MAX);
    inf.output().to_vec()
}

/// A small stream of every block type — dynamic, stored, fixed, dynamic —
/// pushed in two (and three) pieces split at every byte, so a boundary falls
/// inside each header, each stored LEN/NLEN and each token's bits.
#[test]
fn inflate_stream_resumes_at_every_split_of_a_small_stream() {
    use nx_deflate::encoder::{encode_dynamic_block, encode_fixed_block, encode_stored_block};
    let level = CompressionLevel::new(6).unwrap();
    let parts: Vec<Vec<u8>> = (0..3)
        .map(|i| nx_corpus::CorpusKind::Logs.generate(i, 300))
        .collect();
    let mut w = BitWriter::new();
    encode_dynamic_block(&mut w, &nx_deflate::deflate_tokens(&parts[0], level), false);
    encode_stored_block(&mut w, b"stored bytes between the coded ones", false);
    encode_fixed_block(&mut w, &nx_deflate::deflate_tokens(&parts[1], level), false);
    encode_dynamic_block(&mut w, &nx_deflate::deflate_tokens(&parts[2], level), true);
    let comp = w.finish();
    let data = [
        &parts[0][..],
        b"stored bytes between the coded ones",
        &parts[1],
        &parts[2],
    ]
    .concat();
    // Where the first dynamic header and the stored block's LEN/NLEN lie.
    let trace = nx_deflate::inflate_traced_into(&comp, 0, &mut Default::default(), &mut Vec::new());
    let blocks = trace.expect("valid stream").blocks;
    let header = ..blocks[0].header_bits.div_ceil(8) as usize;
    let stored_at = (blocks[0].total_bits + blocks[1].header_bits) / 8;
    let len_nlen = stored_at as usize - 4..stored_at as usize;
    for split in 0..comp.len() {
        for second in [split, split + 1] {
            let mut dec = nx_deflate::InflateStream::new();
            let mut out = dec.push(&comp[..split]).unwrap();
            assert_eq!(out, complete_tokens(&comp[..split]), "split {split}");
            out.extend(dec.push(&comp[split..second.min(comp.len())]).unwrap());
            out.extend(dec.push(&comp[second.min(comp.len())..]).unwrap());
            let inside = match split {
                s if header.contains(&s) => "inside the dynamic header",
                s if len_nlen.contains(&s) => "inside LEN/NLEN",
                _ => "",
            };
            assert!(dec.is_finished(), "split {split} {inside}");
            assert!(out == data, "split {split} {inside}");
        }
    }
    assert!(header.end > 8 && len_nlen.start > header.end);
}
