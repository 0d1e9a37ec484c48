//! Encode-side differential battery for the PR 5 compressor overhaul.
//!
//! Every corpus class at every numeric level (0–9) must round-trip
//! through our own inflate AND through the system `gzip -dc` — the
//! hash4 matcher, the level ladder, and the per-block stored/static/
//! dynamic cost decision all change the bitstream, and an independent
//! decoder is the only referee that cannot share a bug with ours.
//!
//! The property test pins the ladder's contract on redundant data:
//! walking `Level::Fastest → Best` must never make the output larger
//! (modulo a 2% tie-break tolerance — adjacent rungs can pick different
//! but equally-sized parses).

use std::io::Write as _;
use std::process::{Command, Stdio};

use nx_corpus::CorpusKind;
use nx_deflate::crc32::crc32;
use nx_deflate::{deflate, gzip, inflate, CompressionLevel, Level};
use proptest::prelude::*;

/// Decompresses a gzip member with the system `gzip -dc`, returning
/// `None` when the binary is unavailable so the battery degrades to
/// our-decoder-only instead of failing on minimal containers.
fn gzip_dc(gz: &[u8]) -> Option<Vec<u8>> {
    let mut child = Command::new("gzip")
        .arg("-dc")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .ok()?;
    // Feed stdin from a thread: gzip starts emitting output before it
    // has consumed all input, and a single-threaded write-then-read
    // deadlocks once the stdout pipe buffer fills.
    let mut stdin = child.stdin.take().expect("stdin piped");
    let payload = gz.to_vec();
    let writer = std::thread::spawn(move || {
        let _ = stdin.write_all(&payload);
    });
    let out = child.wait_with_output().ok()?;
    writer.join().ok()?;
    if !out.status.success() {
        panic!("gzip -dc rejected a stream we produced");
    }
    Some(out.stdout)
}

/// Compresses at `level`, then checks the raw stream through our
/// decoder and the gzip-framed stream through `gzip(1)`.
fn assert_both_decoders_agree(data: &[u8], level: u32) {
    let comp = deflate(data, CompressionLevel::new(level).expect("valid level"));
    let ours = inflate(&comp).expect("our decoder must accept our stream");
    assert_eq!(ours, data, "roundtrip mismatch at level {level}");
    let gz = gzip::wrap_deflate(&comp, crc32(data), data.len() as u64);
    if let Some(theirs) = gzip_dc(&gz) {
        assert_eq!(theirs, data, "gzip(1) mismatch at level {level}");
    }
}

#[test]
fn every_corpus_every_level_roundtrips_both_decoders() {
    for &kind in CorpusKind::all() {
        let data = kind.generate(0x5EED_2020, 96 << 10);
        for level in 0u32..=9 {
            assert_both_decoders_agree(&data, level);
        }
    }
}

#[test]
fn speculative_engine_every_corpus_every_level_both_decoders() {
    // Same referee battery with the batched speculative matcher forced
    // at every rung — including the deep ones where the ladder would
    // normally hand off to the sequential lazy engine.
    use nx_deflate::{Encoder, Engine};
    for &kind in CorpusKind::all() {
        let data = kind.generate(0x5EED_2020, 96 << 10);
        for level in 1u32..=9 {
            let enc = Encoder::with_engine(
                CompressionLevel::new(level).expect("valid level"),
                Engine::Speculative,
            );
            let comp = enc.compress(&data);
            assert_eq!(
                inflate(&comp).expect("our decoder must accept our stream"),
                data,
                "speculative roundtrip mismatch: {} level {level}",
                kind.name(),
            );
            let gz = gzip::wrap_deflate(&comp, crc32(&data), data.len() as u64);
            if let Some(theirs) = gzip_dc(&gz) {
                assert_eq!(
                    theirs,
                    data,
                    "gzip(1) rejected speculative stream: {} level {level}",
                    kind.name(),
                );
            }
        }
    }
}

#[test]
fn streamed_equals_one_shot_with_capped_blocks() {
    // Every ladder entry point runs one encode body: a one-chunk stream is
    // the one-shot stream byte for byte, and no block of it decodes to more
    // than the byte cap, however redundant the input -- give or take the
    // token that crosses the cap, which closes the block it ends.
    use nx_deflate::encoder::MAX_BLOCK_BYTES;
    use nx_deflate::stream::{Flush, StreamEncoder};
    use nx_deflate::{Encoder, Engine, Inflater, MAX_MATCH};
    for &kind in CorpusKind::all() {
        let data = kind.generate(0x5EED_2020, 1 << 20);
        for level in [1u32, 6, 9] {
            let level = CompressionLevel::new(level).expect("valid level");
            for engine in [Engine::Auto, Engine::Speculative] {
                let what = format!("{} level {level} {engine:?}", kind.name());
                let one_shot = Encoder::with_engine(level, engine).compress(&data);
                let streamed =
                    StreamEncoder::with_engine(level, engine).write(&data, Flush::Finish);
                assert!(streamed == one_shot, "{what}: streamed bytes differ");
                let mut inf = Inflater::new(&one_shot);
                while !inf.is_finished() {
                    let before = inf.output().len();
                    inf.decode_block(usize::MAX).expect("our stream decodes");
                    let block = inf.output().len() - before;
                    assert!(block < MAX_BLOCK_BYTES + MAX_MATCH, "{what}: {block} B");
                }
                assert!(inf.output() == data, "{what}: roundtrip");
            }
        }
    }
}

#[test]
fn a_megabyte_canned_request_cuts_at_128_kib_spans() {
    // A canned request runs the ladder's block loop, so its blocks are cut
    // by input span as well as by token count: a megabyte of class traffic
    // is 8 blocks, every one but the last closed by the byte cap, through
    // our inflate and gzip(1).
    use nx_deflate::encoder::MAX_BLOCK_BYTES;
    use nx_deflate::{deflate_canned, Engine, Inflater, Profile, MAX_MATCH};
    let kind = CorpusKind::Json;
    let samples: Vec<Vec<u8>> = (0..16).map(|i| kind.generate(40 + i, 4096)).collect();
    let refs: Vec<&[u8]> = samples.iter().map(Vec::as_slice).collect();
    let level = CompressionLevel::new(3).expect("valid level");
    let profile = Profile::derive("json", &refs, level, 0).expect("profile");
    let data = kind.generate(7, 1 << 20);
    let comp = deflate_canned(&data, Engine::Auto, &profile, false);
    let mut inf = Inflater::new(&comp);
    let mut blocks = Vec::new();
    while !inf.is_finished() {
        let before = inf.output().len();
        inf.decode_block(usize::MAX).expect("our stream decodes");
        blocks.push(inf.output().len() - before);
    }
    assert!(inf.output() == data, "roundtrip");
    assert_eq!(blocks.len(), 8, "{blocks:?}");
    let full = &blocks[..blocks.len() - 1];
    assert!(full
        .iter()
        .all(|&b| (MAX_BLOCK_BYTES..MAX_BLOCK_BYTES + MAX_MATCH).contains(&b)));
    let gz = gzip::wrap_deflate(&comp, crc32(&data), data.len() as u64);
    if let Some(theirs) = gzip_dc(&gz) {
        assert!(theirs == data, "gzip(1) mismatch");
    }
}

#[test]
fn ladder_rungs_map_to_their_numeric_levels() {
    // The named ladder is sugar over numeric levels; both spellings must
    // produce byte-identical streams.
    let data = nx_corpus::mixed(0x5EED_2020, 128 << 10);
    for rung in Level::all() {
        let by_name = deflate(&data, rung.compression_level());
        let by_number = deflate(
            &data,
            CompressionLevel::new(rung.compression_level().get()).expect("valid level"),
        );
        assert_eq!(
            by_name, by_number,
            "rung {rung} diverged from its numeric level"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn ladder_is_monotone_on_redundant_data(
        seed in any::<u64>(),
        len in (8usize << 10)..(96 << 10),
    ) {
        let data = CorpusKind::Redundant.generate(seed, len);
        let mut prev: Option<usize> = None;
        for rung in Level::all() {
            let size = deflate(&data, rung.compression_level()).len();
            if let Some(p) = prev {
                // Slower rungs must not lose ground; 2% slack absorbs
                // tie-breaks between equally-costed parses, and the
                // 64-byte absolute floor absorbs Huffman-tree-header
                // noise on outputs so redundant they compress to a few
                // hundred bytes (the Fast→Default rung also switches
                // from the speculative to the sequential lazy engine,
                // and on pure runs the speculative cover can win by a
                // handful of bytes).
                prop_assert!(
                    size as f64 <= p as f64 * 1.02 + 64.0,
                    "rung {} grew the output: {} -> {}", rung, p, size,
                );
            }
            prev = Some(size);
        }
    }

    #[test]
    fn arbitrary_bytes_roundtrip_every_rung(
        chunks in prop::collection::vec(
            prop_oneof![
                prop::collection::vec(any::<u8>(), 0..64),
                (any::<u8>(), 1usize..600).prop_map(|(b, n)| vec![b; n]),
                "[a-z ]{0,40}".prop_map(|s| s.into_bytes()),
            ],
            0..24,
        ),
    ) {
        let data = chunks.concat();
        for rung in Level::all() {
            let comp = deflate(&data, rung.compression_level());
            prop_assert_eq!(inflate(&comp).unwrap(), data.clone());
        }
    }
}
