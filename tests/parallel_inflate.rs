//! End-to-end tests for the parallel + seekable inflate path, driven
//! through the public API only: the `Nx` facade, `ParallelInflater`,
//! and the serializable `SeekIndex`.
//!
//! The contract under test, from DESIGN.md: (1) parallel decompression
//! is byte-identical to serial decompression on every input, including
//! corrupt and truncated streams (same error, or same bytes — never a
//! third behaviour); (2) multi-member gzip decodes member-per-worker at
//! any worker count, and an index-less single stream serially; (3)
//! `decompress_at` through a `SeekIndex` returns exactly the bytes a full
//! serial decode would place at that range, without decoding the prefix.

use std::io::Write;
use std::process::{Command, Stdio};

use nx_core::parallel::{ParallelEngine, ParallelOptions};
use nx_core::{software, Format, Nx, ParallelInflateOptions, ParallelInflater, SeekIndex};
use nx_deflate::bitio::BitWriter;
use nx_deflate::crc32::crc32;
use nx_deflate::{CompressionLevel, Token};
use nx_telemetry::{MetricsRegistry, Stage, TelemetrySink};
use std::sync::Arc;

const SEED: u64 = 0x5EEC_AB1E;

fn inflater(workers: usize) -> ParallelInflater {
    ParallelInflater::new(ParallelInflateOptions {
        workers,
        checkpoint_every: 64 * 1024,
    })
}

fn gzip(data: &[u8]) -> Vec<u8> {
    software::compress(data, CompressionLevel::default(), Format::Gzip)
}

/// A deterministic multi-member gzip stream: `n` members of varying,
/// seeded sizes, plus the concatenated payload they must decode to.
fn multi_member(n: usize) -> (Vec<u8>, Vec<u8>) {
    let mut stream = Vec::new();
    let mut payload = Vec::new();
    for i in 0..n {
        let part = nx_corpus::mixed(SEED + i as u64, 24 * 1024 + 7 * 1024 * (i % 3));
        stream.extend_from_slice(&gzip(&part));
        payload.extend_from_slice(&part);
    }
    (stream, payload)
}

#[test]
fn multi_member_roundtrip_at_every_worker_count() {
    let (stream, payload) = multi_member(8);
    for workers in [1, 2, 4, 8] {
        let inf = inflater(workers);
        let out = inf.decompress(&stream, Format::Gzip).expect("decodes");
        assert_eq!(out, payload, "workers={workers} changed the payload");
        if workers > 1 {
            assert_eq!(
                inf.stats().members_parallel(),
                8,
                "workers={workers} must take the member-per-worker path"
            );
        }
    }
}

#[test]
fn index_less_single_streams_decode_serially_at_every_worker_count() {
    // Without an index nothing names a single stream's split points, so at
    // every worker count it takes the serial walk: serial's bytes (or
    // serial's error), no member fan-out, no fallback, and a traced decode
    // is one `shard` span over the whole input with `detail` 0.
    let data = nx_corpus::mixed(SEED, 768 * 1024);
    for format in [Format::Gzip, Format::Zlib, Format::RawDeflate] {
        let stream = software::compress(&data, CompressionLevel::default(), format);
        let mut corrupt = stream.clone();
        corrupt[stream.len() / 2] ^= 0x55;
        let truncated = &stream[..stream.len() - 9];
        for input in [&stream[..], &corrupt[..], truncated] {
            let serial = inflater(1).decompress_serial(input, format);
            if input == stream {
                assert!(serial.as_ref() == Ok(&data), "{format:?}: serial oracle");
            }
            for workers in [1, 2, 4, 8] {
                let what = format!("{format:?}, {} bytes, workers={workers}", input.len());
                let inf = inflater(workers);
                assert!(inf.decompress(input, format) == serial, "{what}: bytes");
                let route = (
                    inf.stats().members_parallel(),
                    inf.stats().serial_fallbacks(),
                );
                assert_eq!(route, (0, 0), "{what}: (members, fallbacks)");
                let sink = TelemetrySink::enabled(MetricsRegistry::new());
                let opts = ParallelOptions {
                    workers,
                    ..ParallelOptions::default()
                };
                let engine =
                    ParallelEngine::with_telemetry(opts, None, sink.clone(), Arc::default());
                let ctx = sink.begin_trace();
                let traced = engine.decompress_in_trace(input, format, &ctx);
                assert!(traced == serial, "{what}: traced bytes");
                let spans: Vec<_> = sink
                    .trace()
                    .into_iter()
                    .filter(|e| e.request == ctx.trace_id)
                    .map(|e| (e.stage, e.bytes, e.detail))
                    .collect();
                let whole = input.len() as u64;
                assert_eq!(spans, [(Stage::Shard, whole, 0)], "{what}: spans");
            }
        }
    }
}

#[test]
fn corrupt_and_truncated_streams_match_serial_semantics() {
    let data = nx_corpus::mixed(SEED, 512 * 1024);
    let gz = gzip(&data);
    let inf = inflater(4);
    // Corruption at several depths: header, mid-stream, trailer.
    for pos in [3usize, gz.len() / 3, gz.len() / 2, gz.len() - 4] {
        let mut bad = gz.clone();
        bad[pos] ^= 0x55;
        let par = inf.decompress(&bad, Format::Gzip);
        let ser = software::decompress(&bad, Format::Gzip);
        match (&par, &ser) {
            (Ok(p), Ok(s)) => assert_eq!(p, s, "flip at {pos}: both ok but bytes differ"),
            (Err(_), Err(_)) => {}
            _ => panic!("flip at {pos}: parallel={par:?} serial={ser:?} disagree on ok/err"),
        }
    }
    // Truncation: every prefix class must error, never panic or hang.
    for keep in [0, 5, 18, gz.len() / 4, gz.len() - 1] {
        let cut = &gz[..keep];
        assert!(
            inf.decompress(cut, Format::Gzip).is_err(),
            "truncated to {keep} bytes must be an error"
        );
    }
}

#[test]
fn truncated_multi_member_degrades_to_serial_error() {
    let (stream, _) = multi_member(4);
    let inf = inflater(4);
    let cut = &stream[..stream.len() - 6];
    // The member fast path cannot chain-validate a cut tail; it must
    // fall back and surface the serial error, not a bogus payload.
    assert!(inf.decompress(cut, Format::Gzip).is_err());
    assert!(inf.stats().serial_fallbacks() >= 1);
}

/// Decodes with the system `gzip -dc`; `None` when there is no such binary.
fn gzip_dc(gz: &[u8]) -> Option<Vec<u8>> {
    system_gzip("-dc", gz)
}

/// Pipes `input` through the system `gzip <flags>`; `None` when there is no
/// such binary.
fn system_gzip(flags: &str, input: &[u8]) -> Option<Vec<u8>> {
    let mut child = Command::new("gzip")
        .arg(flags)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .ok()?;
    let mut stdin = child.stdin.take().expect("stdin piped");
    let payload = input.to_vec();
    let writer = std::thread::spawn(move || {
        let _ = stdin.write_all(&payload);
    });
    let out = child.wait_with_output().ok()?;
    writer.join().ok()?;
    assert!(out.status.success(), "gzip {flags} rejected its input");
    Some(out.stdout)
}

/// Optional gzip header fields for [`member`].
#[derive(Default, Clone, Copy)]
struct Fields<'a> {
    extra: Option<&'a [u8]>,
    name: Option<&'a [u8]>,
    comment: Option<&'a [u8]>,
    hcrc: bool,
}

/// One gzip member around `raw`, a DEFLATE stream that decodes to `payload`.
fn member(raw: &[u8], payload: &[u8], f: Fields) -> Vec<u8> {
    let flg = u8::from(f.hcrc) << 1
        | u8::from(f.extra.is_some()) << 2
        | u8::from(f.name.is_some()) << 3
        | u8::from(f.comment.is_some()) << 4;
    let mut m = vec![0x1F, 0x8B, 8, flg, 0, 0, 0, 0, 0, 255];
    if let Some(x) = f.extra {
        m.extend_from_slice(&(x.len() as u16).to_le_bytes());
        m.extend_from_slice(x);
    }
    for text in [f.name, f.comment].into_iter().flatten() {
        m.extend_from_slice(text);
        m.push(0);
    }
    if f.hcrc {
        let crc16 = crc32(&m) as u16;
        m.extend_from_slice(&crc16.to_le_bytes());
    }
    m.extend_from_slice(raw);
    m.extend_from_slice(&crc32(payload).to_le_bytes());
    m.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    m
}

/// A member whose DEFLATE stream is written at `level` (0 = stored only).
fn member_at(payload: &[u8], level: u32, f: Fields) -> Vec<u8> {
    let level = CompressionLevel::new(level).expect("valid level");
    member(&nx_deflate::deflate(payload, level), payload, f)
}

/// A member that is one fixed-Huffman block of literals.
fn fixed_member(payload: &[u8]) -> Vec<u8> {
    let tokens: Vec<Token> = payload.iter().map(|&b| Token::Literal(b)).collect();
    let mut w = BitWriter::new();
    nx_deflate::encoder::encode_fixed_block(&mut w, &tokens, true);
    member(&w.finish(), payload, Fields::default())
}

/// A stream under test (the concatenation of `members`) and the payload
/// it decodes to.
struct Shape {
    name: &'static str,
    members: Vec<Vec<u8>>,
    payload: Vec<u8>,
}

impl Shape {
    /// From `(member, its payload)` pairs.
    fn new(name: &'static str, parts: Vec<(Vec<u8>, Vec<u8>)>) -> Self {
        let payload = parts.iter().flat_map(|(_, p)| p.iter().copied()).collect();
        let members = parts.into_iter().map(|(m, _)| m).collect();
        Self {
            name,
            members,
            payload,
        }
    }
}

/// The member shapes the planner has to get right.
fn member_shapes() -> Vec<Shape> {
    let plain = Fields::default();
    let mut shapes = Vec::new();
    let mixed = |i: u64, n: usize| nx_corpus::mixed(SEED + i, n);
    let at = |payload: Vec<u8>, level: u32, f: Fields| (member_at(&payload, level, f), payload);

    shapes.push(Shape::new(
        "32 equal members",
        (0..32).map(|i| at(mixed(i, 16 * 1024), 6, plain)).collect(),
    ));
    let fixed_only = b"fixed-Huffman literals only".to_vec();
    shapes.push(Shape::new(
        "wildly unequal members",
        vec![
            at(Vec::new(), 6, plain),
            at(vec![b'x'], 6, plain),
            at(mixed(1, 3 << 20), 1, plain),
            at(mixed(2, 150_000), 0, plain),
            (fixed_member(&fixed_only), fixed_only),
            at(mixed(3, 40_000), 9, plain),
        ],
    ));
    let all = Fields {
        extra: Some(b"AB\x04\x00\x1f\x8b\x08\x00"),
        name: Some(b"name.txt"),
        comment: Some(b"a comment"),
        hcrc: true,
    };
    let only = |f: Fields<'static>| at(mixed(4, 20_000), 6, f);
    shapes.push(Shape::new(
        "optional header fields",
        vec![
            only(all),
            only(Fields {
                extra: all.extra,
                ..plain
            }),
            only(Fields {
                name: all.name,
                ..plain
            }),
            only(Fields {
                comment: all.comment,
                ..plain
            }),
            only(Fields {
                hcrc: true,
                ..plain
            }),
            only(plain),
        ],
    ));
    let evil_name = Fields {
        name: Some(b"\x1f\x8b\x08\x01evil\x1f\x8b\x08"),
        ..plain
    };
    shapes.push(Shape::new(
        "gzip magic inside an FNAME",
        (0..4).map(|i| at(mixed(i, 30_000), 6, evil_name)).collect(),
    ));
    // A stored block carries its payload verbatim, so a whole valid
    // member inside one is a false start that passes every cheap filter.
    let inner = member_at(b"a complete gzip member, inside a stored block", 6, plain);
    let mut carrier = mixed(5, 5_000);
    carrier.extend_from_slice(&inner);
    carrier.extend_from_slice(&mixed(6, 5_000));
    shapes.push(Shape::new(
        "valid member embedded in a stored block",
        vec![
            at(mixed(7, 20_000), 6, plain),
            at(carrier, 0, plain),
            at(mixed(8, 20_000), 6, plain),
        ],
    ));
    // Magic + a plausible header + an empty fixed block, but no trailer.
    let mut planted = Vec::new();
    for i in 0..40u64 {
        planted.extend_from_slice(&mixed(100 + i, 700));
        planted.extend_from_slice(&[0x1F, 0x8B, 8, 0, 0, 0, 0, 0, 0, 255, 0x03, 0x00]);
    }
    shapes.push(Shape::new(
        "magic planted in compressed data",
        vec![
            at(planted.clone(), 0, plain),
            at(mixed(9, 50_000), 6, plain),
            at(planted, 0, plain),
        ],
    ));

    shapes
}

const WORKER_COUNTS: [usize; 5] = [1, 2, 3, 4, 8];

#[test]
fn member_shapes_decode_like_serial_at_every_worker_count() {
    for Shape {
        name,
        members,
        payload,
    } in member_shapes()
    {
        let stream = members.concat();
        let serial = inflater(1).decompress_serial(&stream, Format::Gzip);
        assert!(serial.as_ref() == Ok(&payload), "{name}: serial oracle");
        if let Some(system) = gzip_dc(&stream) {
            assert!(system == payload, "{name}: gzip -dc disagrees");
        }
        // A false start that survives the planner's filters costs the
        // plan; every other shape must really decode member-parallel.
        let false_starts = name.starts_with("valid member") || name.starts_with("magic planted");
        let parallel = if false_starts {
            (0, 1)
        } else {
            (members.len() as u64, 0)
        };
        for workers in WORKER_COUNTS {
            let inf = inflater(workers);
            let got = inf.decompress(&stream, Format::Gzip);
            assert!(got == serial, "{name}: workers={workers} diverged");
            let took = (
                inf.stats().members_parallel(),
                inf.stats().serial_fallbacks(),
            );
            let want = if workers > 1 { parallel } else { (0, 0) };
            assert_eq!(took, want, "{name}: workers={workers} (members, fallbacks)");
        }
    }
}

#[test]
fn corrupt_members_report_the_serial_error_at_every_worker_count() {
    for Shape { name, members, .. } in member_shapes() {
        // Damage a member in the middle of the stream, three ways.
        let victim = members.len() / 2;
        let end: usize = members[..=victim].iter().map(Vec::len).sum();
        let stream = members.concat();
        let flip = |at: usize| {
            let mut bad = stream.clone();
            bad[at] ^= 0x40;
            bad
        };
        let cases = [
            ("crc", flip(end - 8)),
            ("isize", flip(end - 2)),
            (
                "truncated",
                stream[..end - members[victim].len() / 2].to_vec(),
            ),
        ];
        for (what, bad) in cases {
            let serial = inflater(1).decompress_serial(&bad, Format::Gzip);
            assert!(serial.is_err(), "{name}/{what}: serial accepts the damage");
            for workers in WORKER_COUNTS {
                let inf = inflater(workers);
                let got = inf.decompress(&bad, Format::Gzip);
                assert!(got == serial, "{name}/{what}: workers={workers}: {got:?}");
            }
        }
    }
}

/// Peak resident set of this process so far, in KiB (`None` off Linux).
fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[test]
fn lying_isize_trailers_cost_no_memory() {
    // ISIZE sizes the member plan's one allocation, so 64 tiny members
    // that each claim ~4 GiB must be turned away before anything is
    // reserved for them.
    let mut stream = Vec::new();
    for i in 0..64u8 {
        let mut m = member_at(&[b'a' + i % 26; 20], 6, Fields::default());
        let n = m.len();
        m[n - 4..].copy_from_slice(&0xFFFF_FFF0u32.to_le_bytes());
        stream.extend_from_slice(&m);
    }
    let serial = inflater(1).decompress_serial(&stream, Format::Gzip);
    assert!(serial.is_err());
    let before = peak_rss_kib();
    for workers in [1, 2, 4] {
        let inf = inflater(workers);
        assert_eq!(inf.decompress(&stream, Format::Gzip), serial);
        if workers > 1 {
            assert_eq!(inf.stats().serial_fallbacks(), 1, "the plan is dropped");
        }
    }
    if let (Some(before), Some(after)) = (before, peak_rss_kib()) {
        assert!(
            after - before < 16 * 1024,
            "peak RSS grew {} KiB",
            after - before
        );
    }
}

#[test]
fn a_stream_of_false_starts_is_not_scanned_quadratically() {
    // After one real member: 4 MiB of `1f 8b 08 08` (magic + FNAME flag)
    // with no NUL anywhere, so each of the million candidates would scan
    // for its name's terminator to the end of its header window. The
    // planner gives up after one extra pass over the input and the
    // request takes the serial walk, which rejects the second "member".
    let mut stream = gzip(&nx_corpus::mixed(SEED, 10_000));
    stream.extend([0x1F, 0x8B, 8, 8].repeat(1 << 20));
    let serial = inflater(1).decompress_serial(&stream, Format::Gzip);
    assert!(serial.is_err());
    let inf = inflater(2);
    let started = std::time::Instant::now();
    assert_eq!(inf.decompress(&stream, Format::Gzip), serial);
    assert_eq!(inf.stats().serial_fallbacks(), 1);
    // Unbounded, the scan reads ~128 GiB here; bounded, a few MiB.
    assert!(
        started.elapsed().as_secs() < 20,
        "planner scan is not bounded"
    );
}

/// Minimal xorshift64* generator: deterministic fuzz positions without
/// pulling in an RNG dependency.
struct Rng(u64);
impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

#[test]
fn seek_index_random_slices_match_serial_bytes() {
    // Property test over (offset, len) pairs: any indexed random access
    // equals the same slice of a full serial decode.
    let data = nx_corpus::mixed(SEED, 768 * 1024);
    let gz = gzip(&data);
    let inf = inflater(4);
    let (full, index) = {
        let index = inf.build_index(&gz, Format::Gzip).expect("index");
        let full = software::decompress(&gz, Format::Gzip).expect("serial");
        (full, index)
    };
    assert_eq!(index.total_out(), full.len() as u64);
    let mut rng = Rng(SEED | 1);
    for round in 0..64 {
        let offset = (rng.next() % (full.len() as u64 + 1)) as usize;
        let len = (rng.next() % 40_000) as usize;
        let got = inf
            .decompress_at(&gz, &index, offset as u64, len)
            .unwrap_or_else(|e| panic!("round {round}: offset={offset} len={len}: {e}"));
        let want = &full[offset..(offset + len).min(full.len())];
        assert_eq!(got, want, "round {round}: offset={offset} len={len}");
    }
    // Edge cases the RNG may miss.
    assert_eq!(
        inf.decompress_at(&gz, &index, 0, full.len()).expect("all"),
        full
    );
    assert!(inf
        .decompress_at(&gz, &index, full.len() as u64, 10)
        .expect("at end")
        .is_empty());
    assert!(inf
        .decompress_at(&gz, &index, full.len() as u64 + 1, 1)
        .is_err());
}

/// The stream shapes ranged reads are checked on: name, stream, format.
fn seek_shapes() -> Vec<(&'static str, Vec<u8>, Format)> {
    let level = |n: u32| CompressionLevel::new(n).expect("valid level");
    let text = nx_corpus::mixed(SEED ^ 0x5EE4, 2 << 20);
    let mut shapes = vec![(
        "single-member level 6",
        software::compress(&text, level(6), Format::Gzip),
        Format::Gzip,
    )];
    let fastest: Vec<u8> = text
        .chunks(64 << 10)
        .flat_map(|part| software::compress(part, level(1), Format::Gzip))
        .collect();
    shapes.push(("32-member fastest", fastest, Format::Gzip));
    // Random bytes: the encoder stores them, in blocks of up to 65 535.
    let mut rng = Rng(SEED | 1);
    let noise: Vec<u8> = (0..1_500_000).map(|_| (rng.next() >> 24) as u8).collect();
    let mut stored = member_at(&noise, 0, Fields::default());
    stored.extend(member_at(&text[..300_000], 6, Fields::default()));
    shapes.push(("stored-heavy", stored, Format::Gzip));
    // Long runs: distance-1 matches that cross every checkpoint.
    let mut runs = vec![0u8; 700_000];
    runs.extend(std::iter::repeat_n(b"ab".as_slice(), 300_000).flatten());
    runs.extend_from_slice(&text[..100_000]);
    shapes.push(("long runs", gzip(&runs), Format::Gzip));
    let tiny: Vec<u8> = (0..1000u64)
        .flat_map(|i| gzip(&nx_corpus::mixed(i, 1 + (i as usize * 7) % 90)))
        .collect();
    shapes.push(("1000 tiny members", tiny, Format::Gzip));
    if let Some(foreign) = system_gzip("-9c", &text[..1 << 20]) {
        shapes.push(("foreign gzip -9", foreign, Format::Gzip));
    }
    // Plain text: Huffman blocks only, nothing the encoder would store.
    let prose = nx_corpus::CorpusKind::Text.generate(SEED, 1 << 20);
    let zlib = software::compress(&prose, level(6), Format::Zlib);
    shapes.push(("zlib text", zlib, Format::Zlib));
    let raw = software::compress(&text[..1 << 20], level(6), Format::RawDeflate);
    shapes.push(("raw", raw, Format::RawDeflate));
    shapes
}

#[test]
fn ranged_reads_match_serial_at_every_spacing_and_decode_what_they_return() {
    for (name, stream, format) in seek_shapes() {
        let serial = inflater(1)
            .decompress_serial(&stream, format)
            .expect("the shape decodes");
        let total = serial.len() as u64;
        for every in [32 << 10, 64 << 10, 256 << 10, 1 << 20] {
            let inf = ParallelInflater::new(ParallelInflateOptions {
                workers: 2,
                checkpoint_every: every,
            });
            let index = inf.build_index(&stream, format).expect("index");
            assert_eq!(index.total_out(), total, "{name}");
            let wire = index.to_bytes();
            assert_eq!(SeekIndex::from_bytes(&wire).as_ref(), Ok(&index), "{name}");
            let mut rng = Rng(SEED ^ every as u64);
            for round in 0..2_000 {
                // Mostly short reads anywhere; some long, some empty, some
                // clamped by the end of the stream.
                let offset = match round % 8 {
                    0 => total - rng.next() % 5_000.min(total + 1),
                    _ => rng.next() % (total + 1),
                };
                let len = match round % 16 {
                    3 => 0,
                    5 => (rng.next() % 400_000) as usize,
                    // As long as the longest stored block.
                    7 => 65_535,
                    _ => (rng.next() % 9_000) as usize,
                };
                let before = inf.stats().seek_decoded_bytes();
                let got = inf.decompress_at(&stream, &index, offset, len);
                let decoded = inf.stats().seek_decoded_bytes() - before;
                let end = (offset as usize + len).min(serial.len());
                let what = format!("{name} every={every} offset={offset} len={len}");
                assert!(
                    got.as_deref() == Ok(&serial[offset as usize..end]),
                    "{what}"
                );
                // Never more than from the checkpoint to one match past the
                // range, stored blocks included (since issue 25; a stored
                // block used to come whole, up to 65 535 bytes past it).
                let from = index.checkpoints().iter().rev();
                let from = from.map(|c| c.out_offset).find(|&at| at <= offset);
                let asked = end as u64 - from.expect("a checkpoint at 0");
                assert!(decoded <= asked + 258, "{what}: decoded {decoded}");
            }
        }
    }
}

#[test]
fn a_version_1_index_still_loads_and_reads_the_same() {
    // Both files were written by the parent commit's `build_index` /
    // `to_bytes` (whole 32 KB windows, 32 KiB spacing, two members).
    let stream = include_bytes!("fixtures/seek_v1.gz");
    let wire = include_bytes!("fixtures/seek_v1.nxsi");
    assert_eq!(wire[4], 1, "the fixture is a version 1 index");
    let index = SeekIndex::from_bytes(wire).expect("version 1 loads");
    let whole: Vec<_> = index.checkpoints().iter().map(|c| c.runs.clone()).collect();
    assert_eq!(
        whole,
        [vec![], vec![(0, 32_768)], vec![(0, 32_768)], vec![]]
    );
    let inf = inflater(2);
    let serial = inf.decompress_serial(stream, Format::Gzip).expect("serial");
    assert_eq!(index.total_out(), serial.len() as u64);
    // The index built today keeps sparser windows, and since issue 25 its
    // checkpoints sit where the token crossing each 32 KiB mark begins, not
    // at the next block boundary: the same member starts, no gap past the
    // spacing inside a member, more checkpoints.
    let opts = ParallelInflateOptions {
        workers: 1,
        checkpoint_every: 32 * 1024,
    };
    let today = ParallelInflater::new(opts);
    let today = today.build_index(stream, Format::Gzip).expect("index");
    let at = |c: &nx_core::SeekCheckpoint| (c.bit_offset, c.out_offset);
    let places: Vec<_> = today.checkpoints().iter().map(at).collect();
    // The fixture's bare checkpoints are its two member starts.
    let starts = index.checkpoints().iter().filter(|c| c.runs.is_empty());
    assert!(starts.map(at).all(|start| places.contains(&start)));
    let mut gaps = today.checkpoints().windows(2);
    assert!(gaps.all(|w| w[1].out_offset - w[0].out_offset <= 32 * 1024));
    assert!(today.checkpoints().len() > index.checkpoints().len());
    assert!(today.to_bytes().len() * 2 < wire.len());
    let mut rng = Rng(SEED);
    for _ in 0..500 {
        let offset = rng.next() % (serial.len() as u64 + 1);
        let len = (rng.next() % 60_000) as usize;
        let want = &serial[offset as usize..(offset as usize + len).min(serial.len())];
        for index in [&index, &today] {
            let got = inf.decompress_at(stream, index, offset, len);
            assert!(got.as_deref() == Ok(want), "offset={offset} len={len}");
        }
    }
    // Re-serialized, it is a version 3 index that reads the same.
    let again = SeekIndex::from_bytes(&index.to_bytes()).expect("round trip");
    assert_eq!((index.to_bytes()[4], &again), (3, &index));
}

/// The reads pinned for `seek_v2.nxsi`: `(offset, len)` pairs, seeded.
fn v2_reads(total: u64) -> Vec<(u64, usize)> {
    let mut rng = Rng(SEED ^ 0x0002);
    (0..200)
        .map(|_| (rng.next() % (total + 1), (rng.next() % 70_000) as usize))
        .collect()
}

/// One tab-separated row per pinned read through `index`: offset, len,
/// bytes returned, their CRC-32 and the bytes the read decoded.
fn v2_rows(stream: &[u8], index: &SeekIndex) -> String {
    let inf = inflater(2);
    let mut rows = String::new();
    for (offset, len) in v2_reads(index.total_out()) {
        let before = inf.stats().seek_decoded_bytes();
        let got = inf.decompress_at(stream, index, offset, len).expect("read");
        let decoded = inf.stats().seek_decoded_bytes() - before;
        let crc = crc32(&got);
        rows += &format!("{offset}\t{len}\t{}\t{crc:08x}\t{decoded}\n", got.len());
    }
    rows
}

/// `seek_v1.gz`'s index in wire version 2 (32 KiB spacing, checkpoints on
/// block boundaries), and a golden of reads through it: both written by the
/// commit before issue 25 (its `bless_seek_v2`, gone with the format) and
/// never to be regenerated.
#[test]
fn a_version_2_index_still_loads_and_reads_the_same() {
    let stream = include_bytes!("fixtures/seek_v1.gz");
    let wire = include_bytes!("fixtures/seek_v2.nxsi");
    assert_eq!(wire.get(4), Some(&2), "the fixture is a version 2 index");
    let index = SeekIndex::from_bytes(wire).expect("version 2 loads");
    let golden = include_str!("golden/seek_v2_reads.tsv");
    assert_eq!(v2_rows(stream, &index), golden);
}

#[test]
fn seek_index_survives_serialization() {
    let data = nx_corpus::mixed(SEED ^ 7, 256 * 1024);
    let gz = gzip(&data);
    let inf = inflater(2);
    let index = inf.build_index(&gz, Format::Gzip).expect("index");
    let wire = index.to_bytes();
    let back = SeekIndex::from_bytes(&wire).expect("parses");
    assert_eq!(back.total_out(), index.total_out());
    assert_eq!(back.checkpoints().len(), index.checkpoints().len());
    let got = inf
        .decompress_at(&gz, &back, 100_000, 5_000)
        .expect("seek via deserialized index");
    let full = software::decompress(&gz, Format::Gzip).expect("serial");
    assert_eq!(got, &full[100_000..105_000]);
    // Damaged wire forms are rejected, not misread.
    assert!(SeekIndex::from_bytes(&wire[..wire.len() - 1]).is_err());
    let mut bad = wire.clone();
    bad[0] ^= 0xFF;
    assert!(SeekIndex::from_bytes(&bad).is_err());
}

#[test]
fn facade_parallel_decode_and_seek_work_end_to_end() {
    let nx = Nx::power9();
    let (stream, payload) = multi_member(3);
    let out = nx
        .decompress_parallel(&stream, Format::Gzip)
        .expect("facade decode");
    assert_eq!(out, payload);
    let index = nx.build_index(&stream, Format::Gzip).expect("facade index");
    let got = nx
        .decompress_at(&stream, &index, 40_000, 8_192)
        .expect("facade seek");
    assert_eq!(got, &payload[40_000..48_192]);
    let s = nx.decode_parallel_stats();
    assert!(s.requests() >= 1);
    assert!(s.seek_index_hits() >= 1);
    assert!(s.bytes_out() >= payload.len() as u64);
}
