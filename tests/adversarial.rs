//! Adversarial-stream battery: hostile inputs through every public
//! decode surface.
//!
//! Every mutation of a valid stream — truncation, bit flips, corrupted
//! length/checksum fields, wholesale garbage — must come back as a typed
//! `Err`, a correct `Ok`, or a detected-corruption `Ok`; never a panic,
//! a hang, or output past the caller's limit. The decoders are the
//! attack surface of the stack (they parse untrusted bytes), so this
//! battery runs the same corpus through four of them:
//!
//! * `nx_deflate::inflate_with_limit` — the raw DEFLATE oracle,
//! * `nx_core::software::decompress` — container parsing (gzip/zlib
//!   headers and trailers) over the same core,
//! * `Nx::decompress` — the accelerator facade (framing + engine model),
//! * `nx_842::decompress_with_limit` — the 842 template parser.

use nx_core::{software, Format, Nx};
use nx_deflate::CompressionLevel;

/// Output cap handed to the `*_with_limit` decoders: generous enough for
/// every valid stream in the corpus, tight enough that a decoder running
/// away on corrupt lengths trips it instead of ballooning.
const LIMIT: usize = 1 << 20;

/// splitmix64 — the battery's only randomness; fully deterministic.
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

/// Valid streams at every level and framing, from a structured corpus.
fn valid_streams() -> Vec<(Format, Vec<u8>)> {
    let mut streams = Vec::new();
    for (i, size) in [0usize, 1, 257, 4096, 16384].iter().enumerate() {
        let data = nx_corpus::mixed(0xAD5 + i as u64, *size);
        for level in [0u32, 1, 6, 9] {
            let lvl = CompressionLevel::new(level).expect("valid level");
            for format in [Format::RawDeflate, Format::Gzip, Format::Zlib] {
                streams.push((format, software::compress(&data, lvl, format)));
            }
        }
    }
    streams
}

/// One mutated variant of `base` (never a verbatim copy is required —
/// correctness of valid streams is covered elsewhere).
fn mutate(base: &[u8], rng: &mut Rng) -> Vec<u8> {
    let mut m = base.to_vec();
    match rng.below(6) {
        // Truncate anywhere, including to empty.
        0 => m.truncate(rng.below(m.len() + 1)),
        // Flip one bit.
        1 if !m.is_empty() => {
            let i = rng.below(m.len());
            m[i] ^= 1 << rng.below(8);
        }
        // Stomp a whole byte.
        2 if !m.is_empty() => {
            let i = rng.below(m.len());
            m[i] = rng.next() as u8;
        }
        // Corrupt the tail (trailer CRC/ISIZE/Adler live there).
        3 if !m.is_empty() => {
            let n = m.len();
            let span = rng.below(8.min(n)) + 1;
            for b in &mut m[n - span..] {
                *b = rng.next() as u8;
            }
        }
        // Duplicate a slice into the middle.
        4 if !m.is_empty() => {
            let start = rng.below(m.len());
            let end = (start + rng.below(16) + 1).min(m.len());
            let slice = m[start..end].to_vec();
            let at = rng.below(m.len());
            m.splice(at..at, slice);
        }
        // Pure garbage of similar size.
        _ => {
            let n = rng.below(base.len().max(16)) + 1;
            m = (0..n).map(|_| rng.next() as u8).collect();
        }
    }
    m
}

/// The shared assertion: a hostile buffer through every decode surface.
/// Returning at all (no panic, no runaway allocation) is most of the
/// point; the explicit checks pin the output-limit contract and the
/// software/accelerator agreement.
fn assault(nx: &Nx, format: Format, m: &[u8]) {
    // The one-shot call decodes on this thread's long-lived scratch, whose
    // table memo the earlier cases filled; a fresh scratch is the oracle.
    let warm = nx_deflate::inflate_with_limit(m, LIMIT);
    let mut fresh = nx_deflate::Inflater::new(m);
    let fresh = fresh.run(LIMIT).map(|()| fresh.into_output());
    assert_eq!(warm, fresh, "long-lived and fresh scratch disagree");
    if let Ok(out) = warm {
        assert!(out.len() <= LIMIT, "inflate exceeded its output limit");
    }
    let sw = software::decompress(m, format);
    let nx = nx.decompress(m, format);
    match (&sw, &nx) {
        (Ok(a), Ok(b)) => assert_eq!(
            a, &b.bytes,
            "software and accelerator accepted the same stream but disagreed"
        ),
        (Err(_), Err(_)) => {}
        (a, b) => panic!(
            "software and accelerator disagree on acceptance: sw={:?} nx={:?}",
            a.is_ok(),
            b.is_ok()
        ),
    }
}

#[test]
fn mutated_streams_never_panic_or_overrun() {
    let streams = valid_streams();
    let nx = Nx::power9();
    let mut rng = Rng(0xBA771E);
    for (format, base) in &streams {
        for _ in 0..24 {
            let m = mutate(base, &mut rng);
            assault(&nx, *format, &m);
        }
    }
}

#[test]
fn every_truncation_of_a_small_stream_is_handled() {
    // Exhaustive truncation sweep on one stream per framing: every
    // prefix boundary (header, mid-block, trailer) must be a typed
    // error or a clean parse, never a panic.
    let data = nx_corpus::mixed(0x7211, 2048);
    let nx = Nx::power9();
    let lvl = CompressionLevel::new(6).expect("valid level");
    for format in [Format::RawDeflate, Format::Gzip, Format::Zlib] {
        let full = software::compress(&data, lvl, format);
        for cut in 0..full.len() {
            assault(&nx, format, &full[..cut]);
        }
    }
}

#[test]
fn random_garbage_is_rejected_not_parsed_forever() {
    let nx = Nx::power9();
    let mut rng = Rng(0x6A2BA6E);
    for _ in 0..256 {
        let n = rng.below(4096);
        let garbage: Vec<u8> = (0..n).map(|_| rng.next() as u8).collect();
        for format in [Format::RawDeflate, Format::Gzip, Format::Zlib] {
            assault(&nx, format, &garbage);
        }
    }
}

#[test]
fn corrupted_length_fields_are_caught() {
    // Stored blocks carry explicit LEN/NLEN; gzip carries ISIZE. Stomp
    // each directly instead of hoping the random mutator finds them.
    let data = nx_corpus::mixed(0x1E46, 4096);
    let lvl = CompressionLevel::new(0).expect("stored blocks");
    let mut raw = software::compress(&data, lvl, Format::RawDeflate);
    // Byte 0 is the block header; bytes 1..5 are LEN/NLEN of the first
    // stored block. Break the complement invariant.
    if raw.len() > 4 {
        raw[3] ^= 0xFF;
        assert!(
            nx_deflate::inflate_with_limit(&raw, LIMIT).is_err(),
            "LEN/NLEN mismatch must be rejected"
        );
    }
    let mut gz = software::compress(&data, lvl, Format::Gzip);
    let n = gz.len();
    for b in &mut gz[n - 4..] {
        *b ^= 0x5A; // ISIZE now disagrees with the inflated length
    }
    assert!(
        software::decompress(&gz, Format::Gzip).is_err(),
        "gzip ISIZE mismatch must be rejected"
    );
}

#[test]
fn mutated_842_streams_never_panic_or_overrun() {
    let mut rng = Rng(0x842_842);
    for (i, size) in [1usize, 64, 512, 4096].iter().enumerate() {
        let data = nx_corpus::mixed(0x842 + i as u64, *size);
        let base = nx_842::compress(&data);
        for _ in 0..48 {
            let m = mutate(&base, &mut rng);
            if let Ok(out) = nx_842::decompress_with_limit(&m, LIMIT) {
                assert!(out.len() <= LIMIT, "842 decode exceeded its output limit");
            }
        }
        // Exhaustive truncations as well — the 842 bit reader walks
        // templates right up to the end of the buffer.
        for cut in 0..base.len() {
            if let Ok(out) = nx_842::decompress_with_limit(&base[..cut], LIMIT) {
                assert!(out.len() <= LIMIT);
            }
        }
    }
}

#[test]
fn decode_is_deterministic_on_hostile_input() {
    // Same hostile buffer twice → byte-identical verdicts. Guards
    // against uninitialized reads or state leaking between calls.
    let mut rng = Rng(0xD37E);
    let data = nx_corpus::mixed(0xD37E, 4096);
    let lvl = CompressionLevel::new(6).expect("valid level");
    let base = software::compress(&data, lvl, Format::Zlib);
    for _ in 0..64 {
        let m = mutate(&base, &mut rng);
        let a = software::decompress(&m, Format::Zlib);
        let b = software::decompress(&m, Format::Zlib);
        match (a, b) {
            (Ok(x), Ok(y)) => assert_eq!(x, y),
            (Err(x), Err(y)) => assert_eq!(format!("{x}"), format!("{y}")),
            _ => panic!("nondeterministic accept/reject on identical input"),
        }
    }
}

/// A gzip member with every optional header field (FEXTRA + FNAME +
/// FCOMMENT + FHCRC, header CRC-16 right) around `data`, and the length
/// of that header.
fn member_with_full_header(data: &[u8]) -> (Vec<u8>, usize) {
    // FLG 0x1E = FHCRC | FEXTRA | FNAME | FCOMMENT; MTIME set, OS = unix.
    let mut gz = vec![0x1F, 0x8B, 8, 0x1E, 0x78, 0x56, 0x34, 0x12, 0, 3];
    gz.extend_from_slice(b"\x05\x00ab\x01\x00x"); // XLEN, one subfield
    gz.extend_from_slice(b"a file name\0a comment \x1f\x8b\x08 with a magic in it\0");
    let hcrc = nx_deflate::crc32::crc32(&gz) as u16;
    gz.extend_from_slice(&hcrc.to_le_bytes());
    let header = gz.len();
    let lvl = CompressionLevel::new(6).expect("valid level");
    gz.extend_from_slice(&software::compress(data, lvl, Format::RawDeflate));
    nx_deflate::gzip::write_trailer_into(
        &mut gz,
        nx_deflate::crc32::crc32(data),
        data.len() as u64,
    );
    (gz, header)
}

/// Every single-stream decode door's verdict on `m`, by name.
fn stream_doors(
    nx: &Nx,
    format: Format,
    m: &[u8],
) -> Vec<(&'static str, nx_core::Result<Vec<u8>>)> {
    let mut session = nx.scratch_session(6).expect("valid level");
    let mut into = Vec::new();
    let scratch = session.decompress_into(m, format, &mut into);
    let deflate = match format {
        Format::Gzip => nx_deflate::gzip::decompress(m),
        Format::Zlib => nx_deflate::zlib::decompress(m),
        Format::RawDeflate => nx_deflate::inflate(m),
    };
    vec![
        ("nx_deflate", deflate.map_err(Into::into)),
        ("software::decompress", software::decompress(m, format)),
        ("Nx::decompress", nx.decompress(m, format).map(|d| d.bytes)),
        ("ScratchSession::decompress_into", scratch.map(|()| into)),
    ]
}

/// Every gzip decode door's verdict on `m`, by name: the single-stream
/// doors plus the two that also read multi-member files.
fn gzip_doors(nx: &Nx, m: &[u8]) -> Vec<(&'static str, nx_core::Result<Vec<u8>>)> {
    let indexed = nx
        .build_index(m, Format::Gzip)
        .and_then(|index| nx.decompress_at(m, &index, 0, usize::MAX));
    let mut doors = stream_doors(nx, Format::Gzip, m);
    doors.push((
        "Nx::decompress_parallel",
        nx.decompress_parallel(m, Format::Gzip),
    ));
    doors.push(("Nx::build_index", indexed));
    doors
}

#[test]
fn every_gzip_door_reads_and_checks_the_same_optional_header() {
    // `framing::unwrap` used to walk the header itself and skip FHCRC, so
    // a damaged header decoded `Ok` through two doors and failed the rest.
    let data = nx_corpus::mixed(0xF4C2C, 700);
    let (gz, header) = member_with_full_header(&data);
    let nx = Nx::power9();
    for (door, got) in gzip_doors(&nx, &gz) {
        assert_eq!(got.as_deref(), Ok(&data[..]), "{door}: intact header");
    }
    // One header bit flipped: where the header walk itself rejects the
    // member, every door reports that same error; nowhere is it accepted.
    for bit in 0..header * 8 {
        let mut m = gz.clone();
        m[bit / 8] ^= 1 << (bit % 8);
        let walk = nx_deflate::gzip::parse_header(&m).err();
        for (door, got) in gzip_doors(&nx, &m) {
            assert!(got.is_err(), "{door}: accepted header bit {bit} flipped");
            if let Some(e) = &walk {
                assert_eq!(
                    got,
                    Err(e.clone().into()),
                    "{door}: header bit {bit} flipped"
                );
            }
        }
    }
    // Every truncation inside the header: a typed error, never a panic.
    for cut in 0..=header {
        for (door, got) in gzip_doors(&nx, &gz[..cut]) {
            assert!(got.is_err(), "{door}: accepted a header cut at {cut}");
        }
    }
}

#[test]
fn every_door_checks_the_trailer_where_the_deflate_stream_ends() {
    // The accelerator and `software` doors used to read the trailer off
    // the end of the buffer whatever the decoder consumed: junk in front of
    // it was ignored, and two equal members decoded `Ok` as one.
    use nx_deflate::Error as E;
    let nx = Nx::power9();
    let data = nx_corpus::mixed(0xE0D, 2200);
    let other = nx_corpus::mixed(0xE0E, 2200);
    let level = |l| CompressionLevel::new(l).expect("valid level");
    // A final block ending mid-byte, hand-built: 3 header bits, three
    // 8-bit fixed codes and the 7-bit end-of-block make 34 bits.
    let abc: Vec<_> = b"abc"
        .iter()
        .map(|&b| nx_deflate::Token::Literal(b))
        .collect();
    let mut w = nx_deflate::bitio::BitWriter::new();
    nx_deflate::encoder::encode_fixed_block(&mut w, &abc, true);
    assert_eq!(w.bit_len(), 34);
    let mid_byte = w.finish();
    for format in [Format::Gzip, Format::Zlib] {
        let gzip = format == Format::Gzip;
        let trailer = if gzip { 8 } else { 4 };
        // gzip reads the trailer first (junk is a wrong checksum), zlib
        // asks first whether the trailer is the end of the buffer.
        let junk_in_front = if gzip {
            E::GzipChecksumMismatch
        } else {
            E::TrailingData
        };
        let framed_abc = if gzip {
            nx_deflate::gzip::wrap_deflate(&mid_byte, nx_deflate::crc32::crc32(b"abc"), 3)
        } else {
            nx_deflate::zlib::wrap_deflate(&mid_byte, nx_deflate::adler32::adler32(b"abc"))
        };
        let goods = [
            (
                "dynamic",
                software::compress(&data, level(6), format),
                &data[..],
            ),
            // Stored blocks: the stream ends on a byte boundary.
            (
                "stored",
                software::compress(&data, level(0), format),
                &data[..],
            ),
            ("mid-byte", framed_abc, &b"abc"[..]),
        ];
        let second = software::compress(&other, level(6), format);
        for (shape, good, plain) in &goods {
            let at = good.len() - trailer;
            let spliced = [&good[..at], b"JUNKJUNKJUNK", &good[at..]].concat();
            let cases = [
                ("intact", good.clone(), None),
                (
                    "junk before the trailer",
                    spliced,
                    Some(junk_in_front.clone()),
                ),
                (
                    "junk after the trailer",
                    [good, &b"JUNK"[..]].concat(),
                    Some(E::TrailingData),
                ),
                (
                    "two equal members",
                    [&good[..], good].concat(),
                    Some(E::TrailingData),
                ),
                (
                    "two different members",
                    [&good[..], &second].concat(),
                    Some(E::TrailingData),
                ),
            ];
            for (case, m, error) in cases {
                let want = error.map_or(Ok(plain.to_vec()), |e| Err(nx_core::Error::from(e)));
                for (door, got) in stream_doors(&nx, format, &m) {
                    assert_eq!(got, want, "{format:?} {shape} {case}: {door}");
                }
            }
        }
    }
}
