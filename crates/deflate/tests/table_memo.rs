//! The inflate table memo (`InflateScratch`'s remembered dynamic headers),
//! judged against one oracle: the same stream through a fresh scratch. A
//! long-lived scratch must give the identical `Result` — bytes or error
//! variant — and its `(hits, builds)` counters must show the route taken:
//! a hit only for a header equal in every bit to one whose tables are kept
//! (first sighting: the string is remembered; second: the tables are kept).

use nx_corpus::CorpusKind;
use nx_deflate::bitio::BitWriter;
use nx_deflate::encoder::CODELEN_ORDER;
use nx_deflate::{
    deflate, inflate_into, inflate_traced_into, BlockTrace, CompressionLevel, Error,
    InflateScratch, MarkerInflater,
};

/// The block records of one of our own streams.
fn blocks_of(stream: &[u8]) -> Vec<BlockTrace> {
    let (scratch, out) = (&mut InflateScratch::new(), &mut Vec::new());
    let trace = inflate_traced_into(stream, 0, scratch, out).expect("our own stream");
    trace.blocks
}

/// More distinct headers than the memo has ways (8).
const HEADERS: usize = 12;

/// `n` single-block dynamic streams, each with a header of its own, and
/// what they decode to.
fn streams(n: usize) -> Vec<(Vec<u8>, Vec<u8>)> {
    let level = CompressionLevel::new(6).expect("6 is a valid level");
    let kinds = [CorpusKind::Json, CorpusKind::Text, CorpusKind::Logs];
    (0..n)
        .map(|i| {
            let data = kinds[i % 3].generate(900 + i as u64, 2048 + 160 * i);
            let stream = deflate(&data, level);
            let blocks = blocks_of(&stream);
            assert_eq!((blocks.len(), blocks[0].btype), (1, 2), "one dynamic block");
            (stream, data)
        })
        .collect()
}

/// Bits of `stream`'s first block header, BFINAL and BTYPE included: the
/// memo's string is stream bits `3..header_end`.
fn header_end(stream: &[u8]) -> usize {
    blocks_of(stream)[0].header_bits as usize
}

fn flip(stream: &[u8], bit: usize) -> Vec<u8> {
    let mut s = stream.to_vec();
    s[bit / 8] ^= 1 << (bit % 8);
    s
}

fn bytes_via(scratch: &mut InflateScratch, stream: &[u8]) -> Result<Vec<u8>, Error> {
    let mut out = Vec::new();
    inflate_into(stream, scratch, &mut out).map(|()| out)
}

/// The marker-mode decoder calls `read_dynamic_tables` itself.
fn cells_via(scratch: &mut InflateScratch, stream: &[u8]) -> Result<Vec<u16>, Error> {
    let tables = std::mem::take(scratch);
    let mut pass = MarkerInflater::with_reuse_at(stream, (0, 0), tables, Vec::new())?;
    let mut status = Ok(());
    while status.is_ok() && !pass.is_finished() {
        status = pass.decode_block(1 << 20);
    }
    let (cells, tables) = pass.into_parts();
    *scratch = tables;
    status.map(|()| cells)
}

/// Runs `check` once per decoder: both must keep every property below.
fn both_decoders(check: impl Fn(&dyn Fn(&mut InflateScratch, &[u8]) -> Result<Vec<u16>, Error>)) {
    check(&|scratch, s| Ok(bytes_via(scratch, s)?.into_iter().map(u16::from).collect()));
    check(&cells_via);
}

/// A dynamic block header over the code-length code {1: 1 bit, 18: 1 bit}
/// (symbol 1 is code `0`, symbol 18 code `1` + 7 repeat bits), then `body`.
fn header_with(body: impl FnOnce(&mut BitWriter)) -> Vec<u8> {
    let mut w = BitWriter::new();
    w.write_bits(1, 1); // BFINAL
    w.write_bits(0b10, 2); // dynamic
    w.write_bits(0, 5); // HLIT = 257
    w.write_bits(0, 5); // HDIST = 1
    w.write_bits(15, 4); // HCLEN = 19
    for sym in CODELEN_ORDER {
        w.write_bits(u64::from(sym == 1 || sym == 18), 3);
    }
    body(&mut w);
    w.write_bits(0, 32); // something to read after the header
    w.finish()
}

/// 257 literal/length codes of one bit each: the tables do not build.
fn oversubscribed() -> Vec<u8> {
    header_with(|w| (0..258).for_each(|_| w.write_bits(0, 1)))
}

/// Lengths 1, 1, then 255 zeros: symbol 256 has no code.
fn missing_end_of_block() -> Vec<u8> {
    header_with(|w| {
        w.write_bits(0, 2);
        w.write_bits(1 | (138 - 11) << 1, 8);
        w.write_bits(1 | (117 - 11) << 1, 8);
        w.write_bits(0, 1); // the distance code
    })
}

#[test]
fn one_scratch_agrees_with_fresh_ones_over_more_headers_than_ways() {
    let good = streams(HEADERS);
    // Each stream also cut short and with a body bit flipped: errors (or
    // other bytes) behind a header the memo may hold.
    let mut cases: Vec<Vec<u8>> = Vec::new();
    for (stream, _) in &good {
        cases.push(stream.clone());
        cases.push(stream[..stream.len() / 2].to_vec());
        cases.push(flip(stream, header_end(stream) + 40));
    }
    both_decoders(|decode| {
        let mut shared = InflateScratch::new();
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        for _ in 0..600 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let case = &cases[(state >> 33) as usize % cases.len()];
            assert_eq!(
                decode(&mut shared, case),
                decode(&mut InflateScratch::new(), case)
            );
        }
        let (hits, builds) = shared.table_stats();
        assert_eq!(hits + builds, 600, "every case reaches its one header");
        assert!(hits > 100, "{hits} hits: repeated headers must be recalled");
        // More builds than distinct headers: ways were evicted and rebuilt.
        assert!(builds > 4 * HEADERS as u64, "{builds} builds");
    });
    // And each stream decodes to its payload, remembered or evicted.
    let mut shared = InflateScratch::new();
    for (stream, data) in good.iter().chain(&good).chain(good.iter().rev()) {
        assert!(bytes_via(&mut shared, stream).as_ref() == Ok(data));
    }
}

#[test]
fn a_header_equal_up_to_any_compare_boundary_is_a_build_not_a_hit() {
    let (stream, data) = &streams(1)[0];
    let end = header_end(stream);
    assert!(end - 3 > 96, "a header of several compare words");
    both_decoders(|decode| {
        let mut warm = InflateScratch::new();
        let whole = decode(&mut warm, stream).expect("valid");
        assert_eq!(whole.len(), data.len());
        assert_eq!(
            warm.table_stats(),
            (0, 1),
            "first sighting: the string alone"
        );
        assert!(decode(&mut warm, stream).as_ref() == Ok(&whole));
        assert_eq!(
            warm.table_stats(),
            (0, 2),
            "second: it repeats, tables kept"
        );
        assert!(decode(&mut warm, stream).as_ref() == Ok(&whole));
        assert_eq!(warm.table_stats(), (1, 2), "from the third on, a hit");
        // The header's first `k` bits kept, bit `k` flipped, for every `k`
        // around a 32-bit word boundary of the compare and for the last bit.
        let boundaries = (32..end - 3).step_by(32).flat_map(|b| [b - 1, b, b + 1]);
        for k in boundaries.chain([0, end - 4]).filter(|&k| k < end - 3) {
            let near = flip(stream, 3 + k);
            let hits_before = warm.table_stats().0;
            let fresh = decode(&mut InflateScratch::new(), &near);
            assert!(decode(&mut warm, &near) == fresh, "header bit {k} flipped");
            assert_eq!(warm.table_stats().0, hits_before, "bit {k}: a hit");
            // Whatever that built, the true header is still (or again) known.
            assert!(decode(&mut warm, stream).as_ref() == Ok(&whole), "bit {k}");
        }
        // The first bit *behind* the header is not part of the key.
        let (hits, builds) = warm.table_stats();
        let behind = flip(stream, end);
        assert!(decode(&mut warm, &behind) == decode(&mut InflateScratch::new(), &behind));
        assert_eq!(warm.table_stats(), (hits + 1, builds));
    });
}

#[test]
fn input_cut_inside_a_remembered_header_fails_as_it_does_uncached() {
    let (stream, _) = &streams(1)[0];
    let end = header_end(stream);
    both_decoders(|decode| {
        let mut warm = InflateScratch::new();
        decode(&mut warm, stream).expect("valid");
        // Every cut that leaves the header incomplete.
        for cut in 1..=(end - 1) / 8 {
            let short = &stream[..cut];
            let got = decode(&mut warm, short);
            assert_eq!(got, decode(&mut InflateScratch::new(), short), "cut {cut}");
            assert_eq!(got, Err(Error::UnexpectedEof), "cut {cut}");
        }
        assert_eq!(
            warm.table_stats(),
            (0, 1),
            "a prefix is neither hit nor build"
        );
    });
}

#[test]
fn a_failed_build_neither_poisons_nor_parks() {
    let good = streams(8);
    let bad = [oversubscribed(), missing_end_of_block()];
    both_decoders(|decode| {
        // One header kept (string, tables, hit), then the failures: each is
        // neither hit nor build however often it comes, and the kept header
        // reads as before.
        let mut scratch = InflateScratch::new();
        let first = decode(&mut scratch, &good[0].0).expect("valid");
        for _ in 0..2 {
            assert!(decode(&mut scratch, &good[0].0).as_ref() == Ok(&first));
        }
        assert_eq!(scratch.table_stats(), (1, 2));
        for (n, bad) in bad.iter().enumerate() {
            assert_eq!(decode(&mut scratch, bad), Err(Error::InvalidCodeLengths));
            assert_eq!(decode(&mut scratch, bad), Err(Error::InvalidCodeLengths));
            assert!(decode(&mut scratch, &good[0].0).as_ref() == Ok(&first));
            assert_eq!(scratch.table_stats(), (2 + n as u64, 2));
        }

        // With every way keeping tables: a failure in between leaves all
        // eight where they were.
        let mut scratch = InflateScratch::new();
        let whole: Vec<_> = good.iter().map(|(s, _)| decode(&mut scratch, s)).collect();
        for bad in &bad {
            assert_eq!(decode(&mut scratch, bad), Err(Error::InvalidCodeLengths));
            for ((stream, data), whole) in good.iter().zip(&whole) {
                assert!(&decode(&mut scratch, stream) == whole);
                assert_eq!(whole.as_ref().map(Vec::len), Ok(data.len()));
            }
        }
        assert_eq!(scratch.table_stats(), (8, 16), "string, tables, hit: each");
    });
}

#[test]
fn both_decoders_share_one_memo() {
    let (stream, data) = &streams(1)[0];
    let mut scratch = InflateScratch::new();
    assert!(bytes_via(&mut scratch, stream).as_ref() == Ok(data));
    assert!(bytes_via(&mut scratch, stream).as_ref() == Ok(data));
    let cells = cells_via(&mut scratch, stream).expect("valid");
    assert_eq!(
        scratch.table_stats(),
        (1, 2),
        "built by one, recalled by the other"
    );
    assert!(cells.iter().map(|&c| c as u8).eq(data.iter().copied()));
    assert!(cells.iter().all(|&c| c < 256), "no window to refer to");
}
