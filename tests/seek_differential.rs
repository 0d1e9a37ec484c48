//! Ranged reads against their oracle, the slice of a serial decode, with
//! checkpoints inside blocks (issue 25): a checkpoint sits where the token
//! crossing each `checkpoint_every` mark begins, and a read enters there at
//! `(block_bit, bit_offset)` — the block's header is read again, the body
//! before the token is skipped.
//!
//! Every read is checked at the points where an off-by-one would show: each
//! checkpoint's output offset and its neighbours, each block boundary and its
//! neighbours, and seeded offsets, for lengths of one byte, 4 KiB, 64 KiB and
//! the rest of the stream. The route is asserted too: how far apart the
//! checkpoints are and how much a read decodes for what it returns.

use nx_core::{
    software, CompressOptions, Error, Format, Nx, ParallelInflateOptions, ParallelInflater,
    SeekIndex,
};
use nx_deflate::bitio::BitWriter;
use nx_deflate::{CompressionLevel, Inflater, Level};

const SEED: u64 = 0x5EE6_D1FF;

/// Minimal xorshift64 generator (the one `nxbench` draws its offsets with).
struct Rng(u64);
impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

fn inflater(every: usize) -> ParallelInflater {
    ParallelInflater::new(ParallelInflateOptions {
        workers: 2,
        chunk_size: 32 * 1024,
        checkpoint_every: every,
    })
}

/// Output offsets of the block boundaries of the raw DEFLATE stream `raw`.
fn block_ends(raw: &[u8]) -> Vec<u64> {
    let mut inf = Inflater::new(raw);
    let mut ends = Vec::new();
    while !inf.is_finished() {
        inf.decode_block(usize::MAX).expect("valid stream");
        ends.push(inf.output().len() as u64);
    }
    ends
}

/// A raw stream, one gzip member of it and the payload both decode to.
struct Shape {
    name: String,
    stream: Vec<u8>,
    format: Format,
    payload: Vec<u8>,
    /// Output offsets of block boundaries (of the first member, for gzip).
    blocks: Vec<u64>,
}

fn shapes() -> Vec<Shape> {
    let mut shapes = Vec::new();
    for &kind in nx_corpus::CorpusKind::all() {
        let payload = kind.generate(SEED, 200 << 10);
        for level in [0, 1, 6, 9] {
            let level_ = CompressionLevel::new(level).expect("valid level");
            let raw = nx_deflate::deflate(&payload, level_);
            shapes.push(Shape {
                name: format!("{} level {level}", kind.name()),
                blocks: block_ends(&raw),
                stream: software::compress(&payload, level_, Format::Gzip),
                format: Format::Gzip,
                payload: payload.clone(),
            });
        }
    }
    // One fixed-Huffman block for the whole payload.
    let payload = nx_corpus::mixed(SEED, 300 << 10);
    let tokens = nx_deflate::deflate_tokens(&payload, CompressionLevel::new(6).expect("6"));
    let mut w = BitWriter::new();
    nx_deflate::encoder::encode_fixed_block(&mut w, &tokens, true);
    let raw = w.finish();
    shapes.push(Shape {
        name: "fixed only".into(),
        blocks: block_ends(&raw),
        stream: raw,
        format: Format::RawDeflate,
        payload,
    });
    // 32 gzip members.
    let parts: Vec<Vec<u8>> = (0..32)
        .map(|i| nx_corpus::mixed(SEED + i, 12_000))
        .collect();
    let level = CompressionLevel::new(6).expect("6");
    shapes.push(Shape {
        name: "32 members".into(),
        blocks: Vec::new(),
        stream: parts
            .iter()
            .flat_map(|p| software::compress(p, level, Format::Gzip))
            .collect(),
        format: Format::Gzip,
        payload: parts.concat(),
    });
    shapes
}

#[test]
fn reads_equal_the_serial_slice_around_every_checkpoint_and_block_boundary() {
    let lens = |total: u64| [1usize, 4 << 10, 64 << 10, total as usize];
    for shape in shapes() {
        let inf = inflater(32 << 10);
        let serial = inf.decompress_serial(&shape.stream, shape.format);
        assert!(serial.as_deref() == Ok(&shape.payload), "{}", shape.name);
        let total = shape.payload.len() as u64;
        let index = inf.build_index(&shape.stream, shape.format).expect("index");
        let wire = index.to_bytes();
        assert_eq!(
            SeekIndex::from_bytes(&wire).as_ref(),
            Ok(&index),
            "{}",
            shape.name
        );
        let mut at: Vec<u64> = Vec::new();
        for c in index.checkpoints() {
            at.extend([
                c.out_offset.saturating_sub(1),
                c.out_offset,
                c.out_offset + 1,
            ]);
        }
        for &b in &shape.blocks {
            at.extend([b.saturating_sub(1), b, b + 1]);
        }
        let mut rng = Rng(SEED ^ total);
        at.extend((0..8).map(|_| rng.next() % (total + 1)));
        for offset in at.into_iter().filter(|&o| o <= total) {
            for len in lens(total) {
                let got = inf.decompress_at(&shape.stream, &index, offset, len);
                let end = (offset as usize)
                    .saturating_add(len)
                    .min(shape.payload.len());
                let want = &shape.payload[offset as usize..end];
                assert!(
                    got.as_deref() == Ok(want),
                    "{}: offset {offset} len {len}",
                    shape.name
                );
            }
        }
        // Mid-block checkpoints exist wherever blocks outgrow the spacing.
        let inside = index
            .checkpoints()
            .iter()
            .filter(|c| c.block_bit < c.bit_offset);
        if shape.blocks.first().is_some_and(|&b| b > 64 << 10) {
            assert!(
                inside.count() > 0,
                "{}: no checkpoint inside a block",
                shape.name
            );
        }
    }
}

#[test]
fn a_read_inside_a_megabyte_block_decodes_from_the_mark_before_it() {
    // One dynamic Huffman block for 1.5 MiB: at the commit before issue 25
    // the only checkpoint was its start, so a read at 1 MiB decoded the
    // megabyte before it.
    let payload = nx_corpus::mixed(SEED, 3 << 19);
    let tokens = nx_deflate::deflate_tokens(&payload, CompressionLevel::new(6).expect("6"));
    let mut w = BitWriter::new();
    nx_deflate::encoder::encode_dynamic_block(&mut w, &tokens, true);
    let raw = w.finish();
    assert_eq!(block_ends(&raw), [payload.len() as u64], "one block");
    let inf = inflater(64 << 10);
    let index = inf.build_index(&raw, Format::RawDeflate).expect("index");
    for len in [1usize, 4096, 64 << 10] {
        let before = inf.stats().seek_decoded_bytes();
        let got = inf.decompress_at(&raw, &index, 1 << 20, len).expect("read");
        let decoded = inf.stats().seek_decoded_bytes() - before;
        assert!(got == payload[1 << 20..(1 << 20) + len], "len {len}");
        assert!(
            decoded <= (64 << 10) + len as u64 + 258,
            "len {len}: decoded {decoded}"
        );
    }
}

/// Offsets of each checkpoint's record in `wire` (a version 3 index).
fn records(index: &SeekIndex) -> Vec<usize> {
    let mut at = 18;
    let mut starts = Vec::new();
    for c in index.checkpoints() {
        starts.push(at);
        at += 8 + 8 + 8 + 4 + 2 + 4 * c.runs.len() + c.window.len();
    }
    starts
}

fn put(wire: &mut [u8], at: usize, v: u64) {
    wire[at..at + 8].copy_from_slice(&v.to_le_bytes());
}

#[test]
fn forged_entry_points_are_refused_or_read_within_bounds() {
    // A stored member then a Huffman one: checkpoints inside stored payloads
    // and inside Huffman blocks.
    let noise = nx_corpus::CorpusKind::Random.generate(SEED, 300_000);
    let text = nx_corpus::CorpusKind::Text.generate(SEED, 600_000);
    let mut stream = software::compress(&noise, CompressionLevel::new(0).expect("0"), Format::Gzip);
    let member = stream.len();
    stream.extend(software::compress(
        &text,
        CompressionLevel::new(6).expect("6"),
        Format::Gzip,
    ));
    let payload = [noise.clone(), text].concat();
    // Where the Huffman member's blocks end, in the index's bits.
    let body = member
        + nx_deflate::gzip::parse_header(&stream[member..])
            .expect("gzip")
            .1;
    let mut walk = Inflater::new(&stream[body..]);
    let mut ends = Vec::new();
    while !walk.is_finished() {
        walk.decode_block(usize::MAX).expect("valid stream");
        ends.push(body as u64 * 8 + walk.bit_position());
    }
    let inf = inflater(64 << 10);
    let index = inf.build_index(&stream, Format::Gzip).expect("index");
    let (cps, wire, starts) = (index.checkpoints(), index.to_bytes(), records(&index));
    let inside = |i: usize| cps[i].block_bit < cps[i].bit_offset;
    let stored = (1..cps.len()).find(|&i| cps[i].out_offset < noise.len() as u64 && inside(i));
    let stored = stored.expect("a checkpoint inside a stored block");
    // A checkpoint inside a Huffman block whose end comes before the next.
    let block_end = |i: usize| ends.iter().copied().find(|&end| end > cps[i].bit_offset);
    let coded = (1..cps.len() - 1).find(|&i| {
        let next = cps[i + 1].bit_offset;
        cps[i].bit_offset > body as u64 * 8 && inside(i) && block_end(i) < Some(next - 8)
    });
    let coded = coded.expect("a checkpoint inside a block that ends before the next");
    let past = block_end(coded).expect("a block end") + 3;
    // (what, record, field offset in the record, new value, refused at load)
    let cases = [
        (
            "block bit past its bit offset",
            coded,
            16,
            cps[coded].bit_offset + 1,
            true,
        ),
        (
            "block bit decreasing",
            coded,
            16,
            cps[coded - 1].block_bit - 1,
            true,
        ),
        (
            "block bit not at a header",
            coded,
            16,
            cps[coded].block_bit + 3,
            false,
        ),
        ("bit offset past its block", coded, 0, past, false),
        (
            "stored byte off by a bit",
            stored,
            0,
            cps[stored].bit_offset + 1,
            false,
        ),
        (
            "stored byte past the payload",
            stored,
            0,
            cps[stored].bit_offset + 8 * 65_536,
            false,
        ),
    ];
    for (what, i, field, value, refused) in cases {
        let mut forged = wire.clone();
        put(&mut forged, starts[i] + field, value);
        let loaded = SeekIndex::from_bytes(&forged);
        if refused {
            assert!(matches!(loaded, Err(Error::InvalidSeekIndex)), "{what}");
            continue;
        }
        let loaded = loaded.expect(what);
        let from = loaded.checkpoints()[i].out_offset;
        for (offset, len) in [(from, 1usize), (from + 100, 4096), (from + 5_000, 64 << 10)] {
            let before = inf.stats().seek_decoded_bytes();
            let got = inf.decompress_at(&stream, &loaded, offset, len);
            let decoded = inf.stats().seek_decoded_bytes() - before;
            let len = len.min(payload.len() - offset as usize);
            match &got {
                Ok(bytes) => assert_eq!(bytes.len(), len, "{what}"),
                Err(Error::InvalidSeekIndex | Error::Deflate(_)) => {}
                Err(e) => panic!("{what}: {e:?}"),
            }
            // Never past the read's bound: from the checkpoint to one token
            // past the range.
            let bound = offset - from + len as u64 + 258;
            assert!(decoded <= bound, "{what}: decoded {decoded} > {bound}");
            if what.starts_with("stored") {
                assert_eq!(got, Err(Error::InvalidSeekIndex), "{what}");
            }
        }
    }
}

#[test]
fn parallel_io_shaped_reads_decode_half_again_what_they_return() {
    // `nxbench parallel_io`'s shape — 1 MiB members written at `Fastest`,
    // the facade's default index, seeded 64 KiB reads — on 8 members.
    let nx = Nx::power9();
    let data = nx_corpus::mixed(SEED, 8 << 20);
    let fastest = CompressOptions::from_level(Level::Fastest);
    let stream: Vec<u8> = data
        .chunks(1 << 20)
        .flat_map(|part| {
            nx.compress_with(part, Format::Gzip, fastest)
                .expect("ok")
                .bytes
        })
        .collect();
    let index = nx.build_index(&stream, Format::Gzip).expect("index");
    let gaps = index.checkpoints().windows(2);
    let widest = gaps.map(|w| w[1].out_offset - w[0].out_offset).max();
    assert!(widest <= Some(64 << 10), "checkpoint gap {widest:?}");
    const READ: usize = 64 << 10;
    let stats = nx.decode_parallel_stats();
    let before = stats.seek_decoded_bytes();
    let mut rng = Rng(42 | 1);
    for _ in 0..1_000 {
        let offset = (rng.next() % (data.len() - READ) as u64) as usize;
        let got = nx.decompress_at(&stream, &index, offset as u64, READ);
        assert!(
            got.as_deref() == Ok(&data[offset..offset + READ]),
            "offset {offset}"
        );
    }
    let amplification = (stats.seek_decoded_bytes() - before) as f64 / (1_000 * READ) as f64;
    // 1.97 at the commit before issue 25: one checkpoint per 128 KiB block.
    assert!(
        amplification <= 1.55,
        "decoded / returned = {amplification:.3}"
    );
}
