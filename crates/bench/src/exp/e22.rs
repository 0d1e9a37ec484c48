//! E22 — Parallel + seekable inflate: member fan-out, serial single
//! streams, and seek-index random access.
//!
//! `nx_core::parallel_inflate` (a) decodes multi-member gzip in place from
//! a trailer plan, (b) decodes an index-less single member serially, since
//! nothing names its split points, and (c) serializes a [`SeekIndex`]
//! (entry point + referenced window bytes per checkpoint) so
//! `decompress_at` random-accesses a member without inflating its prefix.
//!
//! Every cell this experiment writes is deterministic — a byte count, a
//! route counter or a boolean — so `scripts/ci.sh` gates the committed
//! `BENCH_INFLATE_PAR.json` by byte identity (`git diff --exit-code`). The
//! speed of these routes is a host-clock figure and is judged by `nxbench`
//! pairs (`parallel_io`, traced `core.pinflate_*` / `core.seek_*`).
//!
//! * **Part A** decodes both stream shapes (single member / multi-member)
//!   at every worker count: identical to serial or not, and the route taken
//!   (members fanned out, serial fallbacks).
//! * **Part B** prices random access in bytes: per shape the checkpoints
//!   and serialized index bytes (sparse, and what whole windows would have
//!   cost), per ranged read the bytes decoded against the bytes returned,
//!   and the amplification of `nxbench parallel_io`'s seeded 1 000-read
//!   sweep of 64 KiB reads over 32 members written at `Fastest`.

use crate::{write_rows, Row, Table, SEED};
use nx_core::{software, CompressOptions, Format, Nx, ParallelInflateOptions, ParallelInflater};
use nx_deflate::{CompressionLevel, Level};

/// One-line experiment title shown by `tables list`.
pub const TITLE: &str = "Parallel inflate: member fan-out, serial single streams, seek index";

/// Where the machine-readable rows land (workspace root under
/// `cargo run`). The CI gate requires it to reproduce the committed file.
pub const JSON_PATH: &str = "BENCH_INFLATE_PAR.json";

/// Uncompressed payload length for both stream shapes.
const PAYLOAD_LEN: usize = 8 << 20;

/// Member size for the multi-member shape.
const MEMBER_LEN: usize = 1 << 20;

/// Worker counts swept in Part A.
const WORKERS: [usize; 4] = [1, 2, 4, 8];

/// Ranged reads priced in Part B: (offset, len).
const SEEKS: [(u64, usize); 3] = [
    (64 << 10, 4 << 10),
    (4 << 20, 64 << 10),
    ((PAYLOAD_LEN as u64) - (256 << 10), 128 << 10),
];

/// The amplification sweep: `nxbench parallel_io`'s members, reads and seed.
const SWEEP_MEMBERS: usize = 32;
const SWEEP_READS: usize = 1_000;
const SWEEP_LEN: usize = 64 << 10;

/// One (shape, workers) cell of the Part A sweep: the route it took.
struct DecodeCell {
    shape: &'static str,
    workers: usize,
    members_parallel: u64,
    serial_fallbacks: u64,
    identical: bool,
}

/// One ranged read of the Part B sweep.
struct SeekCell {
    offset: u64,
    len: usize,
    decoded_bytes: u64,
    identical: bool,
}

/// The seek index over one stream shape: checkpoints, serialized bytes, and
/// what those would be with every referenced window kept whole.
type IndexCell = (&'static str, usize, usize, usize);

struct Measured {
    cells: Vec<DecodeCell>,
    seeks: Vec<SeekCell>,
    indexes: [IndexCell; 2],
    /// Bytes decoded and returned by the amplification sweep.
    sweep: (u64, u64),
    all_identical: bool,
}

fn inflater(workers: usize) -> ParallelInflater {
    ParallelInflater::new(ParallelInflateOptions {
        workers,
        ..Default::default()
    })
}

/// `nxbench parallel_io`'s seeded sweep: `(decoded, returned)` bytes and
/// whether every read matched.
fn amplification() -> ((u64, u64), bool) {
    let nx = Nx::power9();
    let data = nx_corpus::mixed(SEED, SWEEP_MEMBERS << 20);
    let fastest = CompressOptions::from_level(Level::Fastest);
    let mut stream = Vec::new();
    for part in data.chunks(1 << 20) {
        let member = nx
            .compress_with(part, Format::Gzip, fastest)
            .expect("compress");
        stream.extend_from_slice(&member.bytes);
    }
    let index = nx.build_index(&stream, Format::Gzip).expect("index");
    let (stats, mut identical) = (nx.decode_parallel_stats(), true);
    let before = stats.seek_decoded_bytes();
    let mut state = SEED | 1;
    for _ in 0..SWEEP_READS {
        // xorshift64, as `nxbench` draws its offsets.
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let offset = (state % (data.len() - SWEEP_LEN) as u64) as usize;
        let got = nx.decompress_at(&stream, &index, offset as u64, SWEEP_LEN);
        identical &= got.is_ok_and(|got| got == data[offset..offset + SWEEP_LEN]);
    }
    let decoded = stats.seek_decoded_bytes() - before;
    ((decoded, (SWEEP_READS * SWEEP_LEN) as u64), identical)
}

/// Runs both parts.
fn measure() -> Measured {
    let payload = nx_corpus::mixed(SEED, PAYLOAD_LEN);
    let level = CompressionLevel::default();
    let single = software::compress(&payload, level, Format::Gzip);
    let multi: Vec<u8> = payload
        .chunks(MEMBER_LEN)
        .flat_map(|c| software::compress(c, level, Format::Gzip))
        .collect();

    let mut all_identical = true;
    let mut cells = Vec::new();
    for (shape, stream) in [("single-member", &single), ("multi-member", &multi)] {
        for workers in WORKERS {
            let inf = inflater(workers);
            let out = inf.decompress(stream, Format::Gzip);
            let identical = out.is_ok_and(|out| out == payload);
            all_identical &= identical;
            let stats = inf.stats();
            cells.push(DecodeCell {
                shape,
                workers,
                members_parallel: stats.members_parallel(),
                serial_fallbacks: stats.serial_fallbacks(),
                identical,
            });
        }
    }

    // Part B: the seek index over both shapes, reads in the single one.
    let inf = inflater(4);
    let index = inf.build_index(&single, Format::Gzip).expect("index");
    let multi_index = inf.build_index(&multi, Format::Gzip).expect("index");
    let indexes = [("single-member", &index), ("multi-member", &multi_index)];
    let indexes = indexes.map(|(shape, index)| {
        let (checkpoints, sparse_bytes) = (index.checkpoints(), index.to_bytes().len());
        let kept = checkpoints.iter().filter(|c| !c.runs.is_empty());
        let dropped: usize = kept.map(|c| (32 << 10) - c.window.len()).sum();
        (
            shape,
            checkpoints.len(),
            sparse_bytes,
            sparse_bytes + dropped,
        )
    });
    let mut seeks = Vec::new();
    for (offset, len) in SEEKS {
        let before = inf.stats().seek_decoded_bytes();
        let out = inf
            .decompress_at(&single, &index, offset, len)
            .expect("seek");
        let identical = out == payload[offset as usize..offset as usize + len];
        all_identical &= identical;
        seeks.push(SeekCell {
            offset,
            len,
            decoded_bytes: inf.stats().seek_decoded_bytes() - before,
            identical,
        });
    }
    let (sweep, identical) = amplification();
    all_identical &= identical;

    Measured {
        cells,
        seeks,
        indexes,
        sweep,
        all_identical,
    }
}

/// Decoded bytes per returned byte of the amplification sweep.
fn ratio(m: &Measured) -> f64 {
    m.sweep.0 as f64 / m.sweep.1 as f64
}

/// The machine-readable rows ([`JSON_PATH`]).
fn rows(m: &Measured) -> Vec<Row> {
    let decode = m.cells.iter().map(|c| {
        Row::new("decode")
            .str("shape", c.shape)
            .val("workers", c.workers)
            .val("members_parallel", c.members_parallel)
            .val("serial_fallbacks", c.serial_fallbacks)
            .val("identical", c.identical)
    });
    let index = m.indexes.iter().map(|&(shape, checkpoints, sparse, full)| {
        Row::new("index")
            .str("shape", shape)
            .val("checkpoints", checkpoints)
            .val("sparse_bytes", sparse)
            .val("full_bytes", full)
            .fixed("sparse_pct_of_output", sparse as f64 * 100.0 / PAYLOAD_LEN as f64, 2)
    });
    let seek = m.seeks.iter().map(|s| {
        Row::new("seek")
            .val("offset", s.offset)
            .val("len", s.len)
            .val("decoded_bytes", s.decoded_bytes)
            .val("returned_bytes", s.len)
            .val("identical", s.identical)
    });
    let mut rows: Vec<Row> = decode.chain(index).chain(seek).collect();
    rows.push(
        Row::new("amplification")
            .val("members", SWEEP_MEMBERS)
            .val("reads", SWEEP_READS)
            .val("len", SWEEP_LEN)
            .val("decoded_bytes", m.sweep.0)
            .val("returned_bytes", m.sweep.1)
            .fixed("decoded_per_returned", ratio(m), 4),
    );
    rows.push(Row::new("summary").val("all_identical", m.all_identical));
    rows
}

/// Runs the experiment, writes [`JSON_PATH`], renders the report.
pub fn run() -> String {
    let m = measure();

    let mut table = Table::new(vec![
        "shape",
        "workers",
        "members fanned out",
        "serial fallbacks",
        "verified",
    ]);
    for c in &m.cells {
        table.row(vec![
            c.shape.to_string(),
            c.workers.to_string(),
            c.members_parallel.to_string(),
            c.serial_fallbacks.to_string(),
            if c.identical { "ok" } else { "FAIL" }.to_string(),
        ]);
    }

    let mut seek_table = Table::new(vec!["offset", "len", "decoded", "decoded / returned"]);
    for s in &m.seeks {
        seek_table.row(vec![
            s.offset.to_string(),
            s.len.to_string(),
            s.decoded_bytes.to_string(),
            format!("{:.2}", s.decoded_bytes as f64 / s.len as f64),
        ]);
    }
    let index_line = |(shape, checkpoints, sparse, full): IndexCell| {
        format!("{shape} {checkpoints} checkpoints in {sparse} B ({full} B with whole windows); ")
    };
    let json_note = write_rows(JSON_PATH, &rows(&m));

    format!(
        "## E22 — {TITLE}\n\nHeadline: an {} MiB payload, single-member and in {} members, \
         decodes identically at 1/2/4/8 workers (members fan out, a single member decodes \
         serially); speed is `nxbench parallel_io`'s.\n\n{}\n\
         Seek index: {}ranged reads in the single-member stream:\n\n{}\n\
         {SWEEP_READS} seeded {} KiB reads over {SWEEP_MEMBERS} `Fastest` members decode {:.3}x \
         what they return.\n\nAll outputs byte-identical to serial: {}.\n\n{json_note}\n",
        PAYLOAD_LEN >> 20,
        PAYLOAD_LEN / MEMBER_LEN,
        table.render(),
        m.indexes.map(index_line).concat(),
        seek_table.render(),
        SWEEP_LEN >> 10,
        ratio(&m),
        m.all_identical,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_json_is_well_formed() {
        let m = Measured {
            cells: WORKERS
                .iter()
                .flat_map(|&w| {
                    ["single-member", "multi-member"].map(|shape| DecodeCell {
                        shape,
                        workers: w,
                        members_parallel: 8,
                        serial_fallbacks: 1,
                        identical: true,
                    })
                })
                .collect(),
            seeks: vec![SeekCell {
                offset: 4096,
                len: 1024,
                decoded_bytes: 5000,
                identical: true,
            }],
            indexes: [("single-member", 8, 30 << 10, 300 << 10); 2],
            sweep: (3_000, 2_000),
            all_identical: true,
        };
        let json = crate::render_rows(&rows(&m));
        assert!(json.starts_with("[\n") && json.ends_with("]\n"));
        assert_eq!(json.matches("{\"section\"").count(), 13);
        assert!(json.contains("\"decoded_bytes\": 5000, \"returned_bytes\": 1024"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"decoded_per_returned\": 1.5000"));
        assert!(json.contains("\"members_parallel\": 8, \"serial_fallbacks\": 1, \"identical\""));
        assert!(json.contains("{\"section\": \"summary\", \"all_identical\": true}"));
        assert!(!json.contains("chunks") && !json.contains("miss") && !json.contains("marker"));
        // Host-clock figures stay out of the gated file.
        assert!(!json.contains("mb_per_s") && !json.contains("speedup"));
    }

    #[test]
    fn parallel_decode_matches_serial_on_a_small_sweep() {
        let payload = nx_corpus::mixed(SEED ^ 0xE22, 512 << 10);
        let level = CompressionLevel::default();
        let single = software::compress(&payload, level, Format::Gzip);
        let multi: Vec<u8> = payload
            .chunks(128 << 10)
            .flat_map(|c| software::compress(c, level, Format::Gzip))
            .collect();
        for workers in WORKERS {
            let inf = inflater(workers);
            assert_eq!(
                inf.decompress(&single, Format::Gzip).expect("single"),
                payload
            );
            assert_eq!(
                inf.decompress(&multi, Format::Gzip).expect("multi"),
                payload
            );
        }
    }
}
