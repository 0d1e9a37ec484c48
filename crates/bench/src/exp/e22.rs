//! E22 — Parallel + seekable inflate: speculative two-stage decode,
//! member fan-out, and seek-index random access.
//!
//! `nx_core::parallel_inflate` is a rapidgzip-style decoder that (a)
//! decodes multi-member gzip in place from a trailer plan, (b) splits a
//! single member at probed block boundaries and decodes chunks ahead of
//! the unknown 32 KB window into marker buffers, patching them once the
//! predecessor's window resolves, and (c) serializes a [`SeekIndex`]
//! (bit offset + window snapshot per checkpoint) so `decompress_at`
//! random-accesses a member without inflating its prefix.
//!
//! * **Part A** sweeps worker count × stream shape (single member /
//!   multi-member) and reports decode MB/s against the serial walk,
//!   plus the speculation miss rate and marker patch volume.
//! * **Part B** prices random access in deterministic units: per stream
//!   shape the checkpoints and serialized index bytes (sparse, and what
//!   whole windows would have cost), and per ranged read the bytes decoded
//!   against the bytes returned.
//!
//! Every parallel decode is verified byte-identical to the serial
//! decode before its timing is reported. `run()` writes
//! `BENCH_INFLATE_PAR.json`; `scripts/ci.sh` gates on `all_identical`
//! and on Part B's rows reproducing to the byte — the speed is judged by
//! `nxbench` pairs (`parallel_io`).
//!
//! Caveat: wall-clock speedup needs real cores. On a single-core host
//! the sweep still validates correctness and counters, but speedups
//! hover at or below 1.0x — the JSON records `host_threads` so readers
//! can interpret the figures.

use super::MetricRow;
use crate::{Table, SEED};
use nx_core::{software, Format, ParallelInflateOptions, ParallelInflater};
use nx_deflate::CompressionLevel;
use std::sync::OnceLock;
use std::time::Instant;

/// One-line experiment title shown by `tables list`.
pub const TITLE: &str = "Parallel inflate: speculative chunks, member fan-out, seek index";

/// Where the machine-readable rows land (workspace root under
/// `cargo run`). The CI gate checks this file's `all_identical`.
pub const JSON_PATH: &str = "BENCH_INFLATE_PAR.json";

/// Uncompressed payload length for both stream shapes.
const PAYLOAD_LEN: usize = 8 << 20;

/// Member size for the multi-member shape.
const MEMBER_LEN: usize = 1 << 20;

/// Worker counts swept in Part A.
const WORKERS: [usize; 4] = [1, 2, 4, 8];

/// Timed passes per cell; the minimum is reported.
const PASSES: usize = 3;

/// Ranged reads priced in Part B: (offset, len).
const SEEKS: [(u64, usize); 3] = [
    (64 << 10, 4 << 10),
    (4 << 20, 64 << 10),
    ((PAYLOAD_LEN as u64) - (256 << 10), 128 << 10),
];

/// One (shape, workers) cell of the Part A sweep.
struct DecodeCell {
    shape: &'static str,
    workers: usize,
    mb_per_s: f64,
    speedup: f64,
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
    serial_single_mb_per_s: f64,
    serial_multi_mb_per_s: f64,
    /// misses / (chunks + misses) over the whole single-member sweep.
    miss_rate: f64,
    marker_patch_bytes: u64,
    indexes: [IndexCell; 2],
    host_threads: usize,
    all_identical: bool,
}

/// Best-of-[`PASSES`] wall-clock seconds of one call to `f`.
fn best_of<F: FnMut()>(mut f: F) -> f64 {
    let mut t = f64::INFINITY;
    for _ in 0..PASSES {
        let t0 = Instant::now();
        f();
        t = t.min(t0.elapsed().as_secs_f64());
    }
    t
}

fn inflater(workers: usize) -> ParallelInflater {
    ParallelInflater::new(ParallelInflateOptions {
        workers,
        ..Default::default()
    })
}

/// Runs the sweep once per process; `run()` and [`metrics`] share it.
fn measured() -> &'static Measured {
    static CELL: OnceLock<Measured> = OnceLock::new();
    CELL.get_or_init(|| {
        let payload = nx_corpus::mixed(SEED, PAYLOAD_LEN);
        let level = CompressionLevel::default();
        let single = software::compress(&payload, level, Format::Gzip);
        let multi: Vec<u8> = payload
            .chunks(MEMBER_LEN)
            .flat_map(|c| software::compress(c, level, Format::Gzip))
            .collect();

        let mut all_identical = true;

        // Serial baselines through the same members-walk the parallel
        // path falls back to.
        let reference = inflater(1);
        let t_single = best_of(|| {
            std::hint::black_box(
                reference
                    .decompress_serial(&single, Format::Gzip)
                    .expect("serial")
                    .len(),
            );
        });
        let t_multi = best_of(|| {
            std::hint::black_box(
                reference
                    .decompress_serial(&multi, Format::Gzip)
                    .expect("serial")
                    .len(),
            );
        });

        let mut cells = Vec::new();
        let mut chunks = 0u64;
        let mut misses = 0u64;
        let mut marker_patch_bytes = 0u64;
        for (shape, stream, t_serial) in [
            ("single-member", &single, t_single),
            ("multi-member", &multi, t_multi),
        ] {
            for workers in WORKERS {
                let inf = inflater(workers);
                let out = inf.decompress(stream, Format::Gzip).expect("parallel");
                let identical = out == payload;
                all_identical &= identical;
                let t = best_of(|| {
                    std::hint::black_box(
                        inf.decompress(stream, Format::Gzip)
                            .expect("parallel")
                            .len(),
                    );
                });
                if shape == "single-member" {
                    chunks += inf.stats().chunks_decoded();
                    misses += inf.stats().speculation_misses();
                    marker_patch_bytes += inf.stats().marker_patch_bytes();
                }
                cells.push(DecodeCell {
                    shape,
                    workers,
                    mb_per_s: payload.len() as f64 / t / 1e6,
                    speedup: t_serial / t,
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

        Measured {
            cells,
            seeks,
            serial_single_mb_per_s: payload.len() as f64 / t_single / 1e6,
            serial_multi_mb_per_s: payload.len() as f64 / t_multi / 1e6,
            miss_rate: if chunks + misses == 0 {
                0.0
            } else {
                misses as f64 / (chunks + misses) as f64
            },
            marker_patch_bytes,
            indexes,
            host_threads: std::thread::available_parallelism().map_or(1, usize::from),
            all_identical,
        }
    })
}

/// The Part A cell for `shape` at `workers`.
fn cell_for<'m>(m: &'m Measured, shape: &str, workers: usize) -> &'m DecodeCell {
    m.cells
        .iter()
        .find(|c| c.shape == shape && c.workers == workers)
        .expect("swept cell")
}

/// Renders the machine-readable rows ([`JSON_PATH`]).
fn render_json(m: &Measured) -> String {
    let mut rows: Vec<String> = m
        .cells
        .iter()
        .map(|c| {
            format!(
                "  {{\"section\": \"decode\", \"shape\": \"{}\", \"workers\": {}, \
                 \"mb_per_s\": {:.3}, \"speedup\": {:.3}, \"identical\": {}}}",
                c.shape, c.workers, c.mb_per_s, c.speedup, c.identical,
            )
        })
        .collect();
    for (shape, checkpoints, sparse, full) in m.indexes {
        rows.push(format!(
            "  {{\"section\": \"index\", \"shape\": \"{shape}\", \"checkpoints\": {checkpoints}, \
             \"sparse_bytes\": {sparse}, \"full_bytes\": {full}, \"sparse_pct_of_output\": {:.2}}}",
            sparse as f64 * 100.0 / PAYLOAD_LEN as f64,
        ));
    }
    for s in &m.seeks {
        rows.push(format!(
            "  {{\"section\": \"seek\", \"offset\": {}, \"len\": {}, \"decoded_bytes\": {}, \
             \"returned_bytes\": {}, \"identical\": {}}}",
            s.offset, s.len, s.decoded_bytes, s.len, s.identical,
        ));
    }
    rows.push(format!(
        "  {{\"section\": \"summary\", \"serial_mb_per_s\": {:.3}, \
         \"serial_multi_mb_per_s\": {:.3}, \
         \"single_member_4w_mb_per_s\": {:.3}, \"multi_member_4w_mb_per_s\": {:.3}, \
         \"speedup_single_4w\": {:.3}, \"speedup_multi_4w\": {:.3}, \
         \"speculation_miss_rate\": {:.4}, \"marker_patch_bytes\": {}, \
         \"host_threads\": {}, \"all_identical\": {}}}",
        m.serial_single_mb_per_s,
        m.serial_multi_mb_per_s,
        cell_for(m, "single-member", 4).mb_per_s,
        cell_for(m, "multi-member", 4).mb_per_s,
        cell_for(m, "single-member", 4).speedup,
        cell_for(m, "multi-member", 4).speedup,
        m.miss_rate,
        m.marker_patch_bytes,
        m.host_threads,
        m.all_identical,
    ));
    format!("[\n{}\n]\n", rows.join(",\n"))
}

/// Machine-readable rows for `tables --json`.
pub fn metrics() -> Vec<MetricRow> {
    let m = measured();
    vec![
        MetricRow::new("inflate_serial_mb_per_s", m.serial_single_mb_per_s, "MB/s"),
        MetricRow::new(
            "single_member_4w_mb_per_s",
            cell_for(m, "single-member", 4).mb_per_s,
            "MB/s",
        ),
        MetricRow::new(
            "multi_member_4w_mb_per_s",
            cell_for(m, "multi-member", 4).mb_per_s,
            "MB/s",
        ),
        MetricRow::new(
            "speedup_multi_4w",
            cell_for(m, "multi-member", 4).speedup,
            "ratio",
        ),
        MetricRow::new("speculation_miss_rate", m.miss_rate, "ratio"),
        MetricRow::new("index_bytes", m.indexes[0].2 as f64, "bytes"),
        MetricRow::new(
            "outputs_identical",
            f64::from(u8::from(m.all_identical)),
            "bool",
        ),
    ]
}

/// Runs the experiment, writes [`JSON_PATH`], renders the report.
pub fn run() -> String {
    let m = measured();

    let mut table = Table::new(vec!["shape", "workers", "MB/s", "vs serial", "verified"]);
    for c in &m.cells {
        table.row(vec![
            c.shape.to_string(),
            c.workers.to_string(),
            format!("{:.1}", c.mb_per_s),
            format!("{:.2}x", c.speedup),
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

    let json = render_json(m);
    let json_note = match std::fs::write(JSON_PATH, &json) {
        Ok(()) => format!("rows written to `{JSON_PATH}`"),
        Err(err) => format!("could not write `{JSON_PATH}`: {err}"),
    };

    format!(
        "## E22 — {TITLE}\n\nHeadline: an {} MiB payload decodes serially at {:.1} MB/s; at \
         4 workers the member-per-worker path runs at {:.1} MB/s ({:.2}x) and the speculative \
         single-member path at {:.1} MB/s ({:.2}x, miss rate {:.1}%, {} marker bytes patched). \
         Host exposes {} thread(s) — speedups need real cores.\n\n{}\n\
         Seek index: {}ranged reads in the single-member stream:\n\n{}\n\
         All outputs byte-identical to serial: {}.\n\n{json_note}\n",
        PAYLOAD_LEN >> 20,
        m.serial_single_mb_per_s,
        cell_for(m, "multi-member", 4).mb_per_s,
        cell_for(m, "multi-member", 4).speedup,
        cell_for(m, "single-member", 4).mb_per_s,
        cell_for(m, "single-member", 4).speedup,
        m.miss_rate * 100.0,
        m.marker_patch_bytes,
        m.host_threads,
        table.render(),
        m.indexes.map(index_line).concat(),
        seek_table.render(),
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
                        mb_per_s: 100.0 * w as f64,
                        speedup: w as f64 * 0.9,
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
            serial_single_mb_per_s: 110.0,
            serial_multi_mb_per_s: 115.0,
            miss_rate: 0.25,
            marker_patch_bytes: 1 << 20,
            indexes: [("single-member", 8, 30 << 10, 300 << 10); 2],
            host_threads: 4,
            all_identical: true,
        };
        let json = render_json(&m);
        assert!(json.starts_with("[\n") && json.ends_with("]\n"));
        assert_eq!(json.matches("{\"section\"").count(), 12);
        assert!(json.contains("\"decoded_bytes\": 5000, \"returned_bytes\": 1024"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"multi_member_4w_mb_per_s\": 400.000"));
        assert!(json.contains("\"speculation_miss_rate\": 0.2500"));
        assert!(json.contains("\"all_identical\": true"));
        assert!(json.contains("\"serial_multi_mb_per_s\": 115.000"));
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
            let inf = ParallelInflater::new(ParallelInflateOptions {
                workers,
                chunk_size: 32 << 10,
                ..Default::default()
            });
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
