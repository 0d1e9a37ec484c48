//! E17 — Sharded parallel compression engine: what sharding costs in bytes.
//!
//! Runs the `nx_core::parallel` pigz-style engine (shards primed with the
//! previous shard's trailing 32 KB, sync-flush boundaries, CRC folded with
//! `crc32_combine`) against the single-threaded
//! `nx_core::software::compress` baseline on a 16 MiB mixed corpus, at
//! 1/2/4/8 workers. This is the software analogue of handing one stream to
//! multiple accelerator engines: the shard seams cost a few tenths of a
//! percent of ratio, the dictionary hand-off keeps cross-shard matches, and
//! the output is the same stream whichever worker count wrote it.
//!
//! `run()` writes `BENCH_PARALLEL.json` (bytes, ratios, shard counts,
//! identity). Scaling is a host-clock figure: `nxbench parallel_io`
//! `compress_mb_per_s` and, traced, `core.parallel_scaling`.

use crate::{write_rows, Row, Table, SEED};
use nx_core::parallel::{ParallelEngine, ParallelOptions};
use nx_core::Format;
use nx_deflate::CompressionLevel;

/// One-line experiment title shown by `tables list`.
pub const TITLE: &str = "Parallel sharded compression engine: seam cost vs serial";

/// Where the machine-readable rows land (workspace root under
/// `cargo run`).
pub const JSON_PATH: &str = "BENCH_PARALLEL.json";

/// Corpus size.
const TOTAL: usize = 16 << 20;

/// Worker counts swept.
const WORKERS: [usize; 4] = [1, 2, 4, 8];

/// Runs the experiment, writes [`JSON_PATH`], renders the report.
pub fn run() -> String {
    let data = nx_corpus::mixed(SEED, TOTAL);
    let level = CompressionLevel::new(6).expect("level 6");
    let serial = nx_core::software::compress(&data, level, Format::Gzip).len();
    let ratio = |bytes: usize| TOTAL as f64 / bytes as f64;

    let mut rows = vec![Row::new("serial")
        .val("bytes_out", serial)
        .fixed("ratio", ratio(serial), 4)];
    let mut table = Table::new(vec!["config", "bytes out", "ratio", "size vs serial"]);
    table.row(vec![
        "serial".to_string(),
        serial.to_string(),
        format!("{:.3}", ratio(serial)),
        "+0.00%".to_string(),
    ]);
    let mut first: Option<Vec<u8>> = None;
    let mut all_identical = true;
    for workers in WORKERS {
        let engine = ParallelEngine::new(ParallelOptions {
            workers,
            ..ParallelOptions::default()
        });
        let out = engine.compress(&data, 6, Format::Gzip).expect("pool");
        let identical = nx_core::software::decompress(&out, Format::Gzip).is_ok_and(|d| d == data)
            && first.as_ref().is_none_or(|f| *f == out);
        all_identical &= identical;
        let growth_pct = (out.len() as f64 / serial as f64 - 1.0) * 100.0;
        rows.push(
            Row::new("sharded")
                .val("workers", workers)
                .val("shards", engine.stats().shards())
                .val("bytes_out", out.len())
                .fixed("ratio", ratio(out.len()), 4)
                .fixed("size_vs_serial_pct", growth_pct, 2)
                .val("identical", identical),
        );
        table.row(vec![
            format!("sharded x{workers}"),
            out.len().to_string(),
            format!("{:.3}", ratio(out.len())),
            format!("{growth_pct:+.2}%"),
        ]);
        first.get_or_insert(out);
    }
    rows.push(Row::new("summary").val("all_identical", all_identical));
    let note = write_rows(JSON_PATH, &rows);

    format!(
        "## E17 — {TITLE}\n\n16 MiB mixed corpus, gzip level 6, 128 KiB shards with 32 KB \
         dictionary hand-off. Every worker count writes the same stream, and it decodes \
         to the input: {all_identical}. Speed is `nxbench parallel_io`'s.\n\n{}\n{note}\n",
        table.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharded_output_stays_close_to_serial_ratio() {
        // Size-only check (fast): sharding at 128 KiB costs well under 1%
        // of compressed size thanks to the dictionary hand-off.
        let data = nx_corpus::mixed(SEED, 2 << 20);
        let level = CompressionLevel::new(6).unwrap();
        let serial = nx_core::software::compress(&data, level, Format::Gzip).len();
        let engine = ParallelEngine::new(ParallelOptions::default());
        let sharded = engine.compress(&data, 6, Format::Gzip).unwrap().len();
        let growth = sharded as f64 / serial as f64 - 1.0;
        assert!(
            growth < 0.01,
            "sharding grew output by {:.3}%",
            growth * 100.0
        );
    }
}
