//! E20 — Inflate superloop kernels: merged-entry fast path vs the careful
//! reference decoder, per corpus.
//!
//! PR 4 rebuilt the inflate hot loop around pre-merged Huffman entries
//! (one packed u32 lookup yields base + extra-bit count + code length),
//! a local bit accumulator refilled once per iteration, and wide 8-byte
//! match copies, with a careful per-symbol loop guarding the last 274
//! bytes of input/output. This experiment pins what that loop must never
//! change and where it runs:
//!
//! * **Identity.** Every corpus class at level 6 decodes through the fast
//!   decoder and the careful reference (`inflate_careful`) to the same
//!   bytes.
//! * **Route.** The process-wide fast/careful byte counters around one
//!   fast decode per class — the numbers `nx-telemetry` exports as
//!   `nx_inflate_fast_path_bytes_total` — give the share of decoded bytes
//!   the superloop produced.
//!
//! `run()` writes `BENCH_KERNELS.json`. Decode speed is `nxbench`'s
//! `decompress_mb_per_s` and, traced, `deflate.inflate_ns_per_byte` /
//! `deflate.inflate_fast_path_share`.

use crate::{write_rows, Row, Table, SEED};
use nx_corpus::CorpusKind;
use nx_deflate::decoder::inflate_careful;
use nx_deflate::{decode_path_counters, deflate, inflate, CompressionLevel};

/// One-line experiment title shown by `tables list`.
pub const TITLE: &str = "Inflate superloop: fast vs careful decoder identity and route";

/// Where the machine-readable kernel rows land (workspace root under
/// `cargo run`).
pub const JSON_PATH: &str = "BENCH_KERNELS.json";

/// Bytes generated per corpus class.
const PER_KIND: usize = 2 << 20;

/// One corpus class's kernel row.
struct Cell {
    corpus: &'static str,
    /// compressed/plain size ratio at level 6.
    ratio: f64,
    /// Fast and careful decoders produced byte-identical output.
    identical: bool,
}

struct Measured {
    cells: Vec<Cell>,
    /// Fraction of decoded bytes the superloop produced (0..=1) over the
    /// fast decodes.
    fast_path_share: f64,
    all_identical: bool,
}

/// Decodes every class both ways, counting the fast decodes' route.
fn measure() -> Measured {
    let level = CompressionLevel::new(6).expect("level 6 is valid");
    let mut cells = Vec::new();
    let (mut fast_bytes, mut careful_bytes) = (0u64, 0u64);
    let mut all_identical = true;

    for &kind in CorpusKind::all() {
        let data = kind.generate(SEED, PER_KIND);
        let comp = deflate(&data, level);

        let (f0, c0) = decode_path_counters();
        let fast = inflate(&comp).expect("valid stream");
        let (f1, c1) = decode_path_counters();
        fast_bytes += f1 - f0;
        careful_bytes += c1 - c0;

        let identical = fast == data && inflate_careful(&comp).expect("valid stream") == fast;
        all_identical &= identical;
        cells.push(Cell {
            corpus: kind.name(),
            ratio: comp.len() as f64 / data.len() as f64,
            identical,
        });
    }

    Measured {
        cells,
        fast_path_share: fast_bytes as f64 / (fast_bytes + careful_bytes).max(1) as f64,
        all_identical,
    }
}

/// The machine-readable kernel rows ([`JSON_PATH`]).
fn rows(m: &Measured) -> Vec<Row> {
    let mut rows: Vec<Row> = m
        .cells
        .iter()
        .map(|c| {
            Row::new("kernel")
                .str("corpus", c.corpus)
                .fixed("ratio", c.ratio, 4)
                .val("identical", c.identical)
        })
        .collect();
    rows.push(
        Row::new("summary")
            .fixed("fast_path_pct", m.fast_path_share * 100.0, 2)
            .val("all_identical", m.all_identical),
    );
    rows
}

/// Runs the experiment, writes [`JSON_PATH`], renders the report.
pub fn run() -> String {
    let m = measure();
    let mut table = Table::new(vec!["corpus", "ratio", "identical"]);
    for c in &m.cells {
        table.row(vec![
            c.corpus.to_string(),
            format!("{:.3}", c.ratio),
            c.identical.to_string(),
        ]);
    }
    let note = write_rows(JSON_PATH, &rows(&m));

    format!(
        "## E20 — {TITLE}\n\n{} corpus classes × {} MiB at level 6, decoded by the fast \
         superloop and by the careful reference; outputs byte-identical: {}.\n\n{}\n\
         Superloop produced {:.2}% of decoded bytes in the fast decodes (process \
         counters, exported as `nx_inflate_fast_path_bytes_total`).\n\n{note}\n",
        m.cells.len(),
        PER_KIND >> 20,
        m.all_identical,
        table.render(),
        m.fast_path_share * 100.0,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use nx_deflate::{inflate_into, InflateScratch};

    #[test]
    fn fast_and_careful_agree_per_corpus() {
        // Small per-kind slices keep this quick; the full-size identity
        // check runs inside the experiment.
        for &kind in CorpusKind::all() {
            let data = kind.generate(SEED, 64 << 10);
            let comp = deflate(&data, CompressionLevel::new(6).expect("valid"));
            let fast = inflate(&comp).expect("fast decode");
            let careful = inflate_careful(&comp).expect("careful decode");
            assert_eq!(fast, careful, "decoder divergence on {}", kind.name());
            assert_eq!(fast, data, "roundtrip mismatch on {}", kind.name());
        }
    }

    #[test]
    fn scratch_reuse_matches_one_shot() {
        let data = nx_corpus::mixed(SEED, 256 << 10);
        let comp = deflate(&data, CompressionLevel::default());
        let mut scratch = InflateScratch::default();
        let mut out = Vec::new();
        for _ in 0..3 {
            inflate_into(&comp, &mut scratch, &mut out).expect("valid stream");
            assert_eq!(out, data);
        }
    }

    #[test]
    fn kernels_json_is_well_formed() {
        let m = Measured {
            cells: vec![Cell {
                corpus: "text",
                ratio: 0.35,
                identical: true,
            }],
            fast_path_share: 0.97,
            all_identical: true,
        };
        assert_eq!(
            crate::render_rows(&rows(&m)),
            "[\n  {\"section\": \"kernel\", \"corpus\": \"text\", \"ratio\": 0.3500, \
             \"identical\": true},\n  {\"section\": \"summary\", \"fast_path_pct\": 97.00, \
             \"all_identical\": true}\n]\n"
        );
    }
}
