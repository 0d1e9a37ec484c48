//! The benchmark's contract, read from the one place it is written down:
//! the repository's `BENCHMARK.json` (run length, workloads, end-to-end
//! metrics with their bounds, per-layer metrics), compiled into the binary.

use crate::json::{parse, Value};
use std::sync::OnceLock;

/// One metric of `BENCHMARK.json`.
#[derive(Debug)]
pub struct MetricDef {
    /// Name, unique across both lists.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Share of the parent's median by which an end-to-end metric may get
    /// worse (0 for per-layer metrics, which have no bound).
    pub bound: f64,
    /// Whether the value is a count made by the program that repeats to
    /// the digit for one seed (`repeat` checks that it does).
    pub exact: bool,
}

/// What `BENCHMARK.json` says.
#[derive(Debug)]
pub struct Manifest {
    /// Seconds one run measures (`run_seconds`).
    pub run_seconds: u64,
    /// Workload names, in file order.
    pub workloads: Vec<String>,
    /// End-to-end metrics: every workload reports every one.
    pub end_to_end: Vec<MetricDef>,
    /// Per-layer metrics, from the traced run.
    pub per_layer: Vec<MetricDef>,
}

/// Metrics that are counts, not timings: for one seed they repeat to the
/// digit on any host, so two commits compare exactly.
const EXACT: [&str; 20] = [
    "ratio",
    "ratio_fastest",
    "modeled_compress_gb_per_s",
    "modeled_decompress_gb_per_s",
    "deflate.lz77_fastest_match_share",
    "deflate.lz77_default_match_share",
    "deflate.block_dynamic_share",
    "deflate.block_stored_share",
    "deflate.inflate_fast_path_share",
    "deflate.canned_fallback_share",
    "accel.cycles_per_byte",
    "accel.decompress_cycles_per_byte",
    "accel.bank_stall_share",
    "accel.huffman_tail_share",
    "accel.overhead_share",
    "accel.overhead_share_4k",
    "accel.discarded_match_share",
    "accel.modeled_over_paper_p9",
    "core.parallel_seam_bytes_share",
    "core.seek_index_bytes_share",
];

fn metric_list(doc: &Value, key: &str) -> Vec<MetricDef> {
    let field = |m: &Value, k: &str| -> String {
        m.get(k)
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("BENCHMARK.json: a {key} entry has no {k}"))
            .to_string()
    };
    doc.get(key)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
        .iter()
        .map(|m| {
            let name = field(m, "name");
            MetricDef {
                exact: EXACT.contains(&name.as_str()),
                unit: field(m, "unit"),
                bound: m.get("bound").and_then(Value::as_f64).unwrap_or(0.0),
                name,
            }
        })
        .collect()
}

/// The parsed `BENCHMARK.json` this binary was built beside.
///
/// # Panics
///
/// Panics if the file compiled in is not the manifest the contract
/// describes — a broken checkout, not a condition a run can meet.
pub fn manifest() -> &'static Manifest {
    static MANIFEST: OnceLock<Manifest> = OnceLock::new();
    MANIFEST.get_or_init(|| {
        let doc = parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let workloads = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .expect("BENCHMARK.json has a workloads list")
            .iter()
            .filter_map(|w| w.get("name").and_then(Value::as_str).map(String::from))
            .collect();
        Manifest {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Value::as_f64)
                .expect("BENCHMARK.json has run_seconds") as u64,
            workloads,
            end_to_end: metric_list(&doc, "end_to_end"),
            per_layer: metric_list(&doc, "per_layer"),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Kind;

    #[test]
    fn manifest_names_the_workloads_this_binary_runs_and_every_exact_count() {
        let m = manifest();
        let kinds: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(m.workloads, kinds);
        let all: Vec<&str> = m
            .end_to_end
            .iter()
            .chain(&m.per_layer)
            .map(|d| d.name.as_str())
            .collect();
        for name in EXACT {
            assert!(all.contains(&name), "{name} is not in BENCHMARK.json");
        }
        let setup = m.end_to_end.iter().find(|d| d.name == "setup_s").unwrap();
        assert!(m.end_to_end.iter().all(|d| d.bound <= setup.bound));
        assert!(m.per_layer.iter().all(|d| d.bound == 0.0));
    }
}
