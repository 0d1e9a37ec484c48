//! E19 — Telemetry determinism: a faulted run's span trace and registry
//! exports, replayed.
//!
//! The observability layer (`nx-telemetry`) promises that an enabled
//! sink's span traces are *deterministic* — pure functions of the
//! workload and fault seed, never of thread scheduling or wall clock.
//! This experiment runs one faulted workload twice from the same seed on
//! two fresh instrumented handles and records whether the Chrome-trace
//! dumps are byte-identical; the trace of the first run lands in
//! `BENCH_TRACE.json`.
//!
//! `run()` writes `BENCH_OBS.json`: the determinism verdict, the span count
//! and the number of series in the handle's registry snapshot. (Not the
//! size of its Prometheus or JSON export: the registry also carries the
//! process-wide kernel counters, whose values — and so whose digits —
//! depend on what else the process ran first.) What the instrumented path
//! costs on the host is `nxbench`'s `telemetry.always_overhead_share`.

use crate::{write_rows, Row, SEED};
use nx_accel::AccelConfig;
use nx_core::fault::{FaultPlan, FaultRates, RecoveryPolicy};
use nx_core::{Format, Nx};
use nx_corpus::CorpusKind;
use nx_deflate::CompressionLevel;
use nx_telemetry::{to_chrome_trace, MetricValue, MetricsRegistry, TelemetrySink};

/// One-line experiment title shown by `tables list`.
pub const TITLE: &str = "Telemetry determinism: a pinned faulted trace, replayed";

/// Where the machine-readable rows land (workspace root under
/// `cargo run`).
pub const JSON_PATH: &str = "BENCH_OBS.json";

/// Where the Chrome trace-event dump of the pinned run lands.
pub const TRACE_PATH: &str = "BENCH_TRACE.json";

/// Modeled core cycles per microsecond for the Chrome export (the
/// 2.5 GHz POWER9 core clock the span domain is priced in).
const CYCLES_PER_US: f64 = 2500.0;

/// Request count and size of the pinned workload.
const REQUESTS: usize = 32;
const REQ_BYTES: usize = 256 << 10;

struct Measured {
    /// Both faulted replays produced byte-identical Chrome traces.
    trace_deterministic: bool,
    /// Spans recorded by the pinned run.
    trace_spans: usize,
    /// The pinned run's Chrome trace (written to [`TRACE_PATH`]).
    chrome: String,
    /// Series in the pinned handle's registry snapshot.
    series: usize,
}

/// Builds one workload's gzip request set.
fn workload(kind: CorpusKind) -> Vec<Vec<u8>> {
    let level = CompressionLevel::default();
    let data = kind.generate(SEED, REQUESTS * REQ_BYTES);
    data.chunks(REQ_BYTES)
        .map(|c| nx_core::software::compress(c, level, Format::Gzip))
        .collect()
}

/// A faulted + instrumented handle from a fixed seed (the determinism
/// pin re-runs this exact construction).
fn pinned_nx() -> Nx {
    let plan = FaultPlan::seeded(SEED, FaultRates::sweep(0.1));
    Nx::with_faults(AccelConfig::power9(), plan, RecoveryPolicy::touch_ahead(8))
        .with_telemetry(TelemetrySink::enabled(MetricsRegistry::new()))
}

/// Runs the faulted workload once on a fresh pinned handle and returns
/// its Chrome trace, span count and registry snapshot.
fn pinned_trace(gz: &[Vec<u8>]) -> (String, usize, Vec<(String, MetricValue)>) {
    let nx = pinned_nx();
    for g in gz {
        let out = nx.decompress(g, Format::Gzip).expect("recovery exhausted");
        std::hint::black_box(out.bytes.len());
    }
    let spans = nx.telemetry().trace();
    let chrome = to_chrome_trace(&spans, CYCLES_PER_US);
    let snap = nx
        .telemetry()
        .registry()
        .expect("enabled sink has a registry")
        .snapshot();
    (chrome, spans.len(), snap)
}

/// Two fresh handles, same fault seed, same workload.
fn measure() -> Measured {
    let gz = workload(CorpusKind::Logs);
    let (chrome_a, spans, snap) = pinned_trace(&gz);
    let (chrome_b, _, _) = pinned_trace(&gz);
    Measured {
        trace_deterministic: chrome_a == chrome_b,
        trace_spans: spans,
        chrome: chrome_a,
        series: snap.len(),
    }
}

/// The machine-readable row ([`JSON_PATH`]).
fn rows(m: &Measured) -> Vec<Row> {
    vec![Row::new("determinism")
        .val("trace_deterministic", m.trace_deterministic)
        .val("trace_spans", m.trace_spans)
        .val("series", m.series)]
}

/// Runs the experiment, writes [`JSON_PATH`] and [`TRACE_PATH`],
/// renders the report.
pub fn run() -> String {
    let m = measure();
    let obs_note = write_rows(JSON_PATH, &rows(&m));
    let trace_note = match std::fs::write(TRACE_PATH, &m.chrome) {
        Ok(()) => format!(
            "Chrome trace ({} spans) written to `{TRACE_PATH}`",
            m.trace_spans
        ),
        Err(err) => format!("could not write `{TRACE_PATH}`: {err}"),
    };

    format!(
        "## E19 — {TITLE}\n\nOne faulted workload ({REQUESTS} × {} KiB gzip \
         decompressions) replayed from the same seed on two fresh instrumented handles — \
         Chrome traces byte-identical: {}; {} series in the handle's registry.\n\n\
         {obs_note}\n{trace_note}\n",
        REQ_BYTES >> 10,
        m.trace_deterministic,
        m.series
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinned_traces_are_byte_identical() {
        // The core determinism claim, on a small workload so the test
        // stays fast: same seed + same requests → same Chrome trace.
        let gz: Vec<Vec<u8>> = workload(CorpusKind::Logs).into_iter().take(4).collect();
        let (a, spans, snap) = pinned_trace(&gz);
        let (b, _, _) = pinned_trace(&gz);
        assert_eq!(a, b, "trace dumps must not depend on the run");
        assert!(spans > 0, "faulted requests must leave spans");
        let prometheus = nx_telemetry::to_prometheus(&snap);
        let json = nx_telemetry::to_json(&snap);
        assert!(prometheus.contains("nx_request_latency_cycles"));
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
    }

    #[test]
    fn obs_json_is_well_formed() {
        let m = Measured {
            trace_deterministic: true,
            trace_spans: 42,
            chrome: String::new(),
            series: 20,
        };
        assert_eq!(
            crate::render_rows(&rows(&m)),
            "[\n  {\"section\": \"determinism\", \"trace_deterministic\": true, \
             \"trace_spans\": 42, \"series\": 20}\n]\n"
        );
    }
}
