//! E24 — Request tracing on the service path: what each sampler keeps, and
//! exemplars that resolve.
//!
//! PR 8's tracing layer threads a `TraceContext` through admission,
//! scheduling, coalesced dispatch and engine execution. Sampling gates
//! only span-ring pushes, never the seq/cycle bookkeeping or the
//! histograms, so the modeled latency arithmetic is identical on every
//! side. The harness pushes one request set through the threaded service
//! on three `Nx` handles that differ only in the sink's [`Sampler`] —
//! `Never`, `Always` and `OneIn(256)` — and records the spans each leaves
//! in the ring, and whether every latency-bucket exemplar on the always
//! side resolves to a span in the ring. (How many buckets carry an
//! exemplar depends on the queue depth each request met, which is thread
//! timing; only the resolution is recorded.)
//!
//! `run()` writes `BENCH_TRACING.json`. What tracing costs on the host is
//! `nxbench`'s `trace_overhead_share` and `telemetry.always_overhead_share`.

use crate::{write_rows, Row, Table};
use nx_core::{Format, Nx, QosClass, ServiceConfig, TenantSpec};
use nx_corpus::CorpusKind;
use nx_telemetry::{MetricsRegistry, Sampler, TelemetrySink};

/// One-line experiment title shown by `tables list`.
pub const TITLE: &str = "Tracing on the service path: spans per sampler, exemplar resolution";

/// Where the machine-readable rows land (workspace root under
/// `cargo run`).
pub const JSON_PATH: &str = "BENCH_TRACING.json";

/// Requests per side and payload size.
const REQUESTS: usize = 48;
const REQ_BYTES: usize = 64 << 10;

/// The three sampling sides swept.
const SIDES: [(&str, Sampler); 3] = [
    ("off", Sampler::Never),
    ("always", Sampler::Always),
    ("one_in_256", Sampler::OneIn(256)),
];

struct Measured {
    /// Spans left in the ring per side, indexed like [`SIDES`].
    spans: [usize; 3],
    /// Every exemplar trace id on the always side also appears in the
    /// span ring.
    exemplars_resolve: bool,
}

/// Pushes the request set through the service and waits for every ticket.
fn service_pass(nx: &Nx, payloads: &[Vec<u8>]) {
    let svc = nx.service(ServiceConfig::default());
    let tenant = svc.open_window(TenantSpec::new("rpc", QosClass::Latency, 64));
    let tickets: Vec<_> = payloads
        .iter()
        .map(|p| tenant.submit(p.clone(), Format::Gzip).expect("admit"))
        .collect();
    for t in tickets {
        std::hint::black_box(t.wait().expect("complete").latency_cycles);
    }
    svc.close();
}

/// A service handle with the given sampling side.
fn side_nx(sampler: Sampler) -> Nx {
    Nx::power9()
        .with_telemetry(TelemetrySink::enabled(MetricsRegistry::new()).with_sampler(sampler))
}

/// One service pass per side, on fresh handles so span counts reflect
/// exactly one request set.
fn measure() -> Measured {
    let data = CorpusKind::Json.generate(crate::SEED, REQUESTS * REQ_BYTES);
    let payloads: Vec<Vec<u8>> = data.chunks(REQ_BYTES).map(<[u8]>::to_vec).collect();
    let mut spans = [0usize; 3];
    let mut exemplars_resolve = true;
    for (i, (_, sampler)) in SIDES.iter().enumerate() {
        let nx = side_nx(*sampler);
        service_pass(&nx, &payloads);
        let ring = nx.telemetry().trace();
        spans[i] = ring.len();
        if matches!(sampler, Sampler::Always) {
            let snap = nx.telemetry().registry().expect("enabled sink").snapshot();
            let exemplars: Vec<u64> = snap
                .iter()
                .find(|(name, _)| name == "nx_request_latency_cycles")
                .and_then(|(_, v)| match v {
                    nx_telemetry::MetricValue::Histogram(h) => Some(h),
                    _ => None,
                })
                .map(|h| h.buckets.iter().filter_map(|b| b.exemplar).collect())
                .unwrap_or_default();
            exemplars_resolve = !exemplars.is_empty()
                && exemplars
                    .iter()
                    .all(|id| ring.iter().any(|s| s.request == *id));
        }
    }
    Measured {
        spans,
        exemplars_resolve,
    }
}

/// The machine-readable rows ([`JSON_PATH`]).
fn rows(m: &Measured) -> Vec<Row> {
    let mut rows: Vec<Row> = SIDES
        .iter()
        .zip(m.spans)
        .map(|((name, _), spans)| Row::new("side").str("sampler", name).val("spans", spans))
        .collect();
    rows.push(Row::new("summary").val("exemplars_resolve", m.exemplars_resolve));
    rows
}

/// Runs the experiment, writes [`JSON_PATH`], renders the report.
pub fn run() -> String {
    let m = measure();
    let mut table = Table::new(vec!["sampler", "spans"]);
    for ((name, _), spans) in SIDES.iter().zip(m.spans) {
        table.row(vec![(*name).to_string(), spans.to_string()]);
    }
    let note = write_rows(JSON_PATH, &rows(&m));

    format!(
        "## E24 — {TITLE}\n\n{REQUESTS} × {} KiB gzip requests through the threaded \
         service per sampler side. Sampling gates only span-ring pushes, so the \
         deterministic latency arithmetic is shared by all sides.\n\n{}\nEvery \
         latency-bucket exemplar on the always side resolves to a span in the ring: \
         {}.\n\n{note}\n",
        REQ_BYTES >> 10,
        table.render(),
        m.exemplars_resolve
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_sides_agree_on_latency_and_disagree_on_spans() {
        // A small request set: the always side must leave far more spans
        // than 1-in-256, while modeled per-request latencies agree.
        let data = CorpusKind::Json.generate(7, 8 * 4096);
        let payloads: Vec<Vec<u8>> = data.chunks(4096).map(<[u8]>::to_vec).collect();
        let run_side = |s: Sampler| {
            let nx = side_nx(s);
            service_pass(&nx, &payloads);
            nx.telemetry().trace().len()
        };
        let always = run_side(Sampler::Always);
        let sampled = run_side(Sampler::OneIn(256));
        let off = run_side(Sampler::Never);
        assert!(always >= payloads.len() * 5, "full chains on always side");
        assert!(sampled < always, "sampling must shed spans");
        assert_eq!(off, 0, "Never side leaves the ring empty");
    }

    #[test]
    fn json_is_well_formed() {
        let m = Measured {
            spans: [0, 288, 6],
            exemplars_resolve: true,
        };
        assert_eq!(
            crate::render_rows(&rows(&m)),
            "[\n  {\"section\": \"side\", \"sampler\": \"off\", \"spans\": 0},\n  \
             {\"section\": \"side\", \"sampler\": \"always\", \"spans\": 288},\n  \
             {\"section\": \"side\", \"sampler\": \"one_in_256\", \"spans\": 6},\n  \
             {\"section\": \"summary\", \"exemplars_resolve\": true}\n]\n"
        );
    }
}
