//! Cross-crate telemetry integration: the determinism pin (identical
//! seeds → byte-identical trace dumps), registry unification across
//! every subsystem, and coverage of all three exporters on live data.

use nx_core::fault::{FaultPlan, FaultRates, RecoveryPolicy};
use nx_core::parallel::ParallelOptions;
use nx_core::{Format, Nx};
use nx_telemetry::{
    to_chrome_trace, to_json, to_prometheus, MetricValue, MetricsRegistry, Stage, TelemetrySink,
};

/// Modeled core cycles per microsecond for the trace export.
const CYCLES_PER_US: f64 = 2500.0;

/// A faulted, instrumented handle built from a fixed seed.
fn pinned_nx(seed: u64) -> Nx {
    Nx::with_faults(
        nx_accel::AccelConfig::power9(),
        FaultPlan::seeded(seed, FaultRates::sweep(0.15)),
        RecoveryPolicy::touch_ahead(8),
    )
    .with_telemetry(TelemetrySink::enabled(MetricsRegistry::new()))
}

/// Runs a fixed faulted workload and returns the sorted span dump plus
/// its Chrome rendering.
fn run_pinned(seed: u64) -> (Vec<nx_telemetry::SpanEvent>, String) {
    let nx = pinned_nx(seed);
    let data = nx_corpus::mixed(3, 512 << 10);
    for chunk in data.chunks(128 << 10) {
        let gz = nx.compress(chunk, Format::Gzip).expect("compress");
        let back = nx.decompress(&gz.bytes, Format::Gzip).expect("decompress");
        assert_eq!(back.bytes, chunk);
    }
    let spans = nx.telemetry().trace();
    let chrome = to_chrome_trace(&spans, CYCLES_PER_US);
    (spans, chrome)
}

#[test]
fn same_seed_gives_byte_identical_trace_dumps() {
    let (spans_a, chrome_a) = run_pinned(41);
    let (spans_b, chrome_b) = run_pinned(41);
    assert!(!spans_a.is_empty(), "faulted workload must leave spans");
    assert_eq!(spans_a, spans_b, "span dumps must match event-for-event");
    assert_eq!(
        chrome_a, chrome_b,
        "Chrome renderings must match byte-for-byte"
    );
    // A different seed injects a different fault schedule.
    let (_, chrome_c) = run_pinned(42);
    assert_ne!(
        chrome_a, chrome_c,
        "distinct seeds should trace differently"
    );
}

#[test]
fn parallel_shard_spans_are_independent_of_scheduling() {
    // The shard timeline is modeled (round-robin over shard index), so
    // the trace must not depend on which thread actually ran a shard —
    // re-running the same pool produces the same spans.
    let data = nx_corpus::mixed(9, 768 << 10);
    let run = || {
        let nx = Nx::power9().with_telemetry(TelemetrySink::enabled(MetricsRegistry::new()));
        let sess = nx.parallel_session(
            ParallelOptions {
                workers: 4,
                chunk_size: 64 << 10,
            },
            6,
        );
        let out = sess.compress(&data, Format::Gzip).expect("parallel");
        assert!(!out.is_empty());
        nx.telemetry().trace()
    };
    let a = run();
    let b = run();
    assert!(!a.is_empty());
    assert_eq!(a, b, "shard spans must be schedule-independent");
    // Pinned: 12 shards of 64 KiB, 8 bytes per modeled cycle, waves of
    // 4 units. (request, seq, parent, stage, unit, start, dur, bytes, detail)
    let got: Vec<_> = a
        .iter()
        .map(|e| {
            let coords = (e.request, e.seq, e.parent, e.stage, e.worker);
            (coords, e.start_cycles, e.dur_cycles, e.bytes, e.detail)
        })
        .collect();
    let shard = Stage::Shard;
    #[rustfmt::skip]
    let want = vec![
        ((0, 0, 0, shard, 0), 0, 8192, 65536, 0),
        ((0, 1, 0, shard, 1), 0, 8192, 65536, 0),
        ((0, 2, 0, shard, 2), 0, 8192, 65536, 0),
        ((0, 3, 0, shard, 3), 0, 8192, 65536, 0),
        ((0, 4, 0, shard, 0), 8192, 8192, 65536, 0),
        ((0, 5, 0, shard, 1), 8192, 8192, 65536, 0),
        ((0, 6, 0, shard, 2), 8192, 8192, 65536, 0),
        ((0, 7, 0, shard, 3), 8192, 8192, 65536, 0),
        ((0, 8, 0, shard, 0), 16384, 8192, 65536, 0),
        ((0, 9, 0, shard, 1), 16384, 8192, 65536, 0),
        ((0, 10, 0, shard, 2), 16384, 8192, 65536, 0),
        ((0, 11, 0, shard, 3), 16384, 8192, 65536, 0),
    ];
    assert_eq!(got, want);
}

#[test]
fn registry_unifies_every_subsystem() {
    let nx = pinned_nx(5);
    let data = nx_corpus::mixed(11, 512 << 10);

    // Sync, both codecs.
    let gz = nx.compress(&data, Format::Gzip).expect("compress");
    let _ = nx.decompress(&gz.bytes, Format::Gzip).expect("decompress");
    let c842 = nx.compress_842(&data[..128 << 10]);
    let _ = nx.decompress_842(&c842).expect("842");

    // Parallel pool.
    let psess = nx.parallel_session(
        ParallelOptions {
            workers: 2,
            chunk_size: 64 << 10,
        },
        6,
    );
    let _ = psess.compress(&data, Format::Gzip).expect("parallel");

    // Async queue.
    let asess = nx.async_session();
    let h = asess
        .submit(data[..64 << 10].to_vec(), Format::Zlib)
        .expect("submit");
    let _ = h.wait().expect("async");

    let snap = nx.telemetry().registry().expect("registry").snapshot();
    let names: Vec<&str> = snap.iter().map(|(n, _)| n.as_str()).collect();

    // One namespace per subsystem, all in a single snapshot.
    for required in [
        "nx_requests_total{format=\"deflate\",dir=\"compress\"}",
        "nx_requests_total{format=\"842\",dir=\"decompress\"}",
        "nx_retries_total",
        "nx_software_fallbacks_total",
        "nx_fault_page_faults_total",
        "nx_fault_resubmissions_total",
        "nx_parallel_shards_total",
        "nx_parallel_worker_shards_total{worker=\"0\"}",
        "nx_service_queue_depth{tenant=\"async\",class=\"throughput\"}",
        "nx_service_rejected_total{tenant=\"async\",class=\"throughput\",cause=\"depth\"}",
        "nx_request_latency_cycles",
        "nx_shard_latency_cycles",
        "nx_request_bytes",
    ] {
        assert!(names.contains(&required), "missing {required} in {names:?}");
    }
    // Snapshot is sorted — a requirement for deterministic exports.
    let mut sorted = names.clone();
    sorted.sort_unstable();
    assert_eq!(names, sorted);

    // The per-codec split is real: 842 traffic is priced in cycles and
    // does not leak into the DEFLATE counters.
    let stats = nx.stats();
    assert!(
        stats.p842().compress().engine_cycles() > 0,
        "842 cycles must be modeled"
    );
    assert_eq!(stats.p842().compress().requests(), 1);
    assert_eq!(stats.p842().decompress().requests(), 1);
    assert!(stats.deflate().compress().requests() >= 2);
}

#[test]
fn all_three_exporters_render_live_data() {
    let nx = pinned_nx(6);
    let data = nx_corpus::mixed(13, 256 << 10);
    let gz = nx.compress(&data, Format::Gzip).expect("compress");
    let _ = nx.decompress(&gz.bytes, Format::Gzip).expect("decompress");

    let sink = nx.telemetry();
    let snap = sink.registry().expect("registry").snapshot();

    let prom = to_prometheus(&snap);
    assert!(prom.contains("# TYPE nx_request_latency_cycles histogram"));
    assert!(prom.contains("nx_request_latency_cycles_bucket{le=\"+Inf\"}"));
    assert!(prom.contains("# TYPE nx_requests_total counter"));
    assert!(prom.contains("nx_requests_total{format=\"deflate\",dir=\"compress\"}"));

    let json = to_json(&snap);
    assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert!(json.contains("\"nx_request_latency_cycles\""));
    assert!(json.contains("\"p99\""));

    let chrome = to_chrome_trace(&sink.trace(), CYCLES_PER_US);
    assert!(chrome.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
    assert!(chrome.trim_end().ends_with("]}"));
    assert!(chrome.contains("\"name\":\"submit\""));
    assert!(chrome.contains("\"name\":\"engine\""));
    assert!(chrome.contains("\"ph\":\"X\""));
}

#[test]
fn disabled_sink_records_nothing_and_costs_no_allocation() {
    let nx = Nx::power9();
    let data = nx_corpus::mixed(17, 128 << 10);
    let gz = nx.compress(&data, Format::Gzip).expect("compress");
    let _ = nx.decompress(&gz.bytes, Format::Gzip).expect("decompress");
    let sink = nx.telemetry();
    assert!(!sink.is_enabled());
    assert!(sink.registry().is_none());
    assert!(sink.trace().is_empty());
    assert_eq!(sink.trace_dropped(), 0);
}

/// Every async job drained: the session's window has completed all it
/// admitted and holds its whole credit budget again.
#[test]
fn queue_depth_gauge_returns_to_zero() {
    let nx = Nx::power9().with_telemetry(TelemetrySink::enabled(MetricsRegistry::new()));
    let asess = nx.async_session();
    let data = nx_corpus::mixed(19, 256 << 10);
    let handles: Vec<_> = data
        .chunks(32 << 10)
        .map(|c| asess.submit(c.to_vec(), Format::Gzip).expect("submit"))
        .collect();
    for h in handles {
        let _ = h.wait().expect("job");
    }
    let window = asess.window();
    assert_eq!(window.stats().admitted(), 8);
    assert_eq!(window.stats().completed(), window.stats().admitted());
    assert_eq!(window.credits_available(), window.stats().credits());
}

/// Async jobs run through the service: each is a completion of the
/// `"async"` tenant and, with coalescing off, one engine submission.
#[test]
fn async_jobs_are_async_tenant_completions() {
    let nx = Nx::power9().with_telemetry(TelemetrySink::enabled(MetricsRegistry::new()));
    let asess = nx.async_session();
    let data = nx_corpus::mixed(23, 96 << 10);
    let handles: Vec<_> = data
        .chunks(16 << 10)
        .map(|c| asess.submit(c.to_vec(), Format::Zlib).expect("submit"))
        .collect();
    for h in handles {
        let _ = h.wait().expect("job");
    }
    let snap = nx.telemetry().registry().expect("registry").snapshot();
    let counter = |name: &str| match snap.iter().find(|(n, _)| n == name) {
        Some((_, MetricValue::Counter(v))) => *v,
        other => panic!("{name}: expected a counter, got {other:?}"),
    };
    assert_eq!(
        counter("nx_service_completed_total{tenant=\"async\",class=\"throughput\"}"),
        6
    );
    assert_eq!(counter("nx_service_batches_total"), 6);
    assert_eq!(counter("nx_service_coalesced_batches_total"), 0);
}
