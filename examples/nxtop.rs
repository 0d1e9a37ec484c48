//! `nxtop` — a `top`-style snapshot of the unified telemetry registry.
//!
//! Drives a mixed workload (sync compress/decompress with fault
//! injection, a sharded parallel session, an async queue) through one
//! instrumented [`Nx`] handle, then renders everything the observability
//! layer unifies: per-codec request counters, fault-recovery accounting,
//! queue depth, per-worker shard balance, the encoder's per-level and
//! per-block-kind counters (`nx_encode_blocks_*`, chain-walk depth
//! histogram — the `nx-encode-paths` source added in PR 5), the
//! parallel-decode counters (`nx_decode_parallel_*`: member fan-out,
//! serial fallbacks, seek-index hits with bytes decoded against bytes
//! returned), and the latency histograms with their percentiles.
//!
//! ```text
//! cargo run --release -p nx-core --example nxtop            # dashboard
//! cargo run --release -p nx-core --example nxtop -- --prom  # Prometheus text
//! cargo run --release -p nx-core --example nxtop -- --trace # Chrome trace JSON
//! ```
//!
//! `--prom` output is a valid Prometheus exposition (pipe it to a file
//! and point a scrape job at it); `--trace` loads into
//! `chrome://tracing` / Perfetto. Both are byte-deterministic: the span
//! timeline is keyed to modeled cycles, never wall clock.

use nx_core::fault::{FaultPlan, FaultRates, RecoveryPolicy};
use nx_core::parallel::ParallelOptions;
use nx_core::{Format, Nx};
use nx_telemetry::{
    to_chrome_trace, to_prometheus, MetricValue, MetricsRegistry, SloMonitor, SloSpec, SloStatus,
    SpanEvent, TelemetrySink,
};

/// Modeled core cycles per microsecond (2.5 GHz) for the trace export.
const CYCLES_PER_US: f64 = 2500.0;

fn main() {
    let mode = std::env::args().nth(1).unwrap_or_default();

    // One instrumented handle: live registry + span ring, light fault
    // pressure so the recovery counters have something to show.
    let nx = Nx::with_faults(
        nx_accel::AccelConfig::power9(),
        FaultPlan::seeded(7, FaultRates::sweep(0.05)),
        RecoveryPolicy::touch_ahead(8),
    )
    .with_telemetry(TelemetrySink::enabled(MetricsRegistry::new()));

    // Sync traffic, both codecs.
    let data = nx_corpus::mixed(7, 1 << 20);
    for chunk in data.chunks(128 << 10) {
        let gz = nx.compress(chunk, Format::Gzip).expect("compress");
        let back = nx.decompress(&gz.bytes, Format::Gzip).expect("decompress");
        assert_eq!(back.bytes, chunk);
    }
    let c842 = nx.compress_842(&data[..256 << 10]);
    let _ = nx.decompress_842(&c842).expect("842 back");

    // One parallel sharded request (per-worker counters, shard spans).
    let psess = nx.parallel_session(
        ParallelOptions {
            workers: 4,
            chunk_size: 64 << 10,
        },
        6,
    );
    let _ = psess.compress(&data, Format::Gzip).expect("parallel");

    // Two rungs of the level ladder (per-level encode-block counters).
    for opts in [
        nx_core::CompressOptions::from_level(nx_deflate::Level::Fastest),
        nx_core::CompressOptions::from_level(nx_deflate::Level::High),
    ] {
        let gz = nx
            .compress_with(&data[..256 << 10], Format::Gzip, opts)
            .expect("ladder compress");
        assert!(!gz.bytes.is_empty());
    }

    // The speculative batch matcher forced at a lazy rung through the
    // engine knob: per-window cover statistics (windows resolved,
    // candidates probed, positions covered, picks-per-window histogram)
    // land in the `nx-encode-paths` source and the panel below.
    let spec = nx_core::CompressOptions::from_level(nx_deflate::Level::Default)
        .with_engine(nx_deflate::Engine::Speculative);
    let gz = nx
        .compress_with(&data[..256 << 10], Format::Gzip, spec)
        .expect("speculative compress");
    assert!(!gz.bytes.is_empty());

    // Parallel decode traffic (`nx-decode-parallel` source): a
    // multi-member stream takes the member-per-worker path, a single
    // member decodes serially, and one indexed random access bumps the
    // seek counters.
    let popts = nx_core::ParallelInflateOptions {
        workers: 4,
        ..Default::default()
    };
    let mut members = Vec::new();
    for chunk in data.chunks(256 << 10) {
        members.extend(nx.compress(chunk, Format::Gzip).expect("member").bytes);
    }
    let back = nx
        .decompress_parallel_with(&members, Format::Gzip, popts)
        .expect("parallel decode");
    assert_eq!(back, data);
    let one = nx.compress(&data, Format::Gzip).expect("single member");
    let back = nx
        .decompress_parallel_with(&one.bytes, Format::Gzip, popts)
        .expect("single-member decode");
    assert_eq!(back, data);
    let index = nx.build_index(&one.bytes, Format::Gzip).expect("index");
    let got = nx
        .decompress_at(&one.bytes, &index, 512 << 10, 4096)
        .expect("seek");
    assert_eq!(got, &data[512 << 10..(512 << 10) + 4096]);

    // A burst through the async queue (depth gauge + queue-wait spans).
    let asess = nx.async_session();
    let handles: Vec<_> = data
        .chunks(256 << 10)
        .map(|c| asess.submit(c.to_vec(), Format::Zlib).expect("submit"))
        .collect();
    for h in handles {
        let _ = h.wait().expect("async job");
    }

    // Multi-tenant service traffic (`nx-service` source): two windows
    // with different QoS classes and budgets — per-tenant admission and
    // rejection counters, coalescing, and the latency/queue-depth
    // histograms all land in the same registry.
    let service = nx.service(nx_core::ServiceConfig::default());
    let rpc = service.open_window(nx_core::TenantSpec::new(
        "rpc",
        nx_core::QosClass::Latency,
        8,
    ));
    let scan = service.open_window(nx_core::TenantSpec::new(
        "scan",
        nx_core::QosClass::Background,
        2,
    ));
    let mut tickets = Vec::new();
    for i in 0..24u64 {
        let json = nx_corpus::CorpusKind::Json.generate(i, 1536);
        if let Ok(t) = rpc.submit(json, Format::Gzip) {
            tickets.push((0usize, t));
        }
        // The under-credited scanner bounces on NoCredit by design; the
        // rejection counter is part of the dashboard.
        let big = nx_corpus::CorpusKind::Text.generate(i, 32 << 10);
        if let Ok(t) = scan.submit(big, Format::Gzip) {
            tickets.push((1usize, t));
        }
    }
    // The live SLO panel: per-tenant latency objectives evaluated by the
    // burn-rate monitor as completions stream in, on a virtual clock
    // advanced by the modeled latencies themselves (deterministic — the
    // same property the loadgen storm relies on).
    let mut slo = SloMonitor::new();
    slo.add(SloSpec::new("rpc", "latency", 120_000, 0.95));
    slo.add(SloSpec::new("scan", "background", 2_000_000, 0.90));
    let mut now = 0u64;
    for (idx, t) in tickets {
        let served = t.wait().expect("service job");
        now += served.latency_cycles;
        slo.observe(idx, now, served.latency_cycles, true);
    }
    assert!(service.credits_conserved(), "credit leak");
    service.close();

    let sink = nx.telemetry();
    let registry = sink.registry().expect("enabled sink has a registry");
    let snapshot = registry.snapshot();

    match mode.as_str() {
        "--prom" => print!("{}", to_prometheus(&snapshot)),
        "--trace" => print!("{}", to_chrome_trace(&sink.trace(), CYCLES_PER_US)),
        _ => render_dashboard(
            &snapshot,
            &slo.statuses(),
            &sink.trace(),
            sink.trace_dropped(),
            got.len(),
        ),
    }
}

/// Renders the interactive-style dashboard view.
fn render_dashboard(
    snapshot: &[(String, MetricValue)],
    slo: &[SloStatus],
    trace: &[SpanEvent],
    dropped: u64,
    seek_returned: usize,
) {
    println!("nxtop — unified telemetry snapshot");
    println!("==================================\n");

    println!("{:<48} {:>14}", "counter / gauge", "value");
    println!("{:-<48} {:->14}", "", "");
    for (name, value) in snapshot {
        // The raw per-tenant service counters are summarized by the SLO
        // panel below, and the picks-per-window distribution by the
        // speculative-cover panel, instead of dumped row by row.
        if name.starts_with("nx_service_") || name.starts_with("nx_encode_spec_cover_") {
            continue;
        }
        match value {
            MetricValue::Counter(v) => println!("{name:<48} {v:>14}"),
            MetricValue::Gauge(v) => println!("{name:<48} {v:>14}"),
            MetricValue::Histogram(_) => {}
        }
    }

    // Ranged-read amplification: what the indexed reads decoded for what
    // they returned.
    let counter = |name: &str| {
        let named = snapshot.iter().find(|(n, _)| n == name);
        named.map_or(0, |(_, v)| match v {
            MetricValue::Counter(c) => *c,
            _ => 0,
        })
    };
    println!(
        "\nseek reads: {} hits, {} B decoded / {seek_returned} B returned",
        counter("nx_decode_parallel_seek_index_hits_total"),
        counter("nx_decode_parallel_seek_decoded_bytes_total"),
    );

    // Speculative batch-matcher panel: how many matches the cover
    // resolver kept per 8-position window (0 = all-literal window).
    let cover: Vec<u64> = (0..=8)
        .map(|i| {
            snapshot
                .iter()
                .find(|(n, _)| *n == format!("nx_encode_spec_cover_{i}_total"))
                .map_or(0, |(_, v)| match v {
                    MetricValue::Counter(c) => *c,
                    MetricValue::Gauge(g) => *g as u64,
                    MetricValue::Histogram(_) => 0,
                })
        })
        .collect();
    let windows: u64 = cover.iter().sum();
    if windows > 0 {
        println!("\nspeculative cover: picks per 8-position window");
        println!("{:-<48}", "");
        let peak = cover.iter().copied().max().unwrap_or(1).max(1);
        for (picks, &count) in cover.iter().enumerate() {
            let bar = "#".repeat(((count * 24).div_ceil(peak)) as usize);
            let pct = count as f64 * 100.0 / windows as f64;
            println!("{picks:>2} picks {count:>12} {pct:>5.1}% {bar}");
        }
    }

    println!(
        "\n{:<32} {:>8} {:>10} {:>10} {:>10} {:>10}",
        "histogram", "count", "p50", "p90", "p99", "max"
    );
    println!(
        "{:-<32} {:->8} {:->10} {:->10} {:->10} {:->10}",
        "", "", "", "", "", ""
    );
    for (name, value) in snapshot {
        if let MetricValue::Histogram(h) = value {
            println!(
                "{name:<32} {:>8} {:>10} {:>10} {:>10} {:>10}",
                h.count, h.p50, h.p90, h.p99, h.max
            );
        }
    }

    // The live SLO panel: burn rates from the monitor fed as the service
    // tickets completed.
    println!(
        "\n{:<10} {:>12} {:>10} {:>10} {:>9} {:>8}",
        "slo", "class", "fast burn", "slow burn", "budget", "state"
    );
    println!(
        "{:-<10} {:->12} {:->10} {:->10} {:->9} {:->8}",
        "", "", "", "", "", ""
    );
    for st in slo {
        println!(
            "{:<10} {:>12} {:>10.2} {:>10.2} {:>8.0}% {:>8}",
            st.name,
            st.class,
            st.fast_burn,
            st.slow_burn,
            st.budget_remaining * 100.0,
            if st.alerting { "FIRING" } else { "ok" }
        );
    }

    // Slowest recent traces: walk every latency histogram's buckets from
    // the top, resolve each bucket's exemplar trace id against the span
    // ring, and print the per-stage breakdown — the tail-latency drill-
    // down the exemplar plumbing exists for.
    let mut exemplars: Vec<(u64, u64)> = Vec::new(); // (bucket le, trace id)
    for (name, value) in snapshot {
        if !name.contains("latency") {
            continue;
        }
        if let MetricValue::Histogram(h) = value {
            for b in &h.buckets {
                if let Some(id) = b.exemplar {
                    exemplars.push((b.le, id));
                }
            }
        }
    }
    exemplars.sort_unstable_by(|a, b| b.cmp(a));
    exemplars.dedup_by_key(|e| e.1);
    println!("\nslowest recent traces (latency-bucket exemplars):");
    let mut shown = 0;
    for (le, id) in exemplars {
        let mut spans: Vec<&SpanEvent> = trace.iter().filter(|s| s.request == id).collect();
        if spans.is_empty() {
            continue; // exemplar outlived the span ring
        }
        spans.sort_by_key(|s| s.seq);
        let total: u64 = spans.iter().map(|s| s.dur_cycles).sum();
        let breakdown: Vec<String> = spans
            .iter()
            .map(|s| format!("{} {}", s.stage.name(), s.dur_cycles))
            .collect();
        println!(
            "  trace {id:>6}  <= {le:>9} cyc  total {total:>8} cyc  [{}]",
            breakdown.join(", ")
        );
        shown += 1;
        if shown == 5 {
            break;
        }
    }
    if shown == 0 {
        println!("  (no exemplars resolve to live spans)");
    }

    println!(
        "\nspan trace: {} spans recorded, {dropped} dropped",
        trace.len()
    );
    println!("(re-run with --prom for Prometheus text, --trace for Chrome trace JSON)");
}
