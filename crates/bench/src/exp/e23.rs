//! E23 — Multi-tenant service storm: fairness, QoS tails, credit admission.
//!
//! Drives the `nx_core::service` front end (credit-based admission
//! mirroring VAS receive-window credits, deficit-weighted round-robin
//! over QoS classes, small-payload coalescing) with the deterministic
//! open-loop storm generator:
//!
//! * **Storm** — a ≥4-tenant mixed-QoS mix (two Latency tenants, one
//!   Throughput hog offering ~3× the engine's capacity, one Background
//!   scanner) on the virtual cycle clock. Reported per tenant:
//!   p50/p99 latency, queue-depth histogram, credit stalls, goodput;
//!   in aggregate: the Jain fairness index, coalescing counters and the
//!   credit-conservation check (must be zero violations at drain).
//! * **Isolation** — the same seed replayed without the hog. Per-tenant
//!   arrival streams are a pure function of `(seed, name)`, so the only
//!   difference is the hog's presence; the victim's p99 inflation factor
//!   is the isolation number.
//! * **Chaos** — the same storm with the PR 2 fault injector threaded
//!   through the engine model (`FaultRates::sweep`): retries, software
//!   fallbacks and worker deaths must degrade latency, never drop
//!   admitted work or leak credits.
//! * **Coalescing identity** — small payloads through the *threaded*
//!   service (where batches share one engine submission) checked
//!   byte-identical against individual submissions on a fresh handle.
//!
//! The virtual clock makes every storm number deterministic from the
//! seed; only the coalescing-identity pass touches real threads, and it
//! checks bytes, not time. `run()` writes `BENCH_SERVICE.json`, which
//! `scripts/ci.sh` requires to reproduce the committed file to the byte:
//! fairness, QoS priority, tail latency and credit conservation included.

use crate::{write_rows, Row, Table, SEED};
use nx_accel::AccelConfig;
use nx_core::fault::{FaultPlan, FaultRates, RecoveryPolicy};
use nx_core::service::loadgen::{self, PayloadDist, StormConfig, StormReport, TenantLoad};
use nx_core::service::{QosClass, ServiceConfig, TenantSpec};
use nx_core::{FaultInjector, Format, Nx};
use nx_corpus::CorpusKind;
use std::sync::OnceLock;

/// One-line experiment title shown by `tables list`.
pub const TITLE: &str = "Multi-tenant service: fairness, QoS tails, credit admission";

/// Where the machine-readable report lands (workspace root under
/// `cargo run`).
pub const JSON_PATH: &str = "BENCH_SERVICE.json";

/// Injected fault pressure for the chaos replay.
const CHAOS_RATE: f64 = 0.08;

/// The saturating mixed-QoS storm: every tenant stays active for the
/// whole ~6M-cycle window, so DWRR weighting — not idle capacity —
/// decides who waits.
fn storm_loads() -> Vec<TenantLoad> {
    vec![
        TenantLoad::new(
            TenantSpec::new("rpc", QosClass::Latency, 16),
            30_000.0,
            PayloadDist::new(CorpusKind::Json, 256, 4096, 1.2),
            200,
        ),
        TenantLoad::new(
            TenantSpec::new("logs", QosClass::Latency, 16),
            45_000.0,
            PayloadDist::new(CorpusKind::Logs, 512, 4096, 1.2),
            130,
        ),
        TenantLoad::new(
            TenantSpec::new("hog", QosClass::Throughput, 12),
            4_000.0,
            PayloadDist::new(CorpusKind::Logs, 24 << 10, 48 << 10, 1.3),
            1_200,
        ),
        TenantLoad::new(
            TenantSpec::new("scan", QosClass::Background, 4),
            150_000.0,
            PayloadDist::new(CorpusKind::Text, 32 << 10, 96 << 10, 1.3),
            40,
        ),
    ]
}

/// The storm with the hog removed — the isolation baseline.
fn victim_loads() -> Vec<TenantLoad> {
    storm_loads()
        .into_iter()
        .filter(|l| l.spec.name != "hog")
        .collect()
}

struct Measured {
    /// Nest clock used for cycle→µs conversion.
    freq_ghz: f64,
    /// The main mixed-QoS storm.
    storm: StormReport,
    /// Victim ("rpc") p99 with the hog absent, cycles.
    victim_p99_alone: u64,
    /// Victim p99 inflation factor caused by the hog.
    isolation_factor: f64,
    /// The same storm under injected faults.
    chaos: StormReport,
    /// Threaded-service coalescing produced byte-identical outputs.
    coalesce_identical: bool,
    /// Coalesced engine submissions observed in the threaded pass.
    threaded_coalesced_batches: u64,
}

impl Measured {
    fn us(&self, cycles: u64) -> f64 {
        StormReport::cycles_to_us(cycles, self.freq_ghz)
    }

    /// Worst p99 across Latency-class tenants, cycles.
    fn latency_p99_cycles(&self) -> u64 {
        self.storm
            .tenants
            .iter()
            .filter(|t| t.class == QosClass::Latency)
            .map(|t| t.p99_cycles())
            .max()
            .unwrap_or(0)
    }

    /// Best p50 across Background-class tenants, cycles.
    fn background_p50_cycles(&self) -> u64 {
        self.storm
            .tenants
            .iter()
            .filter(|t| t.class == QosClass::Background)
            .map(|t| t.p50_cycles())
            .min()
            .unwrap_or(0)
    }

    /// The QoS inversion check: Latency p99 strictly under Background p50.
    fn qos_priority_holds(&self) -> bool {
        let p99 = self.latency_p99_cycles();
        let p50 = self.background_p50_cycles();
        p99 > 0 && p50 > 0 && p99 < p50
    }

    /// Victim ("rpc") p99 with the hog present, cycles.
    fn victim_p99_contended(&self) -> u64 {
        self.storm.tenant("rpc").map(|t| t.p99_cycles()).unwrap_or(0)
    }

    fn engine_utilization(&self) -> f64 {
        if self.storm.makespan_cycles == 0 {
            0.0
        } else {
            self.storm.engine_busy_cycles as f64 / self.storm.makespan_cycles as f64
        }
    }
}

/// Small payloads through the threaded service (coalescing on), checked
/// byte-identical against individual submissions on a fresh handle.
fn coalesce_identity_check() -> (bool, u64) {
    let nx = Nx::power9();
    let service = nx.service(ServiceConfig::default());
    let w = service.open_window(TenantSpec::new("rpc", QosClass::Latency, 32));
    let payloads: Vec<Vec<u8>> = (0..24u64)
        .map(|i| CorpusKind::Json.generate(SEED ^ i, 1200 + (i as usize * 131) % 2400))
        .collect();
    let tickets: Vec<_> = payloads
        .iter()
        .filter_map(|p| w.submit(p.clone(), Format::Gzip).ok())
        .collect();
    let reference = Nx::power9();
    let mut identical = tickets.len() == payloads.len();
    for (p, t) in payloads.iter().zip(tickets) {
        match (t.wait(), reference.compress(p, Format::Gzip)) {
            (Ok(served), Ok(solo)) => identical &= served.compressed.bytes == solo.bytes,
            _ => identical = false,
        }
    }
    let batches = service.stats().coalesced_batches();
    service.close();
    (identical && batches > 0, batches)
}

/// Runs the storms once per process; `run()` and the tests share it.
fn measured() -> &'static Measured {
    static CELL: OnceLock<Measured> = OnceLock::new();
    CELL.get_or_init(|| {
        let cfg = StormConfig::default();
        let freq_ghz = AccelConfig::power9().freq_ghz;
        let storm = loadgen::run_storm(SEED, &storm_loads(), &cfg);
        let alone = loadgen::run_storm(SEED, &victim_loads(), &cfg);
        let victim_p99_alone = alone.tenant("rpc").map(|t| t.p99_cycles()).unwrap_or(0);
        let victim_p99_contended = storm.tenant("rpc").map(|t| t.p99_cycles()).unwrap_or(0);
        let isolation_factor = if victim_p99_alone == 0 {
            0.0
        } else {
            victim_p99_contended as f64 / victim_p99_alone as f64
        };

        let inj = FaultInjector::new(
            FaultPlan::seeded(SEED ^ 23, FaultRates::sweep(CHAOS_RATE)),
            RecoveryPolicy::default(),
        );
        let chaos = loadgen::run_storm_faulted(SEED, &storm_loads(), &cfg, &inj);

        let (coalesce_identical, threaded_coalesced_batches) = coalesce_identity_check();

        Measured {
            freq_ghz,
            storm,
            victim_p99_alone,
            isolation_factor,
            chaos,
            coalesce_identical,
            threaded_coalesced_batches,
        }
    })
}

/// The report's rows: per-tenant rows, the summary, the isolation row and
/// the chaos row.
fn rows(m: &Measured) -> Vec<Row> {
    let mut rows: Vec<Row> = m
        .storm
        .tenants
        .iter()
        .map(|t| {
            let buckets: Vec<String> = t
                .depth
                .buckets
                .iter()
                .map(|b| format!("{{\"le\": {}, \"count\": {}}}", b.le, b.count))
                .collect();
            Row::new("tenant")
                .str("name", &t.name)
                .str("class", t.class.name())
                .val("generated", t.generated)
                .val("admitted", t.admitted)
                .val("completed", t.completed)
                .val("rejected_credit", t.rejected_no_credit)
                .val("rejected_depth", t.rejected_queue_full)
                .val("credit_stalls", t.credit_stalls)
                .val("coalesced_requests", t.coalesced_requests)
                .fixed("p50_us", m.us(t.p50_cycles()), 3)
                .fixed("p99_us", m.us(t.p99_cycles()), 3)
                .fixed("goodput", t.goodput(), 4)
                .val("depth_p50", t.depth.p50)
                .val("depth_p99", t.depth.p99)
                .val("depth_max", t.depth.max)
                .val("depth_buckets", format!("[{}]", buckets.join(", ")))
        })
        .collect();
    rows.push(
        Row::new("summary")
            .val("tenants", m.storm.tenants.len())
            .fixed("jain_fairness", m.storm.jain_fairness, 4)
            .fixed("latency_p99_us", m.us(m.latency_p99_cycles()), 3)
            .fixed("background_p50_us", m.us(m.background_p50_cycles()), 3)
            .val("qos_priority_holds", m.qos_priority_holds())
            .val("credit_violations", m.storm.credit_violations)
            .val("chaos_credit_violations", m.chaos.credit_violations)
            .val("batches", m.storm.batches)
            .val("coalesced_batches", m.storm.coalesced_batches)
            .val("coalesced_requests", m.storm.coalesced_requests)
            .val("coalesce_identical", m.coalesce_identical)
            .fixed("isolation_factor", m.isolation_factor, 3)
            .fixed("makespan_us", m.us(m.storm.makespan_cycles), 1)
            .fixed("engine_utilization", m.engine_utilization(), 4),
    );
    rows.push(
        Row::new("isolation")
            .str("victim", "rpc")
            .fixed("p99_alone_us", m.us(m.victim_p99_alone), 3)
            .fixed("p99_contended_us", m.us(m.victim_p99_contended()), 3)
            .fixed("factor", m.isolation_factor, 3),
    );
    rows.push(
        Row::new("chaos")
            .val("rate", CHAOS_RATE)
            .val("retries", m.chaos.retries)
            .val("fallbacks", m.chaos.fallbacks)
            .val("worker_deaths", m.chaos.worker_deaths)
            .fixed("jain_fairness", m.chaos.jain_fairness, 4)
            .val("credit_violations", m.chaos.credit_violations)
            .fixed("makespan_us", m.us(m.chaos.makespan_cycles), 1),
    );
    rows
}

/// Runs the experiment, writes `BENCH_SERVICE.json`, renders the report.
pub fn run() -> String {
    let m = measured();

    let mut tenant_table = Table::new(vec![
        "tenant",
        "class",
        "offered",
        "done",
        "no-credit",
        "stalls",
        "p50 µs",
        "p99 µs",
        "goodput",
    ]);
    for t in &m.storm.tenants {
        tenant_table.row(vec![
            t.name.clone(),
            t.class.name().to_string(),
            t.generated.to_string(),
            t.completed.to_string(),
            t.rejected_no_credit.to_string(),
            t.credit_stalls.to_string(),
            format!("{:.1}", m.us(t.p50_cycles())),
            format!("{:.1}", m.us(t.p99_cycles())),
            format!("{:.2}", t.goodput()),
        ]);
    }

    let mut chaos_table = Table::new(vec!["tenant", "done", "p99 µs", "goodput"]);
    for t in &m.chaos.tenants {
        chaos_table.row(vec![
            t.name.clone(),
            t.completed.to_string(),
            format!("{:.1}", m.us(t.p99_cycles())),
            format!("{:.2}", t.goodput()),
        ]);
    }

    let json_note = write_rows(JSON_PATH, &rows(m));

    format!(
        "## E23 — {TITLE}\n\nMixed-QoS storm on the virtual cycle clock: two Latency \
         tenants, a Throughput hog offering ~3× engine capacity against a 12-credit \
         window, one Background scanner; credit admission + DWRR (weights 16/4/1) + \
         ≤4 KiB coalescing. Jain fairness {:.3} (bar ≥ 0.8), engine utilization \
         {:.0}%, {} engine batches ({} coalesced carrying {} requests).\n\n{}\n\
         QoS: worst Latency-class p99 {:.1} µs vs best Background-class p50 {:.1} µs \
         — priority {}. Hog isolation: victim p99 {:.1} µs alone → {:.1} µs contended \
         ({:.2}×). Threaded coalescing byte-identical: {} ({} coalesced batches).\n\n\
         Chaos replay at injected rate {CHAOS_RATE}: {} retries, {} software \
         fallbacks, {} worker deaths absorbed; Jain {:.3}, credit violations {}.\n\n{}\n\
         {json_note}\n",
        m.storm.jain_fairness,
        m.engine_utilization() * 100.0,
        m.storm.batches,
        m.storm.coalesced_batches,
        m.storm.coalesced_requests,
        tenant_table.render(),
        m.us(m.latency_p99_cycles()),
        m.us(m.background_p50_cycles()),
        if m.qos_priority_holds() {
            "holds"
        } else {
            "INVERTED"
        },
        m.us(m.victim_p99_alone),
        m.us(m.victim_p99_contended()),
        m.isolation_factor,
        m.coalesce_identical,
        m.threaded_coalesced_batches,
        m.chaos.retries,
        m.chaos.fallbacks,
        m.chaos.worker_deaths,
        m.chaos.jain_fairness,
        m.chaos.credit_violations,
        chaos_table.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storm_summary_meets_the_gates() {
        // The contract BENCH_SERVICE.json records,
        // checked at the source so a regression fails in `cargo test`
        // before it fails in the gate.
        let m = measured();
        assert_eq!(m.storm.credit_violations, 0);
        assert_eq!(m.chaos.credit_violations, 0);
        assert!(
            m.storm.jain_fairness >= 0.8,
            "fairness {} under the 0.8 bar",
            m.storm.jain_fairness
        );
        assert!(
            m.qos_priority_holds(),
            "Latency p99 not under Background p50"
        );
        assert!(m.coalesce_identical, "coalesced outputs diverged");
        assert!(m.storm.coalesced_batches > 0, "storm never coalesced");
        assert!(
            m.isolation_factor > 0.0 && m.isolation_factor <= 8.0,
            "hog isolation factor {} out of range",
            m.isolation_factor
        );
        assert!(m.chaos.retries + m.chaos.fallbacks + m.chaos.worker_deaths > 0);
    }

    #[test]
    fn storm_is_deterministic() {
        let cfg = StormConfig::default();
        let a = loadgen::run_storm(SEED, &storm_loads(), &cfg);
        let b = loadgen::run_storm(SEED, &storm_loads(), &cfg);
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.jain_fairness.to_bits(), b.jain_fairness.to_bits());
    }

    #[test]
    fn report_json_is_well_formed() {
        let m = measured();
        let json = crate::render_rows(&rows(m));
        assert!(json.starts_with("[\n") && json.ends_with("]\n"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(
            json.matches("\"section\": \"tenant\"").count(),
            m.storm.tenants.len()
        );
        assert_eq!(json.matches("\"section\": \"summary\"").count(), 1);
        assert_eq!(json.matches("\"section\": \"chaos\"").count(), 1);
    }
}
