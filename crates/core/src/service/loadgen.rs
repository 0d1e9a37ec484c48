//! Deterministic open-loop workload generation and a virtual-time storm
//! driver for the multi-tenant service.
//!
//! The "millions of users" workload the ROADMAP asks for cannot be tested
//! with wall clocks: fairness and tail-latency assertions would flake on
//! load. Instead this module drives the *same* state machine as the
//! threaded service — [`super::sched`]'s `ServiceCore` — on a **virtual
//! cycle clock**. What is left here is what a driver owns: the arrival
//! generator, the event loop (an `nx_sim::EventQueue` of completions), a
//! modeled engine, and the report/SLO/flight-recorder assembly:
//!
//! * [`LoadGen`] produces per-tenant open-loop arrival streams —
//!   exponential inter-arrival gaps, bounded-Pareto payload sizes, payload
//!   bytes from `nx-corpus` — as a pure function of `(seed, tenant name)`.
//!   Adding or removing a tenant never perturbs another tenant's stream,
//!   which is what makes hog-isolation experiments well-posed.
//! * [`run_storm`] feeds the arrivals through the core and a modeled
//!   engine (real [`Accelerator`] cycle costs, `SUBMIT_CYCLES` paid once
//!   per coalesced batch, `COMPLETE_CYCLES` per request) and reports
//!   per-tenant latency/queue-depth histograms, credit stalls, and the
//!   Jain fairness index.
//! * [`run_storm_faulted`] threads the fault injector through the same
//!   path, priced by the steps the executor's recovery loop executes
//!   (`fault::Recovery`): retries + backoff, touched pages, a software
//!   fallback at [`StormConfig::fallback_slowdown`]×, a re-dispatch per
//!   worker death — and *accepted work is never dropped*.
//!
//! Every run emits a [`TraceEvent`] log; two runs from the same seed are
//! byte-identical (the determinism property test).

use super::sched::{jain_index, request_spans, QosClass, Rejected, ServiceCore, TenantSpec};
use super::ServiceConfig;
use crate::fault::{FaultInjector, Recovery, Site, Step};
use crate::{COMPLETE_CYCLES, SUBMIT_CYCLES};
use nx_accel::{AccelConfig, Accelerator};
use nx_corpus::CorpusKind;
use nx_sim::{EventQueue, SimTime};
use nx_telemetry::{
    FlightRecorder, HistogramSnapshot, SloEvent, SloEventKind, SloMonitor, SloSpec, SloStatus,
};

/// Small deterministic generator (splitmix64) seeded from `(seed, tag)`.
/// Self-contained so the production crate needs no RNG dependency.
#[derive(Debug, Clone)]
pub struct StormRng {
    state: u64,
}

impl StormRng {
    /// Seeds from a run seed and a tenant tag (FNV-1a over the tag, mixed
    /// into the seed) — streams are independent per tag.
    pub fn new(seed: u64, tag: &str) -> Self {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in tag.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Self {
            state: seed ^ h.rotate_left(17) ^ 0x9e37_79b9_7f4a_7c15,
        }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponential with the given mean (inter-arrival gaps).
    pub fn exponential(&mut self, mean: f64) -> f64 {
        let u = self.unit();
        -mean * (1.0 - u).max(f64::MIN_POSITIVE).ln()
    }

    /// Bounded Pareto on `[lo, hi]` with shape `alpha` (payload sizes:
    /// many small, few large — the RPC traffic shape).
    pub fn bounded_pareto(&mut self, lo: f64, hi: f64, alpha: f64) -> f64 {
        if hi <= lo {
            return lo;
        }
        let u = self.unit();
        let ratio = (lo / hi).powf(alpha);
        lo / (1.0 - u * (1.0 - ratio)).powf(1.0 / alpha)
    }
}

/// Payload-size distribution for one tenant: bounded Pareto over
/// `[min_bytes, max_bytes]`, content from one `nx-corpus` class.
#[derive(Debug, Clone)]
pub struct PayloadDist {
    /// Corpus class the payload bytes are generated from.
    pub kind: CorpusKind,
    /// Smallest payload (bytes).
    pub min_bytes: usize,
    /// Largest payload (bytes).
    pub max_bytes: usize,
    /// Pareto shape (≈1.1–1.5 gives the heavy-tailed RPC shape; higher
    /// concentrates near `min_bytes`).
    pub alpha: f64,
}

impl PayloadDist {
    /// Builds a distribution.
    pub fn new(kind: CorpusKind, min_bytes: usize, max_bytes: usize, alpha: f64) -> Self {
        Self {
            kind,
            min_bytes: min_bytes.max(1),
            max_bytes: max_bytes.max(min_bytes.max(1)),
            alpha: if alpha > 0.0 { alpha } else { 1.2 },
        }
    }

    fn sample(&self, rng: &mut StormRng) -> usize {
        let v = rng.bounded_pareto(self.min_bytes as f64, self.max_bytes as f64, self.alpha);
        (v as usize).clamp(self.min_bytes, self.max_bytes)
    }
}

/// One tenant's offered load: its window spec, open-loop arrival rate
/// (mean gap in modeled cycles), payload distribution and request count.
#[derive(Debug, Clone)]
pub struct TenantLoad {
    /// Window spec (name, QoS class, credits).
    pub spec: TenantSpec,
    /// Mean inter-arrival gap in modeled cycles (open loop: arrivals do
    /// not wait for completions).
    pub mean_gap_cycles: f64,
    /// Payload size/content distribution.
    pub payload: PayloadDist,
    /// Arrivals this tenant generates.
    pub requests: usize,
}

impl TenantLoad {
    /// Builds a tenant load.
    pub fn new(
        spec: TenantSpec,
        mean_gap_cycles: f64,
        payload: PayloadDist,
        requests: usize,
    ) -> Self {
        Self {
            spec,
            mean_gap_cycles: mean_gap_cycles.max(1.0),
            payload,
            requests,
        }
    }
}

/// One generated arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Arrival time (virtual cycles).
    pub at: u64,
    /// Tenant index into the load slice.
    pub tenant: usize,
    /// Payload size (bytes).
    pub bytes: usize,
    /// Seed the payload content is generated from.
    pub seed: u64,
}

/// The open-loop workload generator.
#[derive(Debug, Clone, Copy)]
pub struct LoadGen;

impl LoadGen {
    /// Generates the merged arrival stream for `loads` from `seed`.
    ///
    /// Each tenant's stream is a pure function of `(seed, tenant name)`;
    /// the merge is sorted by `(time, tenant)` — fully deterministic.
    pub fn arrivals(seed: u64, loads: &[TenantLoad]) -> Vec<Arrival> {
        let mut out = Vec::new();
        for (tenant, load) in loads.iter().enumerate() {
            let mut rng = StormRng::new(seed, &load.spec.name);
            let mut t = 0.0f64;
            for _ in 0..load.requests {
                t += rng.exponential(load.mean_gap_cycles);
                let bytes = load.payload.sample(&mut rng);
                let pseed = rng.next_u64();
                out.push(Arrival {
                    at: t as u64,
                    tenant,
                    bytes,
                    seed: pseed,
                });
            }
        }
        out.sort_by_key(|a| (a.at, a.tenant));
        out
    }
}

/// What happened to one request, on the virtual clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// The request arrived at the window.
    Arrive,
    /// It took a credit and entered the tenant queue.
    Admit,
    /// Rejected: window out of credits.
    RejectCredit,
    /// Rejected: global engine queue at depth.
    RejectDepth,
    /// Dispatched to the engine (possibly inside a coalesced batch).
    Dispatch,
    /// Completed; credit returned.
    Complete,
}

/// One event of the deterministic storm trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Virtual-cycle timestamp.
    pub at: u64,
    /// Tenant index.
    pub tenant: u32,
    /// Per-run arrival sequence number.
    pub seq: u64,
    /// Payload bytes.
    pub bytes: u64,
    /// Event kind.
    pub kind: TraceKind,
}

/// Storm tuning: the service knobs plus the fault-degradation model.
#[derive(Debug, Clone)]
pub struct StormConfig {
    /// Admission/scheduling knobs (shared with the threaded service).
    pub service: ServiceConfig,
    /// Cycle multiplier applied when a request degrades to the software
    /// path (accelerator unavailable / retry budget exhausted): the CPU
    /// encoder is several times slower than the engine.
    pub fallback_slowdown: u64,
    /// Per-tenant SLOs evaluated on the virtual clock. `None` derives
    /// one per tenant from its QoS class
    /// ([`default_slo_for`]); an explicit empty vec disables SLO
    /// evaluation entirely.
    pub slos: Option<Vec<SloSpec>>,
}

impl Default for StormConfig {
    fn default() -> Self {
        Self {
            service: ServiceConfig::default(),
            fallback_slowdown: 4,
            slos: None,
        }
    }
}

/// The class-derived default SLO for one tenant load: a latency
/// objective scaled to the QoS class (tight for `Latency`, loose for
/// `Background`) with a 99% target — a 1% error budget burned by
/// rejections and objective misses.
pub fn default_slo_for(load: &TenantLoad) -> SloSpec {
    let objective = match load.spec.class {
        QosClass::Latency => 500_000,
        QosClass::Throughput => 5_000_000,
        QosClass::Background => 20_000_000,
    };
    SloSpec::new(&load.spec.name, load.spec.class.name(), objective, 0.99)
}

/// Per-tenant storm outcome.
#[derive(Debug, Clone)]
pub struct TenantReport {
    /// Tenant name.
    pub name: String,
    /// QoS class.
    pub class: QosClass,
    /// Arrivals generated.
    pub generated: u64,
    /// Requests admitted (took a credit).
    pub admitted: u64,
    /// Requests completed.
    pub completed: u64,
    /// Admissions rejected for lack of window credit.
    pub rejected_no_credit: u64,
    /// Admissions rejected by the global depth bound.
    pub rejected_queue_full: u64,
    /// Credit stalls observed by the window (== credit rejections).
    pub credit_stalls: u64,
    /// Requests that rode in a coalesced batch.
    pub coalesced_requests: u64,
    /// Request latency (admission → completion), virtual cycles.
    pub latency: HistogramSnapshot,
    /// Tenant queue depth sampled at each admission.
    pub depth: HistogramSnapshot,
    /// Payload bytes offered (all arrivals).
    pub offered_bytes: u64,
    /// Payload bytes completed.
    pub completed_bytes: u64,
}

impl TenantReport {
    /// p50 latency in cycles.
    pub fn p50_cycles(&self) -> u64 {
        self.latency.p50
    }

    /// p99 latency in cycles.
    pub fn p99_cycles(&self) -> u64 {
        self.latency.p99
    }

    /// Goodput ratio: completed / generated.
    pub fn goodput(&self) -> f64 {
        if self.generated == 0 {
            1.0
        } else {
            self.completed as f64 / self.generated as f64
        }
    }
}

/// Whole-storm outcome.
#[derive(Debug, Clone)]
pub struct StormReport {
    /// Per-tenant reports, in load order.
    pub tenants: Vec<TenantReport>,
    /// Jain fairness index over per-tenant goodput ratios.
    pub jain_fairness: f64,
    /// Credit-conservation violations at drain (must be 0): a tenant
    /// holding credits, or admitted ≠ completed at end of storm.
    pub credit_violations: u64,
    /// Engine submissions performed.
    pub batches: u64,
    /// Submissions that coalesced more than one request.
    pub coalesced_batches: u64,
    /// Requests that rode in coalesced submissions.
    pub coalesced_requests: u64,
    /// Virtual cycle at which the last request completed.
    pub makespan_cycles: u64,
    /// Cycles the engine spent busy.
    pub engine_busy_cycles: u64,
    /// Transient-fault retries performed (faulted storms).
    pub retries: u64,
    /// Requests that degraded to the software path (faulted storms).
    pub fallbacks: u64,
    /// Worker deaths absorbed (faulted storms).
    pub worker_deaths: u64,
    /// The full deterministic event log.
    pub trace: Vec<TraceEvent>,
    /// Typed SLO transitions (burn alerts/clears, budget exhaustion) in
    /// emission order on the virtual clock.
    pub slo_events: Vec<SloEvent>,
    /// End-of-storm SLO health, in tenant order.
    pub slo_statuses: Vec<SloStatus>,
    /// The flight recorder's black-box JSON dump. Always produced for
    /// faulted storms; produced on SLO breach otherwise; `None` when the
    /// storm was clean and no SLO fired.
    pub flight_dump: Option<String>,
}

impl StormReport {
    /// Report for one tenant by name.
    pub fn tenant(&self, name: &str) -> Option<&TenantReport> {
        self.tenants.iter().find(|t| t.name == name)
    }

    /// Converts cycles to microseconds at the given nest clock.
    pub fn cycles_to_us(cycles: u64, freq_ghz: f64) -> f64 {
        cycles as f64 / (freq_ghz * 1000.0)
    }
}

/// One admitted request, as the storm queues it in the core.
struct VJob {
    seq: u64,
    bytes: usize,
    seed: u64,
    admitted_at: u64,
}

/// One dispatched request's completion, scheduled at the cycle it is
/// done.
struct Completion {
    job: VJob,
    tenant: usize,
    dispatched_at: u64,
    /// Engine service cycles, recovery included.
    service: u64,
}

/// Fault-recovery work a storm absorbed.
#[derive(Default, Clone, Copy)]
struct Recovered {
    retries: u64,
    fallbacks: u64,
    worker_deaths: u64,
}

/// Runs a fault-free storm: `loads` through credit admission + DWRR +
/// modeled engine on the virtual clock. Deterministic from `seed`.
pub fn run_storm(seed: u64, loads: &[TenantLoad], cfg: &StormConfig) -> StormReport {
    drive(&LoadGen::arrivals(seed, loads), loads, cfg, None)
}

/// Runs a storm with the fault injector threaded through the engine
/// path (the chaos battery). Deterministic from `seed` + the injector's
/// plan seed.
pub fn run_storm_faulted(
    seed: u64,
    loads: &[TenantLoad],
    cfg: &StormConfig,
    inj: &FaultInjector,
) -> StormReport {
    drive(&LoadGen::arrivals(seed, loads), loads, cfg, Some(inj))
}

/// The virtual-clock driver: steps the service core through `arrivals`
/// (sorted by time) with one modeled engine.
fn drive(
    arrivals: &[Arrival],
    loads: &[TenantLoad],
    cfg: &StormConfig,
    inj: Option<&FaultInjector>,
) -> StormReport {
    let config = AccelConfig::power9();
    let freq = config.freq_ghz;
    let mut engine = Accelerator::new(config);

    let mut core: ServiceCore<VJob> = ServiceCore::new(&cfg.service);
    for l in loads {
        core.open_window(&l.spec);
    }
    let mut offered_bytes = vec![0u64; loads.len()];
    let mut completed_bytes = vec![0u64; loads.len()];

    // SLO evaluation on the virtual clock: derived per-class specs
    // unless the config overrides them; tenants map to specs by name.
    let slo_specs: Vec<SloSpec> = match &cfg.slos {
        Some(s) => s.clone(),
        None => loads.iter().map(default_slo_for).collect(),
    };
    let mut slo = SloMonitor::new();
    for spec in &slo_specs {
        slo.add(spec.clone());
    }
    let tenant_slo: Vec<Option<usize>> = loads
        .iter()
        .map(|l| slo_specs.iter().position(|s| s.name == l.spec.name))
        .collect();
    // The always-on black box: every completed request's span set and
    // every fault-recovery counter delta lands in the bounded ring, so
    // a post-hoc dump explains the recent past without a full trace.
    let flight = FlightRecorder::new();
    let note_retries = flight.counter_id("storm_retries");
    let note_fallbacks = flight.counter_id("storm_fallbacks");
    let note_deaths = flight.counter_id("storm_worker_deaths");

    let mut trace: Vec<TraceEvent> = Vec::with_capacity(arrivals.len() * 3);
    let mut event = |at: u64, tenant: usize, seq: u64, bytes: u64, kind: TraceKind| {
        trace.push(TraceEvent {
            at,
            tenant: tenant as u32,
            seq,
            bytes,
            kind,
        });
    };
    // Completion events, keyed by virtual cycle (the queue's time unit is
    // opaque to it; one tick = one cycle here).
    let mut completions: EventQueue<Completion> = EventQueue::new();
    let mut t = 0u64;
    let mut ai = 0usize;
    let mut engine_free_at = 0u64;
    let mut engine_busy = 0u64;
    let mut makespan = 0u64;
    let mut recovered = Recovered::default();
    loop {
        // Dispatch while the engine is idle and work is queued.
        while engine_free_at <= t {
            let Some(batch) = core.next_batch() else {
                break;
            };
            // One paste for the whole batch; per-request engine service
            // in FIFO order; one completion notification per request.
            let start = t.max(engine_free_at);
            let mut cursor = start + SUBMIT_CYCLES;
            for job in batch.items {
                event(
                    start,
                    batch.tenant,
                    job.seq,
                    job.bytes as u64,
                    TraceKind::Dispatch,
                );
                let payload = loads[batch.tenant]
                    .payload
                    .kind
                    .generate(job.seed, job.bytes);
                let before = recovered;
                let service = match inj {
                    None => engine.compress(&payload).1.cycles,
                    Some(inj) => faulted_service_cycles(
                        inj,
                        &mut engine,
                        &payload,
                        cfg.fallback_slowdown,
                        freq,
                        &mut recovered,
                    ),
                };
                // Fault-recovery deltas this dispatch caused, as
                // black-box counter notes (zero deltas are skipped).
                for (id, delta) in [
                    (note_retries, recovered.retries - before.retries),
                    (note_fallbacks, recovered.fallbacks - before.fallbacks),
                    (note_deaths, recovered.worker_deaths - before.worker_deaths),
                ] {
                    flight.note(start, id, delta);
                }
                cursor += service;
                completed_bytes[batch.tenant] += job.bytes as u64;
                completions.schedule(
                    SimTime::from_ps(cursor + COMPLETE_CYCLES),
                    Completion {
                        job,
                        tenant: batch.tenant,
                        dispatched_at: start,
                        service,
                    },
                );
            }
            engine_free_at = cursor + COMPLETE_CYCLES;
            engine_busy += engine_free_at - start;
        }
        // Advance to the next event.
        let next_arrival = arrivals.get(ai).map(|a| a.at);
        let next_completion = completions.peek_time().map(SimTime::as_ps);
        let next_dispatch = (core.queued() > 0).then_some(engine_free_at);
        let next = [next_arrival, next_completion, next_dispatch]
            .into_iter()
            .flatten()
            .min();
        let Some(next) = next else { break };
        t = t.max(next);
        // Completions first (credits free before same-cycle arrivals).
        while completions.peek_time().is_some_and(|at| at.as_ps() <= t) {
            let Some((at, done)) = completions.pop() else {
                break;
            };
            let (at, job) = (at.as_ps(), done.job);
            let latency = at.saturating_sub(job.admitted_at);
            core.complete(done.tenant, true);
            core.tenant_stats(done.tenant).latency.record(latency);
            if let Some(idx) = tenant_slo[done.tenant] {
                slo.observe(idx, at, latency, true);
            }
            // The request's whole span set enters the black box at
            // completion, request-local (admission = cycle 0), so the
            // ring's tail always holds complete recent traces — the same
            // stage chain the threaded service traces live.
            for span in request_spans(
                job.seq,
                done.tenant as u32,
                job.bytes as u64,
                (done.dispatched_at.saturating_sub(job.admitted_at), 0),
                (SUBMIT_CYCLES, 0),
                Some(done.service),
            ) {
                flight.span(&span);
            }
            makespan = makespan.max(at);
            event(at, done.tenant, job.seq, 0, TraceKind::Complete);
        }
        // Then arrivals ≤ t.
        while let Some(a) = arrivals.get(ai).filter(|a| a.at <= t) {
            let seq = ai as u64;
            ai += 1;
            let bytes = a.bytes as u64;
            offered_bytes[a.tenant] += bytes;
            event(a.at, a.tenant, seq, bytes, TraceKind::Arrive);
            let admitted = core.admit(a.tenant, bytes, |_| VJob {
                seq,
                bytes: a.bytes,
                seed: a.seed,
                admitted_at: a.at,
            });
            let kind = match admitted {
                Ok(_) => TraceKind::Admit,
                Err(rejected) => {
                    // A rejection burns error budget: the tenant offered
                    // a request and the service failed it.
                    if let Some(idx) = tenant_slo[a.tenant] {
                        slo.observe(idx, a.at, 0, false);
                    }
                    match rejected {
                        Rejected::NoCredit => TraceKind::RejectCredit,
                        // The storm never closes its core.
                        Rejected::QueueFull | Rejected::Closed => TraceKind::RejectDepth,
                    }
                }
            };
            event(a.at, a.tenant, seq, bytes, kind);
        }
    }

    let tenants: Vec<TenantReport> = loads
        .iter()
        .enumerate()
        .map(|(i, l)| {
            let stats = core.tenant_stats(i);
            TenantReport {
                name: l.spec.name.clone(),
                class: l.spec.class,
                generated: stats.submitted(),
                admitted: stats.admitted(),
                completed: stats.completed(),
                rejected_no_credit: stats.rejected_no_credit(),
                rejected_queue_full: stats.rejected_queue_full(),
                credit_stalls: stats.rejected_no_credit(),
                coalesced_requests: stats.coalesced_requests(),
                latency: stats.latency().snapshot(),
                depth: stats.depth().snapshot(),
                offered_bytes: offered_bytes[i],
                completed_bytes: completed_bytes[i],
            }
        })
        .collect();
    let goodputs: Vec<f64> = tenants.iter().map(TenantReport::goodput).collect();
    // Close out the black box: SLO transitions join the dump, and the
    // dump itself fires for every faulted storm (post-incident record)
    // or on any breach in a clean one.
    let slo_events = slo.drain_events();
    for ev in &slo_events {
        flight.slo_event(ev);
    }
    let breached = slo_events.iter().any(|e| {
        matches!(
            e.kind,
            SloEventKind::BurnAlert | SloEventKind::BudgetExhausted
        )
    });
    let reason = match inj {
        Some(_) => Some("fault-storm"),
        None => breached.then_some("slo-breach"),
    };
    let flight_dump = reason.map(|reason| flight.dump(reason, makespan));
    StormReport {
        jain_fairness: jain_index(&goodputs),
        credit_violations: core.violations() as u64,
        batches: core.stats().batches(),
        coalesced_batches: core.stats().coalesced_batches(),
        coalesced_requests: tenants.iter().map(|t| t.coalesced_requests).sum(),
        tenants,
        makespan_cycles: makespan,
        engine_busy_cycles: engine_busy,
        retries: recovered.retries,
        fallbacks: recovered.fallbacks,
        worker_deaths: recovered.worker_deaths,
        trace,
        slo_events,
        slo_statuses: slo.statuses(),
        flight_dump,
    }
}

/// One request's engine service time under fault injection: the sum of
/// what each [`Recovery`] step — the steps `exec::Job::recover` executes —
/// costs. Giving up on the accelerator degrades to the software path at
/// `fallback_slowdown`× the engine cost: degrade-to-serial, never drop.
fn faulted_service_cycles(
    inj: &FaultInjector,
    engine: &mut Accelerator,
    payload: &[u8],
    fallback_slowdown: u64,
    freq_ghz: f64,
    recovered: &mut Recovered,
) -> u64 {
    let req = inj.begin_request();
    let base = engine.compress(payload).1.cycles.max(1);
    let mut rec = Recovery::new(*inj.policy(), freq_ghz);
    let mut extra = 0u64;
    while !rec.exhausted() {
        let fault = inj.submit_fault(
            Site::Compress,
            req,
            rec.attempt,
            payload.len() as u64,
            rec.resident_pages,
        );
        let step = match rec.submit(fault) {
            Step::GiveUp => break,
            Step::Run => {
                // A worker death during service is absorbed by
                // re-dispatching serially (one extra paste).
                if inj.worker_fault(req, 0) {
                    recovered.worker_deaths += 1;
                    extra += 2 * SUBMIT_CYCLES;
                }
                match inj.output_fault(req, rec.attempt, base) {
                    Some(k) => rec.corrupted(k),
                    None => return extra + base,
                }
            }
            again => again,
        };
        if let Step::Again { cycles, retry, .. } = step {
            recovered.retries += u64::from(retry);
            extra += cycles;
        }
    }
    recovered.fallbacks += 1;
    extra + base * fallback_slowdown.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, FaultRates, RecoveryPolicy};

    fn small_loads() -> Vec<TenantLoad> {
        vec![
            TenantLoad::new(
                TenantSpec::new("rpc", QosClass::Latency, 8),
                40_000.0,
                PayloadDist::new(CorpusKind::Json, 256, 2048, 1.2),
                60,
            ),
            TenantLoad::new(
                TenantSpec::new("bulk", QosClass::Throughput, 4),
                150_000.0,
                PayloadDist::new(CorpusKind::Binary, 8 << 10, 32 << 10, 1.3),
                30,
            ),
            TenantLoad::new(
                TenantSpec::new("scan", QosClass::Background, 2),
                300_000.0,
                PayloadDist::new(CorpusKind::Text, 16 << 10, 64 << 10, 1.3),
                15,
            ),
        ]
    }

    #[test]
    fn arrivals_are_deterministic_and_sorted() {
        let loads = small_loads();
        let a = LoadGen::arrivals(7, &loads);
        let b = LoadGen::arrivals(7, &loads);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0].at <= w[1].at));
        assert_eq!(a.len(), 105);
    }

    #[test]
    fn tenant_streams_are_independent() {
        // Removing one tenant must not change another tenant's stream.
        let loads = small_loads();
        let all = LoadGen::arrivals(7, &loads);
        let solo = LoadGen::arrivals(7, &loads[..1]);
        let rpc_all: Vec<(u64, usize)> = all
            .iter()
            .filter(|a| a.tenant == 0)
            .map(|a| (a.at, a.bytes))
            .collect();
        let rpc_solo: Vec<(u64, usize)> = solo.iter().map(|a| (a.at, a.bytes)).collect();
        assert_eq!(rpc_all, rpc_solo);
    }

    #[test]
    fn storm_conserves_credits_and_completes_everything_admitted() {
        let loads = small_loads();
        let r = run_storm(11, &loads, &StormConfig::default());
        assert_eq!(r.credit_violations, 0);
        for t in &r.tenants {
            assert_eq!(t.admitted, t.completed, "tenant {}", t.name);
            assert_eq!(
                t.generated,
                t.admitted + t.rejected_no_credit + t.rejected_queue_full,
                "tenant {}",
                t.name
            );
        }
        assert!(r.jain_fairness > 0.0 && r.jain_fairness <= 1.0 + 1e-9);
        assert!(r.makespan_cycles > 0);
    }

    #[test]
    fn storm_trace_is_deterministic() {
        let loads = small_loads();
        let a = run_storm(23, &loads, &StormConfig::default());
        let b = run_storm(23, &loads, &StormConfig::default());
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.makespan_cycles, b.makespan_cycles);
    }

    #[test]
    fn faulted_storm_still_serves_all_tenants() {
        let loads = small_loads();
        let inj = FaultInjector::new(
            FaultPlan::seeded(5, FaultRates::sweep(0.05)),
            RecoveryPolicy::default(),
        );
        let r = run_storm_faulted(31, &loads, &StormConfig::default(), &inj);
        assert_eq!(r.credit_violations, 0);
        for t in &r.tenants {
            assert!(t.completed > 0, "tenant {} starved under faults", t.name);
            assert_eq!(t.admitted, t.completed);
        }
        assert!(
            r.retries + r.fallbacks + r.worker_deaths > 0,
            "no faults fired"
        );
    }

    /// Extracts, for each trace id in a flight dump, the set of stage
    /// names recorded against it.
    fn dump_traces(dump: &str) -> std::collections::BTreeMap<u64, Vec<String>> {
        let mut m: std::collections::BTreeMap<u64, Vec<String>> = std::collections::BTreeMap::new();
        for obj in dump.split("{\"trace\":").skip(1) {
            let id: u64 = obj
                .split(',')
                .next()
                .and_then(|s| s.parse().ok())
                .expect("trace id");
            let stage = obj
                .split("\"stage\":\"")
                .nth(1)
                .and_then(|s| s.split('"').next())
                .expect("stage name");
            m.entry(id).or_default().push(stage.to_string());
        }
        m
    }

    #[test]
    fn faulted_storm_always_dumps_a_flight_black_box() {
        let loads = small_loads();
        let inj = FaultInjector::new(
            FaultPlan::seeded(5, FaultRates::sweep(0.05)),
            RecoveryPolicy::default(),
        );
        let r = run_storm_faulted(31, &loads, &StormConfig::default(), &inj);
        let dump = r.flight_dump.as_deref().expect("faulted storm dumps");
        assert!(dump.contains("\"version\":1"));
        assert!(dump.contains("\"reason\":\"fault-storm\""));
        assert!(dump.contains("\"counters\":["));
        // The ring is trimmed to whole traces at completion push time, so
        // at least one request must appear with its full five-stage
        // admission-to-completion chain.
        let complete = dump_traces(dump)
            .values()
            .filter(|stages| {
                ["admit", "queue_wait", "dispatch", "engine", "complete"]
                    .iter()
                    .all(|want| stages.iter().any(|s| s == want))
            })
            .count();
        assert!(complete >= 1, "no complete trace in the black box");
    }

    #[test]
    fn storm_slo_monitor_is_deterministic() {
        let loads = small_loads();
        let a = run_storm(23, &loads, &StormConfig::default());
        let b = run_storm(23, &loads, &StormConfig::default());
        assert_eq!(a.slo_events, b.slo_events);
        assert_eq!(a.slo_statuses.len(), loads.len());
        assert_eq!(a.flight_dump, b.flight_dump);
        // Every status tracks a real tenant with consistent accounting.
        for st in &a.slo_statuses {
            assert!(loads.iter().any(|l| l.spec.name == st.name));
            assert!(st.bad <= st.observed);
        }
    }

    #[test]
    fn impossible_slo_breaches_and_dumps() {
        // A 1-cycle latency objective cannot be met: the burn-rate
        // monitor must raise an alert and the storm must dump the black
        // box with the slo-breach reason.
        let loads = small_loads();
        let slos = loads
            .iter()
            .map(|l| SloSpec::new(&l.spec.name, l.spec.class.name(), 1, 0.999))
            .collect();
        let cfg = StormConfig {
            slos: Some(slos),
            ..StormConfig::default()
        };
        let r = run_storm(23, &loads, &cfg);
        assert!(
            r.slo_events.iter().any(|e| matches!(
                e.kind,
                SloEventKind::BurnAlert | SloEventKind::BudgetExhausted
            )),
            "impossible objective raised no SLO event"
        );
        let dump = r.flight_dump.as_deref().expect("breach dumps");
        assert!(dump.contains("\"reason\":\"slo-breach\""));
        assert!(dump.contains("\"slo_events\":[{"));
    }

    // -----------------------------------------------------------------
    // Both drivers, one admission script
    // -----------------------------------------------------------------

    use crate::service::{NxService, ServiceError};
    use crate::{Format, Nx};

    /// What a driver observed of the core: the admission decision per
    /// scripted request (its per-tenant `admit_seq`, or the rejection) and
    /// the batches in dispatch order, as `(tenant, script indices)`.
    #[derive(Debug, PartialEq)]
    struct CoreLog {
        decisions: Vec<Result<u64, Rejected>>,
        batches: Vec<(usize, Vec<usize>)>,
    }

    fn script_loads() -> Vec<TenantLoad> {
        let kind = CorpusKind::Logs;
        let load = |name: &str, class, credits| {
            let dist = PayloadDist::new(kind, 64, 16 << 10, 1.2);
            TenantLoad::new(TenantSpec::new(name, class, credits), 1.0, dist, 0)
        };
        vec![
            load("rpc", QosClass::Latency, 6),
            load("bulk", QosClass::Throughput, 4),
            load("scan", QosClass::Background, 3),
        ]
    }

    /// A seeded admission script: `n` requests landing in the same cycle,
    /// so neither driver completes anything between two admissions.
    fn script(seed: u64, loads: &[TenantLoad], n: usize) -> Vec<Arrival> {
        let mut rng = StormRng::new(seed, "script");
        (0..n)
            .map(|_| {
                let tenant = (rng.next_u64() % loads.len() as u64) as usize;
                Arrival {
                    at: 1_000,
                    tenant,
                    bytes: loads[tenant].payload.sample(&mut rng),
                    seed: rng.next_u64(),
                }
            })
            .collect()
    }

    /// The script through the virtual driver, read back from its event log.
    fn virtual_log(arrivals: &[Arrival], loads: &[TenantLoad], service: &ServiceConfig) -> CoreLog {
        let cfg = StormConfig {
            service: service.clone(),
            ..StormConfig::default()
        };
        let report = drive(arrivals, loads, &cfg, None);
        assert_eq!(report.credit_violations, 0);
        let mut admitted = vec![0u64; loads.len()];
        let mut decisions = Vec::new();
        let mut batches: Vec<(u64, usize, Vec<usize>)> = Vec::new();
        for ev in &report.trace {
            let tenant = ev.tenant as usize;
            match ev.kind {
                TraceKind::Admit => {
                    decisions.push(Ok(admitted[tenant]));
                    admitted[tenant] += 1;
                }
                TraceKind::RejectCredit => decisions.push(Err(Rejected::NoCredit)),
                TraceKind::RejectDepth => decisions.push(Err(Rejected::QueueFull)),
                // One batch = the dispatches sharing a start cycle.
                TraceKind::Dispatch => match batches.last_mut() {
                    Some((at, _, items)) if *at == ev.at => items.push(ev.seq as usize),
                    _ => batches.push((ev.at, tenant, vec![ev.seq as usize])),
                },
                TraceKind::Arrive | TraceKind::Complete => {}
            }
        }
        CoreLog {
            decisions,
            batches: batches
                .into_iter()
                .map(|(_, t, items)| (t, items))
                .collect(),
        }
    }

    /// The script through `NxService` started paused: admissions go
    /// through `TenantHandle::submit`, then this thread plays the engine
    /// loop one batch at a time to read the dispatch order.
    fn threaded_log(
        arrivals: &[Arrival],
        loads: &[TenantLoad],
        service: &ServiceConfig,
    ) -> CoreLog {
        let nx = Nx::power9();
        let (svc, mut exec, _wake) = NxService::paused(&nx, service.clone());
        let windows: Vec<_> = loads
            .iter()
            .map(|l| svc.open_window(l.spec.clone()))
            .collect();
        let mut decisions = Vec::new();
        let mut tickets = Vec::new();
        // Script index of each tenant's n-th admitted request.
        let mut admitted: Vec<Vec<usize>> = vec![Vec::new(); loads.len()];
        for (i, a) in arrivals.iter().enumerate() {
            let payload = loads[a.tenant].payload.kind.generate(a.seed, a.bytes);
            match windows[a.tenant].submit(payload, Format::Gzip) {
                Ok(ticket) => {
                    decisions.push(Ok(admitted[a.tenant].len() as u64));
                    admitted[a.tenant].push(i);
                    tickets.push((i, a.tenant, ticket));
                }
                Err(ServiceError::NoCredit) => decisions.push(Err(Rejected::NoCredit)),
                Err(ServiceError::QueueFull) => decisions.push(Err(Rejected::QueueFull)),
                Err(e) => panic!("unexpected rejection {e}"),
            }
        }
        let mut batches = Vec::new();
        let mut batch_len = vec![0usize; arrivals.len()];
        loop {
            let batch = svc.shared.core.lock().next_batch();
            let Some(batch) = batch else { break };
            let items: Vec<usize> = batch
                .items
                .iter()
                .map(|job| admitted[batch.tenant][job.admitted.admit_seq as usize])
                .collect();
            for &i in &items {
                batch_len[i] = items.len();
            }
            batches.push((batch.tenant, items));
            NxService::serve(&mut exec, &svc.shared, batch);
        }
        for (i, tenant, ticket) in tickets {
            let served = ticket.wait().expect("admitted requests complete");
            assert_eq!(Ok(served.admit_seq), decisions[i], "request {i}");
            assert_eq!(served.complete_seq, served.admit_seq);
            assert_eq!(served.batched, batch_len[i]);
            assert_eq!(admitted[tenant][served.admit_seq as usize], i);
        }
        assert!(svc.credits_conserved());
        CoreLog { decisions, batches }
    }

    #[test]
    fn both_drivers_make_the_same_decisions_on_one_script() {
        let loads = script_loads();
        let configs = [
            ServiceConfig::default(),
            ServiceConfig {
                engine_depth: 5,
                ..ServiceConfig::default()
            },
            ServiceConfig {
                coalesce_limit: 0,
                ..ServiceConfig::default()
            },
            ServiceConfig {
                quantum_bytes: 2 << 10,
                coalesce_batch: 3,
                ..ServiceConfig::default()
            },
        ];
        // The matrix must reach both rejections and a coalesced batch.
        let (mut no_credit, mut queue_full, mut coalesced) = (false, false, false);
        for (c, service) in configs.iter().enumerate() {
            for seed in 0..6 {
                let arrivals = script(seed, &loads, 24);
                let virt = virtual_log(&arrivals, &loads, service);
                let real = threaded_log(&arrivals, &loads, service);
                assert_eq!(virt, real, "config {c} seed {seed}");
                assert_eq!(virt.decisions.len(), arrivals.len());
                let dispatched: usize = virt.batches.iter().map(|(_, b)| b.len()).sum();
                let accepted = virt.decisions.iter().filter(|d| d.is_ok()).count();
                assert_eq!(dispatched, accepted);
                no_credit |= virt.decisions.contains(&Err(Rejected::NoCredit));
                queue_full |= virt.decisions.contains(&Err(Rejected::QueueFull));
                coalesced |= virt.batches.iter().any(|(_, b)| b.len() > 1);
            }
        }
        assert!(no_credit && queue_full && coalesced);
    }

    /// Regression: `engine_depth: 0` used to admit one request at a time
    /// in the threaded service (clamped to 1) and nothing at all in the
    /// storm. The core applies the service's rule to both.
    #[test]
    fn depth_zero_means_a_one_deep_queue_in_both_drivers() {
        let loads = script_loads();
        let service = ServiceConfig {
            engine_depth: 0,
            ..ServiceConfig::default()
        };
        let arrivals = script(3, &loads, 6);
        let virt = virtual_log(&arrivals, &loads, &service);
        assert_eq!(virt, threaded_log(&arrivals, &loads, &service));
        assert_eq!(virt.decisions[0], Ok(0));
        assert!(virt.decisions[1..]
            .iter()
            .all(|d| *d == Err(Rejected::QueueFull)));
        assert_eq!(virt.batches, vec![(arrivals[0].tenant, vec![0])]);
    }
}
