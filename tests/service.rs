//! The multi-tenant service test battery (issue 7).
//!
//! Four satellites in one file:
//! 1. **Integration**: hog isolation, typed credit backpressure without
//!    loss or reordering, QoS priority under storm (Latency p99 <
//!    Background p50), coalescing byte-identity.
//! 2. **Property tests**: loadgen determinism from seed, credit
//!    conservation for arbitrary tenant mixes, bounded-wait
//!    (no starvation) for the DWRR scheduler.
//! 3. **Chaos**: the PR 2 fault injector threaded through the service
//!    path — all tenants keep being served, no credit leaks across
//!    recovery, fairness stays above a floor.
//! 4. **Backpressure-counter regression**: credit- vs depth- vs
//!    fault-rejects are attributed separately in `NxStats`.
//!
//! Latency/fairness assertions run on the virtual-clock storm driver
//! (deterministic, no wall-clock flakiness); the threaded `NxService`
//! is exercised for protocol properties (typed errors, FIFO order,
//! byte-identity, drain-on-close).

use nx_core::fault::{FaultPlan, FaultRates, RecoveryPolicy};
use nx_core::service::loadgen::{self, LoadGen, PayloadDist, StormConfig, TenantLoad};
use nx_core::service::{QosClass, ServiceConfig, ServiceError, TenantSpec};
use nx_core::{Format, Nx};
use nx_corpus::CorpusKind;
use proptest::prelude::*;

fn storm_loads() -> Vec<TenantLoad> {
    vec![
        TenantLoad::new(
            TenantSpec::new("rpc", QosClass::Latency, 16),
            30_000.0,
            PayloadDist::new(CorpusKind::Json, 256, 4096, 1.2),
            120,
        ),
        TenantLoad::new(
            TenantSpec::new("bulk", QosClass::Throughput, 8),
            120_000.0,
            PayloadDist::new(CorpusKind::Binary, 16 << 10, 64 << 10, 1.3),
            50,
        ),
        TenantLoad::new(
            TenantSpec::new("scan", QosClass::Background, 4),
            200_000.0,
            PayloadDist::new(CorpusKind::Text, 32 << 10, 96 << 10, 1.3),
            30,
        ),
        TenantLoad::new(
            TenantSpec::new("logs", QosClass::Latency, 16),
            45_000.0,
            PayloadDist::new(CorpusKind::Logs, 512, 4096, 1.2),
            80,
        ),
    ]
}

/// The hog: an open-loop Throughput tenant offering far more than its
/// fair share.
fn hog_load() -> TenantLoad {
    TenantLoad::new(
        TenantSpec::new("hog", QosClass::Throughput, 12),
        12_000.0,
        PayloadDist::new(CorpusKind::Logs, 24 << 10, 48 << 10, 1.3),
        260,
    )
}

// ---------------------------------------------------------------------
// 1. Integration battery (virtual storm + threaded service)
// ---------------------------------------------------------------------

#[test]
fn hog_cannot_blow_up_victim_tail_latency() {
    // The victim's arrival stream is a pure function of (seed, name), so
    // the only thing that changes between runs is the hog's presence.
    let victim_only = storm_loads();
    let mut with_hog = storm_loads();
    with_hog.push(hog_load());
    let cfg = StormConfig::default();
    let alone = loadgen::run_storm(42, &victim_only, &cfg);
    let contended = loadgen::run_storm(42, &with_hog, &cfg);

    let p99_alone = alone.tenant("rpc").map(|t| t.p99_cycles()).unwrap_or(0);
    let p99_contended = contended.tenant("rpc").map(|t| t.p99_cycles()).unwrap_or(0);
    assert!(p99_alone > 0 && p99_contended > 0);
    // DWRR isolation: a Throughput-class hog may grow the Latency-class
    // victim's p99, but only by a bounded factor.
    let factor = p99_contended as f64 / p99_alone as f64;
    assert!(
        factor <= 8.0,
        "hog pushed victim p99 {p99_alone} -> {p99_contended} ({factor:.1}x)"
    );
    // And the victim keeps completing nearly everything it offers.
    let rpc = contended.tenant("rpc").map(|t| t.goodput()).unwrap_or(0.0);
    assert!(rpc >= 0.9, "victim goodput collapsed to {rpc}");
}

#[test]
fn qos_priority_holds_under_storm() {
    // A saturating mix in which every tenant stays active for the whole
    // storm window (~6M cycles), so Background requests actually queue
    // behind higher classes instead of catching an idle engine.
    let loads = vec![
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
    ];
    let r = loadgen::run_storm(7, &loads, &StormConfig::default());
    let latency_p99 = r
        .tenants
        .iter()
        .filter(|t| t.class == QosClass::Latency)
        .map(|t| t.p99_cycles())
        .max()
        .unwrap_or(0);
    let background_p50 = r
        .tenants
        .iter()
        .filter(|t| t.class == QosClass::Background)
        .map(|t| t.p50_cycles())
        .min()
        .unwrap_or(0);
    assert!(latency_p99 > 0 && background_p50 > 0);
    assert!(
        latency_p99 < background_p50,
        "Latency-class p99 ({latency_p99}) not below Background-class p50 ({background_p50})"
    );
}

#[test]
fn credit_exhaustion_is_typed_lossless_and_ordered() {
    // Threaded service, tiny credit budget: rejections must be typed
    // NoCredit, accepted work must complete in admission order.
    let nx = Nx::power9();
    let service = nx.service(ServiceConfig {
        engine_depth: 64,
        ..ServiceConfig::default()
    });
    let w = service.open_window(TenantSpec::new("t0", QosClass::Latency, 2));
    let mut tickets = Vec::new();
    let mut rejected = 0u64;
    for i in 0..40u8 {
        match w.submit(vec![i; 20_000], Format::Gzip) {
            Ok(t) => tickets.push(t),
            Err(ServiceError::NoCredit) => rejected += 1,
            Err(e) => panic!("unexpected rejection {e}"),
        }
    }
    // With 2 credits and a fast open loop some submissions must bounce.
    assert!(rejected > 0, "credit budget of 2 never exhausted");
    assert_eq!(w.stats().rejected_no_credit(), rejected);
    // Everything admitted completes, in admission order, no drops.
    let mut prev = None;
    for t in tickets {
        let served = t.wait().expect("admitted request must complete");
        assert_eq!(served.admit_seq, served.complete_seq);
        if let Some(p) = prev {
            assert!(served.admit_seq > p, "completions reordered");
        }
        prev = Some(served.admit_seq);
    }
    assert!(service.credits_conserved());
    assert_eq!(nx.stats().credit_rejects(), rejected);
    service.close();
}

#[test]
fn coalesced_batches_roundtrip_byte_identical() {
    // Small payloads coalesce into shared engine submissions; the result
    // for each must be byte-identical to an individual submission on an
    // identical engine.
    let nx = Nx::power9();
    let service = nx.service(ServiceConfig {
        coalesce_limit: 4096,
        coalesce_batch: 8,
        ..ServiceConfig::default()
    });
    let w = service.open_window(TenantSpec::new("rpc", QosClass::Latency, 32));
    let payloads: Vec<Vec<u8>> = (0..24u64)
        .map(|i| CorpusKind::Json.generate(i, 1500 + (i as usize * 97) % 2000))
        .collect();
    let tickets: Vec<_> = payloads
        .iter()
        .map(|p| w.submit(p.clone(), Format::Gzip).expect("admission"))
        .collect();
    let served: Vec<_> = tickets
        .into_iter()
        .map(|t| t.wait().expect("completion"))
        .collect();
    // At least some requests must actually have been coalesced for the
    // test to mean anything.
    assert!(
        served.iter().any(|s| s.batched > 1),
        "no coalescing happened"
    );
    assert!(service.stats().coalesced_batches() > 0);
    // Reference: a fresh accelerator handle, one request at a time.
    let reference = Nx::power9();
    for (p, s) in payloads.iter().zip(&served) {
        let solo = reference.compress(p, Format::Gzip).expect("reference");
        assert_eq!(
            solo.bytes, s.compressed.bytes,
            "coalesced output differs from individual submission"
        );
        let back = reference
            .decompress(&s.compressed.bytes, Format::Gzip)
            .expect("decode");
        assert_eq!(&back.bytes, p);
    }
    service.close();
}

#[test]
fn service_drains_on_close_and_depth_rejects_are_typed() {
    let nx = Nx::power9();
    let service = nx.service(ServiceConfig {
        engine_depth: 4,
        ..ServiceConfig::default()
    });
    let w = service.open_window(TenantSpec::new("t", QosClass::Throughput, 64));
    let mut tickets = Vec::new();
    let mut depth_rejects = 0u64;
    for i in 0..64u8 {
        match w.submit(vec![i; 60_000], Format::Gzip) {
            Ok(t) => tickets.push(t),
            Err(ServiceError::QueueFull) => depth_rejects += 1,
            Err(ServiceError::NoCredit) => panic!("credits should outlast depth 4"),
            Err(e) => panic!("unexpected {e}"),
        }
    }
    assert!(depth_rejects > 0, "depth bound of 4 never hit");
    assert_eq!(nx.stats().depth_rejects(), depth_rejects);
    for t in tickets {
        t.wait().expect("admitted jobs complete across close");
    }
    assert!(service.credits_conserved());
}

/// The engine thread blocks on its wake-up channel when idle (no poll):
/// a token follows every push and the close, so none can be missed.
/// Four submitter threads alternate bursts with full drains — the engine
/// goes idle and must be woken again hundreds of times — then the
/// service closes with work in flight. A lost wake-up would hang a
/// `wait()`, so the scenario runs under a watchdog.
#[test]
fn blocking_engine_never_misses_a_wake_up() {
    const CREDITS: u32 = 8;
    let (done, finished) = std::sync::mpsc::channel();
    let scenario = std::thread::spawn(move || {
        let nx = Nx::power9();
        let service = nx.service(ServiceConfig::default());
        let classes = [
            QosClass::Latency,
            QosClass::Throughput,
            QosClass::Background,
        ];
        let windows: Vec<_> = (0..4)
            .map(|i| {
                service.open_window(TenantSpec::new(&format!("t{i}"), classes[i % 3], CREDITS))
            })
            .collect();
        let payload = |i: usize| CorpusKind::Logs.generate(i as u64, 512 + (i * 977) % 6000);
        std::thread::scope(|s| {
            for (t, w) in windows.iter().enumerate() {
                s.spawn(move || {
                    for round in 0..40 {
                        let burst: Vec<_> = (0..1 + (round + t) % 5)
                            .map(|i| w.submit(payload(round * 7 + i), Format::Gzip))
                            .collect();
                        for ticket in burst {
                            let ticket = ticket.expect("a drained window has credit");
                            ticket.wait().expect("admitted request resolves Ok");
                        }
                    }
                });
            }
        });
        let in_flight: Vec<_> = windows
            .iter()
            .flat_map(|w| (0..6).map(move |i| w.submit(payload(i), Format::Gzip)))
            .collect();
        service.close();
        for ticket in in_flight {
            let ticket = ticket.expect("six requests fit eight credits");
            ticket.wait().expect("work in flight at close resolves Ok");
        }
        for w in &windows {
            assert_eq!(w.credits_available(), CREDITS, "credits conserved");
            assert_eq!(w.stats().admitted(), w.stats().completed());
            assert_eq!(w.stats().failed(), 0);
            let late = w.submit(payload(0), Format::Gzip);
            assert!(matches!(late, Err(ServiceError::Closed)));
        }
        let _ = done.send(());
    });
    finished
        .recv_timeout(std::time::Duration::from_secs(120))
        .expect("service hung or failed: a wake-up was lost");
    scenario.join().expect("scenario thread");
}

// ---------------------------------------------------------------------
// 2. Property tests
// ---------------------------------------------------------------------

fn arb_class() -> impl Strategy<Value = QosClass> {
    prop_oneof![
        Just(QosClass::Latency),
        Just(QosClass::Throughput),
        Just(QosClass::Background),
    ]
}

fn arb_loads() -> impl Strategy<Value = Vec<TenantLoad>> {
    prop::collection::vec(
        (arb_class(), 1u32..6, 1usize..25, 200usize..4000, 1u64..40).prop_map(
            |(class, credits, requests, max_bytes, gap_k)| {
                TenantLoad::new(
                    TenantSpec::new(
                        &format!("t{credits}-{requests}-{max_bytes}"),
                        class,
                        credits,
                    ),
                    gap_k as f64 * 5_000.0,
                    PayloadDist::new(CorpusKind::Logs, 64, max_bytes, 1.2),
                    requests,
                )
            },
        ),
        1..5,
    )
    .prop_map(|mut loads| {
        // Tenant names must be unique for stream independence to be
        // meaningful; suffix with the index.
        for (i, l) in loads.iter_mut().enumerate() {
            l.spec.name = format!("{}-{i}", l.spec.name);
        }
        loads
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The generator is deterministic from its seed, and the whole storm
    /// (arrival + response trace) replays identically.
    #[test]
    fn storm_is_deterministic_from_seed(seed in 0u64..1000, loads in arb_loads()) {
        let cfg = StormConfig::default();
        let a = loadgen::run_storm(seed, &loads, &cfg);
        let b = loadgen::run_storm(seed, &loads, &cfg);
        prop_assert_eq!(LoadGen::arrivals(seed, &loads), LoadGen::arrivals(seed, &loads));
        prop_assert_eq!(&a.trace, &b.trace);
        prop_assert_eq!(a.makespan_cycles, b.makespan_cycles);
        prop_assert_eq!(a.jain_fairness.to_bits(), b.jain_fairness.to_bits());
    }

    /// Conservation for arbitrary tenant mixes and credit budgets: every
    /// arrival is admitted or rejected typed; everything admitted
    /// completes; credits return to budget at drain.
    #[test]
    fn storm_conserves_credits_for_arbitrary_mixes(seed in 0u64..1000, loads in arb_loads()) {
        let r = loadgen::run_storm(seed, &loads, &StormConfig::default());
        prop_assert_eq!(r.credit_violations, 0);
        for t in &r.tenants {
            prop_assert_eq!(
                t.generated,
                t.admitted + t.rejected_no_credit + t.rejected_queue_full
            );
            prop_assert_eq!(t.admitted, t.completed);
        }
    }

    /// Bounded wait: the DWRR scheduler never starves a non-empty queue.
    /// With B backlogged tenants, any tenant's head request is served
    /// within one full drain of every other tenant's round grants — we
    /// assert the much looser bound that each tenant is served at least
    /// once every `total_queued` batches while it has work queued.
    #[test]
    fn scheduler_never_starves_a_nonempty_queue(
        seed in 0u64..1000,
        shape in prop::collection::vec((1u64..17, 1usize..30, 100u64..50_000), 2..6),
    ) {
        use nx_core::service::sched::DwrrScheduler;
        let mut sched: DwrrScheduler<usize> = DwrrScheduler::new(8 << 10, 4096, 4);
        let mut rng = loadgen::StormRng::new(seed, "starve");
        let mut queued: Vec<usize> = Vec::new();
        for (weight, count, max_bytes) in &shape {
            let t = sched.add_tenant(*weight);
            queued.push(0);
            for _ in 0..*count {
                let bytes = 1 + rng.next_u64() % max_bytes;
                sched.push(t, t, bytes);
                queued[t] += 1;
            }
        }
        let mut waited: Vec<u64> = vec![0; queued.len()];
        let total: usize = queued.iter().sum();
        while let Some(batch) = sched.next_batch() {
            for (t, w) in waited.iter_mut().enumerate() {
                if queued[t] > 0 && t != batch.tenant {
                    *w += 1;
                    // Generous bound: tenant count × total backlog
                    // batches; a starved queue would blow far past it.
                    prop_assert!(
                        *w <= (queued.len() as u64 + 1) * total as u64,
                        "tenant {} starved ({} batches waited)", t, *w
                    );
                }
            }
            waited[batch.tenant] = 0;
            queued[batch.tenant] -= batch.items.len();
        }
        prop_assert!(queued.iter().all(|&q| q == 0));
    }
}

// ---------------------------------------------------------------------
// 3. Chaos battery: the fault injector through the service path
// ---------------------------------------------------------------------

#[test]
fn chaos_storm_serves_all_tenants_without_credit_leaks() {
    let mut loads = storm_loads();
    loads.push(hog_load());
    let inj = nx_core::FaultInjector::new(
        FaultPlan::seeded(99, FaultRates::sweep(0.08)),
        RecoveryPolicy::default(),
    );
    let clean = loadgen::run_storm(13, &loads, &StormConfig::default());
    let r = loadgen::run_storm_faulted(13, &loads, &StormConfig::default(), &inj);
    // The storm actually hit faults (worker deaths, CSB storms, stalls)…
    assert!(
        r.retries + r.fallbacks + r.worker_deaths > 10,
        "chaos storm too quiet: retries={} fallbacks={} deaths={}",
        r.retries,
        r.fallbacks,
        r.worker_deaths
    );
    // …yet every tenant keeps completing work (degrade-to-serial, never
    // drop), no credits leak across recovery, and fairness holds a floor.
    assert_eq!(r.credit_violations, 0);
    for t in &r.tenants {
        assert!(t.completed > 0, "tenant {} starved under chaos", t.name);
        assert_eq!(t.admitted, t.completed, "tenant {} lost work", t.name);
    }
    assert!(
        r.jain_fairness >= 0.75,
        "fairness collapsed under chaos: {}",
        r.jain_fairness
    );
    // Sanity: chaos costs time, it does not create it.
    assert!(r.makespan_cycles >= clean.makespan_cycles / 2);
}

#[test]
fn chaos_threaded_service_recovers_and_conserves() {
    // Threaded path: deterministic seeded faults with software fallback
    // on — every admitted request must still complete Ok.
    let nx = Nx::with_faults(
        nx_accel::AccelConfig::power9(),
        FaultPlan::seeded(3, FaultRates::sweep(0.1)),
        RecoveryPolicy::default(),
    );
    let service = nx.service(ServiceConfig::default());
    let w = service.open_window(TenantSpec::new("chaos", QosClass::Latency, 16));
    let b = service.open_window(TenantSpec::new("bulk", QosClass::Background, 8));
    let mut tickets = Vec::new();
    for i in 0..30u64 {
        let data = CorpusKind::Logs.generate(i, 8_000);
        if let Ok(t) = w.submit(data, Format::Gzip) {
            tickets.push(t);
        }
        if i % 3 == 0 {
            let data = CorpusKind::Text.generate(i, 30_000);
            if let Ok(t) = b.submit(data, Format::Gzip) {
                tickets.push(t);
            }
        }
        // Open loop with occasional drain so credits recycle.
        if i % 8 == 7 {
            for t in tickets.drain(..) {
                t.wait().expect("recovery must absorb injected faults");
            }
        }
    }
    for t in tickets {
        t.wait().expect("recovery must absorb injected faults");
    }
    let fs = nx.fault_stats().expect("faulted handle");
    let injected = fs.page_fault_count()
        + fs.csb_error_count()
        + fs.partial_count()
        + fs.queue_overflow_count()
        + fs.timeout_count()
        + fs.corruption_count()
        + fs.unavailable_count();
    assert!(injected > 0, "no faults injected");
    assert!(
        service.credits_conserved(),
        "credits leaked across recovery"
    );
    service.close();
}

// ---------------------------------------------------------------------
// 4. Backpressure-counter attribution regression
// ---------------------------------------------------------------------

#[test]
fn backpressure_is_attributed_by_cause() {
    // Credit-reject: tiny window.
    let nx = Nx::power9();
    let service = nx.service(ServiceConfig::default());
    let w = service.open_window(TenantSpec::new("tiny", QosClass::Latency, 1));
    let mut held = Vec::new();
    let mut credit_rejects = 0;
    for i in 0..8u8 {
        match w.submit(vec![i; 50_000], Format::Gzip) {
            Ok(t) => held.push(t),
            Err(ServiceError::NoCredit) => credit_rejects += 1,
            Err(e) => panic!("unexpected {e}"),
        }
    }
    for t in held {
        let _ = t.wait();
    }
    service.close();
    assert!(credit_rejects > 0);
    assert_eq!(nx.stats().credit_rejects(), credit_rejects);
    assert_eq!(nx.stats().depth_rejects(), 0, "credit miscounted as depth");

    // Depth-reject: bounded async queue (the PR 2 try_submit path).
    let nx2 = Nx::power9();
    let session = nx2.async_session_bounded(1);
    let mut handles = Vec::new();
    let mut depth_rejects = 0;
    for _ in 0..32 {
        match session.try_submit(vec![0x5Au8; 400_000], Format::Gzip) {
            Ok(h) => handles.push(h),
            Err(nx_core::Error::QueueOverflow) => depth_rejects += 1,
            Err(e) => panic!("unexpected {e}"),
        }
    }
    for h in handles {
        let _ = h.wait();
    }
    session.close();
    assert!(depth_rejects > 0);
    assert_eq!(nx2.stats().depth_rejects(), depth_rejects);
    assert_eq!(
        nx2.stats().credit_rejects(),
        0,
        "depth miscounted as credit"
    );

    // Fault-reject: injected queue-overflow storm on the sync path.
    let rates = FaultRates {
        queue_overflow: 1.0,
        ..FaultRates::none()
    };
    let nx3 = Nx::with_faults(
        nx_accel::AccelConfig::power9(),
        FaultPlan::seeded(1, rates),
        RecoveryPolicy::default(),
    );
    let _ = nx3.compress(&[0u8; 4096], Format::Gzip);
    assert!(
        nx3.stats().fault_rejects() > 0,
        "injected paste rejections not attributed"
    );
    assert_eq!(nx3.stats().credit_rejects(), 0);
    assert_eq!(nx3.stats().depth_rejects(), 0);
}
