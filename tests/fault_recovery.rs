//! End-to-end fault-injection and recovery tests, driven through the
//! public API only: the `Nx` facade, the parallel engine, the async
//! queue, and the `nx_sys` system simulator.
//!
//! The contract under test, from DESIGN.md's error taxonomy: injected
//! faults are (1) replayable — the same plan seed reproduces the same
//! fault sequence and the same recovery counters; (2) invisible in the
//! payload — a recovered request returns bytes identical to a clean
//! run, whether recovery used resubmission, retry, or the software
//! path; and (3) typed at the edges — when recovery is exhausted and
//! fallback is disabled, the caller sees a specific `Error` variant,
//! never a panic.

use nx_core::fault::{CsbCode, FaultKind, FaultPlan, FaultRates, RecoveryPolicy, Scripted, Site};
use nx_core::{
    software, Error, Format, Nx, ParallelEngine, ParallelInflateOptions, ParallelOptions,
};
use nx_corpus::CorpusKind;
use std::sync::Arc;

const SEED: u64 = 0xFA_017;

fn faulted(plan: FaultPlan, policy: RecoveryPolicy) -> Nx {
    Nx::with_faults(nx_accel::AccelConfig::power9(), plan, policy)
}

/// Multi-page payload (Random stays ~incompressible, so the *compressed*
/// stream also spans several 64 KiB fault pages).
fn big_payload() -> Vec<u8> {
    CorpusKind::Random.generate(SEED, 512 * 1024)
}

#[test]
fn same_seed_same_faults_same_counters() {
    let data = big_payload();
    let gz = software::compress(&data, nx_deflate::CompressionLevel::default(), Format::Gzip);
    let run = || {
        let nx = faulted(
            FaultPlan::seeded(SEED, FaultRates::sweep(0.3)),
            RecoveryPolicy::default(),
        );
        let mut outs = Vec::new();
        for _ in 0..8 {
            outs.push(nx.decompress(&gz, Format::Gzip).expect("recovers").bytes);
        }
        let s = nx.fault_stats().expect("stats");
        (
            outs,
            [
                s.page_fault_count(),
                s.csb_error_count(),
                s.timeout_count(),
                s.queue_overflow_count(),
                s.corruption_count(),
                s.retry_count(),
                s.resubmission_count(),
                s.software_fallback_count(),
            ],
        )
    };
    let (outs_a, counters_a) = run();
    let (outs_b, counters_b) = run();
    assert_eq!(counters_a, counters_b, "replay produced different faults");
    assert!(
        counters_a.iter().sum::<u64>() > 0,
        "rate 0.3 over 8 requests must inject something"
    );
    assert_eq!(outs_a, outs_b);
    for out in &outs_a {
        assert_eq!(out, &data, "recovery must not change the payload");
    }
}

#[test]
fn scripted_page_fault_resubmits_and_succeeds() {
    let data = big_payload();
    let gz = software::compress(&data, nx_deflate::CompressionLevel::default(), Format::Gzip);
    let nx = faulted(
        FaultPlan::script(vec![Scripted {
            site: Site::Decompress,
            request: 0,
            attempt: 0,
            kind: FaultKind::PageFault { offset: 65_536 },
        }]),
        RecoveryPolicy::default(),
    );
    let out = nx.decompress(&gz, Format::Gzip).expect("resubmission");
    assert_eq!(out.bytes, data);
    let s = nx.fault_stats().expect("stats");
    assert_eq!(s.page_fault_count(), 1);
    assert_eq!(s.resubmission_count(), 1);
    assert_eq!(s.software_fallback_count(), 0);
}

#[test]
fn touch_ahead_suppresses_later_faults_on_the_same_request() {
    // Same heavy page-fault plan, two policies: the touch-ahead window
    // makes pages resident before they can fault, so it must absorb at
    // least as many draws as plain retry and log suppressions.
    let data = big_payload();
    let gz = software::compress(&data, nx_deflate::CompressionLevel::default(), Format::Gzip);
    let run = |policy: RecoveryPolicy| {
        let plan = FaultPlan::seeded(
            SEED,
            FaultRates {
                page_fault: 0.9,
                ..FaultRates::none()
            },
        );
        let nx = faulted(plan, policy);
        for _ in 0..6 {
            let out = nx.decompress(&gz, Format::Gzip).expect("recovers");
            assert_eq!(out.bytes, data);
        }
        let s = nx.fault_stats().expect("stats");
        (s.page_fault_count(), s.touch_ahead_suppressed_count())
    };
    let (retry_faults, retry_suppressed) = run(RecoveryPolicy::default());
    let (ahead_faults, ahead_suppressed) = run(RecoveryPolicy::touch_ahead(64));
    assert!(
        ahead_faults <= retry_faults,
        "touch-ahead took more faults ({ahead_faults}) than plain retry ({retry_faults})"
    );
    assert!(
        ahead_suppressed >= retry_suppressed,
        "the wider window must suppress at least as many draws"
    );
    assert!(retry_faults > 0, "the 0.9 plan must fault at all");
}

#[test]
fn accelerator_unavailable_degrades_to_identical_software_bytes() {
    let data = nx_corpus::mixed(SEED, 96 * 1024);
    let gz = software::compress(&data, nx_deflate::CompressionLevel::default(), Format::Gzip);
    let script = |site| {
        FaultPlan::script(vec![Scripted {
            site,
            request: 0,
            attempt: 0,
            kind: FaultKind::AccelUnavailable,
        }])
    };
    // Decompression: the software path is byte-identical (both sides
    // implement RFC 1951 exactly).
    let nx = faulted(script(Site::Decompress), RecoveryPolicy::default());
    let out = nx.decompress(&gz, Format::Gzip).expect("fallback");
    assert_eq!(out.bytes, data);
    assert_eq!(out.report.config_name, "software-fallback");
    assert_eq!(
        nx.fault_stats().expect("stats").software_fallback_count(),
        1
    );
    // Compression: the fallback stream need not match the accelerator's
    // bytes, but it must decode to the same payload.
    let nx = faulted(script(Site::Compress), RecoveryPolicy::default());
    let out = nx.compress(&data, Format::Gzip).expect("fallback");
    assert_eq!(out.report.config_name, "software-fallback");
    assert_eq!(
        software::decompress(&out.bytes, Format::Gzip).expect("valid"),
        data
    );
}

#[test]
fn queued_jobs_recover_like_synchronous_requests() {
    // An async job on a faulted handle runs the same executor as a
    // synchronous request, so the injector sees it: a scripted CSB error
    // on the first attempt is retried once and the job completes with the
    // clean run's bytes...
    let data = nx_corpus::mixed(SEED, 96 * 1024);
    let clean = Nx::power9().compress(&data, Format::Gzip).expect("clean");
    let script = |kind| {
        FaultPlan::script(vec![Scripted {
            site: Site::Compress,
            request: 0,
            attempt: 0,
            kind,
        }])
    };
    let nx = faulted(
        script(FaultKind::CsbError {
            code: CsbCode::Hardware,
        }),
        RecoveryPolicy::default(),
    );
    let session = nx.async_session();
    let out = session
        .submit(data.clone(), Format::Gzip)
        .expect("submit")
        .wait()
        .expect("retried");
    assert_eq!(
        out.bytes, clean.bytes,
        "recovery must not change the payload"
    );
    assert_eq!(out.report.cycles, clean.report.cycles);
    let s = nx.fault_stats().expect("stats");
    assert_eq!(s.csb_error_count(), 1);
    assert_eq!(s.retry_count(), 1);
    assert_eq!(nx.stats().retries(), 1);
    assert_eq!(s.software_fallback_count(), 0);
    session.close();
    // ...and an unavailable accelerator degrades the queued job to the
    // software path, named and counted as a fallback.
    let nx = faulted(
        script(FaultKind::AccelUnavailable),
        RecoveryPolicy::default(),
    );
    let out = nx
        .async_session()
        .submit(data.clone(), Format::Gzip)
        .expect("submit")
        .wait()
        .expect("fallback");
    assert_eq!(out.report.config_name, "software-fallback");
    assert_eq!(nx.stats().software_fallbacks(), 1);
    assert_eq!(
        nx.fault_stats().expect("stats").software_fallback_count(),
        1
    );
    assert_eq!(
        software::decompress(&out.bytes, Format::Gzip).expect("valid"),
        data
    );
}

#[test]
fn fallback_disabled_surfaces_typed_errors() {
    let data = nx_corpus::mixed(SEED, 32 * 1024);
    let gz = software::compress(&data, nx_deflate::CompressionLevel::default(), Format::Gzip);
    let no_fallback = RecoveryPolicy {
        software_fallback: false,
        ..RecoveryPolicy::default()
    };
    // Unavailable accelerator.
    let nx = faulted(
        FaultPlan::script(vec![Scripted {
            site: Site::Decompress,
            request: 0,
            attempt: 0,
            kind: FaultKind::AccelUnavailable,
        }]),
        no_fallback,
    );
    assert!(matches!(
        nx.decompress(&gz, Format::Gzip),
        Err(Error::AcceleratorUnavailable)
    ));
    // CSB errors on every attempt: budget exhausts into a typed timeout.
    let storm: Vec<Scripted> = (0..no_fallback.max_attempts)
        .map(|attempt| Scripted {
            site: Site::Decompress,
            request: 0,
            attempt,
            kind: FaultKind::CsbError {
                code: CsbCode::Hardware,
            },
        })
        .collect();
    let nx = faulted(FaultPlan::script(storm), no_fallback);
    match nx.decompress(&gz, Format::Gzip) {
        Err(Error::SubmissionTimeout { attempts }) => {
            assert_eq!(attempts, no_fallback.max_attempts);
        }
        other => panic!("expected SubmissionTimeout, got {other:?}"),
    }
    // A later request on the same handle is clean (script only names
    // request 0): typed errors must not poison the session.
    assert_eq!(nx.decompress(&gz, Format::Gzip).expect("clean").bytes, data);
}

#[test]
fn injected_output_corruption_is_detected_and_retried() {
    let data = nx_corpus::mixed(SEED, 64 * 1024);
    let gz = software::compress(&data, nx_deflate::CompressionLevel::default(), Format::Gzip);
    let nx = faulted(
        FaultPlan::script(vec![Scripted {
            site: Site::Output,
            request: 0,
            attempt: 0,
            kind: FaultKind::BitFlip {
                offset: 1000,
                mask: 0x40,
            },
        }]),
        RecoveryPolicy::default(),
    );
    let out = nx.decompress(&gz, Format::Gzip).expect("retried");
    assert_eq!(out.bytes, data, "corrupted attempt must never escape");
    let s = nx.fault_stats().expect("stats");
    assert_eq!(s.corruption_detected_count(), 1);
    assert!(s.retry_count() >= 1);
}

#[test]
fn genuine_input_errors_are_not_retried() {
    // A malformed stream through a fault-injecting handle: the decode
    // error must surface immediately (no retries, no fallback — the
    // input is wrong, not the accelerator).
    let nx = faulted(
        FaultPlan::seeded(SEED, FaultRates::none()),
        RecoveryPolicy::default(),
    );
    assert!(nx.decompress(&[0x1F, 0x8B, 0x08], Format::Gzip).is_err());
    let s = nx.fault_stats().expect("stats");
    assert_eq!(s.retry_count(), 0);
    assert_eq!(s.software_fallback_count(), 0);
}

#[test]
fn dead_parallel_pool_falls_back_to_serial_bytes() {
    // Kill both workers on their first shard; the coordinator must
    // detect the dead pool and produce the serial engine's exact bytes.
    let script: Vec<Scripted> = (0..16)
        .map(|s| Scripted {
            site: Site::Worker,
            request: 0,
            attempt: s,
            kind: FaultKind::WorkerPanic,
        })
        .collect();
    let inj = Arc::new(nx_core::FaultInjector::new(
        FaultPlan::script(script),
        RecoveryPolicy::default(),
    ));
    let engine = ParallelEngine::with_faults(
        ParallelOptions {
            workers: 2,
            chunk_size: 32 * 1024,
        },
        Arc::clone(&inj),
    );
    let data = nx_corpus::mixed(SEED, 256 * 1024);
    let out = engine.compress(&data, 6, Format::Gzip).expect("fallback");
    let serial = engine
        .compress_serial(&data, 6, Format::Gzip)
        .expect("serial");
    assert_eq!(out, serial);
    assert_eq!(engine.stats().serial_fallbacks(), 1);
    assert_eq!(
        software::decompress(&out, Format::Gzip).expect("valid"),
        data
    );
}

#[test]
fn zero_worker_pool_is_a_typed_error() {
    match ParallelEngine::try_new(ParallelOptions {
        workers: 0,
        chunk_size: 128 * 1024,
    }) {
        Err(Error::NoWorkers) => {}
        other => panic!("expected NoWorkers, got {:?}", other.map(|_| ())),
    }
}

#[test]
fn bounded_async_queue_overflow_is_typed_and_recoverable() {
    let nx = Nx::power9();
    let session = nx.async_session_bounded(1);
    let data = nx_corpus::mixed(SEED, 512 * 1024);
    let mut handles = Vec::new();
    let mut overflowed = false;
    for _ in 0..24 {
        match session.try_submit(data.clone(), Format::Gzip) {
            Ok(h) => handles.push(h),
            Err(Error::QueueOverflow) => {
                overflowed = true;
                break;
            }
            Err(other) => panic!("unexpected error: {other:?}"),
        }
    }
    assert!(overflowed, "depth-1 queue never overflowed");
    // Everything accepted before the overflow still completes correctly.
    for h in handles {
        let out = h.wait().expect("accepted job completes");
        assert_eq!(
            software::decompress(&out.bytes, Format::Gzip).expect("valid"),
            data
        );
    }
}

#[test]
fn killed_decode_workers_degrade_to_serial_inflate_bytes() {
    // Kill every member worker of the first request on a multi-member
    // stream: the plan is dropped before any member decodes and the request
    // is one counted serial fallback — same bytes as a clean run, never an
    // error. (A single member decodes serially and has no workers to kill.)
    let parts: Vec<Vec<u8>> = (0..8u64)
        .map(|i| nx_corpus::mixed(SEED + i, 64 * 1024))
        .collect();
    let level = nx_deflate::CompressionLevel::default();
    let gz: Vec<u8> = parts
        .iter()
        .flat_map(|part| software::compress(part, level, Format::Gzip))
        .collect();
    let data = parts.concat();
    let script: Vec<Scripted> = (0..8)
        .map(|member| Scripted {
            site: Site::Worker,
            request: 0,
            attempt: member,
            kind: FaultKind::WorkerPanic,
        })
        .collect();
    let opts = ParallelInflateOptions {
        workers: 4,
        ..Default::default()
    };
    let nx = faulted(FaultPlan::script(script), RecoveryPolicy::default());
    let out = nx
        .decompress_parallel_with(&gz, Format::Gzip, opts)
        .expect("degrades, does not error");
    assert_eq!(out, data, "fallback must reproduce the serial bytes");
    let fs = nx.fault_stats().expect("stats");
    assert_eq!(fs.worker_panic_count(), 8, "every member's draw fires");
    assert_eq!(fs.serial_fallback_count(), 1);
    let ds = nx.decode_parallel_stats();
    assert_eq!(
        (ds.members_parallel(), ds.serial_fallbacks()),
        (0, 1),
        "a killed worker must be one counted serial fallback"
    );
    // A later request on the same handle fans out again — the injected
    // failure must not poison the session.
    assert_eq!(
        nx.decompress_parallel_with(&gz, Format::Gzip, opts)
            .expect("clean"),
        data
    );
    assert_eq!((ds.members_parallel(), ds.serial_fallbacks()), (8, 1));
}

#[test]
fn killed_member_worker_falls_back_on_multi_member_gzip() {
    // Multi-member streams take the member-per-worker fast path; a dead
    // member worker breaks the chain validation and the request must
    // degrade to the serial members walk with identical output.
    let mut stream = Vec::new();
    let mut payload = Vec::new();
    for i in 0..4u64 {
        let part = nx_corpus::mixed(SEED + i, 48 * 1024);
        stream.extend_from_slice(&software::compress(
            &part,
            nx_deflate::CompressionLevel::default(),
            Format::Gzip,
        ));
        payload.extend_from_slice(&part);
    }
    let script: Vec<Scripted> = (0..4)
        .map(|member| Scripted {
            site: Site::Worker,
            request: 0,
            attempt: member,
            kind: FaultKind::WorkerPanic,
        })
        .collect();
    let nx = faulted(FaultPlan::script(script), RecoveryPolicy::default());
    let out = nx
        .decompress_parallel_with(
            &stream,
            Format::Gzip,
            ParallelInflateOptions {
                workers: 4,
                ..Default::default()
            },
        )
        .expect("degrades, does not error");
    assert_eq!(out, payload);
    assert!(nx.decode_parallel_stats().serial_fallbacks() >= 1);
}

#[test]
fn simulator_replays_injected_csb_storms_exactly() {
    use nx_sys::crb::Function;
    use nx_sys::erat::FaultPolicy;
    use nx_sys::{CompletionMode, RequestStream, SystemSim, Topology};
    let stream = RequestStream::saturating(
        SEED,
        48,
        2 << 20,
        &[CorpusKind::Json, CorpusKind::Logs],
        Function::Compress,
    );
    let run = || {
        let mut sim = SystemSim::new(
            &Topology::power9_chip(),
            CompletionMode::Interrupt,
            FaultPolicy::RetryOnFault {
                fault_probability: 0.02,
            },
            SEED,
        )
        .with_injected_faults(FaultPlan::seeded(
            SEED,
            FaultRates {
                csb_error: 0.25,
                timeout: 0.05,
                ..FaultRates::none()
            },
        ));
        sim.run(&stream)
    };
    let a = run();
    let b = run();
    assert!(a.csb_errors > 0, "the storm must inject CSB errors");
    assert_eq!(a.csb_errors, b.csb_errors);
    assert_eq!(a.retries, b.retries);
    assert_eq!(a.completed, b.completed);
    assert_eq!(
        a.completed, 48,
        "every request must finish despite the storm"
    );
    assert_eq!(a.input_bytes, b.input_bytes);
}
