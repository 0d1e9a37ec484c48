//! Property tests for the system simulator: conservation, determinism,
//! latency sanity and fault accounting under randomized workloads.

use nx_corpus::CorpusKind;
use nx_sys::crb::Function;
use nx_sys::erat::FaultPolicy;
use nx_sys::workload::{RequestStream, SizeDistribution};
use nx_sys::{CompletionMode, SystemSim, Topology};
use proptest::prelude::*;

fn run_once(
    seed: u64,
    users: u32,
    count: usize,
    size: u64,
    fault_prob: f64,
) -> nx_sys::ExperimentResult {
    let stream = RequestStream::open_loop(
        seed,
        users,
        1_000.0,
        count,
        SizeDistribution::Fixed(size),
        &[CorpusKind::Json, CorpusKind::Logs],
        Function::Compress,
    );
    SystemSim::new(
        &Topology::power9_chip(),
        CompletionMode::Poll,
        FaultPolicy::RetryOnFault {
            fault_probability: fault_prob,
        },
        seed,
    )
    .run(&stream)
}

proptest! {
    // The simulator calibrates an accelerator model per construction, so
    // keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn work_is_conserved_under_any_load(
        seed in 0u64..1_000,
        users in 1u32..16,
        count in 10usize..200,
        size_kb in 1u64..512,
        fault in 0usize..3,
    ) {
        let fault_prob = [0.0, 0.01, 0.05][fault];
        let res = run_once(seed, users, count, size_kb << 10, fault_prob);
        prop_assert_eq!(res.completed as usize, count);
        prop_assert_eq!(res.input_bytes, count as u64 * (size_kb << 10));
        prop_assert!(res.output_bytes > 0);
        prop_assert!(res.output_bytes < res.input_bytes, "JSON/logs must compress");
        prop_assert_eq!(res.latency_us.count(), count);
        if fault_prob == 0.0 {
            prop_assert_eq!(res.faults, 0);
        }
        prop_assert!(res.makespan > nx_sim::SimTime::ZERO);
    }

    #[test]
    fn simulation_is_deterministic(
        seed in 0u64..1_000,
        users in 1u32..8,
    ) {
        let a = run_once(seed, users, 50, 128 << 10, 0.02);
        let b = run_once(seed, users, 50, 128 << 10, 0.02);
        prop_assert_eq!(a.completed, b.completed);
        prop_assert_eq!(a.faults, b.faults);
        prop_assert_eq!(a.makespan, b.makespan);
        prop_assert_eq!(a.cpu_cycles, b.cpu_cycles);
    }

    #[test]
    fn latency_at_least_service_floor(
        seed in 0u64..1_000,
        size_kb in 4u64..1024,
    ) {
        // A single request's latency can never undercut paste + engine
        // service at peak rate.
        let mut res = run_once(seed, 1, 1, size_kb << 10, 0.0);
        let floor_us = (size_kb << 10) as f64 / 16e9 * 1e6; // peak 16 GB/s
        let p99 = res.p99_latency_us();
        prop_assert!(
            p99 >= floor_us,
            "latency {p99:.2} us below physical floor {floor_us:.2} us"
        );
    }
}
