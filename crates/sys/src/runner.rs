//! The event-driven system simulation: requests → VAS paste → unit queue →
//! DMA + engine → CSB → completion notification, with page-fault
//! resubmission.
//!
//! Jobs are processed in submission-time order through an
//! [`nx_sim::EventQueue`], so fault-triggered resubmissions interleave
//! correctly with fresh arrivals. Each accelerator unit is an analytic
//! FIFO engine plus a DMA channel pair; each chip adds a shared nest
//! memory link the topology experiments can saturate.

use crate::chip::Topology;
use crate::completion::CompletionMode;
use crate::cost::CostModel;
use crate::dma::DmaEngines;
use crate::erat::{self, FaultPolicy, FAULT_RESOLUTION};
use crate::vas::{PASTE_LATENCY, SUBMIT_CPU_CYCLES};
use crate::workload::{Request, RequestStream};
use nx_sim::{EventQueue, FifoStation, Percentiles, SerialLink, SimRng, SimTime};

/// One accelerator unit's resources.
#[derive(Debug)]
struct Unit {
    engine: FifoStation,
    dma: DmaEngines,
    chip: usize,
}

/// An in-flight job (possibly a fault-retry remainder).
#[derive(Debug, Clone)]
struct Job {
    req: Request,
    remaining: u64,
    first_arrival: SimTime,
    attempts: u32,
    unit: usize,
    /// Leading pages of the remaining range already made resident by
    /// fault resolution (1 under `RetryOnFault`, 1 + window under
    /// `TouchAhead`); they cannot fault on the next attempt.
    resident_pages: u64,
    /// Stable request index — the injected-fault plan's request
    /// coordinate.
    index: u64,
}

/// Aggregated results of one simulation run.
#[derive(Debug)]
pub struct ExperimentResult {
    /// Requests completed (fully).
    pub completed: u64,
    /// Page faults taken.
    pub faults: u64,
    /// Total source bytes fully processed.
    pub input_bytes: u64,
    /// Total produced bytes.
    pub output_bytes: u64,
    /// Time of the last completion.
    pub makespan: SimTime,
    /// End-to-end request latency samples, in microseconds.
    pub latency_us: Percentiles,
    /// CPU cycles the submitting cores burned (build/paste/touch/wait).
    pub cpu_cycles: u64,
    /// Error CSBs posted (injected transient engine errors).
    pub csb_errors: u64,
    /// Whole-job retries after error CSBs / injected timeouts, each paid
    /// with a capped exponential backoff.
    pub retries: u64,
}

impl ExperimentResult {
    /// Source-side throughput over the makespan, in GB/s.
    pub fn throughput_gbps(&self) -> f64 {
        if self.makespan == SimTime::ZERO {
            return 0.0;
        }
        self.input_bytes as f64 / self.makespan.as_secs_f64() / 1e9
    }

    /// Mean end-to-end latency in microseconds.
    pub fn mean_latency_us(&self) -> f64 {
        self.latency_us.mean()
    }

    /// p99 end-to-end latency in microseconds.
    pub fn p99_latency_us(&mut self) -> f64 {
        self.latency_us.percentile(99.0).unwrap_or(0.0)
    }

    /// CPU cycles burned per input byte (the offload metric, E11).
    pub fn cpu_cycles_per_byte(&self) -> f64 {
        if self.input_bytes == 0 {
            return 0.0;
        }
        self.cpu_cycles as f64 / self.input_bytes as f64
    }
}

/// The system simulator for one topology.
#[derive(Debug)]
pub struct SystemSim {
    cost: CostModel,
    units: Vec<Unit>,
    chip_links: Vec<SerialLink>,
    completion: CompletionMode,
    fault_policy: FaultPolicy,
    core_ghz: f64,
    rng: SimRng,
    next_unit: usize,
    /// Deterministic injected-fault schedule (error CSBs, timeouts)
    /// layered on top of the stochastic page-fault model.
    injected: Option<nx_core::fault::FaultPlan>,
}

impl SystemSim {
    /// Builds a simulator for `topology` with the given completion and
    /// fault handling, calibrating the cost model from the topology's
    /// accelerator configuration.
    pub fn new(
        topology: &Topology,
        completion: CompletionMode,
        fault_policy: FaultPolicy,
        seed: u64,
    ) -> Self {
        let cost = CostModel::calibrate(&topology.accel, seed);
        let mut units = Vec::new();
        let mut chip_links = Vec::new();
        for (ci, chip) in topology.chips.iter().enumerate() {
            chip_links.push(SerialLink::new(chip.mem_bw));
            for _ in 0..chip.units {
                units.push(Unit {
                    engine: FifoStation::new(1),
                    dma: DmaEngines::default(),
                    chip: ci,
                });
            }
        }
        assert!(!units.is_empty(), "topology has no accelerator units");
        Self {
            cost,
            units,
            chip_links,
            completion,
            fault_policy,
            core_ghz: 2.5,
            rng: SimRng::new(seed, "system-sim"),
            next_unit: 0,
            injected: None,
        }
    }

    /// Injects the faults `plan` schedules (error CSBs, submission
    /// timeouts) on top of the stochastic page-fault model: each draw is
    /// keyed by `(request id, attempt)`, so a run is replayable from the
    /// plan's seed.
    pub fn with_injected_faults(mut self, plan: nx_core::fault::FaultPlan) -> Self {
        self.injected = Some(plan);
        self
    }

    /// Runs the simulation over `stream` to completion.
    pub fn run(&mut self, stream: &RequestStream) -> ExperimentResult {
        let mut q: EventQueue<Job> = EventQueue::new();
        for (index, r) in stream.requests().iter().enumerate() {
            let unit = self.route();
            q.schedule(
                r.arrival,
                Job {
                    remaining: r.bytes,
                    first_arrival: r.arrival,
                    attempts: 0,
                    unit,
                    resident_pages: 0,
                    index: index as u64,
                    req: r.clone(),
                },
            );
        }

        let mut result = ExperimentResult {
            completed: 0,
            faults: 0,
            input_bytes: 0,
            output_bytes: 0,
            makespan: SimTime::ZERO,
            latency_us: Percentiles::new(),
            cpu_cycles: 0,
            csb_errors: 0,
            retries: 0,
        };

        while let Some((now, mut job)) = q.pop() {
            // Injected transient faults (error CSB, lost completion):
            // the job occupies the engine briefly, posts a failure, and
            // the library resubmits after a capped exponential backoff.
            if let Some(injected) = &self.injected {
                let site = if job.req.function == crate::crb::Function::Decompress
                    || job.req.function == crate::crb::Function::Decompress842
                {
                    nx_core::fault::Site::Decompress
                } else {
                    nx_core::fault::Site::Compress
                };
                // Page faults stay with the stochastic ERAT model; output
                // corruption has no analogue in the analytic simulator
                // (no byte stream to corrupt).
                if let Some(
                    nx_core::fault::FaultKind::CsbError { .. }
                    | nx_core::fault::FaultKind::SubmissionTimeout
                    | nx_core::fault::FaultKind::QueueOverflow,
                ) = injected.draw_submit(site, job.index, job.attempts, job.remaining)
                {
                    result.csb_errors += 1;
                    result.retries += 1;
                    let backoff = erat::csb_retry_backoff(job.attempts);
                    job.attempts += 1;
                    // The aborted attempt still pastes and briefly
                    // occupies the engine before the error posts.
                    let (_, fin) = self.units[job.unit]
                        .engine
                        .submit(now + PASTE_LATENCY, SimTime::from_ns(500));
                    result.cpu_cycles += SUBMIT_CPU_CYCLES;
                    let resume = fin + self.completion.notification_latency() + backoff;
                    q.schedule(resume, job);
                    continue;
                }
            }

            let plan = erat::plan_resident(
                self.fault_policy,
                job.remaining,
                job.resident_pages,
                &mut self.rng,
            );
            let submit = now + plan.pre_submit + PASTE_LATENCY;
            result.cpu_cycles +=
                SUBMIT_CPU_CYCLES + (plan.pre_submit.as_secs_f64() * self.core_ghz * 1e9) as u64;

            // The engine stops at the first faulting page (if any).
            let (processed, faulted) = match plan.fault_at {
                Some(0) => {
                    // Fault on the very first page: nothing processed, the
                    // job costs a round trip and returns.
                    (0u64, true)
                }
                Some(at) => (at.min(job.remaining), true),
                None => (job.remaining, false),
            };

            let finish = if processed > 0 {
                let service = self
                    .cost
                    .service_time(job.req.function, job.req.corpus, processed);
                let out = self
                    .cost
                    .output_bytes(job.req.function, job.req.corpus, processed);
                let unit = &mut self.units[job.unit];
                let (start, engine_fin) = unit.engine.submit(submit, service);
                let dma_fin = unit.dma.transfer(start, processed, out);
                let (_, cf) = self.chip_links[unit.chip]
                    .transfer(start + crate::dma::DMA_SETUP, processed + out);
                result.output_bytes += out;
                engine_fin.max(dma_fin).max(cf)
            } else {
                // Fault recognized at job start: a short engine occupancy
                // for the aborted attempt.
                let (_, fin) = self.units[job.unit]
                    .engine
                    .submit(submit, SimTime::from_ns(500));
                fin
            };

            if faulted {
                result.faults += 1;
                job.remaining -= processed;
                job.attempts += 1;
                // CSB posts the fault; library is notified, touches the
                // faulting page (plus the touch-ahead window under
                // `TouchAhead`), and resubmits the remainder. The
                // remainder starts at the faulting page, so the touched
                // pages are exactly its resident prefix.
                let touched = self.fault_policy.pages_touched_per_fault();
                job.resident_pages = touched;
                let touch_time = SimTime::from_ps(erat::TOUCH_PER_PAGE.as_ps() * touched);
                let notify = self.completion.notification_latency();
                result.cpu_cycles += self
                    .completion
                    .cpu_wait_cycles(finish + notify - now, self.core_ghz)
                    + (touch_time.as_secs_f64() * self.core_ghz * 1e9) as u64;
                q.schedule(finish + notify + FAULT_RESOLUTION + touch_time, job);
                continue;
            }

            let observed = finish + self.completion.notification_latency();
            result.completed += 1;
            result.input_bytes += job.req.bytes;
            result.makespan = result.makespan.max(observed);
            result
                .latency_us
                .record((observed - job.first_arrival).as_us_f64());
            result.cpu_cycles += self
                .completion
                .cpu_wait_cycles(observed - now, self.core_ghz);
        }
        result
    }

    /// Round-robin unit routing (the library load-balances windows).
    fn route(&mut self) -> usize {
        let u = self.next_unit;
        self.next_unit = (self.next_unit + 1) % self.units.len();
        u
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crb::Function;
    use crate::workload::SizeDistribution;
    use nx_corpus::CorpusKind;

    fn no_faults() -> FaultPolicy {
        FaultPolicy::RetryOnFault {
            fault_probability: 0.0,
        }
    }

    #[test]
    fn single_request_latency_decomposes() {
        let topo = Topology::power9_chip();
        let mut sim = SystemSim::new(&topo, CompletionMode::Poll, no_faults(), 1);
        let stream =
            RequestStream::saturating(1, 1, 1 << 20, &[CorpusKind::Text], Function::Compress);
        let mut res = sim.run(&stream);
        assert_eq!(res.completed, 1);
        // 1 MB at ~13 GB/s ≈ 80 µs; plus fixed overheads.
        let lat = res.p99_latency_us();
        assert!((50.0..400.0).contains(&lat), "latency {lat} us");
    }

    #[test]
    fn saturating_batch_reaches_near_peak_throughput() {
        let topo = Topology::power9_chip();
        let mut sim = SystemSim::new(&topo, CompletionMode::Poll, no_faults(), 2);
        let stream =
            RequestStream::saturating(2, 64, 8 << 20, &[CorpusKind::Text], Function::Compress);
        let res = sim.run(&stream);
        let gbps = res.throughput_gbps();
        assert!((8.0..=16.5).contains(&gbps), "throughput {gbps} GB/s");
    }

    #[test]
    fn two_units_double_saturated_throughput() {
        let one = {
            let mut sim = SystemSim::new(
                &Topology::power9_chip(),
                CompletionMode::Poll,
                no_faults(),
                3,
            );
            sim.run(&RequestStream::saturating(
                3,
                64,
                4 << 20,
                &[CorpusKind::Json],
                Function::Compress,
            ))
            .throughput_gbps()
        };
        let two = {
            let mut sim = SystemSim::new(
                &Topology::power9_two_socket(),
                CompletionMode::Poll,
                no_faults(),
                3,
            );
            sim.run(&RequestStream::saturating(
                3,
                64,
                4 << 20,
                &[CorpusKind::Json],
                Function::Compress,
            ))
            .throughput_gbps()
        };
        let ratio = two / one;
        assert!((1.7..=2.2).contains(&ratio), "scaling ratio {ratio}");
    }

    #[test]
    fn interrupt_mode_adds_latency_but_saves_cpu() {
        let topo = Topology::power9_chip();
        let stream = RequestStream::open_loop(
            4,
            2,
            1000.0,
            200,
            SizeDistribution::Fixed(64 * 1024),
            &[CorpusKind::Logs],
            Function::Compress,
        );
        let mut poll_sim = SystemSim::new(&topo, CompletionMode::Poll, no_faults(), 4);
        let poll = poll_sim.run(&stream);
        let mut intr_sim = SystemSim::new(&topo, CompletionMode::Interrupt, no_faults(), 4);
        let intr = intr_sim.run(&stream);
        assert!(intr.mean_latency_us() > poll.mean_latency_us());
        assert!(intr.cpu_cycles < poll.cpu_cycles);
    }

    #[test]
    fn faults_reduce_throughput_and_are_counted() {
        let topo = Topology::power9_chip();
        let stream =
            RequestStream::saturating(5, 32, 4 << 20, &[CorpusKind::Text], Function::Compress);
        let clean = SystemSim::new(&topo, CompletionMode::Poll, no_faults(), 5).run(&stream);
        let faulty = SystemSim::new(
            &topo,
            CompletionMode::Poll,
            FaultPolicy::RetryOnFault {
                fault_probability: 0.02,
            },
            5,
        )
        .run(&stream);
        assert_eq!(clean.faults, 0);
        assert!(faulty.faults > 0);
        assert!(faulty.throughput_gbps() < clean.throughput_gbps());
        assert_eq!(faulty.completed, 32);
        assert_eq!(faulty.input_bytes, clean.input_bytes);
    }

    #[test]
    fn touch_first_avoids_faults_at_small_cpu_cost() {
        let topo = Topology::power9_chip();
        let stream =
            RequestStream::saturating(6, 32, 4 << 20, &[CorpusKind::Text], Function::Compress);
        let faulty = SystemSim::new(
            &topo,
            CompletionMode::Interrupt,
            FaultPolicy::RetryOnFault {
                fault_probability: 0.05,
            },
            6,
        )
        .run(&stream);
        let touched = SystemSim::new(
            &topo,
            CompletionMode::Interrupt,
            FaultPolicy::TouchFirst {
                fault_probability: 0.05,
            },
            6,
        )
        .run(&stream);
        assert_eq!(touched.faults, 0);
        assert!(touched.throughput_gbps() > faulty.throughput_gbps());
    }

    #[test]
    fn injected_csb_errors_are_retried_and_counted() {
        let topo = Topology::power9_chip();
        let stream =
            RequestStream::saturating(11, 32, 2 << 20, &[CorpusKind::Text], Function::Compress);
        let clean = SystemSim::new(&topo, CompletionMode::Poll, no_faults(), 11).run(&stream);
        assert_eq!(clean.csb_errors, 0);
        let plan = nx_core::fault::FaultPlan::seeded(
            77,
            nx_core::fault::FaultRates {
                csb_error: 0.3,
                timeout: 0.1,
                ..nx_core::fault::FaultRates::none()
            },
        );
        let faulty = SystemSim::new(&topo, CompletionMode::Poll, no_faults(), 11)
            .with_injected_faults(plan.clone())
            .run(&stream);
        // Transients delay but never lose work.
        assert!(faulty.csb_errors > 0);
        assert!(faulty.retries >= faulty.csb_errors);
        assert_eq!(faulty.completed, 32);
        assert_eq!(faulty.input_bytes, clean.input_bytes);
        assert!(faulty.makespan >= clean.makespan);
        // Replayable: the same plan injects the same faults.
        let again = SystemSim::new(&topo, CompletionMode::Poll, no_faults(), 11)
            .with_injected_faults(plan)
            .run(&stream);
        assert_eq!(again.csb_errors, faulty.csb_errors);
        assert_eq!(again.retries, faulty.retries);
    }

    #[test]
    fn touch_ahead_beats_plain_retry_under_heavy_faults() {
        let topo = Topology::power9_chip();
        let stream =
            RequestStream::saturating(12, 16, 8 << 20, &[CorpusKind::Text], Function::Compress);
        let retry = SystemSim::new(
            &topo,
            CompletionMode::Interrupt,
            FaultPolicy::RetryOnFault {
                fault_probability: 0.2,
            },
            12,
        )
        .run(&stream);
        let ahead = SystemSim::new(
            &topo,
            CompletionMode::Interrupt,
            FaultPolicy::TouchAhead {
                fault_probability: 0.2,
                window_pages: 32,
            },
            12,
        )
        .run(&stream);
        // Each resolution buys a 33-page resident window, so far fewer
        // round trips.
        assert!(
            ahead.faults < retry.faults / 2,
            "touch-ahead {} vs retry {} faults",
            ahead.faults,
            retry.faults
        );
        assert!(ahead.throughput_gbps() > retry.throughput_gbps());
        assert_eq!(ahead.completed, retry.completed);
    }

    #[test]
    fn all_work_is_conserved() {
        let topo = Topology::z15_drawers(2);
        let stream = RequestStream::open_loop(
            7,
            8,
            500.0,
            400,
            SizeDistribution::BoundedPareto {
                lo: 4096,
                hi: 1 << 22,
                alpha: 1.2,
            },
            &[CorpusKind::Json, CorpusKind::Binary],
            Function::Compress,
        );
        let mut sim = SystemSim::new(&topo, CompletionMode::Poll, no_faults(), 7);
        let res = sim.run(&stream);
        assert_eq!(res.completed as usize, stream.len());
        assert_eq!(res.input_bytes, stream.total_bytes());
        assert!(res.output_bytes > 0 && res.output_bytes < res.input_bytes);
    }
}
