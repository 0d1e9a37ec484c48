//! Deterministic fault injection and the recovery protocol around it.
//!
//! The paper's accelerator is defined as much by its *failure* protocol
//! as by its throughput: jobs complete with a CSB status, translation
//! faults abort with partial progress and are resubmitted after the
//! library touches the page, and transient engine errors are retried
//! with backoff. This module makes every one of those failure modes
//! **injectable and replayable** so the recovery paths in [`crate::Nx`],
//! [`crate::parallel`] and `nx-sys` can be exercised deterministically:
//!
//! * [`FaultKind`] — the taxonomy of injectable faults (page fault at a
//!   byte offset, CSB error codes, partial completion, queue overflow,
//!   submission timeout, bit-flip/truncation of the engine's output,
//!   accelerator unavailable, worker death).
//! * [`FaultPlan`] — a *pure* fault schedule: every draw is a function
//!   of `(seed, site, request, attempt)` only, so a failing run replays
//!   bit-identically from its seed regardless of thread timing.
//! * [`FaultInjector`] — a plan plus a [`RecoveryPolicy`] and atomic
//!   [`FaultStats`]; the recovery loops consult it at each submission
//!   and completion and record what they injected and how they
//!   recovered.
//!
//! Injection never corrupts *user-visible* results: the recovery
//! protocol (retry from offset, touch-ahead, capped exponential
//! backoff, software fallback) must absorb every injected fault or
//! surface a typed [`crate::Error`] — never a panic, never silently
//! wrong bytes. The adversarial test battery holds the stack to that.

use crate::{SUBMIT_CYCLES, TOUCH_CYCLES_PER_PAGE};
use nx_telemetry::Stage;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Page granularity the functional fault model uses (64 KiB, the common
/// POWER configuration).
pub const PAGE_BYTES: u64 = 64 * 1024;

/// Modeled CSB completion error codes (the subset of the hardware's
/// codes the recovery protocol distinguishes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CsbCode {
    /// The CRB itself was malformed (bad DDE list, bad function code).
    InvalidCrb,
    /// A transient engine/hardware error; retry is expected to succeed.
    Hardware,
    /// The engine's inline CRC detected corrupted data movement.
    DataIntegrity,
}

impl CsbCode {
    /// Stable short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            CsbCode::InvalidCrb => "invalid-crb",
            CsbCode::Hardware => "hardware",
            CsbCode::DataIntegrity => "data-integrity",
        }
    }
}

/// One injectable fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Translation fault: the engine stops after processing `offset`
    /// source bytes; software touches the page and resubmits.
    PageFault {
        /// Byte offset (page-aligned) at which the engine stopped.
        offset: u64,
    },
    /// The engine posted an error CSB.
    CsbError {
        /// The completion code posted.
        code: CsbCode,
    },
    /// Partial completion: the engine stopped early (no fault reported)
    /// after `processed` source bytes; the remainder is resubmitted.
    Partial {
        /// Source bytes processed before stopping.
        processed: u64,
    },
    /// The submission queue (VAS window credits) was full; the paste is
    /// rejected and must be retried after a backoff.
    QueueOverflow,
    /// No CSB arrived within the library's deadline.
    SubmissionTimeout,
    /// One bit of the engine's *output* stream flipped in flight.
    BitFlip {
        /// Byte offset of the flipped bit.
        offset: u64,
        /// XOR mask applied to that byte (non-zero).
        mask: u8,
    },
    /// The tail of the engine's output stream was lost in flight.
    Truncate {
        /// Trailing bytes dropped (≥ 1).
        drop: u64,
    },
    /// The accelerator is not present / was fenced off; the library
    /// degrades to the software path.
    AccelUnavailable,
    /// A parallel-pool worker dies mid-shard.
    WorkerPanic,
}

impl FaultKind {
    /// Stable forensic code for span and flight-recorder `detail` words.
    ///
    /// Retry spans pack `(code << 8) | attempt` so a black-box dump
    /// names the fault class that caused each retry without carrying
    /// strings through the lock-free rings. Codes are part of the dump
    /// format: append-only, never renumbered.
    pub fn detail_code(&self) -> u64 {
        match self {
            FaultKind::PageFault { .. } => 1,
            FaultKind::CsbError { .. } => 2,
            FaultKind::Partial { .. } => 3,
            FaultKind::QueueOverflow => 4,
            FaultKind::SubmissionTimeout => 5,
            FaultKind::BitFlip { .. } => 6,
            FaultKind::Truncate { .. } => 7,
            FaultKind::AccelUnavailable => 8,
            FaultKind::WorkerPanic => 9,
        }
    }
}

/// Per-class injection probabilities for a seeded [`FaultPlan`]. All
/// rates are per *submission attempt* (worker panics: per shard).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultRates {
    /// Probability a submission hits a translation fault.
    pub page_fault: f64,
    /// Probability the CSB posts an error code.
    pub csb_error: f64,
    /// Probability the engine stops with partial completion.
    pub partial: f64,
    /// Probability the paste finds the queue full.
    pub queue_overflow: f64,
    /// Probability the CSB never arrives in time.
    pub timeout: f64,
    /// Probability the output stream is corrupted in flight.
    pub corrupt: f64,
    /// Probability the accelerator is unavailable for this request.
    pub accel_unavailable: f64,
    /// Probability a pool worker dies on any given shard.
    pub worker_panic: f64,
}

impl FaultRates {
    /// No faults ever (the zero-rate instrumented baseline).
    pub fn none() -> Self {
        Self::default()
    }

    /// The E18 sweep shape: page faults dominate, the rarer classes
    /// scale down from `r` (all clamped to probabilities).
    pub fn sweep(r: f64) -> Self {
        let c = |x: f64| x.clamp(0.0, 1.0);
        Self {
            page_fault: c(r),
            csb_error: c(r * 0.5),
            partial: c(r * 0.25),
            queue_overflow: c(r * 0.25),
            timeout: c(r * 0.25),
            corrupt: c(r * 0.25),
            accel_unavailable: c(r * 0.1),
            worker_panic: c(r * 0.1),
        }
    }
}

/// Where in the protocol a draw happens. Part of the hash input, so the
/// same request draws independently at each site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Site {
    /// Compression CRB submission.
    Compress,
    /// Decompression CRB submission.
    Decompress,
    /// The engine's output travelling back (corruption faults).
    Output,
    /// A parallel-pool worker picking up a shard.
    Worker,
}

impl Site {
    fn tag(self) -> u64 {
        match self {
            Site::Compress => 0x11,
            Site::Decompress => 0x22,
            Site::Output => 0x33,
            Site::Worker => 0x44,
        }
    }
}

/// A scripted fault: injected when `(site, request, attempt)` match.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scripted {
    /// Site the fault fires at.
    pub site: Site,
    /// Request index (per-injector monotone counter).
    pub request: u64,
    /// Submission attempt within the request (0 = first).
    pub attempt: u32,
    /// The fault delivered.
    pub kind: FaultKind,
}

#[derive(Debug, Clone)]
enum Mode {
    None,
    Seeded(FaultRates),
    Script(Vec<Scripted>),
}

/// A deterministic, replayable fault schedule.
///
/// Draws are pure functions of `(seed, site, request, attempt)`: no
/// interior state, no dependence on thread timing or call order. Two
/// runs with the same plan and the same request numbering inject
/// exactly the same faults — the property that makes every failure in
/// the test battery replayable.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    mode: Mode,
}

/// splitmix64 — the repo's standard cheap mixer.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A unit uniform derived from a hash word.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl FaultPlan {
    /// A plan that never injects anything.
    pub fn none() -> Self {
        Self {
            seed: 0,
            mode: Mode::None,
        }
    }

    /// A seeded stochastic plan: each site/request/attempt draws
    /// independently at the given `rates`.
    pub fn seeded(seed: u64, rates: FaultRates) -> Self {
        Self {
            seed,
            mode: Mode::Seeded(rates),
        }
    }

    /// An exact-replay plan: only the scripted faults fire.
    pub fn script(faults: Vec<Scripted>) -> Self {
        Self {
            seed: 0,
            mode: Mode::Script(faults),
        }
    }

    /// Whether this plan can ever inject a fault.
    pub fn is_active(&self) -> bool {
        match &self.mode {
            Mode::None => false,
            Mode::Seeded(r) => {
                r.page_fault > 0.0
                    || r.csb_error > 0.0
                    || r.partial > 0.0
                    || r.queue_overflow > 0.0
                    || r.timeout > 0.0
                    || r.corrupt > 0.0
                    || r.accel_unavailable > 0.0
                    || r.worker_panic > 0.0
            }
            Mode::Script(s) => !s.is_empty(),
        }
    }

    fn hash(&self, site: Site, request: u64, attempt: u32, salt: u64) -> u64 {
        mix(self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(site.tag())
            .wrapping_add(request.wrapping_mul(0xD6E8_FEB8_6659_FD93))
            .wrapping_add(u64::from(attempt).wrapping_mul(0xA24B_AED4_963E_E407))
            .wrapping_add(salt))
    }

    /// Draws the submission-phase fault for one attempt over `bytes`
    /// source bytes, if any.
    pub fn draw_submit(
        &self,
        site: Site,
        request: u64,
        attempt: u32,
        bytes: u64,
    ) -> Option<FaultKind> {
        match &self.mode {
            Mode::None => None,
            Mode::Script(s) => s
                .iter()
                .find(|f| f.site == site && f.request == request && f.attempt == attempt)
                .map(|f| f.kind),
            Mode::Seeded(r) => {
                let u = unit(self.hash(site, request, attempt, 1));
                // Stacked class selection from one uniform: the classes
                // partition [0, 1) in a fixed order.
                let mut acc = 0.0;
                let mut hit = |p: f64| {
                    acc += p;
                    u < acc
                };
                if hit(r.accel_unavailable) {
                    return Some(FaultKind::AccelUnavailable);
                }
                if hit(r.queue_overflow) {
                    return Some(FaultKind::QueueOverflow);
                }
                if hit(r.timeout) {
                    return Some(FaultKind::SubmissionTimeout);
                }
                if hit(r.csb_error) {
                    let codes = [
                        CsbCode::Hardware,
                        CsbCode::DataIntegrity,
                        CsbCode::InvalidCrb,
                    ];
                    let h = self.hash(site, request, attempt, 2);
                    return Some(FaultKind::CsbError {
                        code: codes[(h % 3) as usize],
                    });
                }
                if bytes > 0 && hit(r.page_fault) {
                    let pages = bytes.div_ceil(PAGE_BYTES);
                    let page = self.hash(site, request, attempt, 3) % pages;
                    return Some(FaultKind::PageFault {
                        offset: page * PAGE_BYTES,
                    });
                }
                if bytes > 0 && hit(r.partial) {
                    let processed = self.hash(site, request, attempt, 4) % bytes;
                    return Some(FaultKind::Partial { processed });
                }
                None
            }
        }
    }

    /// Draws the output-corruption fault for one completed attempt whose
    /// output is `out_len` bytes, if any.
    pub fn draw_output(&self, request: u64, attempt: u32, out_len: u64) -> Option<FaultKind> {
        if out_len == 0 {
            return None;
        }
        match &self.mode {
            Mode::None => None,
            Mode::Script(s) => s
                .iter()
                .find(|f| {
                    f.site == Site::Output
                        && f.request == request
                        && f.attempt == attempt
                        && matches!(
                            f.kind,
                            FaultKind::BitFlip { .. } | FaultKind::Truncate { .. }
                        )
                })
                .map(|f| f.kind),
            Mode::Seeded(r) => {
                let u = unit(self.hash(Site::Output, request, attempt, 1));
                if u >= r.corrupt {
                    return None;
                }
                let h = self.hash(Site::Output, request, attempt, 2);
                if h & 1 == 0 {
                    Some(FaultKind::BitFlip {
                        offset: (h >> 1) % out_len,
                        mask: 1 << ((h >> 32) % 8),
                    })
                } else {
                    Some(FaultKind::Truncate {
                        drop: 1 + (h >> 1) % out_len.min(64),
                    })
                }
            }
        }
    }

    /// Draws the worker-death fault for shard `shard` of `request`.
    pub fn draw_worker(&self, request: u64, shard: u64) -> bool {
        match &self.mode {
            Mode::None => false,
            Mode::Script(s) => s.iter().any(|f| {
                f.site == Site::Worker
                    && f.request == request
                    && u64::from(f.attempt) == shard
                    && f.kind == FaultKind::WorkerPanic
            }),
            Mode::Seeded(r) => {
                r.worker_panic > 0.0
                    && unit(self.hash(Site::Worker, request, shard as u32, 1)) < r.worker_panic
            }
        }
    }
}

/// Applies an output-corruption fault to `bytes` in place. Exposed so
/// the adversarial tests mutate streams with the same operators the
/// injector uses.
pub fn corrupt(kind: FaultKind, bytes: &mut Vec<u8>) {
    match kind {
        FaultKind::BitFlip { offset, mask } => {
            if let Some(b) = bytes.get_mut(offset as usize) {
                *b ^= if mask == 0 { 1 } else { mask };
            }
        }
        FaultKind::Truncate { drop } => {
            let keep = bytes.len().saturating_sub(drop as usize);
            bytes.truncate(keep);
        }
        _ => {}
    }
}

/// How the library recovers from faults.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryPolicy {
    /// Submission attempts before giving up on the accelerator
    /// (page-fault resubmissions count as attempts, bounding the loop
    /// even at fault rate 1.0).
    pub max_attempts: u32,
    /// First retry backoff; doubles per attempt.
    pub backoff_base: Duration,
    /// Backoff ceiling (capped exponential).
    pub backoff_cap: Duration,
    /// Pages touched *ahead* of a faulting page before resubmission
    /// (0 = touch only the faulting page — the plain retry protocol).
    pub touch_ahead_pages: u32,
    /// Degrade to the software path when the accelerator is unavailable
    /// or the attempt budget is exhausted; with `false`, those surface
    /// as typed errors instead.
    pub software_fallback: bool,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 8,
            backoff_base: Duration::from_micros(50),
            backoff_cap: Duration::from_millis(5),
            touch_ahead_pages: 0,
            software_fallback: true,
        }
    }
}

impl RecoveryPolicy {
    /// The touch-ahead mitigation profile: on a fault, touch the
    /// faulting page plus the next `pages` pages so the resubmission
    /// runs fault-free through the touched window.
    pub fn touch_ahead(pages: u32) -> Self {
        Self {
            touch_ahead_pages: pages,
            ..Self::default()
        }
    }

    /// The capped exponential backoff for retry `attempt` (0-based).
    pub fn backoff(&self, attempt: u32) -> Duration {
        let exp = attempt.min(20);
        self.backoff_base
            .saturating_mul(1u32 << exp.min(31))
            .min(self.backoff_cap)
    }
}

/// Atomic counters describing what was injected and how the library
/// recovered. All monotone; safe to read while requests are in flight.
#[derive(Debug, Default)]
pub struct FaultStats {
    /// Translation faults injected (and absorbed by resubmission).
    pub page_faults: AtomicU64,
    /// Error CSBs injected.
    pub csb_errors: AtomicU64,
    /// Partial completions injected.
    pub partials: AtomicU64,
    /// Queue-overflow rejections injected.
    pub queue_overflows: AtomicU64,
    /// Submission timeouts injected.
    pub timeouts: AtomicU64,
    /// Output corruptions injected.
    pub corruptions: AtomicU64,
    /// Corruptions the engine-CRC check caught (must equal
    /// `corruptions` — nothing corrupt ever escapes).
    pub corruptions_detected: AtomicU64,
    /// Accelerator-unavailable faults injected.
    pub unavailable: AtomicU64,
    /// Worker deaths injected into the parallel pool.
    pub worker_panics: AtomicU64,
    /// CRB resubmissions after faults/partials.
    pub resubmissions: AtomicU64,
    /// Whole-attempt retries (CSB error, timeout, overflow, corruption).
    pub retries: AtomicU64,
    /// Page faults suppressed because touch-ahead had already made the
    /// page resident.
    pub touch_ahead_suppressed: AtomicU64,
    /// Requests that degraded to the software path.
    pub software_fallbacks: AtomicU64,
    /// Parallel requests that fell back to the serial engine.
    pub serial_fallbacks: AtomicU64,
    /// Total backoff accounted (ns), whether or not it was slept.
    pub backoff_ns: AtomicU64,
}

macro_rules! stat_reader {
    ($($(#[$doc:meta])* $get:ident <- $field:ident;)*) => {$(
        $(#[$doc])*
        pub fn $get(&self) -> u64 {
            self.$field.load(Ordering::Relaxed)
        }
    )*};
}

impl FaultStats {
    stat_reader! {
        /// Translation faults injected.
        page_fault_count <- page_faults;
        /// Error CSBs injected.
        csb_error_count <- csb_errors;
        /// Partial completions injected.
        partial_count <- partials;
        /// Queue-overflow rejections injected.
        queue_overflow_count <- queue_overflows;
        /// Submission timeouts injected.
        timeout_count <- timeouts;
        /// Output corruptions injected.
        corruption_count <- corruptions;
        /// Corruptions detected by the engine-CRC check.
        corruption_detected_count <- corruptions_detected;
        /// Accelerator-unavailable faults injected.
        unavailable_count <- unavailable;
        /// Worker deaths injected.
        worker_panic_count <- worker_panics;
        /// CRB resubmissions after faults/partials.
        resubmission_count <- resubmissions;
        /// Whole-attempt retries.
        retry_count <- retries;
        /// Faults suppressed by touch-ahead residency.
        touch_ahead_suppressed_count <- touch_ahead_suppressed;
        /// Requests degraded to the software path.
        software_fallback_count <- software_fallbacks;
        /// Parallel requests degraded to the serial engine.
        serial_fallback_count <- serial_fallbacks;
        /// Total backoff accounted, in nanoseconds.
        backoff_ns_total <- backoff_ns;
    }

    pub(crate) fn bump(&self, counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

impl nx_telemetry::MetricSource for FaultStats {
    fn collect(&self, out: &mut Vec<(String, nx_telemetry::MetricValue)>) {
        use nx_telemetry::MetricValue::Counter;
        for (name, value) in [
            ("nx_fault_page_faults_total", self.page_fault_count()),
            ("nx_fault_csb_errors_total", self.csb_error_count()),
            ("nx_fault_partials_total", self.partial_count()),
            (
                "nx_fault_queue_overflows_total",
                self.queue_overflow_count(),
            ),
            ("nx_fault_timeouts_total", self.timeout_count()),
            ("nx_fault_corruptions_total", self.corruption_count()),
            (
                "nx_fault_corruptions_detected_total",
                self.corruption_detected_count(),
            ),
            ("nx_fault_unavailable_total", self.unavailable_count()),
            ("nx_fault_worker_panics_total", self.worker_panic_count()),
            ("nx_fault_resubmissions_total", self.resubmission_count()),
            ("nx_fault_retries_total", self.retry_count()),
            (
                "nx_fault_touch_ahead_suppressed_total",
                self.touch_ahead_suppressed_count(),
            ),
            (
                "nx_fault_software_fallbacks_total",
                self.software_fallback_count(),
            ),
            (
                "nx_fault_serial_fallbacks_total",
                self.serial_fallback_count(),
            ),
            ("nx_fault_backoff_ns_total", self.backoff_ns_total()),
        ] {
            out.push((name.to_string(), Counter(value)));
        }
    }
}

impl nx_telemetry::MetricSource for FaultInjector {
    fn collect(&self, out: &mut Vec<(String, nx_telemetry::MetricValue)>) {
        nx_telemetry::MetricSource::collect(&self.stats, out);
    }
}

/// A fault plan bound to a recovery policy and live counters — the
/// handle the recovery loops consult. One injector numbers its requests
/// with a shared monotone counter, so a plan's `(request, attempt)`
/// coordinates are stable within an injector's lifetime.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    policy: RecoveryPolicy,
    stats: FaultStats,
    next_request: AtomicU64,
}

impl FaultInjector {
    /// Binds `plan` to `policy` with fresh counters.
    pub fn new(plan: FaultPlan, policy: RecoveryPolicy) -> Self {
        Self {
            plan,
            policy,
            stats: FaultStats::default(),
            next_request: AtomicU64::new(0),
        }
    }

    /// The plan in force.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The recovery policy in force.
    pub fn policy(&self) -> &RecoveryPolicy {
        &self.policy
    }

    /// Live injection/recovery counters.
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// Allocates the next request index.
    pub fn begin_request(&self) -> u64 {
        self.next_request.fetch_add(1, Ordering::Relaxed)
    }

    /// Records the capped exponential backoff for retry `attempt` in
    /// [`FaultStats::backoff_ns`]; the library never sleeps it, so a
    /// faulted run is as fast and as deterministic as a clean one.
    pub fn take_backoff(&self, attempt: u32) {
        let d = self.policy.backoff(attempt);
        self.stats
            .backoff_ns
            .fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Draws and *accounts* the submission fault for one attempt,
    /// applying touch-ahead residency: a page fault whose page is
    /// already resident (touched by an earlier attempt of this request)
    /// is suppressed and recorded as such.
    pub fn submit_fault(
        &self,
        site: Site,
        request: u64,
        attempt: u32,
        bytes: u64,
        resident_pages: u64,
    ) -> Option<FaultKind> {
        let fault = self.plan.draw_submit(site, request, attempt, bytes)?;
        match fault {
            FaultKind::PageFault { offset } => {
                if offset < resident_pages * PAGE_BYTES {
                    self.stats.bump(&self.stats.touch_ahead_suppressed);
                    return None;
                }
                self.stats.bump(&self.stats.page_faults);
            }
            FaultKind::CsbError { .. } => self.stats.bump(&self.stats.csb_errors),
            FaultKind::Partial { .. } => self.stats.bump(&self.stats.partials),
            FaultKind::QueueOverflow => self.stats.bump(&self.stats.queue_overflows),
            FaultKind::SubmissionTimeout => self.stats.bump(&self.stats.timeouts),
            FaultKind::AccelUnavailable => self.stats.bump(&self.stats.unavailable),
            FaultKind::BitFlip { .. } | FaultKind::Truncate { .. } | FaultKind::WorkerPanic => {}
        }
        Some(fault)
    }

    /// Draws and accounts the output-corruption fault for one attempt.
    pub fn output_fault(&self, request: u64, attempt: u32, out_len: u64) -> Option<FaultKind> {
        let fault = self.plan.draw_output(request, attempt, out_len)?;
        self.stats.bump(&self.stats.corruptions);
        Some(fault)
    }

    /// Whether the worker handling `shard` of `request` should die, with
    /// accounting.
    pub fn worker_fault(&self, request: u64, shard: u64) -> bool {
        if self.plan.draw_worker(request, shard) {
            self.stats.bump(&self.stats.worker_panics);
            true
        } else {
            false
        }
    }
}

/// What the recovery protocol does about one submission attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Step {
    /// Nothing the submit phase reacts to: the attempt runs on the engine.
    Run,
    /// The accelerator is gone: degrade to the software path (or fail
    /// typed, when the policy forbids fallback).
    GiveUp,
    /// The fault consumed the attempt: account a `stage` span (`Retry` or
    /// `EratTouch`) of `cycles` over `bytes` with forensic word `detail`,
    /// then submit again. `retry` tells a whole-attempt retry with
    /// backoff (transient fault, caught corruption) from a resubmission
    /// (page touched, partial completion).
    Again {
        stage: Stage,
        cycles: u64,
        bytes: u64,
        detail: u64,
        retry: bool,
    },
}

/// The per-request recovery state machine: which fault is this, what
/// does absorbing it cost, does it consume an attempt. Pure — the
/// executor's recovery loop ([`crate::exec`]) turns its steps into spans
/// and counters, the storm driver into service cycles, so the two price
/// recovery identically by construction.
#[derive(Debug, Default)]
pub(crate) struct Recovery {
    policy: RecoveryPolicy,
    freq_ghz: f64,
    /// Submission attempts consumed so far.
    pub(crate) attempt: u32,
    /// Leading pages made resident by page-fault touches; a fault inside
    /// them cannot fire again.
    pub(crate) resident_pages: u64,
    /// The last fault absorbed (names the error when attempts run out).
    pub(crate) last_fault: Option<FaultKind>,
}

impl Recovery {
    pub(crate) fn new(policy: RecoveryPolicy, freq_ghz: f64) -> Self {
        Self {
            policy,
            freq_ghz,
            ..Self::default()
        }
    }

    /// Whether the attempt budget is spent.
    pub(crate) fn exhausted(&self) -> bool {
        self.attempt >= self.policy.max_attempts
    }

    /// Classifies the current attempt's submission-phase draw.
    pub(crate) fn submit(&mut self, fault: Option<FaultKind>) -> Step {
        let Some(fault) = fault else {
            return Step::Run;
        };
        // Retries pack (fault code << 8) | attempt into their detail word
        // so a flight dump names what caused each; a touch names its page.
        let code = (fault.detail_code() << 8) | u64::from(self.attempt & 0xFF);
        let (stage, cycles, bytes, detail, retry) = match fault {
            FaultKind::AccelUnavailable => return Step::GiveUp,
            // Output and worker faults strike after a clean submission.
            FaultKind::BitFlip { .. } | FaultKind::Truncate { .. } | FaultKind::WorkerPanic => {
                return Step::Run
            }
            // Transient: back off (capped exponential) and retry the
            // whole submission.
            FaultKind::QueueOverflow
            | FaultKind::SubmissionTimeout
            | FaultKind::CsbError { .. } => (Stage::Retry, self.backoff_cycles(), 0, code, true),
            // Touch the faulting page (plus the touch-ahead window) and
            // resubmit; everything up to the touched frontier is now
            // resident.
            FaultKind::PageFault { offset } => {
                let page = offset / PAGE_BYTES;
                let frontier = page + 1 + u64::from(self.policy.touch_ahead_pages);
                let touched = frontier.saturating_sub(self.resident_pages);
                self.resident_pages = frontier;
                let cycles = touched * TOUCH_CYCLES_PER_PAGE;
                (Stage::EratTouch, cycles, touched * PAGE_BYTES, page, false)
            }
            // The engine stopped early without an error; the library
            // resubmits the remainder (modeled as one more paste).
            FaultKind::Partial { .. } => (Stage::Retry, SUBMIT_CYCLES, 0, code, false),
        };
        self.again(fault, stage, cycles, bytes, detail, retry)
    }

    /// An in-flight corruption of the attempt that just ran, caught by
    /// the output integrity check: retried like a transient.
    pub(crate) fn corrupted(&mut self, fault: FaultKind) -> Step {
        let (cycles, detail) = (self.backoff_cycles(), u64::from(self.attempt));
        self.again(fault, Stage::Retry, cycles, 0, detail, true)
    }

    fn backoff_cycles(&self) -> u64 {
        nx_telemetry::duration_to_cycles(self.policy.backoff(self.attempt), self.freq_ghz)
    }

    fn again(
        &mut self,
        fault: FaultKind,
        stage: Stage,
        cycles: u64,
        bytes: u64,
        detail: u64,
        retry: bool,
    ) -> Step {
        self.last_fault = Some(fault);
        self.attempt += 1;
        Step::Again {
            stage,
            cycles,
            bytes,
            detail,
            retry,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_are_pure_and_replayable() {
        let plan = FaultPlan::seeded(42, FaultRates::sweep(0.3));
        for req in 0..50u64 {
            for attempt in 0..4u32 {
                let a = plan.draw_submit(Site::Decompress, req, attempt, 1 << 20);
                let b = plan.draw_submit(Site::Decompress, req, attempt, 1 << 20);
                assert_eq!(a, b);
                assert_eq!(
                    plan.draw_output(req, attempt, 4096),
                    plan.draw_output(req, attempt, 4096)
                );
            }
        }
        // A clone replays identically too.
        let plan2 = plan.clone();
        assert_eq!(
            plan.draw_submit(Site::Compress, 7, 1, 8192),
            plan2.draw_submit(Site::Compress, 7, 1, 8192)
        );
    }

    #[test]
    fn zero_rates_never_fault() {
        let plan = FaultPlan::seeded(7, FaultRates::none());
        for req in 0..200u64 {
            assert_eq!(plan.draw_submit(Site::Compress, req, 0, 1 << 20), None);
            assert_eq!(plan.draw_output(req, 0, 1 << 20), None);
            assert!(!plan.draw_worker(req, 0));
        }
        assert!(!plan.is_active());
        assert!(FaultPlan::seeded(7, FaultRates::sweep(0.1)).is_active());
    }

    #[test]
    fn rates_shape_the_draw_distribution() {
        let plan = FaultPlan::seeded(
            99,
            FaultRates {
                page_fault: 0.3,
                ..FaultRates::none()
            },
        );
        let faults = (0..2000u64)
            .filter(|&r| plan.draw_submit(Site::Compress, r, 0, 1 << 20).is_some())
            .count();
        let rate = faults as f64 / 2000.0;
        assert!((0.25..0.35).contains(&rate), "observed {rate}");
    }

    #[test]
    fn page_fault_offsets_are_page_aligned_and_in_range() {
        let plan = FaultPlan::seeded(5, FaultRates::sweep(1.0));
        let bytes = 37 * PAGE_BYTES + 511;
        for r in 0..300u64 {
            if let Some(FaultKind::PageFault { offset }) =
                plan.draw_submit(Site::Decompress, r, 0, bytes)
            {
                assert_eq!(offset % PAGE_BYTES, 0);
                assert!(offset < bytes);
            }
        }
    }

    #[test]
    fn scripted_faults_fire_exactly_where_scripted() {
        let plan = FaultPlan::script(vec![
            Scripted {
                site: Site::Decompress,
                request: 2,
                attempt: 0,
                kind: FaultKind::AccelUnavailable,
            },
            Scripted {
                site: Site::Output,
                request: 3,
                attempt: 0,
                kind: FaultKind::BitFlip { offset: 5, mask: 4 },
            },
        ]);
        assert_eq!(plan.draw_submit(Site::Decompress, 1, 0, 100), None);
        assert_eq!(
            plan.draw_submit(Site::Decompress, 2, 0, 100),
            Some(FaultKind::AccelUnavailable)
        );
        assert_eq!(plan.draw_submit(Site::Decompress, 2, 1, 100), None);
        assert_eq!(
            plan.draw_output(3, 0, 100),
            Some(FaultKind::BitFlip { offset: 5, mask: 4 })
        );
        assert_eq!(plan.draw_output(3, 1, 100), None);
    }

    #[test]
    fn corrupt_operators_change_or_shrink_bytes() {
        let mut v = vec![0u8; 16];
        corrupt(
            FaultKind::BitFlip {
                offset: 3,
                mask: 0x10,
            },
            &mut v,
        );
        assert_eq!(v[3], 0x10);
        corrupt(FaultKind::Truncate { drop: 5 }, &mut v);
        assert_eq!(v.len(), 11);
        // Out-of-range flip and over-length truncate are clamped, not
        // panics.
        corrupt(
            FaultKind::BitFlip {
                offset: 999,
                mask: 1,
            },
            &mut v,
        );
        corrupt(FaultKind::Truncate { drop: 999 }, &mut v);
        assert!(v.is_empty());
    }

    #[test]
    fn backoff_is_capped_exponential() {
        let p = RecoveryPolicy::default();
        assert_eq!(p.backoff(0), p.backoff_base);
        assert_eq!(p.backoff(1), p.backoff_base * 2);
        assert_eq!(p.backoff(2), p.backoff_base * 4);
        assert_eq!(p.backoff(30), p.backoff_cap);
        assert!(p.backoff(7) <= p.backoff_cap);
    }

    #[test]
    fn injector_accounts_draws_and_touch_ahead_suppression() {
        let inj = FaultInjector::new(
            FaultPlan::seeded(
                11,
                FaultRates {
                    page_fault: 1.0,
                    ..FaultRates::none()
                },
            ),
            RecoveryPolicy::touch_ahead(4),
        );
        let req = inj.begin_request();
        let bytes = 8 * PAGE_BYTES;
        let f = inj.submit_fault(Site::Compress, req, 0, bytes, 0);
        assert!(matches!(f, Some(FaultKind::PageFault { .. })));
        assert_eq!(inj.stats().page_fault_count(), 1);
        // With the whole range resident, the same draw is suppressed.
        let f2 = inj.submit_fault(Site::Compress, req, 0, bytes, 8);
        assert_eq!(f2, None);
        assert_eq!(inj.stats().touch_ahead_suppressed_count(), 1);
        inj.take_backoff(3);
        assert!(inj.stats().backoff_ns_total() > 0);
    }

    #[test]
    fn request_numbering_is_monotone() {
        let inj = FaultInjector::new(FaultPlan::none(), RecoveryPolicy::default());
        assert_eq!(inj.begin_request(), 0);
        assert_eq!(inj.begin_request(), 1);
        assert_eq!(inj.begin_request(), 2);
    }
}
