//! `nx-core::service` — the multi-tenant accelerator front end.
//!
//! The paper's central systems contribution (§IV) is *sharing*: thousands
//! of user-space processes submit CRBs to one on-die engine through VAS
//! windows, and credit-based flow control keeps a storm of tenants from
//! starving each other. This module productionizes that model on top of
//! the existing engine:
//!
//! * Each tenant opens a **receive window** ([`TenantHandle`]) with a
//!   credit budget — one credit per in-flight request, exactly the
//!   POWER9 VAS RX-window credit accounting (a paste into a full window
//!   fails).
//! * Admission is **typed**: a submission either takes a credit and
//!   enters the per-tenant queue, or is rejected with
//!   [`ServiceError::NoCredit`] (window exhausted) or
//!   [`ServiceError::QueueFull`] (global engine queue at its bounded
//!   depth). Rejections are attributed in [`NxStats`](crate::NxStats)
//!   (`credit_rejects` / `depth_rejects`) so backpressure is observable.
//! * A **deficit-weighted round-robin** ([`sched::DwrrScheduler`]) drains
//!   the per-tenant queues by QoS class ([`QosClass`]): `Latency` tenants
//!   get ~16× the byte share of `Background` under contention, and no
//!   backlogged tenant is ever starved.
//! * Tiny payloads (≤ the configured coalesce limit) are **coalesced**
//!   into one engine submission of up to `coalesce_batch` requests and
//!   de-multiplexed on completion, amortizing the per-paste submission
//!   cost for RPC-sized traffic.
//!
//! All of that is one thread-free state machine, [`sched`]'s
//! `ServiceCore`. [`NxService`] here is its threaded driver (the core
//! behind a mutex, a wake-up channel and one request executor); the
//! deterministic open-loop storm in [`loadgen`] is its virtual-clock
//! driver, which is how the fairness and tail-latency properties are
//! tested without timing flakiness — on the machinery that ships.
//! An [`AsyncSession`](crate::AsyncSession) is a service of its own with
//! one window, so it is the same queue and the same driver.

pub mod loadgen;
pub mod sched;

pub use loadgen::{run_storm, run_storm_faulted, LoadGen, StormConfig, StormReport, TenantLoad};
pub use sched::{jain_index, CreditAccount, DwrrScheduler, QosClass, Rejected, TenantSpec};

use crate::exec::Executor;
use crate::framing::Format;
use crate::scratch::BufferPool;
use crate::stats::NxStats;
use crate::{CompressOptions, Compressed, Nx, COMPLETE_CYCLES, SUBMIT_CYCLES};
use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use nx_telemetry::{LogHistogram, MetricSource, MetricValue, TelemetrySink, TraceContext};
use parking_lot::Mutex;
use sched::{request_spans, Admitted, Batch, ServiceCore, DISPATCH_SEQ};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Service tuning knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Global bound on queued-but-undispatched requests across all
    /// tenants (the shared engine queue depth). Admissions beyond it are
    /// rejected [`ServiceError::QueueFull`].
    pub engine_depth: usize,
    /// DWRR byte grant per weight unit per ring pass.
    pub quantum_bytes: u64,
    /// Payloads at or under this size are eligible for coalescing into
    /// one engine submission (0 disables coalescing).
    pub coalesce_limit: u64,
    /// Max requests per coalesced submission.
    pub coalesce_batch: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            engine_depth: 256,
            quantum_bytes: 32 << 10,
            coalesce_limit: 4096,
            coalesce_batch: 8,
        }
    }
}

/// Typed service-path errors. Admission never silently drops work: a
/// submission either enters the queue or returns one of these.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ServiceError {
    /// The tenant's receive window is out of credits.
    NoCredit,
    /// The shared engine queue is at its bounded depth.
    QueueFull,
    /// The service was closed before the request completed.
    Closed,
    /// The engine failed the request with a typed error (only reachable
    /// under fault injection with software fallback disabled).
    Engine(crate::Error),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::NoCredit => write!(f, "receive window out of credits"),
            ServiceError::QueueFull => write!(f, "engine queue at bounded depth"),
            ServiceError::Closed => write!(f, "service closed"),
            ServiceError::Engine(e) => write!(f, "engine error: {e}"),
        }
    }
}

impl From<Rejected> for ServiceError {
    fn from(r: Rejected) -> Self {
        match r {
            Rejected::NoCredit => ServiceError::NoCredit,
            Rejected::QueueFull => ServiceError::QueueFull,
            Rejected::Closed => ServiceError::Closed,
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Engine(e) => Some(e),
            _ => None,
        }
    }
}

/// A completed service request: the compression result plus the
/// per-tenant sequence numbers the ordering tests assert on.
#[derive(Debug)]
pub struct Served {
    /// The compression result.
    pub compressed: Compressed,
    /// Per-tenant admission sequence number (0-based, assigned at
    /// admission in submission order).
    pub admit_seq: u64,
    /// Per-tenant completion sequence number. The scheduler keeps each
    /// tenant's queue FIFO, so `complete_seq == admit_seq` for every
    /// request of a tenant.
    pub complete_seq: u64,
    /// Number of requests in the engine submission this rode in
    /// (>1 means it was coalesced).
    pub batched: usize,
    /// Modeled request latency in engine cycles (amortized submit +
    /// engine + completion).
    pub latency_cycles: u64,
}

/// Completion handle for one admitted request.
#[derive(Debug)]
pub struct Ticket {
    rx: Receiver<Result<Served, ServiceError>>,
}

impl Ticket {
    /// Blocks until the request completes or fails typed.
    pub fn wait(self) -> Result<Served, ServiceError> {
        self.rx.recv().unwrap_or(Err(ServiceError::Closed))
    }

    /// Bounded wait; hands the ticket back on timeout.
    pub fn wait_timeout(self, timeout: Duration) -> Result<Result<Served, ServiceError>, Ticket> {
        match self.rx.recv_timeout(timeout) {
            Ok(r) => Ok(r),
            Err(crossbeam::channel::RecvTimeoutError::Timeout) => Err(self),
            Err(crossbeam::channel::RecvTimeoutError::Disconnected) => {
                Ok(Err(ServiceError::Closed))
            }
        }
    }
}

/// One queued request.
struct Job {
    data: Vec<u8>,
    format: Format,
    opts: CompressOptions,
    admitted: Admitted,
    /// Trace root minted at admission (ids follow admission order); the
    /// engine thread lays the request's whole timeline on it.
    ctx: TraceContext,
    reply: Sender<Result<Served, ServiceError>>,
}

struct Shared {
    /// The service state machine; every admission, dispatch and
    /// completion is one short critical section on it.
    core: Mutex<ServiceCore<Job>>,
    /// Wake-up tokens: one after every push and one after close, on an
    /// unbounded channel, so an idle engine thread can block on it.
    signal: Sender<()>,
    /// Notified after every dispatch and at close: a submitter waiting
    /// for room in the engine queue blocks on it.
    room: Condvar,
    /// The handle's buffer pool: each job's input goes back to it once
    /// compressed.
    pool: Arc<BufferPool>,
    nx_stats: Arc<NxStats>,
    stats: Arc<ServiceStats>,
    /// The engine handle's sink: admission mints trace contexts here so
    /// service spans and engine spans share one ring (and one sampler).
    telemetry: TelemetrySink,
}

// Jobs hold reply channels, so the core is elided.
impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared").finish_non_exhaustive()
    }
}

/// Per-tenant observable counters + histograms, exported through
/// `nx-telemetry` as the `nx-service` metric source.
#[derive(Debug)]
pub struct TenantStats {
    name: String,
    class: QosClass,
    credits: u32,
    submitted: AtomicU64,
    admitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    rejected_no_credit: AtomicU64,
    rejected_queue_full: AtomicU64,
    coalesced_requests: AtomicU64,
    /// Modeled per-request latency (cycles).
    latency: LogHistogram,
    /// Tenant queue depth sampled at each admission.
    depth: LogHistogram,
}

impl TenantStats {
    fn new(spec: &TenantSpec) -> Self {
        Self {
            name: spec.name.clone(),
            class: spec.class,
            credits: spec.credits,
            submitted: AtomicU64::new(0),
            admitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            rejected_no_credit: AtomicU64::new(0),
            rejected_queue_full: AtomicU64::new(0),
            coalesced_requests: AtomicU64::new(0),
            latency: LogHistogram::new(),
            depth: LogHistogram::new(),
        }
    }

    /// Tenant name (metric label).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The tenant's QoS class.
    pub fn class(&self) -> QosClass {
        self.class
    }

    /// The window's credit budget.
    pub fn credits(&self) -> u32 {
        self.credits
    }

    /// Submission attempts (admitted + rejected).
    pub fn submitted(&self) -> u64 {
        self.submitted.load(Ordering::Relaxed)
    }

    /// Requests admitted into the queue.
    pub fn admitted(&self) -> u64 {
        self.admitted.load(Ordering::Relaxed)
    }

    /// Requests completed successfully.
    pub fn completed(&self) -> u64 {
        self.completed.load(Ordering::Relaxed)
    }

    /// Requests that failed typed after admission.
    pub fn failed(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }

    /// Submissions rejected for lack of window credit.
    pub fn rejected_no_credit(&self) -> u64 {
        self.rejected_no_credit.load(Ordering::Relaxed)
    }

    /// Submissions rejected by the global depth bound.
    pub fn rejected_queue_full(&self) -> u64 {
        self.rejected_queue_full.load(Ordering::Relaxed)
    }

    /// Requests that rode in a coalesced submission.
    pub fn coalesced_requests(&self) -> u64 {
        self.coalesced_requests.load(Ordering::Relaxed)
    }

    /// Modeled per-request latency histogram (cycles).
    pub fn latency(&self) -> &LogHistogram {
        &self.latency
    }

    /// Tenant queue-depth histogram (sampled at admission).
    pub fn depth(&self) -> &LogHistogram {
        &self.depth
    }
}

/// Aggregate service statistics: one [`TenantStats`] per window plus
/// engine-side batch counters.
#[derive(Debug, Default)]
pub struct ServiceStats {
    tenants: Mutex<Vec<Arc<TenantStats>>>,
    batches: AtomicU64,
    coalesced_batches: AtomicU64,
}

impl ServiceStats {
    /// Snapshot of every tenant's stats handle.
    pub fn tenants(&self) -> Vec<Arc<TenantStats>> {
        self.tenants.lock().clone()
    }

    /// Engine submissions performed (batches, coalesced or not).
    pub fn batches(&self) -> u64 {
        self.batches.load(Ordering::Relaxed)
    }

    /// Engine submissions that carried more than one request.
    pub fn coalesced_batches(&self) -> u64 {
        self.coalesced_batches.load(Ordering::Relaxed)
    }
}

impl MetricSource for ServiceStats {
    fn collect(&self, out: &mut Vec<(String, MetricValue)>) {
        let tenants = self.tenants.lock().clone();
        for t in &tenants {
            let label = format!("{{tenant=\"{}\",class=\"{}\"}}", t.name, t.class.name());
            out.push((
                format!("nx_service_submitted_total{label}"),
                MetricValue::Counter(t.submitted()),
            ));
            out.push((
                format!("nx_service_admitted_total{label}"),
                MetricValue::Counter(t.admitted()),
            ));
            out.push((
                format!("nx_service_completed_total{label}"),
                MetricValue::Counter(t.completed()),
            ));
            out.push((
                format!("nx_service_failed_total{label}"),
                MetricValue::Counter(t.failed()),
            ));
            let creds = format!(
                "{{tenant=\"{}\",class=\"{}\",cause=\"credit\"}}",
                t.name,
                t.class.name()
            );
            out.push((
                format!("nx_service_rejected_total{creds}"),
                MetricValue::Counter(t.rejected_no_credit()),
            ));
            let depth = format!(
                "{{tenant=\"{}\",class=\"{}\",cause=\"depth\"}}",
                t.name,
                t.class.name()
            );
            out.push((
                format!("nx_service_rejected_total{depth}"),
                MetricValue::Counter(t.rejected_queue_full()),
            ));
            out.push((
                format!("nx_service_coalesced_requests_total{label}"),
                MetricValue::Counter(t.coalesced_requests()),
            ));
            out.push((
                format!("nx_service_latency_cycles{label}"),
                MetricValue::Histogram(t.latency.snapshot()),
            ));
            out.push((
                format!("nx_service_queue_depth{label}"),
                MetricValue::Histogram(t.depth.snapshot()),
            ));
        }
        out.push((
            "nx_service_batches_total".to_string(),
            MetricValue::Counter(self.batches()),
        ));
        out.push((
            "nx_service_coalesced_batches_total".to_string(),
            MetricValue::Counter(self.coalesced_batches()),
        ));
    }
}

/// The multi-tenant service: per-tenant receive windows over one shared
/// engine, DWRR-scheduled, credit-admitted.
///
/// Built with [`Nx::service`]; dropped or [`close`](Self::close)d, it
/// drains every admitted request before the engine thread exits.
#[derive(Debug)]
pub struct NxService {
    shared: Arc<Shared>,
    engine: Option<JoinHandle<()>>,
}

/// One tenant's receive window: the submission handle.
///
/// Cloning shares the window (and its credit budget) — the same way
/// multiple threads of one process share a VAS window.
#[derive(Debug, Clone)]
pub struct TenantHandle {
    shared: Arc<Shared>,
    tenant: usize,
    stats: Arc<TenantStats>,
    /// Default options for [`submit`](Self::submit) — e.g. a per-tenant
    /// canned profile set at window-open time. Per-request
    /// [`submit_with`](Self::submit_with) overrides them.
    opts: CompressOptions,
}

impl Nx {
    /// Opens a multi-tenant service over this accelerator handle.
    ///
    /// The service's engine thread owns a request executor bound to this
    /// handle's stats, fault injector, profiles and telemetry: requests
    /// go through the same routing and recovery protocol as direct calls,
    /// and if the handle has an attached telemetry registry, per-tenant
    /// metrics register as the `nx-service` source.
    pub fn service(&self, config: ServiceConfig) -> NxService {
        let (mut service, exec, wake) = NxService::paused(self, config);
        let shared = Arc::clone(&service.shared);
        service.engine = std::thread::Builder::new()
            .name("nx-service".into())
            .spawn(move || NxService::engine_loop(exec, shared, wake))
            .ok();
        service
    }
}

impl NxService {
    /// The service without its engine thread: admissions queue, nothing
    /// dispatches until [`engine_loop`](Self::engine_loop) runs on the
    /// returned executor and wake-up channel.
    fn paused(nx: &Nx, config: ServiceConfig) -> (Self, Executor, Receiver<()>) {
        let exec = nx.executor();
        let core = ServiceCore::new(&config);
        let stats = Arc::clone(core.stats());
        if let Some(reg) = exec.env().telemetry.registry() {
            reg.register_source("nx-service", Arc::clone(&stats) as Arc<dyn MetricSource>);
        }
        let (signal, wake) = unbounded::<()>();
        let shared = Arc::new(Shared {
            core: Mutex::new(core),
            signal,
            room: Condvar::new(),
            pool: Arc::clone(&nx.pool),
            nx_stats: Arc::clone(&exec.env().stats),
            stats,
            telemetry: exec.env().telemetry.clone(),
        });
        let service = Self {
            shared,
            engine: None,
        };
        (service, exec, wake)
    }

    /// Opens a receive window for a new tenant and returns its handle.
    pub fn open_window(&self, spec: TenantSpec) -> TenantHandle {
        self.open_window_with(spec, CompressOptions::default())
    }

    /// As [`open_window`](Self::open_window) with per-tenant default
    /// [`CompressOptions`] — the way a tenant binds a canned profile (or
    /// level/engine choice) once at window-open instead of per request.
    pub fn open_window_with(&self, spec: TenantSpec, opts: CompressOptions) -> TenantHandle {
        let mut core = self.shared.core.lock();
        let tenant = core.open_window(&spec);
        let stats = Arc::clone(core.tenant_stats(tenant));
        drop(core);
        TenantHandle {
            shared: Arc::clone(&self.shared),
            tenant,
            stats,
            opts,
        }
    }

    /// Aggregate service statistics.
    pub fn stats(&self) -> &Arc<ServiceStats> {
        &self.shared.stats
    }

    /// Verifies credit conservation across all windows: no credits held,
    /// every admitted request completed or failed typed. Meaningful once
    /// all tickets have been waited on.
    pub fn credits_conserved(&self) -> bool {
        self.shared.core.lock().violations() == 0
    }

    /// Closes the service: admissions stop, queued requests drain, the
    /// engine thread exits.
    pub fn close(mut self) {
        self.close_inner();
    }

    pub(crate) fn close_inner(&mut self) {
        self.shared.core.lock().close();
        self.shared.room.notify_all();
        let _ = self.shared.signal.send(());
        if let Some(h) = self.engine.take() {
            let _ = h.join();
        }
    }

    fn engine_loop(mut exec: Executor, shared: Arc<Shared>, wake: Receiver<()>) {
        loop {
            let (batch, open) = {
                let mut core = shared.core.lock();
                (core.next_batch(), core.is_open())
            };
            match batch {
                Some(batch) => {
                    shared.room.notify_all();
                    Self::serve(&mut exec, &shared, batch)
                }
                // Every push and the close are followed by a token, so a
                // blocking wait cannot miss either.
                None if open => {
                    let _ = wake.recv();
                }
                None => return,
            }
        }
    }

    /// Executes one engine submission: the paste cost is paid once and
    /// amortized across the coalesced requests, then completions are
    /// de-multiplexed to their tickets.
    fn serve(exec: &mut Executor, shared: &Shared, batch: Batch<Job>) {
        let n = batch.items.len();
        let submit_share = SUBMIT_CYCLES / n.max(1) as u64;
        for job in batch.items {
            // The request's timeline, one trace id end to end: queue
            // wait is modeled from the depth observed at admission, the
            // dispatch span carries the amortized paste share, and the
            // engine stages hang under it.
            let (ctx, depth) = (job.ctx, job.admitted.depth_at_admit);
            let mut at = 0;
            for span in request_spans(
                ctx.trace_id,
                batch.tenant as u32,
                job.data.len() as u64,
                (depth * SUBMIT_CYCLES, depth),
                (submit_share, n as u64),
                None,
            ) {
                if ctx.sampled {
                    shared.telemetry.span(&span);
                }
                at = span.start_cycles + span.dur_cycles;
            }
            let child = ctx.child(DISPATCH_SEQ, DISPATCH_SEQ + 1, at);
            let mut bytes = Vec::new();
            let result = exec
                .compress_into(&job.data, job.format, job.opts, Some(&child), &mut bytes)
                .map(|report| Compressed { bytes, report });
            shared.pool.release(job.data);
            let mut core = shared.core.lock();
            let complete_seq = core.complete(batch.tenant, result.is_ok());
            let reply = result.map_err(ServiceError::Engine).map(|compressed| {
                let latency = submit_share + compressed.report.cycles + COMPLETE_CYCLES;
                // Sampled requests leave their trace id as the latency
                // bucket's exemplar: the tail of this histogram links
                // straight to a span breakdown.
                let histogram = &core.tenant_stats(batch.tenant).latency;
                if ctx.sampled {
                    histogram.record_traced(latency, ctx.trace_id);
                } else {
                    histogram.record(latency);
                }
                Served {
                    compressed,
                    admit_seq: job.admitted.admit_seq,
                    complete_seq,
                    batched: n,
                    latency_cycles: latency,
                }
            });
            drop(core);
            let _ = job.reply.send(reply);
        }
    }
}

impl Drop for NxService {
    fn drop(&mut self) {
        self.close_inner();
    }
}

impl TenantHandle {
    /// Submits a compression request at default options.
    ///
    /// # Errors
    ///
    /// [`ServiceError::NoCredit`] when the window's credits are all in
    /// flight; [`ServiceError::QueueFull`] when the global engine queue is
    /// at depth; [`ServiceError::Closed`] after shutdown. Rejections never
    /// consume a credit.
    pub fn submit(&self, data: Vec<u8>, format: Format) -> Result<Ticket, ServiceError> {
        self.submit_with(data, format, self.opts)
    }

    /// The window's default [`CompressOptions`], as fixed at
    /// [`NxService::open_window_with`].
    pub fn default_options(&self) -> CompressOptions {
        self.opts
    }

    /// As [`submit`](Self::submit) with explicit [`CompressOptions`].
    ///
    /// # Errors
    ///
    /// As [`submit`](Self::submit).
    pub fn submit_with(
        &self,
        data: Vec<u8>,
        format: Format,
        opts: CompressOptions,
    ) -> Result<Ticket, ServiceError> {
        self.enqueue(data, format, opts, false)
    }

    /// As [`submit_with`](Self::submit_with); with `wait_for_room` a full
    /// engine queue blocks the caller until a dispatch makes room instead
    /// of rejecting [`ServiceError::QueueFull`]. Admission runs once
    /// either way, so a wait is never counted as a rejected attempt.
    pub(crate) fn enqueue(
        &self,
        data: Vec<u8>,
        format: Format,
        opts: CompressOptions,
        wait_for_room: bool,
    ) -> Result<Ticket, ServiceError> {
        let bytes = data.len() as u64;
        let (reply, rx) = bounded(1);
        let mut core = self.shared.core.lock();
        while wait_for_room && core.is_open() && !core.has_room() {
            core = self
                .shared
                .room
                .wait(core)
                .unwrap_or_else(PoisonError::into_inner);
        }
        let admitted = core.admit(self.tenant, bytes, |admitted| Job {
            data,
            format,
            opts,
            admitted,
            // Minted under the core's lock, for accepted requests only:
            // trace ids (and the sampler) follow admission order.
            ctx: self.shared.telemetry.begin_trace(),
            reply,
        });
        drop(core);
        match admitted {
            Ok(_) => {
                let _ = self.shared.signal.send(());
                Ok(Ticket { rx })
            }
            Err(rejected) => {
                match rejected {
                    Rejected::NoCredit => self.shared.nx_stats.record_credit_reject(),
                    Rejected::QueueFull => self.shared.nx_stats.record_depth_reject(),
                    Rejected::Closed => {}
                }
                Err(rejected.into())
            }
        }
    }

    /// This window's observable statistics.
    pub fn stats(&self) -> &Arc<TenantStats> {
        &self.stats
    }

    /// Credits currently available in this window.
    pub fn credits_available(&self) -> u32 {
        self.shared.core.lock().credits(self.tenant).available()
    }
}
