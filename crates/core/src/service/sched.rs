//! The service state machine: credit admission, deficit-weighted
//! round-robin dispatch and completion accounting for the multi-tenant
//! service.
//!
//! This module is the pure core of `nx-core::service`: no threads, no
//! clocks, no channels. `ServiceCore` owns everything the sharing
//! discipline decides — the receive windows (credits, sequence numbers,
//! counters), the depth bound, the open/closed flag, the scheduler — and
//! both drivers are thin loops over it: the threaded
//! [`super::NxService`] and the virtual-time storm in [`super::loadgen`].
//! A property shown on one is shown on the code the other runs.
//!
//! Model (paper §IV): every tenant owns a *receive window* with a fixed
//! credit budget — one credit per in-flight request, mirroring VAS RX-window
//! credits — and a FIFO queue. The engine pulls work with a classic
//! deficit-weighted round-robin: each pass over the active ring grants a
//! tenant `quantum × weight(class)` deficit bytes; the tenant dequeues while
//! its head request fits in the accumulated deficit. Tiny payloads
//! (≤ `coalesce_limit` bytes) may be coalesced into one engine submission of
//! up to `coalesce_batch` requests, amortizing the per-paste submission cost
//! the same way the NX library batches small CRBs.

use super::{ServiceConfig, ServiceStats, TenantStats};
use crate::{COMPLETE_CYCLES, SUBMIT_CYCLES};
use nx_telemetry::{SpanEvent, Stage, NO_PARENT};
use std::collections::VecDeque;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

/// Quality-of-service class carried by every request.
///
/// The class picks the DWRR weight: `Latency` tenants drain ~16× faster than
/// `Background` tenants under contention, which is what keeps interactive
/// p99 below batch p50 in the storm tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QosClass {
    /// Interactive traffic: small payloads, tail-latency sensitive.
    Latency,
    /// Bulk transfers that want bandwidth but tolerate queueing.
    Throughput,
    /// Best-effort scans; must not starve but may wait.
    Background,
}

impl QosClass {
    /// DWRR weight for the class.
    pub fn weight(self) -> u64 {
        match self {
            QosClass::Latency => 16,
            QosClass::Throughput => 4,
            QosClass::Background => 1,
        }
    }

    /// Stable lowercase name (metric label value).
    pub fn name(self) -> &'static str {
        match self {
            QosClass::Latency => "latency",
            QosClass::Throughput => "throughput",
            QosClass::Background => "background",
        }
    }
}

/// Declares one tenant: its name (metric label), QoS class, and receive
/// window credit budget (max in-flight admitted requests).
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Tenant name, used as the `tenant` metric label.
    pub name: String,
    /// QoS class of every request this tenant submits.
    pub class: QosClass,
    /// Receive-window credit budget: max admitted-but-incomplete requests.
    pub credits: u32,
}

impl TenantSpec {
    /// Builds a spec.
    pub fn new(name: &str, class: QosClass, credits: u32) -> Self {
        Self {
            name: name.to_string(),
            class,
            credits: credits.max(1),
        }
    }
}

/// Typed admission rejection — the service never silently drops work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rejected {
    /// The tenant's receive window is out of credits (per-tenant limit).
    NoCredit,
    /// The shared engine queue is at its bounded depth (global limit).
    QueueFull,
    /// The service was closed; it admits nothing more.
    Closed,
}

/// Per-tenant credit accounting for a receive window.
///
/// One credit is held per admitted request and returned when the request
/// completes or fails. `conservation_ok` is the invariant the property
/// tests check: at drain, every admitted request has completed or failed
/// and the full budget is available again.
#[derive(Debug, Clone)]
pub struct CreditAccount {
    total: u32,
    in_flight: u32,
    admitted: u64,
    completed: u64,
    failed: u64,
    stalls: u64,
}

impl CreditAccount {
    /// New account with `total` credits available.
    pub fn new(total: u32) -> Self {
        Self {
            total: total.max(1),
            in_flight: 0,
            admitted: 0,
            completed: 0,
            failed: 0,
            stalls: 0,
        }
    }

    /// Tries to take one credit. On success the request counts as admitted;
    /// on failure the stall counter bumps and nothing changes.
    pub fn try_acquire(&mut self) -> bool {
        if self.in_flight < self.total {
            self.in_flight += 1;
            self.admitted += 1;
            true
        } else {
            self.stalls += 1;
            false
        }
    }

    /// Returns the most recently acquired credit without counting the
    /// request as completed or failed — used when admission passes the
    /// credit check but a later check (queue depth) rejects the request.
    pub fn cancel(&mut self) {
        debug_assert!(self.in_flight > 0 && self.admitted > 0);
        self.in_flight = self.in_flight.saturating_sub(1);
        self.admitted = self.admitted.saturating_sub(1);
    }

    /// Returns a credit for a successfully completed request.
    pub fn complete(&mut self) {
        debug_assert!(self.in_flight > 0);
        self.in_flight = self.in_flight.saturating_sub(1);
        self.completed += 1;
    }

    /// Returns a credit for a request that failed with a typed error.
    pub fn fail(&mut self) {
        debug_assert!(self.in_flight > 0);
        self.in_flight = self.in_flight.saturating_sub(1);
        self.failed += 1;
    }

    /// Credits currently available.
    pub fn available(&self) -> u32 {
        self.total - self.in_flight
    }

    /// Credits currently held by in-flight requests.
    pub fn in_flight(&self) -> u32 {
        self.in_flight
    }

    /// Total budget.
    pub fn total(&self) -> u32 {
        self.total
    }

    /// Requests ever admitted.
    pub fn admitted(&self) -> u64 {
        self.admitted
    }

    /// Requests completed successfully.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Requests that failed typed.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Admissions rejected for lack of credit.
    pub fn stalls(&self) -> u64 {
        self.stalls
    }

    /// Conservation invariant at drain: no credit leaked, every admitted
    /// request accounted for.
    pub fn conservation_ok(&self) -> bool {
        self.in_flight == 0 && self.admitted == self.completed + self.failed
    }
}

/// One queued request inside the scheduler.
#[derive(Debug)]
struct Entry<T> {
    item: T,
    bytes: u64,
}

/// A batch of requests the engine executes as one submission.
///
/// `items.len() > 1` only when every member is coalescible
/// (≤ `coalesce_limit` bytes) and from the same tenant; the engine pays the
/// submit cost once for the whole batch and de-multiplexes completions.
#[derive(Debug)]
pub struct Batch<T> {
    /// Index of the tenant the batch belongs to.
    pub tenant: usize,
    /// The dequeued requests, in FIFO order.
    pub items: Vec<T>,
    /// Total payload bytes across `items`.
    pub bytes: u64,
    /// True when more than one request was coalesced into the batch.
    pub coalesced: bool,
}

/// Deficit-weighted round-robin scheduler over per-tenant FIFO queues.
///
/// Work-conserving and starvation-free: every pass over the active ring
/// adds `quantum × weight` to a tenant's deficit, so a queue whose head is
/// `B` bytes is served within `ceil(B / (quantum × weight))` ring passes.
/// Deficits reset when a queue empties (no banking credit while idle).
#[derive(Debug)]
pub struct DwrrScheduler<T> {
    queues: Vec<VecDeque<Entry<T>>>,
    weights: Vec<u64>,
    deficits: Vec<u64>,
    ring: VecDeque<usize>,
    in_ring: Vec<bool>,
    /// Tenant currently being served within its round grant (kept out of
    /// the ring until its deficit no longer covers its head request).
    current: Option<usize>,
    quantum: u64,
    coalesce_limit: u64,
    coalesce_batch: usize,
    queued_total: usize,
}

impl<T> DwrrScheduler<T> {
    /// Builds a scheduler with no tenants.
    ///
    /// `quantum` is the byte grant per weight unit per ring pass;
    /// `coalesce_limit` is the max payload size eligible for coalescing
    /// (0 disables coalescing); `coalesce_batch` caps requests per batch.
    pub fn new(quantum: u64, coalesce_limit: u64, coalesce_batch: usize) -> Self {
        Self {
            queues: Vec::new(),
            weights: Vec::new(),
            deficits: Vec::new(),
            ring: VecDeque::new(),
            in_ring: Vec::new(),
            current: None,
            quantum: quantum.max(1),
            coalesce_limit,
            coalesce_batch: coalesce_batch.max(1),
            queued_total: 0,
        }
    }

    /// Registers a tenant with the given DWRR weight; returns its index.
    pub fn add_tenant(&mut self, weight: u64) -> usize {
        self.queues.push(VecDeque::new());
        self.weights.push(weight.max(1));
        self.deficits.push(0);
        self.in_ring.push(false);
        self.queues.len() - 1
    }

    /// Number of registered tenants.
    pub fn tenants(&self) -> usize {
        self.queues.len()
    }

    /// Enqueues a request for `tenant`. `bytes` is the payload size used
    /// for deficit accounting (clamped to ≥1 so zero-byte requests still
    /// make progress).
    pub fn push(&mut self, tenant: usize, item: T, bytes: u64) {
        if tenant >= self.queues.len() {
            return;
        }
        self.queues[tenant].push_back(Entry {
            item,
            bytes: bytes.max(1),
        });
        self.queued_total += 1;
        if !self.in_ring[tenant] {
            self.in_ring[tenant] = true;
            self.ring.push_back(tenant);
        }
    }

    /// Total queued requests across all tenants.
    pub fn queued(&self) -> usize {
        self.queued_total
    }

    /// Queued requests for one tenant.
    pub fn queue_depth(&self, tenant: usize) -> usize {
        self.queues.get(tenant).map(|q| q.len()).unwrap_or(0)
    }

    /// True when no requests are queued.
    pub fn is_empty(&self) -> bool {
        self.queued_total == 0
    }

    /// Dequeues the next batch under DWRR, or `None` when idle.
    ///
    /// A tenant visited on a ring pass receives one `quantum × weight`
    /// grant and stays *current* — served one batch per call — until its
    /// deficit no longer covers its head request; only then does the ring
    /// rotate. That is what makes a weight-16 tenant drain ~16× the bytes
    /// of a weight-1 tenant per round. Unspent deficit persists across
    /// rounds (so an oversized request accumulates grant until it fits)
    /// and resets when the queue empties (no banking while idle).
    pub fn next_batch(&mut self) -> Option<Batch<T>> {
        if self.queued_total == 0 {
            return None;
        }
        loop {
            if let Some(tenant) = self.current {
                let head_bytes = self.queues[tenant].front().map(|e| e.bytes);
                match head_bytes {
                    Some(b) if b <= self.deficits[tenant] => {
                        let batch = self.dequeue_batch(tenant);
                        if self.queues[tenant].is_empty() {
                            self.current = None;
                            self.in_ring[tenant] = false;
                            self.deficits[tenant] = 0;
                        }
                        return Some(batch);
                    }
                    Some(_) => {
                        // Grant spent: back of the ring, deficit kept.
                        self.current = None;
                        self.ring.push_back(tenant);
                    }
                    None => {
                        self.current = None;
                        self.in_ring[tenant] = false;
                        self.deficits[tenant] = 0;
                    }
                }
                continue;
            }
            let tenant = self.ring.pop_front()?;
            if self.queues[tenant].is_empty() {
                // Stale ring entry (defensive).
                self.in_ring[tenant] = false;
                continue;
            }
            // One grant per ring visit; the loop above then serves the
            // tenant for as long as the grant lasts. Termination: every
            // full pass over the ring grows each backlogged tenant's
            // deficit, so some head request eventually fits.
            self.deficits[tenant] =
                self.deficits[tenant].saturating_add(self.quantum * self.weights[tenant]);
            let head_bytes = self.queues[tenant].front().map(|e| e.bytes).unwrap_or(1);
            if head_bytes > self.deficits[tenant] {
                self.ring.push_back(tenant);
                continue;
            }
            self.current = Some(tenant);
        }
    }

    /// Pops the head request (which the caller checked fits the deficit)
    /// plus any coalescible followers that fit what remains of it.
    fn dequeue_batch(&mut self, tenant: usize) -> Batch<T> {
        let mut items = Vec::new();
        let mut total = 0u64;
        let queue = &mut self.queues[tenant];
        let deficit = &mut self.deficits[tenant];
        let coalescible = |bytes: u64| self.coalesce_limit > 0 && bytes <= self.coalesce_limit;
        while let Some(head) = queue.front() {
            let follower = !items.is_empty();
            let fits = coalescible(head.bytes)
                && items.len() < self.coalesce_batch
                && head.bytes <= *deficit;
            if follower && !fits {
                break;
            }
            let Some(entry) = queue.pop_front() else {
                break;
            };
            *deficit = deficit.saturating_sub(entry.bytes);
            total += entry.bytes;
            self.queued_total -= 1;
            items.push(entry.item);
            if !coalescible(entry.bytes) {
                break;
            }
        }
        Batch {
            tenant,
            coalesced: items.len() > 1,
            items,
            bytes: total,
        }
    }
}

/// What admission decided about one accepted request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Admitted {
    /// Per-tenant admission sequence number (0-based).
    pub(crate) admit_seq: u64,
    /// Requests already queued for the tenant when this one arrived (the
    /// modeled queue wait).
    pub(crate) depth_at_admit: u64,
}

/// One tenant's receive window. Its sequence numbers are the account's
/// own counts: the n-th admission, the n-th credit returned.
#[derive(Debug)]
struct Window {
    credits: CreditAccount,
    stats: Arc<TenantStats>,
}

/// The service state machine; see the [module docs](self). `T` is what
/// a driver queues per request; the caller supplies mutual exclusion and
/// time.
#[derive(Debug)]
pub(crate) struct ServiceCore<T> {
    sched: DwrrScheduler<T>,
    windows: Vec<Window>,
    stats: Arc<ServiceStats>,
    depth_limit: usize,
    open: bool,
}

impl<T> ServiceCore<T> {
    /// An open service with no windows. The depth bound admits at least
    /// one request: `engine_depth: 0` means a one-deep queue.
    pub(crate) fn new(config: &ServiceConfig) -> Self {
        Self {
            sched: DwrrScheduler::new(
                config.quantum_bytes,
                config.coalesce_limit,
                config.coalesce_batch,
            ),
            windows: Vec::new(),
            stats: Arc::new(ServiceStats::default()),
            depth_limit: config.engine_depth.max(1),
            open: true,
        }
    }

    /// Opens a receive window; returns the tenant's index.
    pub(crate) fn open_window(&mut self, spec: &TenantSpec) -> usize {
        let stats = Arc::new(TenantStats::new(spec));
        self.stats.tenants.lock().push(Arc::clone(&stats));
        self.windows.push(Window {
            credits: CreditAccount::new(spec.credits),
            stats,
        });
        self.sched.add_tenant(spec.class.weight())
    }

    /// Admits one `bytes`-sized request for `tenant` or rejects it typed
    /// (a rejection consumes nothing). `make` builds the queued item, for
    /// accepted requests only, in admission order.
    pub(crate) fn admit(
        &mut self,
        tenant: usize,
        bytes: u64,
        make: impl FnOnce(Admitted) -> T,
    ) -> Result<Admitted, Rejected> {
        let window = &mut self.windows[tenant];
        window.stats.submitted.fetch_add(1, Relaxed);
        if !self.open {
            return Err(Rejected::Closed);
        }
        if self.sched.queued() >= self.depth_limit {
            window.stats.rejected_queue_full.fetch_add(1, Relaxed);
            return Err(Rejected::QueueFull);
        }
        let admitted = Admitted {
            admit_seq: window.credits.admitted(),
            depth_at_admit: self.sched.queue_depth(tenant) as u64,
        };
        if !window.credits.try_acquire() {
            window.stats.rejected_no_credit.fetch_add(1, Relaxed);
            return Err(Rejected::NoCredit);
        }
        window.stats.admitted.fetch_add(1, Relaxed);
        window.stats.depth.record(admitted.depth_at_admit + 1);
        self.sched.push(tenant, make(admitted), bytes);
        Ok(admitted)
    }

    /// The next engine submission under DWRR, or `None` when nothing is
    /// queued. Keeps draining after [`close`](Self::close).
    pub(crate) fn next_batch(&mut self) -> Option<Batch<T>> {
        let batch = self.sched.next_batch()?;
        self.stats.batches.fetch_add(1, Relaxed);
        if batch.coalesced {
            self.stats.coalesced_batches.fetch_add(1, Relaxed);
            self.windows[batch.tenant]
                .stats
                .coalesced_requests
                .fetch_add(batch.items.len() as u64, Relaxed);
        }
        Some(batch)
    }

    /// Returns the credit of one dispatched request, completed (`ok`) or
    /// failed typed; yields its per-tenant completion sequence number.
    pub(crate) fn complete(&mut self, tenant: usize, ok: bool) -> u64 {
        let window = &mut self.windows[tenant];
        let complete_seq = window.credits.completed() + window.credits.failed();
        if ok {
            window.credits.complete();
            window.stats.completed.fetch_add(1, Relaxed);
        } else {
            window.credits.fail();
            window.stats.failed.fetch_add(1, Relaxed);
        }
        complete_seq
    }

    /// Stops admission; queued requests stay dispatchable.
    pub(crate) fn close(&mut self) {
        self.open = false;
    }

    /// Whether the service still admits.
    pub(crate) fn is_open(&self) -> bool {
        self.open
    }

    /// Whether the engine queue is below its depth bound, so an
    /// admission would not be rejected [`Rejected::QueueFull`].
    pub(crate) fn has_room(&self) -> bool {
        self.sched.queued() < self.depth_limit
    }

    /// Requests admitted but not yet dispatched, across all tenants.
    pub(crate) fn queued(&self) -> usize {
        self.sched.queued()
    }

    /// Windows violating credit conservation (a credit held, an admitted
    /// request neither completed nor failed) — zero whenever idle.
    pub(crate) fn violations(&self) -> usize {
        let leaky = |w: &&Window| !w.credits.conservation_ok();
        self.windows.iter().filter(leaky).count()
    }

    /// One window's credit account (read-only).
    pub(crate) fn credits(&self, tenant: usize) -> &CreditAccount {
        &self.windows[tenant].credits
    }

    /// One window's observable counters.
    pub(crate) fn tenant_stats(&self, tenant: usize) -> &Arc<TenantStats> {
        &self.windows[tenant].stats
    }

    /// The aggregate statistics this core updates.
    pub(crate) fn stats(&self) -> &Arc<ServiceStats> {
        &self.stats
    }
}

/// `seq` of the dispatch span in [`request_spans`]: the parent of every
/// engine-side span.
pub(crate) const DISPATCH_SEQ: u32 = 2;

/// One request's span chain on its request-local timeline (admission =
/// cycle 0): `Admit → QueueWait → Dispatch`, then — when `engine_cycles`
/// are already known — `Engine` and `Complete` under the dispatch span (a
/// live executor emits those itself, from where the dispatch span ends).
/// `wait` is (queueing cycles, the depth they were modeled from);
/// `dispatch` is (share of the paste, size of the batch sharing it).
pub(crate) fn request_spans(
    request: u64,
    tenant: u32,
    bytes: u64,
    wait: (u64, u64),
    dispatch: (u64, u64),
    engine_cycles: Option<u64>,
) -> impl Iterator<Item = SpanEvent> {
    let service_side = [
        (NO_PARENT, Stage::Admit, SUBMIT_CYCLES, u64::from(tenant)),
        (NO_PARENT, Stage::QueueWait, wait.0, wait.1),
        (NO_PARENT, Stage::Dispatch, dispatch.0, dispatch.1),
    ];
    let engine_side = engine_cycles.map(|cycles| {
        [
            (DISPATCH_SEQ, Stage::Engine, cycles, 0),
            (DISPATCH_SEQ, Stage::Complete, COMPLETE_CYCLES, 0),
        ]
    });
    let mut at = 0u64;
    service_side
        .into_iter()
        .chain(engine_side.into_iter().flatten())
        .zip(0u32..)
        .map(move |((parent, stage, dur_cycles, detail), seq)| {
            let start_cycles = at;
            at += dur_cycles;
            SpanEvent {
                request,
                seq,
                parent,
                worker: tenant,
                stage,
                start_cycles,
                dur_cycles,
                bytes,
                detail,
            }
        })
}

/// Jain's fairness index over per-tenant allocations:
/// `J = (Σx)² / (n · Σx²)`. 1.0 is perfectly fair; `1/n` is one tenant
/// taking everything. Empty or all-zero inputs return 1.0 (nothing to be
/// unfair about).
pub fn jain_index(xs: &[f64]) -> f64 {
    let n = xs.len();
    if n == 0 {
        return 1.0;
    }
    let sum: f64 = xs.iter().sum();
    let sq: f64 = xs.iter().map(|x| x * x).sum();
    if sq <= f64::EPSILON {
        return 1.0;
    }
    (sum * sum) / (n as f64 * sq)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_weights_are_ordered() {
        assert!(QosClass::Latency.weight() > QosClass::Throughput.weight());
        assert!(QosClass::Throughput.weight() > QosClass::Background.weight());
    }

    #[test]
    fn credit_account_conserves() {
        let mut acct = CreditAccount::new(2);
        assert!(acct.try_acquire());
        assert!(acct.try_acquire());
        assert!(!acct.try_acquire());
        assert_eq!(acct.stalls(), 1);
        assert_eq!(acct.available(), 0);
        acct.complete();
        assert!(acct.try_acquire());
        acct.fail();
        acct.complete();
        assert!(acct.conservation_ok());
        assert_eq!(acct.admitted(), 3);
        assert_eq!(acct.completed(), 2);
        assert_eq!(acct.failed(), 1);
    }

    #[test]
    fn credit_cancel_undoes_admission() {
        let mut acct = CreditAccount::new(1);
        assert!(acct.try_acquire());
        acct.cancel();
        assert_eq!(acct.available(), 1);
        assert_eq!(acct.admitted(), 0);
        assert!(acct.conservation_ok());
    }

    #[test]
    fn fifo_order_within_tenant() {
        let mut s: DwrrScheduler<u32> = DwrrScheduler::new(1 << 16, 0, 1);
        let t = s.add_tenant(1);
        for i in 0..5u32 {
            s.push(t, i, 100);
        }
        let mut seen = Vec::new();
        while let Some(b) = s.next_batch() {
            seen.extend(b.items);
        }
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn weighted_share_approximates_weights() {
        // Two backlogged tenants with weights 4:1 and equal request sizes
        // should drain ~4:1.
        let mut s: DwrrScheduler<usize> = DwrrScheduler::new(1024, 0, 1);
        let fast = s.add_tenant(4);
        let slow = s.add_tenant(1);
        for i in 0..400 {
            s.push(fast, i, 1024);
            s.push(slow, i, 1024);
        }
        let mut fast_served = 0usize;
        let mut slow_served = 0usize;
        for _ in 0..100 {
            match s.next_batch() {
                Some(b) if b.tenant == fast => fast_served += b.items.len(),
                Some(b) if b.tenant == slow => slow_served += b.items.len(),
                _ => break,
            }
        }
        assert!(slow_served > 0, "low-weight tenant starved");
        let ratio = fast_served as f64 / slow_served as f64;
        assert!(
            (2.0..=8.0).contains(&ratio),
            "weighted ratio {ratio} out of band ({fast_served}:{slow_served})"
        );
    }

    #[test]
    fn large_request_eventually_served() {
        // A request far larger than one quantum grant must still be served
        // once deficit accumulates (starvation-free for big payloads).
        let mut s: DwrrScheduler<&'static str> = DwrrScheduler::new(1024, 0, 1);
        let small = s.add_tenant(16);
        let big = s.add_tenant(1);
        s.push(big, "big", 64 * 1024);
        for _ in 0..200 {
            s.push(small, "small", 512);
        }
        let mut calls = 0;
        let mut served_big = false;
        while let Some(b) = s.next_batch() {
            calls += 1;
            if b.tenant == big {
                served_big = true;
                break;
            }
            assert!(calls < 1000, "big request starved");
        }
        assert!(served_big);
    }

    #[test]
    fn coalesces_small_payloads_only() {
        let mut s: DwrrScheduler<u32> = DwrrScheduler::new(1 << 20, 4096, 4);
        let t = s.add_tenant(1);
        s.push(t, 0, 100);
        s.push(t, 1, 200);
        s.push(t, 2, 300);
        s.push(t, 3, 8192); // too big to coalesce
        s.push(t, 4, 50);
        let b1 = s.next_batch().unwrap();
        assert_eq!(b1.items, vec![0, 1, 2]);
        assert!(b1.coalesced);
        assert_eq!(b1.bytes, 600);
        let b2 = s.next_batch().unwrap();
        assert_eq!(b2.items, vec![3]);
        assert!(!b2.coalesced);
        let b3 = s.next_batch().unwrap();
        assert_eq!(b3.items, vec![4]);
        assert!(s.next_batch().is_none());
    }

    #[test]
    fn batch_cap_respected() {
        let mut s: DwrrScheduler<u32> = DwrrScheduler::new(1 << 20, 4096, 2);
        let t = s.add_tenant(1);
        for i in 0..5u32 {
            s.push(t, i, 10);
        }
        let sizes: Vec<usize> =
            std::iter::from_fn(|| s.next_batch().map(|b| b.items.len())).collect();
        assert_eq!(sizes, vec![2, 2, 1]);
    }

    #[test]
    fn jain_index_bounds() {
        assert!((jain_index(&[1.0, 1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        let skew = jain_index(&[1.0, 0.0, 0.0, 0.0]);
        assert!((skew - 0.25).abs() < 1e-12);
        assert!((jain_index(&[]) - 1.0).abs() < 1e-12);
        assert!((jain_index(&[0.0, 0.0]) - 1.0).abs() < 1e-12);
    }

    // -----------------------------------------------------------------
    // Seeded schedule exploration of the bare core
    // -----------------------------------------------------------------

    use crate::service::loadgen::StormRng;

    const MIN_BYTES: u64 = 256;
    const MAX_BYTES: u64 = 4096;

    /// What the core must do, tracked beside it: per tenant the credit
    /// budget, the admit_seqs queued and dispatched-but-incomplete (both
    /// FIFO), and the bytes other tenants got while this one waited.
    #[derive(Default)]
    struct ModelTenant {
        class_weight: u64,
        credits: u32,
        queued: VecDeque<(u64, u64)>,
        dispatched: VecDeque<u64>,
        admitted: u64,
        /// Rejections by cause: no credit, queue full, closed.
        rejected: [u64; 3],
        returned: u64,
        dispatches: u64,
        waited: u64,
    }

    struct Explorer {
        core: ServiceCore<(usize, u64)>,
        config: ServiceConfig,
        tenants: Vec<ModelTenant>,
        open: bool,
    }

    impl Explorer {
        fn new(config: ServiceConfig) -> Self {
            Self {
                core: ServiceCore::new(&config),
                config,
                tenants: Vec::new(),
                open: true,
            }
        }

        fn queued(&self) -> usize {
            self.tenants.iter().map(|t| t.queued.len()).sum()
        }

        fn open_window(&mut self, class: QosClass, credits: u32) {
            let spec = TenantSpec::new(&format!("t{}", self.tenants.len()), class, credits);
            assert_eq!(self.core.open_window(&spec), self.tenants.len());
            self.tenants.push(ModelTenant {
                class_weight: class.weight(),
                credits,
                ..ModelTenant::default()
            });
        }

        fn admit(&mut self, tenant: usize, bytes: u64) {
            let depth_limit = self.config.engine_depth.max(1);
            let model = &self.tenants[tenant];
            let in_flight = (model.queued.len() + model.dispatched.len()) as u32;
            let want = if !self.open {
                Err(Rejected::Closed)
            } else if self.queued() >= depth_limit {
                Err(Rejected::QueueFull)
            } else if in_flight >= model.credits {
                Err(Rejected::NoCredit)
            } else {
                Ok(Admitted {
                    admit_seq: model.admitted,
                    depth_at_admit: model.queued.len() as u64,
                })
            };
            let got = self.core.admit(tenant, bytes, |a| (tenant, a.admit_seq));
            assert_eq!(got, want, "admission decision for tenant {tenant}");
            let model = &mut self.tenants[tenant];
            match got {
                Ok(a) => {
                    model.queued.push_back((a.admit_seq, bytes));
                    model.admitted += 1;
                }
                Err(Rejected::NoCredit) => model.rejected[0] += 1,
                Err(Rejected::QueueFull) => model.rejected[1] += 1,
                Err(Rejected::Closed) => model.rejected[2] += 1,
            }
        }

        /// Bytes the DWRR may hand other tenants before a backlogged
        /// `tenant` is served: one ring pass per quantum-sized slice of
        /// its head request (plus the grant in progress when it queued),
        /// in each of which every other tenant spends at most one grant
        /// and one carried-over deficit.
        fn wait_bound(&self, tenant: usize) -> u64 {
            let quantum = self.config.quantum_bytes;
            let passes = MAX_BYTES.div_ceil(quantum * self.tenants[tenant].class_weight) + 1;
            let per_pass: u64 = self
                .tenants
                .iter()
                .map(|t| quantum * t.class_weight + MAX_BYTES)
                .sum();
            passes * per_pass
        }

        fn dispatch(&mut self) {
            let Some(batch) = self.core.next_batch() else {
                assert_eq!(self.queued(), 0, "idle core with work queued");
                return;
            };
            let served = batch.tenant;
            assert!(!batch.items.is_empty());
            assert!(batch.items.len() <= self.config.coalesce_batch.max(1));
            assert_eq!(batch.coalesced, batch.items.len() > 1);
            let mut bytes = 0;
            for (tenant, admit_seq) in &batch.items {
                // Per-tenant FIFO, and each admitted item exactly once:
                // a batch is the head of its tenant's queue, in order.
                assert_eq!(*tenant, served);
                let (want_seq, b) = self.tenants[served].queued.pop_front().expect("queued");
                assert_eq!(
                    *admit_seq, want_seq,
                    "tenant {served} dispatched out of order"
                );
                assert_eq!(*admit_seq, self.tenants[served].dispatches);
                if batch.coalesced {
                    assert!(b <= self.config.coalesce_limit, "coalesced a large payload");
                }
                self.tenants[served].dispatches += 1;
                self.tenants[served].dispatched.push_back(*admit_seq);
                bytes += b;
            }
            assert_eq!(batch.bytes, bytes);
            for t in 0..self.tenants.len() {
                if t == served || self.tenants[t].queued.is_empty() {
                    self.tenants[t].waited = 0;
                } else {
                    self.tenants[t].waited += bytes;
                    let bound = self.wait_bound(t);
                    let waited = self.tenants[t].waited;
                    assert!(waited <= bound, "tenant {t} starved: {waited} > {bound}");
                }
            }
        }

        fn complete(&mut self, tenant: usize, ok: bool) {
            let model = &mut self.tenants[tenant];
            if model.dispatched.pop_front().is_none() {
                return;
            }
            assert_eq!(self.core.complete(tenant, ok), model.returned);
            model.returned += 1;
        }

        fn check(&self) {
            let depth_limit = self.config.engine_depth.max(1);
            assert_eq!(self.core.queued(), self.queued());
            assert!(self.core.queued() <= depth_limit, "depth bound exceeded");
            assert_eq!(self.core.is_open(), self.open);
            let mut idle = true;
            for (t, model) in self.tenants.iter().enumerate() {
                let credits = self.core.credits(t);
                let in_flight = (model.queued.len() + model.dispatched.len()) as u32;
                assert_eq!(
                    credits.in_flight(),
                    in_flight,
                    "tenant {t} credits in flight"
                );
                assert_eq!(credits.available(), model.credits - in_flight);
                assert_eq!(credits.admitted(), model.admitted);
                assert_eq!(credits.completed() + credits.failed(), model.returned);
                let stats = self.core.tenant_stats(t);
                assert_eq!(stats.admitted(), model.admitted);
                assert_eq!(stats.completed() + stats.failed(), model.returned);
                assert_eq!(stats.rejected_no_credit(), model.rejected[0]);
                assert_eq!(credits.stalls(), model.rejected[0]);
                assert_eq!(stats.rejected_queue_full(), model.rejected[1]);
                let rejected: u64 = model.rejected.iter().sum();
                assert_eq!(stats.submitted(), model.admitted + rejected);
                idle &= in_flight == 0;
            }
            assert_eq!(self.core.violations() == 0, idle);
        }
    }

    /// One seeded schedule: `steps` random interleavings of open_window /
    /// admit / next_batch / complete / fail / close, every invariant
    /// checked after every step, then a close and a full drain. A
    /// `saturated` schedule instead keeps every tenant backlogged (admit
    /// to all, dispatch one batch, complete it), which is where a
    /// scheduler that favours one tenant runs into the starvation bound.
    fn explore(seed: u64, steps: usize, saturated: bool) {
        let mut rng = StormRng::new(seed, "explore");
        let mut pick = |n: u64| rng.next_u64() % n;
        let classes = [
            QosClass::Latency,
            QosClass::Throughput,
            QosClass::Background,
        ];
        let mut ex = Explorer::new(ServiceConfig {
            engine_depth: if saturated { 16 } else { pick(7) as usize },
            quantum_bytes: [512, 1024, 4096][pick(3) as usize],
            coalesce_limit: [0, 1024][pick(2) as usize],
            coalesce_batch: 1 + pick(4) as usize,
        });
        for _ in 0..if saturated { 4 } else { 1 } {
            ex.open_window(classes[pick(3) as usize], 1 + pick(5) as u32);
        }
        for _ in 0..steps {
            let tenant = pick(ex.tenants.len() as u64) as usize;
            let bytes = MIN_BYTES + pick(MAX_BYTES - MIN_BYTES + 1);
            match pick(100) {
                _ if saturated => {
                    for t in 0..ex.tenants.len() {
                        ex.admit(t, MIN_BYTES + pick(MAX_BYTES - MIN_BYTES + 1));
                    }
                    ex.dispatch();
                    for t in 0..ex.tenants.len() {
                        while !ex.tenants[t].dispatched.is_empty() {
                            ex.complete(t, true);
                        }
                    }
                }
                0..=2 if ex.tenants.len() < 4 => {
                    ex.open_window(classes[pick(3) as usize], 1 + pick(5) as u32);
                }
                0..=44 => ex.admit(tenant, bytes),
                45..=69 => ex.dispatch(),
                70..=92 => ex.complete(tenant, true),
                93..=98 => ex.complete(tenant, false),
                _ => {
                    ex.core.close();
                    ex.open = false;
                }
            }
            ex.check();
        }
        // Close with work queued and in flight: nothing more is admitted,
        // everything admitted still dispatches exactly once and every
        // credit comes home.
        ex.core.close();
        ex.open = false;
        ex.admit(0, MIN_BYTES);
        while ex.queued() > 0 {
            ex.dispatch();
            ex.check();
        }
        ex.dispatch();
        for t in 0..ex.tenants.len() {
            while !ex.tenants[t].dispatched.is_empty() {
                ex.complete(t, true);
            }
            assert_eq!(ex.tenants[t].dispatches, ex.tenants[t].admitted);
        }
        ex.check();
        assert_eq!(ex.core.violations(), 0);
    }

    #[test]
    fn seeded_schedule_exploration_holds_the_service_contract() {
        // 10 000 random schedules for breadth, 200 saturated ones so a
        // persistent backlog can run into the starvation bound.
        for seed in 0..10_000 {
            explore(seed, 60 + (seed % 80) as usize, false);
        }
        for seed in 10_000..10_200 {
            explore(seed, 400, true);
        }
    }
}
