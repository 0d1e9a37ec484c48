//! The instrumentation handle threaded through the stack.
//!
//! A [`TelemetrySink`] is what instrumented code holds: `Nx`, the
//! parallel pool, the async queue, and the nx-sys runner all accept one
//! and call it on their hot paths. A disabled sink is a `None` — every
//! call is a branch on a null pointer and returns immediately, so the
//! uninstrumented cost is near zero (E19 gates it at ≤ 5%). An enabled
//! sink owns the span ring and pre-registered core histograms and shares
//! a [`MetricsRegistry`] with whatever else wants to export.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use crate::flight::FlightRecorder;
use crate::histogram::LogHistogram;
use crate::registry::MetricsRegistry;
use crate::span::{SpanEvent, SpanRing, Stage};
use crate::trace::{Sampler, TraceContext};

/// Default span-ring capacity (events) for [`TelemetrySink::enabled`].
pub const DEFAULT_TRACE_CAPACITY: usize = 64 * 1024;

#[derive(Debug)]
struct SinkInner {
    registry: MetricsRegistry,
    ring: SpanRing,
    next_request: AtomicU64,
    request_latency: Arc<LogHistogram>,
    shard_latency: Arc<LogHistogram>,
    bytes_per_request: Arc<LogHistogram>,
    /// Optional black-box tee: every span recorded here is also pushed
    /// into the flight recorder's (smaller) ring.
    flight: OnceLock<Arc<FlightRecorder>>,
}

/// A cheap, cloneable telemetry handle (see module docs).
#[derive(Debug, Clone, Default)]
pub struct TelemetrySink {
    inner: Option<Arc<SinkInner>>,
    sampler: Sampler,
}

impl TelemetrySink {
    /// The no-op sink: every recording call is a null-check and return.
    pub fn disabled() -> Self {
        Self {
            inner: None,
            sampler: Sampler::Always,
        }
    }

    /// An enabled sink recording into `registry`, with a span ring of
    /// [`DEFAULT_TRACE_CAPACITY`] events.
    pub fn enabled(registry: MetricsRegistry) -> Self {
        Self::enabled_with_capacity(registry, DEFAULT_TRACE_CAPACITY)
    }

    /// An enabled sink with an explicit span-ring capacity.
    pub fn enabled_with_capacity(registry: MetricsRegistry, trace_capacity: usize) -> Self {
        let inner = SinkInner {
            request_latency: registry.histogram("nx_request_latency_cycles"),
            shard_latency: registry.histogram("nx_shard_latency_cycles"),
            bytes_per_request: registry.histogram("nx_request_bytes"),
            ring: SpanRing::new(trace_capacity),
            next_request: AtomicU64::new(0),
            flight: OnceLock::new(),
            registry,
        };
        Self {
            inner: Some(Arc::new(inner)),
            sampler: Sampler::Always,
        }
    }

    /// Sets the trace sampling policy (spans only — histograms and
    /// counters always record). Returns the sink for chaining.
    pub fn with_sampler(mut self, sampler: Sampler) -> Self {
        self.sampler = sampler;
        self
    }

    /// The sink's sampling policy.
    pub fn sampler(&self) -> Sampler {
        self.sampler
    }

    /// Attaches a flight recorder: from now on every span recorded via
    /// this sink (or any clone taken *after* the attach) is teed into
    /// the recorder's black-box ring. First attach wins.
    pub fn attach_flight(&self, recorder: Arc<FlightRecorder>) {
        if let Some(i) = &self.inner {
            let _ = i.flight.set(recorder);
        }
    }

    /// The attached flight recorder, if any.
    pub fn flight(&self) -> Option<&Arc<FlightRecorder>> {
        self.inner.as_deref().and_then(|i| i.flight.get())
    }

    /// Mints a new root [`TraceContext`]: fresh trace id, sampling
    /// decided by the sink's [`Sampler`]. A disabled sink still hands
    /// out unique ids but never samples.
    #[inline]
    pub fn begin_trace(&self) -> TraceContext {
        let id = self.begin_request();
        let mut ctx = TraceContext::root(id, self.sampler);
        ctx.sampled &= self.inner.is_some();
        ctx
    }

    /// Whether recording does anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The shared registry (`None` for a disabled sink).
    pub fn registry(&self) -> Option<&MetricsRegistry> {
        self.inner.as_deref().map(|i| &i.registry)
    }

    /// Allocates the next request id. Disabled sinks hand out ids too
    /// (from a process-wide counter) so span-less call sites still get a
    /// usable coordinate.
    #[inline]
    pub fn begin_request(&self) -> u64 {
        match &self.inner {
            Some(i) => i.next_request.fetch_add(1, Ordering::Relaxed),
            None => {
                static FALLBACK: AtomicU64 = AtomicU64::new(0);
                FALLBACK.fetch_add(1, Ordering::Relaxed)
            }
        }
    }

    /// Records one span event.
    #[inline]
    pub fn span(&self, ev: &SpanEvent) {
        if let Some(i) = &self.inner {
            i.ring.push(ev);
            if let Some(fr) = i.flight.get() {
                fr.span(ev);
            }
        }
    }

    /// Convenience: build and record a span in one call.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn emit(
        &self,
        request: u64,
        seq: u32,
        parent: u32,
        stage: Stage,
        worker: u32,
        start_cycles: u64,
        dur_cycles: u64,
        bytes: u64,
        detail: u64,
    ) {
        self.span(&SpanEvent {
            request,
            seq,
            parent,
            worker,
            stage,
            start_cycles,
            dur_cycles,
            bytes,
            detail,
        });
    }

    /// Records an end-to-end request latency (cycles) and its size.
    #[inline]
    pub fn record_request(&self, latency_cycles: u64, bytes: u64) {
        if let Some(i) = &self.inner {
            i.request_latency.record(latency_cycles);
            i.bytes_per_request.record(bytes);
        }
    }

    /// Records an end-to-end request latency with its trace id as the
    /// bucket exemplar: the tail of `nx_request_latency_cycles` then
    /// links straight to the slow request's span breakdown.
    #[inline]
    pub fn record_request_traced(&self, latency_cycles: u64, bytes: u64, trace_id: u64) {
        if let Some(i) = &self.inner {
            i.request_latency.record_traced(latency_cycles, trace_id);
            i.bytes_per_request.record(bytes);
        }
    }

    /// Records one shard's latency (cycles).
    #[inline]
    pub fn record_shard(&self, latency_cycles: u64) {
        if let Some(i) = &self.inner {
            i.shard_latency.record(latency_cycles);
        }
    }

    /// The deterministic trace dump: all spans sorted by
    /// `(request, seq, stage, start)`. Empty for a disabled sink.
    pub fn trace(&self) -> Vec<SpanEvent> {
        match &self.inner {
            Some(i) => i.ring.sorted_snapshot(),
            None => Vec::new(),
        }
    }

    /// Spans evicted by ring overflow (0 when disabled).
    pub fn trace_dropped(&self) -> u64 {
        self.inner.as_deref().map_or(0, |i| i.ring.dropped())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_is_inert() {
        let sink = TelemetrySink::disabled();
        assert!(!sink.is_enabled());
        sink.record_request(100, 4096);
        sink.record_shard(10);
        sink.emit(0, 0, 0, Stage::Engine, 0, 0, 10, 0, 0);
        assert!(sink.trace().is_empty());
        assert_eq!(sink.trace_dropped(), 0);
        assert!(sink.registry().is_none());
        let a = sink.begin_request();
        assert!(sink.begin_request() > a);
    }

    #[test]
    fn enabled_sink_records_into_registry_and_ring() {
        let reg = MetricsRegistry::new();
        let sink = TelemetrySink::enabled_with_capacity(reg.clone(), 64);
        assert!(sink.is_enabled());
        let req = sink.begin_request();
        assert_eq!(req, 0);
        sink.emit(req, 0, 0, Stage::Submit, 1, 0, 50, 4096, 0);
        sink.record_request(500, 4096);
        sink.record_shard(120);

        assert_eq!(reg.histogram("nx_request_latency_cycles").count(), 1);
        assert_eq!(reg.histogram("nx_shard_latency_cycles").count(), 1);
        assert_eq!(reg.histogram("nx_request_bytes").count(), 1);

        let trace = sink.trace();
        assert_eq!(trace.len(), 1);
        assert_eq!(trace[0].stage, Stage::Submit);
        assert_eq!(trace[0].bytes, 4096);
    }

    #[test]
    fn clones_share_the_ring() {
        let sink = TelemetrySink::enabled(MetricsRegistry::new());
        let other = sink.clone();
        other.emit(0, 0, 0, Stage::Complete, 0, 0, 1, 0, 0);
        assert_eq!(sink.trace().len(), 1);
    }

    #[test]
    fn sampler_gates_traces_not_ids() {
        let sink =
            TelemetrySink::enabled(MetricsRegistry::new()).with_sampler(Sampler::one_in(256));
        let a = sink.begin_trace();
        assert_eq!(a.trace_id, 0);
        assert!(a.sampled);
        let b = sink.begin_trace();
        assert_eq!(b.trace_id, 1);
        assert!(!b.sampled);
        // A disabled sink never samples but still hands out ids.
        let dark = TelemetrySink::disabled();
        assert!(!dark.begin_trace().sampled);
    }

    #[test]
    fn flight_tee_receives_spans() {
        let sink = TelemetrySink::enabled(MetricsRegistry::new());
        let fr = Arc::new(FlightRecorder::with_capacity(64, 64));
        sink.attach_flight(Arc::clone(&fr));
        sink.emit(5, 0, 0, Stage::Admit, 0, 0, 100, 64, 0);
        assert_eq!(sink.trace().len(), 1);
        assert_eq!(fr.spans().len(), 1);
        assert_eq!(fr.spans()[0].request, 5);
        assert!(sink.flight().is_some());
    }
}
