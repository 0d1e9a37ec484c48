//! The unified metrics registry.
//!
//! One named-metric namespace for the whole stack: `NxStats` per-codec
//! counters, `FaultStats`, per-tenant service windows (queue depth,
//! rejections), parallel-engine per-worker counters, and the nx-sys
//! runner/ERAT/CSB accounting all register here and export through the
//! same three formats. Names follow Prometheus conventions —
//! `nx_<subsystem>_<what>_<unit>` with `snake_case` labels baked into the
//! name (e.g. `nx_core_compress_bytes_total{format="deflate"}`) — and
//! the registry iterates in deterministic (sorted) order so exports are
//! reproducible.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::histogram::{HistogramSnapshot, LogHistogram};

/// A monotone counter handle (cloned handles share the underlying cell).
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A free-standing counter (registered ones come from the registry).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Sets the absolute value (for mirroring an external counter).
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }
}

/// A gauge handle: a signed instantaneous value (queue depth, in-flight).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// A free-standing gauge.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` (may be negative), returning the new value.
    #[inline]
    pub fn add(&self, n: i64) -> i64 {
        self.0.fetch_add(n, Ordering::Relaxed) + n
    }

    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Arc<LogHistogram>),
}

/// A point-in-time value of one registered metric.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotone counter reading.
    Counter(u64),
    /// Instantaneous gauge reading.
    Gauge(i64),
    /// Histogram snapshot.
    Histogram(HistogramSnapshot),
}

/// A source that contributes externally-owned metrics at snapshot time.
///
/// Existing stat blocks (`NxStats`, `FaultStats`, pool/runner counters)
/// implement this instead of migrating their storage: the registry pulls
/// their current readings into every snapshot under their own names.
pub trait MetricSource: Send + Sync {
    /// Appends `(name, value)` pairs for the current readings. Names must
    /// be stable and unique within the source.
    fn collect(&self, out: &mut Vec<(String, MetricValue)>);
}

#[derive(Default)]
struct Inner {
    metrics: BTreeMap<String, Metric>,
    sources: Vec<(String, Arc<dyn MetricSource>)>,
}

/// The registry: a deterministic name → metric map plus pull sources.
///
/// Cheap to clone (all handles share state). Registration is idempotent —
/// asking for an existing name returns the existing handle, so callers
/// don't coordinate.
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Mutex<Inner>>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.lock();
        f.debug_struct("MetricsRegistry")
            .field("metrics", &inner.metrics.len())
            .field("sources", &inner.sources.len())
            .finish()
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // Telemetry must never take the process down: recover a poisoned
        // lock rather than propagating a panic into the hot path.
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Returns the counter named `name`, creating it if absent. If the
    /// name exists as another kind, a fresh unregistered handle is
    /// returned (the first registration wins; telemetry never panics).
    pub fn counter(&self, name: &str) -> Counter {
        let mut inner = self.lock();
        match inner
            .metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Counter::new()))
        {
            Metric::Counter(c) => c.clone(),
            _ => Counter::new(),
        }
    }

    /// Returns the gauge named `name`, creating it if absent.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut inner = self.lock();
        match inner
            .metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Gauge::new()))
        {
            Metric::Gauge(g) => g.clone(),
            _ => Gauge::new(),
        }
    }

    /// Returns the histogram named `name`, creating it if absent.
    pub fn histogram(&self, name: &str) -> Arc<LogHistogram> {
        let mut inner = self.lock();
        match inner
            .metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(LogHistogram::new())))
        {
            Metric::Histogram(h) => Arc::clone(h),
            _ => Arc::new(LogHistogram::new()),
        }
    }

    /// Registers a pull source under a stable `id` (replacing any source
    /// previously registered under the same id).
    pub fn register_source(&self, id: &str, source: Arc<dyn MetricSource>) {
        let mut inner = self.lock();
        if let Some(slot) = inner.sources.iter_mut().find(|(sid, _)| sid == id) {
            slot.1 = source;
        } else {
            inner.sources.push((id.to_string(), source));
        }
    }

    /// A deterministic point-in-time reading of every metric: registered
    /// metrics first, then pull-source contributions, sorted by name.
    pub fn snapshot(&self) -> Vec<(String, MetricValue)> {
        let inner = self.lock();
        let mut out: Vec<(String, MetricValue)> = inner
            .metrics
            .iter()
            .map(|(name, m)| {
                let v = match m {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                };
                (name.clone(), v)
            })
            .collect();
        for (_, src) in &inner.sources {
            src.collect(&mut out);
        }
        // Sources may interleave names anywhere in the namespace: sort the
        // union (stable on name collisions) so exports are reproducible.
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_state_and_registration_is_idempotent() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("nx_test_total");
        let b = reg.counter("nx_test_total");
        a.inc();
        b.add(4);
        assert_eq!(a.get(), 5);

        let g = reg.gauge("nx_test_depth");
        assert_eq!(g.add(3), 3);
        assert_eq!(g.add(-1), 2);
        assert_eq!(reg.gauge("nx_test_depth").get(), 2);

        let h = reg.histogram("nx_test_latency_cycles");
        h.record(100);
        assert_eq!(reg.histogram("nx_test_latency_cycles").count(), 1);
    }

    #[test]
    fn kind_mismatch_returns_detached_handle() {
        let reg = MetricsRegistry::new();
        reg.counter("nx_kind").inc();
        let g = reg.gauge("nx_kind"); // wrong kind: detached, no panic
        g.set(9);
        match &reg.snapshot()[..] {
            [(name, MetricValue::Counter(1))] => assert_eq!(name, "nx_kind"),
            other => panic!("unexpected snapshot {other:?}"),
        }
    }

    #[test]
    fn snapshot_is_sorted_and_includes_sources() {
        struct Src;
        impl MetricSource for Src {
            fn collect(&self, out: &mut Vec<(String, MetricValue)>) {
                out.push(("nx_a_pulled".into(), MetricValue::Counter(7)));
            }
        }
        let reg = MetricsRegistry::new();
        reg.counter("nx_z_total").inc();
        reg.register_source("src", Arc::new(Src));
        reg.register_source("src", Arc::new(Src)); // replace, not duplicate
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["nx_a_pulled", "nx_z_total"]);
    }
}
