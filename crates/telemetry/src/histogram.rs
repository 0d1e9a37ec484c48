//! Log-bucketed latency/size histograms (HDR-style).
//!
//! Values land in power-of-two octaves subdivided into
//! [`SUB_BUCKETS`](crate::buckets::SUB_BUCKETS) linear sub-buckets, so
//! relative quantization error is bounded by `1/SUB_BUCKETS` (≈ 3.1%) at
//! any magnitude while the whole `u64` range fits in a fixed
//! [`BUCKETS`]-slot array. Recording is one atomic add —
//! cheap enough for per-request hot paths — and two histograms with the
//! same geometry [`merge`](LogHistogram::merge) exactly (merging equals
//! having recorded into one histogram, a property the test battery pins).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

// The bucket geometry lives in `crate::buckets` — one shared
// implementation for the histogram, its exemplar table, and the SLO
// engine's latency accounting (re-exported at the crate root).
use crate::buckets::{bucket_high, bucket_index, BUCKETS};

/// A fresh all-zero bucket array (`AtomicU64` is not `Copy`; build the
/// array through a `Vec`).
fn zeroed_buckets() -> Box<[AtomicU64; BUCKETS]> {
    let v: Vec<AtomicU64> = (0..BUCKETS).map(|_| AtomicU64::new(0)).collect();
    match v.into_boxed_slice().try_into() {
        Ok(b) => b,
        Err(_) => unreachable!("vector built with BUCKETS elements"),
    }
}

/// A lock-free, mergeable log-bucketed histogram over `u64` values.
///
/// All counters are monotone atomics: recording from many threads and
/// snapshotting concurrently are both safe (a snapshot taken mid-traffic
/// is a consistent-enough view: counts only grow).
pub struct LogHistogram {
    buckets: Box<[AtomicU64; BUCKETS]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    /// Per-bucket exemplar slots, allocated on the first traced record:
    /// each holds `trace_id + 1` of the bucket's most recent sample
    /// (0 = none). Untraced histograms never pay for the table.
    exemplars: OnceLock<Box<[AtomicU64; BUCKETS]>>,
}

impl std::fmt::Debug for LogHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogHistogram")
            .field("count", &self.count())
            .field("sum", &self.sum())
            .field("min", &self.min())
            .field("max", &self.max())
            .finish()
    }
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: zeroed_buckets(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            exemplars: OnceLock::new(),
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Records one observation carrying a trace id: the value's bucket
    /// keeps `trace_id` as its most recent exemplar, so a tail bucket
    /// links straight to that request's per-stage span breakdown.
    #[inline]
    pub fn record_traced(&self, v: u64, trace_id: u64) {
        self.record(v);
        let slots = self.exemplars.get_or_init(zeroed_buckets);
        slots[bucket_index(v)].store(trace_id.wrapping_add(1), Ordering::Relaxed);
    }

    /// The most recent exemplar trace id recorded into `v`'s bucket.
    pub fn exemplar_for(&self, v: u64) -> Option<u64> {
        let slots = self.exemplars.get()?;
        match slots[bucket_index(v)].load(Ordering::Relaxed) {
            0 => None,
            id => Some(id.wrapping_sub(1)),
        }
    }

    /// Records `n` observations of the same value.
    pub fn record_n(&self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[bucket_index(v)].fetch_add(n, Ordering::Relaxed);
        self.count.fetch_add(n, Ordering::Relaxed);
        self.sum.fetch_add(v.saturating_mul(n), Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Folds every observation of `other` into `self`. Exactly equivalent
    /// to having recorded `other`'s observations here (same geometry).
    pub fn merge(&self, other: &LogHistogram) {
        for (mine, theirs) in self.buckets.iter().zip(other.buckets.iter()) {
            let n = theirs.load(Ordering::Relaxed);
            if n > 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.min
            .fetch_min(other.min.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max
            .fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
        if let Some(theirs) = other.exemplars.get() {
            let mine = self.exemplars.get_or_init(zeroed_buckets);
            for (m, t) in mine.iter().zip(theirs.iter()) {
                let id = t.load(Ordering::Relaxed);
                if id != 0 {
                    m.store(id, Ordering::Relaxed);
                }
            }
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Smallest observation (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        if self.count() == 0 {
            None
        } else {
            Some(self.min.load(Ordering::Relaxed))
        }
    }

    /// Largest observation (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        if self.count() == 0 {
            None
        } else {
            Some(self.max.load(Ordering::Relaxed))
        }
    }

    /// Arithmetic mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// Value at quantile `q` (in `[0, 1]`): the upper bound of the bucket
    /// holding the order statistic of rank `ceil(q * count)`, clamped to
    /// the observed min/max. Relative quantization error is bounded by
    /// `1/SUB_BUCKETS`. Returns `None` when empty.
    pub fn value_at_quantile(&self, q: f64) -> Option<u64> {
        let n = self.count();
        if n == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                let hi = bucket_high(i).min(self.max.load(Ordering::Relaxed));
                return Some(hi.max(self.min.load(Ordering::Relaxed)));
            }
        }
        self.max()
    }

    /// Median (p50).
    pub fn p50(&self) -> Option<u64> {
        self.value_at_quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> Option<u64> {
        self.value_at_quantile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> Option<u64> {
        self.value_at_quantile(0.99)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> Option<u64> {
        self.value_at_quantile(0.999)
    }

    /// An owned point-in-time copy, for export and reports.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let exemplars = self.exemplars.get();
        let mut buckets = Vec::new();
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                let exemplar = exemplars.and_then(|slots| match slots[i].load(Ordering::Relaxed) {
                    0 => None,
                    id => Some(id.wrapping_sub(1)),
                });
                buckets.push(BucketCount {
                    le: bucket_high(i),
                    count: n,
                    exemplar,
                });
            }
        }
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            min: self.min().unwrap_or(0),
            max: self.max().unwrap_or(0),
            p50: self.p50().unwrap_or(0),
            p90: self.p90().unwrap_or(0),
            p99: self.p99().unwrap_or(0),
            p999: self.p999().unwrap_or(0),
            buckets,
        }
    }
}

/// One non-empty bucket of a snapshot: `count` observations with values
/// `≤ le` (and greater than the previous bucket's `le`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BucketCount {
    /// Inclusive upper bound of the bucket.
    pub le: u64,
    /// Observations in the bucket (not cumulative).
    pub count: u64,
    /// Trace id of the bucket's most recent traced sample, when any
    /// observation arrived via [`LogHistogram::record_traced`].
    pub exemplar: Option<u64>,
}

/// A point-in-time copy of a [`LogHistogram`], used by the exporters.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Smallest recorded value (0 when empty).
    pub min: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
    /// Non-empty buckets in ascending `le` order.
    pub buckets: Vec<BucketCount>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buckets::SUB_BUCKETS;

    #[test]
    fn small_values_are_exact() {
        let h = LogHistogram::new();
        for v in 0..SUB_BUCKETS {
            h.record(v);
        }
        assert_eq!(h.count(), SUB_BUCKETS);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(SUB_BUCKETS - 1));
        // Below SUB_BUCKETS every value has its own bucket: quantiles are
        // exact.
        assert_eq!(h.value_at_quantile(0.0), Some(0));
        assert_eq!(h.value_at_quantile(1.0), Some(SUB_BUCKETS - 1));
    }

    #[test]
    fn exemplars_track_most_recent_trace() {
        let h = LogHistogram::new();
        h.record(10_000); // untraced: no exemplar table yet
        assert_eq!(h.exemplar_for(10_000), None);
        h.record_traced(10_000, 41);
        h.record_traced(10_000, 42); // most recent wins
        h.record_traced(77, 7);
        assert_eq!(h.exemplar_for(10_000), Some(42));
        assert_eq!(h.exemplar_for(77), Some(7));
        assert_eq!(h.exemplar_for(3), None);
        let snap = h.snapshot();
        let tail = snap.buckets.iter().find(|b| b.le >= 10_000).unwrap();
        assert_eq!(tail.exemplar, Some(42));
        assert_eq!(tail.count, 3);
        // Trace id 0 is representable (slots store id + 1).
        h.record_traced(3, 0);
        assert_eq!(h.exemplar_for(3), Some(0));

        // Merge carries exemplars across.
        let other = LogHistogram::new();
        other.record_traced(10_000, 99);
        h.merge(&other);
        assert_eq!(h.exemplar_for(10_000), Some(99));
    }

    #[test]
    fn relative_error_is_bounded() {
        let h = LogHistogram::new();
        for v in [100u64, 10_000, 1_000_000, 123_456_789] {
            h.record(v);
        }
        for (q, exact) in [(0.25, 100u64), (0.5, 10_000), (0.75, 1_000_000)] {
            let got = h.value_at_quantile(q).unwrap();
            let err = got.abs_diff(exact) as f64 / exact as f64;
            assert!(err <= 1.0 / SUB_BUCKETS as f64, "q={q} got={got} err={err}");
        }
    }

    #[test]
    fn merge_equals_single_histogram() {
        let a = LogHistogram::new();
        let b = LogHistogram::new();
        let one = LogHistogram::new();
        for i in 0..1000u64 {
            let v = i * i % 77_777;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            one.record(v);
        }
        a.merge(&b);
        assert_eq!(a.snapshot(), one.snapshot());
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.p99(), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), 0.0);
        assert!(h.snapshot().buckets.is_empty());
    }

    #[test]
    fn record_n_matches_repeated_record() {
        let a = LogHistogram::new();
        let b = LogHistogram::new();
        a.record_n(12_345, 7);
        for _ in 0..7 {
            b.record(12_345);
        }
        assert_eq!(a.snapshot(), b.snapshot());
        a.record_n(1, 0); // no-op
        assert_eq!(a.count(), 7);
    }
}
