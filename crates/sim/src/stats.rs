//! Statistics accumulators: running summaries and exact percentiles.

/// Running summary of a scalar series (counts, mean, extrema).
#[derive(Debug, Clone, Default)]
pub struct Summary {
    count: u64,
    sum: f64,
    sum_sq: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// An empty summary.
    pub fn new() -> Self {
        Self {
            count: 0,
            sum: 0.0,
            sum_sq: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        self.sum += x;
        self.sum_sq += x * x;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Population standard deviation (0 when empty).
    pub fn std_dev(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let m = self.mean();
        (self.sum_sq / self.count as f64 - m * m).max(0.0).sqrt()
    }

    /// Minimum observation (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Maximum observation (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }
}

/// Exact percentile tracker: stores every sample (fine at experiment
/// scales) and sorts on query.
#[derive(Debug, Clone, Default)]
pub struct Percentiles {
    samples: Vec<f64>,
    sorted: bool,
}

impl Percentiles {
    /// An empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation.
    pub fn record(&mut self, x: f64) {
        self.samples.push(x);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// The `p`-th percentile (0.0..=100.0) by nearest-rank; `None` when
    /// empty.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `0.0..=100.0`.
    pub fn percentile(&mut self, p: f64) -> Option<f64> {
        assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
        if self.samples.is_empty() {
            return None;
        }
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
            self.sorted = true;
        }
        let n = self.samples.len();
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        Some(self.samples[rank.clamp(1, n) - 1])
    }

    /// Median shorthand.
    pub fn median(&mut self) -> Option<f64> {
        self.percentile(50.0)
    }

    /// Mean of all samples.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basics() {
        let mut s = Summary::new();
        for x in [1.0, 2.0, 3.0, 4.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 4);
        assert_eq!(s.mean(), 2.5);
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.max(), Some(4.0));
        assert!((s.std_dev() - (1.25f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn empty_summary_is_safe() {
        let s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.std_dev(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let mut p = Percentiles::new();
        for x in 1..=100 {
            p.record(f64::from(x));
        }
        assert_eq!(p.percentile(50.0), Some(50.0));
        assert_eq!(p.percentile(99.0), Some(99.0));
        assert_eq!(p.percentile(100.0), Some(100.0));
        assert_eq!(p.percentile(0.0), Some(1.0));
        assert_eq!(p.median(), Some(50.0));
    }

    #[test]
    fn percentiles_interleave_record_and_query() {
        let mut p = Percentiles::new();
        p.record(10.0);
        assert_eq!(p.percentile(50.0), Some(10.0));
        p.record(20.0);
        p.record(0.0);
        assert_eq!(p.percentile(50.0), Some(10.0));
        assert_eq!(p.count(), 3);
    }

    #[test]
    fn empty_percentiles() {
        let mut p = Percentiles::new();
        assert_eq!(p.percentile(99.0), None);
    }
}
