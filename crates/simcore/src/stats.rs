//! Online means, histograms and empirical CDFs.
//!
//! These are the primitives behind every reported metric: per-period
//! accuracy averages, finish-rate windows, latency breakdowns and the
//! reuse-time CDFs of Figs 12–13.

/// Online mean: the count and running mean of a stream of
/// observations.
#[derive(Clone, Debug, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats::default()
    }

    /// Adds one observation.
    pub fn add(&mut self, x: f64) {
        self.n += 1;
        self.mean += (x - self.mean) / self.n as f64;
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }
}

/// Fixed-width histogram over `[lo, hi)` with overflow/underflow buckets.
#[derive(Clone, Debug)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    buckets: Vec<u64>,
    underflow: u64,
    overflow: u64,
    total: u64,
}

impl Histogram {
    /// Creates a histogram with `n` equal-width buckets spanning `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `n == 0` or `hi <= lo`.
    pub fn new(lo: f64, hi: f64, n: usize) -> Self {
        assert!(n > 0 && hi > lo, "invalid histogram bounds");
        Histogram {
            lo,
            hi,
            buckets: vec![0; n],
            underflow: 0,
            overflow: 0,
            total: 0,
        }
    }

    /// Records one observation.
    pub fn add(&mut self, x: f64) {
        self.total += 1;
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let n = self.buckets.len();
            let idx = ((x - self.lo) / (self.hi - self.lo) * n as f64) as usize;
            self.buckets[idx.min(n - 1)] += 1;
        }
    }

    /// Total number of observations recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Per-bucket counts (excluding under/overflow).
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Approximate quantile from the histogram (`q` in `\[0, 1\]`). Returns
    /// the lower edge of the bucket containing the quantile. Under/overflow
    /// mass clamps to the bounds.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return self.lo;
        }
        let target = (q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64;
        let mut acc = self.underflow;
        if acc >= target {
            return self.lo;
        }
        let width = (self.hi - self.lo) / self.buckets.len() as f64;
        for (i, c) in self.buckets.iter().enumerate() {
            acc += c;
            if acc >= target {
                return self.lo + i as f64 * width;
            }
        }
        self.hi
    }
}

/// An exact empirical CDF built from raw samples.
///
/// Used for the content reuse-time distributions (Figs 12–13), where the
/// paper reports full CDFs. Samples are stored and sorted lazily.
#[derive(Clone, Debug, Default)]
pub struct Cdf {
    samples: Vec<f64>,
    sorted: bool,
}

impl Cdf {
    /// Creates an empty CDF accumulator.
    pub fn new() -> Self {
        Cdf::default()
    }

    /// Adds one sample.
    pub fn add(&mut self, x: f64) {
        self.samples.push(x);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether there are no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples
                // simlint: allow(no-unwrap-in-lib) — callers record finite metric samples; NaN here means a corrupted metric pipeline
                .sort_by(|a, b| a.partial_cmp(b).expect("NaN sample in CDF"));
            self.sorted = true;
        }
    }

    /// Exact quantile (`q` in `\[0, 1\]`); 0.0 when empty.
    pub fn quantile(&mut self, q: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        let idx = ((q.clamp(0.0, 1.0) * (self.samples.len() - 1) as f64).round()) as usize;
        self.samples[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_mean_var() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.add(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert_eq!(OnlineStats::new().mean(), 0.0);
    }

    #[test]
    fn histogram_quantiles() {
        let mut h = Histogram::new(0.0, 100.0, 100);
        for i in 0..100 {
            h.add(i as f64 + 0.5);
        }
        assert_eq!(h.total(), 100);
        assert!((h.quantile(0.5) - 49.0).abs() <= 1.0);
        assert!((h.quantile(0.99) - 98.0).abs() <= 1.0);
        h.add(-5.0);
        h.add(1000.0);
        assert_eq!(h.quantile(0.0), 0.0);
        assert_eq!(h.quantile(1.0), 100.0);
    }

    #[test]
    fn cdf_quantiles_and_points() {
        let mut c = Cdf::new();
        for i in (1..=100).rev() {
            c.add(i as f64);
        }
        assert_eq!(c.len(), 100);
        assert!((c.quantile(0.5) - 50.0).abs() <= 1.0);
    }

    #[test]
    fn cdf_empty_is_safe() {
        let mut c = Cdf::new();
        assert!(c.is_empty());
        assert_eq!(c.quantile(0.5), 0.0);
    }
}
