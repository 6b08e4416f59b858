//! Windowed time series.
//!
//! A [`WindowSeries`] holds one ratio per fixed-width window of
//! simulated time. The evaluation reads three widths: the 50 s
//! retraining [`PERIOD`](crate::time::PERIOD) (accuracy in Figs 4, 5,
//! 7, 18 and 22), 5 s (the intra-period accuracy trajectory) and 1 s
//! (the finish-rate windows of Fig 19).

use crate::stats::OnlineStats;
use crate::time::{SimDuration, SimTime};

/// Ratio accumulator: `hits / total` per window (finish rates, accuracy).
#[derive(Clone, Copy, Debug, Default)]
pub struct Ratio {
    /// Numerator (e.g. requests that met their SLO).
    pub hits: f64,
    /// Denominator (e.g. all requests in the window).
    pub total: f64,
}

impl Ratio {
    /// The ratio value; `None` when the window saw no traffic.
    pub fn value(&self) -> Option<f64> {
        if self.total > 0.0 {
            Some(self.hits / self.total)
        } else {
            None
        }
    }
}

/// A series with one slot per fixed-width window of simulated time.
#[derive(Clone, Debug)]
pub struct WindowSeries {
    width: SimDuration,
    slots: Vec<Ratio>,
}

impl WindowSeries {
    /// Creates a series of `width`-wide windows.
    ///
    /// # Panics
    /// Panics on a zero-width window.
    pub fn new(width: SimDuration) -> Self {
        assert!(width.as_micros() > 0, "window width must be positive");
        WindowSeries {
            width,
            slots: Vec::new(),
        }
    }

    fn slot_mut(&mut self, at: SimTime) -> &mut Ratio {
        let idx = (at.as_micros() / self.width.as_micros()) as usize;
        if idx >= self.slots.len() {
            self.slots.resize(idx + 1, Ratio::default());
        }
        &mut self.slots[idx]
    }

    /// Records `hits` successes out of `total` attempts at time `at`.
    pub fn record(&mut self, at: SimTime, hits: f64, total: f64) {
        let slot = self.slot_mut(at);
        slot.hits += hits;
        slot.total += total;
    }

    /// Per-window ratios, skipping empty windows (`None`).
    pub fn ratios(&self) -> Vec<Option<f64>> {
        self.slots.iter().map(|s| s.value()).collect()
    }

    /// Mean of the non-empty per-window ratios — this matches how the
    /// paper averages finish rate "across all time periods".
    pub fn mean_ratio(&self) -> f64 {
        let mut stats = OnlineStats::new();
        for s in &self.slots {
            if let Some(v) = s.value() {
                stats.add(v);
            }
        }
        stats.mean()
    }

    /// Overall ratio pooling every window (total hits / total attempts).
    pub fn pooled_ratio(&self) -> f64 {
        let (mut h, mut t) = (0.0, 0.0);
        for s in &self.slots {
            h += s.hits;
            t += s.total;
        }
        if t > 0.0 {
            h / t
        } else {
            0.0
        }
    }

    /// Number of windows touched so far.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::PERIOD;

    #[test]
    fn windows_bucket_by_time() {
        let mut w = WindowSeries::new(SimDuration::from_secs(1));
        w.record(SimTime::from_millis(100), 1.0, 2.0);
        w.record(SimTime::from_millis(900), 1.0, 2.0);
        w.record(SimTime::from_millis(1500), 3.0, 3.0);
        let r = w.ratios();
        assert_eq!(r.len(), 2);
        assert_eq!(r[0], Some(0.5));
        assert_eq!(r[1], Some(1.0));
        assert!((w.mean_ratio() - 0.75).abs() < 1e-12);
        assert!((w.pooled_ratio() - 5.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn empty_windows_are_skipped() {
        let mut w = WindowSeries::new(SimDuration::from_secs(1));
        w.record(SimTime::from_secs(5), 1.0, 1.0);
        let r = w.ratios();
        assert_eq!(r.len(), 6);
        assert!(r[..5].iter().all(|x| x.is_none()));
        assert_eq!(w.mean_ratio(), 1.0);
    }

    #[test]
    fn mean_and_pooled_diverge_under_skewed_traffic() {
        // One tiny window at 100 % and one huge window at 0 %: the mean
        // of window ratios is 0.5, the pooled ratio is ~0.
        let mut w = WindowSeries::new(SimDuration::from_secs(1));
        w.record(SimTime::from_millis(100), 1.0, 1.0);
        w.record(SimTime::from_millis(1500), 0.0, 1000.0);
        assert!((w.mean_ratio() - 0.5).abs() < 1e-12);
        assert!(w.pooled_ratio() < 0.01);
    }

    #[test]
    fn period_series_uses_50s_periods() {
        let mut p = WindowSeries::new(PERIOD);
        p.record(SimTime::from_secs(10), 8.0, 10.0);
        p.record(SimTime::from_secs(60), 9.0, 10.0);
        assert_eq!(p.ratios(), vec![Some(0.8), Some(0.9)]);
        assert_eq!(p.len(), 2);
    }
}
