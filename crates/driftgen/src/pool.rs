//! Per-period retraining sample pools.
//!
//! At each period boundary, the inference requests received during the
//! previous period — labelled by the golden model — become the new
//! training data (§1, §3.2). A [`RetrainPool`] holds that data for one
//! model, tracks which samples have already been consumed by retraining
//! slices (so concurrent jobs "do not use retraining samples that have
//! been used or are being used by other jobs", §3.3.2), and hands out
//! samples in a caller-supplied priority order (AdaInf orders them by
//! deviation from the old data; baselines use arrival order).
//!
//! The samples themselves are immutable and shared: when the period
//! ends, the runtime keeps the retiring pool's set as the drift
//! detector's old data, and the detector's boundary snapshots read the
//! same set, all without a copy.
//!
//! The consumption order is a `u32` per sample, half the bytes of a
//! `usize` order, so a pool holds at most `u32::MAX` samples. Taking a
//! slice gathers its rows straight through that order, with no widened
//! copy of the indices.

use crate::stream::LabeledSamples;
use std::sync::Arc;

/// The retraining sample pool of one model for the current period.
///
/// ```
/// use adainf_driftgen::{RetrainPool, TaskStream, TaskStreamConfig};
/// use adainf_simcore::Prng;
/// let root = Prng::new(1);
/// let mut stream = TaskStream::new(TaskStreamConfig::new("demo", 4, 0), &root);
/// let mut pool = RetrainPool::new(stream.sample(100));
/// let slice = pool.take(30);
/// assert_eq!(slice.len(), 30);
/// assert_eq!(pool.remaining(), 70);
/// assert!((pool.used_fraction() - 0.3).abs() < 1e-12);
/// ```
#[derive(Clone, Debug)]
pub struct RetrainPool {
    samples: Arc<LabeledSamples>,
    /// Sample indices in consumption order (highest priority first).
    order: Vec<u32>,
    /// How many of `order` have been consumed.
    cursor: usize,
}

impl RetrainPool {
    /// Creates a pool over `samples`, consumed in arrival order until
    /// [`Self::set_order`] installs a different priority.
    ///
    /// # Panics
    /// Panics with more than `u32::MAX` samples, the most a `u32` order
    /// can index.
    pub fn new(samples: LabeledSamples) -> Self {
        assert!(
            u32::try_from(samples.len()).is_ok(),
            "at most u32::MAX samples in a pool"
        );
        let order = (0..samples.len() as u32).collect();
        RetrainPool {
            samples: Arc::new(samples),
            order,
            cursor: 0,
        }
    }

    /// An empty pool (models unaffected by drift are not retrained).
    pub fn empty() -> Self {
        RetrainPool::new(LabeledSamples::empty())
    }

    /// Total number of samples in the pool.
    pub fn total(&self) -> usize {
        self.samples.len()
    }

    /// Samples not yet consumed.
    pub fn remaining(&self) -> usize {
        self.order.len() - self.cursor
    }

    /// Samples already consumed.
    pub fn used(&self) -> usize {
        self.cursor
    }

    /// Fraction of the pool consumed so far (0 when the pool is empty).
    pub fn used_fraction(&self) -> f64 {
        if self.order.is_empty() {
            0.0
        } else {
            self.cursor as f64 / self.order.len() as f64
        }
    }

    /// The underlying samples, shared: clone the `Arc` to keep them
    /// past the pool's lifetime without copying them.
    pub fn samples(&self) -> &Arc<LabeledSamples> {
        &self.samples
    }

    /// Installs a consumption priority over the *unconsumed* portion of
    /// the pool. `priority` must be a permutation of `0..total()`;
    /// already-consumed samples keep their position at the front.
    ///
    /// # Panics
    /// Panics if `priority` is not a permutation of the full index range.
    pub fn set_order(&mut self, priority: &[u32]) {
        let n = self.samples.len();
        assert_eq!(priority.len(), n, "order length mismatch");
        let mut pending = vec![false; n];
        for &i in priority {
            let i = i as usize;
            assert!(i < n && !pending[i], "not a permutation");
            pending[i] = true;
        }
        for &i in &self.order[..self.cursor] {
            pending[i as usize] = false;
        }
        self.order.truncate(self.cursor);
        self.order
            .extend(priority.iter().copied().filter(|&i| pending[i as usize]));
    }

    /// Takes up to `n` samples off the front of the priority order,
    /// marking them consumed. Returns an empty batch when exhausted.
    pub fn take(&mut self, n: usize) -> LabeledSamples {
        let end = self.cursor.saturating_add(n).min(self.order.len());
        let batch = self.samples.gather(&self.order[self.cursor..end]);
        self.cursor = end;
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{TaskStream, TaskStreamConfig};
    use adainf_simcore::Prng;

    fn pool_of(n: usize) -> RetrainPool {
        let root = Prng::new(4);
        let mut s = TaskStream::new(TaskStreamConfig::new("t", 3, 1), &root);
        RetrainPool::new(s.sample(n))
    }

    #[test]
    fn take_consumes_without_repeats() {
        let mut p = pool_of(10);
        let a = p.take(4);
        let b = p.take(4);
        let c = p.take(4);
        assert_eq!(a.len(), 4);
        assert_eq!(b.len(), 4);
        assert_eq!(c.len(), 2); // exhausted
        assert_eq!(p.remaining(), 0);
        assert_eq!(p.used(), 10);
        assert!((p.used_fraction() - 1.0).abs() < 1e-12);
        assert!(p.take(1).is_empty());
    }

    #[test]
    fn set_order_prioritises_unconsumed() {
        let mut p = pool_of(6);
        let first = p.take(2); // consumes order[0..2] = samples 0,1
        assert_eq!(first.len(), 2);
        // Now prioritise sample 5 first.
        p.set_order(&[5, 4, 3, 2, 1, 0]);
        let next = p.take(1);
        assert_eq!(next.len(), 1);
        assert_eq!(next.labels[0], p.samples().labels[5]);
        assert_eq!(next.inputs.row(0), p.samples().inputs.row(5));
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn bad_order_panics() {
        let mut p = pool_of(3);
        p.set_order(&[0, 0, 1]);
    }

    #[test]
    fn empty_pool_is_inert() {
        let mut p = RetrainPool::empty();
        assert_eq!(p.total(), 0);
        assert_eq!(p.used_fraction(), 0.0);
        assert!(p.take(5).is_empty());
    }
}
