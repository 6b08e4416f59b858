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
//! A pool is drawn when first read. [`RetrainPool::deferred`] holds a
//! [`DeferredSample`] — the few hundred bytes of stream state the draw
//! reads — until the first [`RetrainPool::take`] or
//! [`RetrainPool::draw`]; [`RetrainPool::total`],
//! [`RetrainPool::remaining`] and [`RetrainPool::used`] answer without
//! drawing. A period boundary thus draws each new pool after the drift
//! detector has fitted and freed the old data, and never holds two
//! pool-sized sets per model. The pool's order is built with its draw.
//! [`RetrainPool::samples`] and [`RetrainPool::set_order`] panic on an
//! undrawn pool: there are no rows yet to read or to rank.
//!
//! The drawn samples are immutable and shared: when the period ends,
//! the runtime keeps the retiring pool's set as the drift detector's old
//! data without a copy.
//!
//! The consumption order is a `u32` per sample, half the bytes of a
//! `usize` order, so a pool holds at most `u32::MAX` samples. Taking a
//! slice gathers its rows straight through that order, with no widened
//! copy of the indices.

use crate::stream::{DeferredSample, LabeledSamples};
use std::sync::Arc;

/// A pool's samples: not drawn yet, or drawn and shared.
#[derive(Clone, Debug)]
enum Samples {
    Deferred(DeferredSample),
    Drawn(Arc<LabeledSamples>),
}

/// The retraining sample pool of one model for the current period.
///
/// ```
/// use adainf_driftgen::{RetrainPool, TaskStream, TaskStreamConfig};
/// use adainf_simcore::Prng;
/// let root = Prng::new(1);
/// let mut stream = TaskStream::new(TaskStreamConfig::new("demo", 4, 0), &root);
/// let mut pool = RetrainPool::deferred(stream.defer(100));
/// assert_eq!((pool.total(), pool.remaining()), (100, 100));
/// assert!(!pool.is_drawn());
/// let slice = pool.take(30); // the first read draws the pool
/// assert_eq!(slice.len(), 30);
/// assert_eq!(pool.remaining(), 70);
/// assert_eq!(pool.used(), 30);
/// ```
#[derive(Clone, Debug)]
pub struct RetrainPool {
    samples: Samples,
    /// Sample indices in consumption order (highest priority first);
    /// empty until the pool is drawn.
    order: Vec<u32>,
    /// How many of `order` have been consumed.
    cursor: usize,
}

/// The arrival-order consumption order of `n` samples.
///
/// # Panics
/// Panics with more than `u32::MAX` samples, the most a `u32` order can
/// index.
fn arrival_order(n: usize) -> Vec<u32> {
    assert!(
        u32::try_from(n).is_ok(),
        "at most u32::MAX samples in a pool"
    );
    (0..n as u32).collect()
}

impl RetrainPool {
    /// Creates a pool over drawn `samples`, consumed in arrival order
    /// until [`Self::set_order`] installs a different priority.
    ///
    /// # Panics
    /// Panics with more than `u32::MAX` samples, the most a `u32` order
    /// can index.
    pub fn new(samples: LabeledSamples) -> Self {
        RetrainPool {
            order: arrival_order(samples.len()),
            samples: Samples::Drawn(Arc::new(samples)),
            cursor: 0,
        }
    }

    /// Creates a pool whose samples are drawn at its first
    /// [`Self::take`] or [`Self::draw`].
    ///
    /// # Panics
    /// Panics with more than `u32::MAX` samples, as [`Self::new`] does.
    pub fn deferred(samples: DeferredSample) -> Self {
        assert!(
            u32::try_from(samples.len()).is_ok(),
            "at most u32::MAX samples in a pool"
        );
        RetrainPool {
            samples: Samples::Deferred(samples),
            order: Vec::new(),
            cursor: 0,
        }
    }

    /// An empty pool (models unaffected by drift are not retrained).
    pub fn empty() -> Self {
        RetrainPool::new(LabeledSamples::empty())
    }

    /// Draws the samples if they are not drawn yet, and returns them.
    pub fn draw(&mut self) -> &Arc<LabeledSamples> {
        if let Samples::Deferred(deferred) = &self.samples {
            let drawn = deferred.draw();
            self.order = arrival_order(drawn.len());
            self.samples = Samples::Drawn(Arc::new(drawn));
        }
        self.samples()
    }

    /// Whether the samples have been drawn.
    pub fn is_drawn(&self) -> bool {
        matches!(self.samples, Samples::Drawn(_))
    }

    /// Total number of samples in the pool, drawn or not.
    pub fn total(&self) -> usize {
        match &self.samples {
            Samples::Deferred(deferred) => deferred.len(),
            Samples::Drawn(samples) => samples.len(),
        }
    }

    /// Samples not yet consumed.
    pub fn remaining(&self) -> usize {
        self.total() - self.cursor
    }

    /// Samples already consumed.
    pub fn used(&self) -> usize {
        self.cursor
    }

    /// The underlying samples, shared: clone the `Arc` to keep them
    /// past the pool's lifetime without copying them.
    ///
    /// # Panics
    /// Panics if the pool is not drawn yet ([`Self::draw`] draws it).
    pub fn samples(&self) -> &Arc<LabeledSamples> {
        match &self.samples {
            Samples::Drawn(samples) => samples,
            Samples::Deferred(_) => panic!("retraining pool read before it was drawn"),
        }
    }

    /// Installs a consumption priority over the *unconsumed* portion of
    /// the pool. `priority` must be a permutation of `0..total()`;
    /// already-consumed samples keep their position at the front.
    ///
    /// # Panics
    /// Panics if `priority` is not a permutation of the full index
    /// range, or if the pool is not drawn yet (a priority ranks drawn
    /// samples).
    pub fn set_order(&mut self, priority: &[u32]) {
        assert!(
            self.is_drawn(),
            "set_order on a retraining pool not drawn yet"
        );
        let n = self.total();
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
    /// marking them consumed, and draws the pool first if it is not
    /// drawn yet. Returns an empty batch when exhausted.
    pub fn take(&mut self, n: usize) -> LabeledSamples {
        self.draw();
        let end = self.cursor.saturating_add(n).min(self.order.len());
        let batch = self.samples().gather(&self.order[self.cursor..end]);
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
        assert_eq!((p.used(), p.remaining()), (0, 0));
        assert!(p.take(5).is_empty());
    }

    /// A drawn pool and a deferred pool over the same draw: equal
    /// counts before any read, and equal slices after.
    fn drawn_and_deferred(n: usize) -> (RetrainPool, RetrainPool) {
        let root = Prng::new(4);
        let mut s = TaskStream::new(TaskStreamConfig::new("t", 3, 1), &root);
        let deferred = RetrainPool::deferred(s.clone().defer(n));
        (RetrainPool::new(s.sample(n)), deferred)
    }

    fn counts(p: &RetrainPool) -> (usize, usize, usize) {
        (p.total(), p.remaining(), p.used())
    }

    /// An undrawn pool answers `total`, `remaining` and `used` as the
    /// drawn pool does, without drawing; its first `take` draws it and
    /// hands out the same rows.
    #[test]
    fn deferred_pool_counts_like_a_drawn_one_and_take_draws_it() {
        for n in [0usize, 1, 10] {
            let (mut drawn, mut deferred) = drawn_and_deferred(n);
            assert!(drawn.is_drawn() && !deferred.is_drawn());
            assert_eq!(counts(&deferred), counts(&drawn), "n {n}");
            assert!(!deferred.is_drawn(), "counting drew the pool");
            let (a, b) = (drawn.take(4), deferred.take(4));
            assert!(deferred.is_drawn(), "take draws");
            assert_eq!(a.labels, b.labels, "n {n}");
            assert_eq!(a.inputs.data(), b.inputs.data(), "n {n}");
            assert_eq!(counts(&deferred), counts(&drawn), "n {n}");
            assert_eq!(deferred.samples().labels, drawn.samples().labels);
        }
        // An explicit draw leaves the arrival order and the counts.
        let (mut drawn, mut deferred) = drawn_and_deferred(6);
        assert_eq!(deferred.draw().len(), 6);
        assert_eq!(counts(&deferred), counts(&drawn));
        assert_eq!(deferred.take(6).labels, drawn.take(6).labels);
    }

    #[test]
    #[should_panic(expected = "retraining pool read before it was drawn")]
    fn reading_an_undrawn_pool_panics() {
        let (_, deferred) = drawn_and_deferred(5);
        deferred.samples();
    }

    #[test]
    #[should_panic(expected = "set_order on a retraining pool not drawn yet")]
    fn ordering_an_undrawn_pool_panics() {
        let (_, mut deferred) = drawn_and_deferred(3);
        deferred.set_order(&[2, 1, 0]);
    }
}
