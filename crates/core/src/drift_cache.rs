//! Per-period drift artifact cache.
//!
//! The §3.2 detection loop and the §3.3.2 retraining-order selection
//! consume the same expensive artifacts — feature matrices, a PCA fit of
//! the old training data, projections, per-class means and deviation
//! rankings — and historically recomputed them per consumer: twice inside
//! `detect_drift` (pool + reference rankings each refit the PCA) and a
//! third time in the retraining-order selection for every impacted node.
//! This module computes each node's artifacts **exactly once per period**
//! and shares them.
//!
//! Filling: at each period boundary the scheduler builds every stale
//! entry at once, in two phases fanned out across the boundary's
//! workers, so its lookups that period all hit.
//! [`DriftCache::fit_stale`] fits each stale node's PCA basis and class
//! means on its old training set; the scheduler then frees every old
//! training set and draws the new pools, and [`DriftCache::rank_stale`]
//! ranks each pool and held-out set against its fit. A boundary thus
//! never holds a model's old training set and its new pool at once.
//! [`DriftCache::artifacts`] builds on a miss for every other caller;
//! like every build, it panics on a node whose old set is gone or whose
//! pool is not drawn. Only a set that really is empty takes the
//! identity-order path.
//!
//! Determinism: PCA-fit randomness is routed through a child [`Prng`]
//! stream derived from the scheduler's root stream via [`Prng::split`],
//! keyed by `(period, node)`. A cached fit is therefore draw-identical to
//! a refit — the artifacts are a pure function of `(pool generation,
//! model version, root stream)`, which is exactly the cache key.
//!
//! Invalidation: entries are keyed by `(app, node)` and tagged with
//! `(pool generation, model version)`. The pool generation is the
//! runtime's period counter — `advance_period` wholesale-replaces pools
//! and reference sets, so any period bump invalidates. The model version
//! bumps on every retraining slice, so a retrained model never serves
//! stale rankings. Once the boundary's last reader is done (the
//! scheduler's detection sweep and `set_order`), [`DriftCache::retire`]
//! cuts every entry down to its key and fitted basis, the warm-start
//! seed of the next period's build: rankings and prefix-sums do not stay
//! resident all period, nor sit beside the next period's while those
//! build. A retired entry is never a hit; a lookup at its key rebuilds.
//!
//! Sample orders are `u32` (a pool never holds more than `u32::MAX`
//! samples), half the bytes of `usize` orders over 6000-sample pools.

use adainf_apps::AppRuntime;
use adainf_driftgen::LabeledSamples;
use adainf_nn::metrics::cosine_distance;
use adainf_nn::pca::{Pca, PcaScratch};
use adainf_nn::{InferScratch, Label, Matrix};
use adainf_simcore::{parallel, Prng};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

/// Stream label base for the per-`(period, node)` PCA child streams.
/// Mixed (not added) so labels cannot collide with other subsystem
/// streams split from the same root.
const PCA_STREAM: u64 = 0xD21F_7000;

/// Everything the drift pipeline needs about one `(app, node)` in one
/// period, computed in a single pass over the data. `PartialEq`
/// compares the rankings exactly and the matrices element-wise — the
/// parallel ≡ sequential property tests additionally assert `to_bits`
/// equality on the float payloads to rule out signed-zero drift.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DriftArtifacts {
    /// Pool-sample indices by descending deviation from the old training
    /// data (§3.2) — a permutation of `0..pool.len()`.
    pub deviation: Vec<u32>,
    /// The §3.3.2 retraining consumption order: the deviation ranking's
    /// most-deviating half interleaved 1:1 with the remainder.
    pub retrain: Vec<u32>,
    /// Held-out reference samples ranked by the same deviation metric.
    pub ref_order: Vec<u32>,
    /// `pool_prefix[i]` = correct predictions (at the full cut) among the
    /// first `i` samples of `deviation`, with `pool_prefix[0] == 0`.
    /// Prefix accuracy is `prefix[take] / take`, bit-equal to
    /// `accuracy_on` over the same prefix subset. Extended **lazily** via
    /// [`Self::pool_prefix_at`] to the deepest `take` any consumer has
    /// asked for — the `S`-growth loop usually stops well short of the
    /// full pool, so samples past its deepest cut are never predicted.
    pub pool_prefix: Vec<u32>,
    /// Same lazily-extended prefix-sum over `ref_order` for the held-out
    /// reference set (see [`Self::ref_prefix_at`]).
    pub ref_prefix: Vec<u32>,
    /// The fitted PCA basis (one unit row per component), kept as the
    /// warm-start seed for the next period's fit of the same
    /// `(app, node)`. Empty when the node had no old data to fit.
    pub basis: Matrix,
}

/// Extends a correctness prefix-sum to cover `take` samples of `order`,
/// predicting only the not-yet-covered chunk. The head forward pass is
/// row-independent, so predicting `order[done..take]` as its own batch
/// yields the same per-sample predictions as any other batching — the
/// running count is bit-equal to a full-set pass however it is grown.
/// The chunk's input rows are gathered into `scratch` straight through
/// the `u32` order and predicted through the scratch-based forward
/// pass: no subset clone, no widened index copy, no per-layer
/// allocations, bit-identical predictions. The pool and the held-out
/// reference prefixes both run this same input pass.
fn extend_prefix(
    prefix: &mut Vec<u32>,
    rt: &AppRuntime,
    node: usize,
    samples: &LabeledSamples,
    order: &[u32],
    take: usize,
    scratch: &mut DetectScratch,
) {
    if prefix.len() > take || samples.is_empty() {
        return;
    }
    let model = &rt.models[node];
    let done = prefix.len() - 1;
    scratch
        .chunk
        .gather_rows_from(&samples.inputs, &order[done..take]);
    let cut = model.profile().full_cut();
    let preds = model.predict_with_scratch(&scratch.chunk, cut, &mut scratch.infer);
    let mut acc = prefix[done];
    for (&p, &i) in preds.iter().zip(&order[done..take]) {
        acc += u32::from(p == usize::from(samples.labels[i as usize]));
        prefix.push(acc);
    }
}

impl DriftArtifacts {
    /// Correct-count over the first `take` samples of the deviation
    /// ranking, extending the lazy prefix-sum as far as needed.
    pub fn pool_prefix_at(
        &mut self,
        rt: &AppRuntime,
        node: usize,
        take: usize,
        scratch: &mut DetectScratch,
    ) -> u32 {
        extend_prefix(
            &mut self.pool_prefix,
            rt,
            node,
            rt.pools[node].samples(),
            &self.deviation,
            take,
            scratch,
        );
        self.pool_prefix[take]
    }

    /// Correct-count over the first `take` samples of the reference
    /// ranking, extending the lazy prefix-sum as far as needed.
    pub fn ref_prefix_at(
        &mut self,
        rt: &AppRuntime,
        node: usize,
        take: usize,
        scratch: &mut DetectScratch,
    ) -> u32 {
        extend_prefix(
            &mut self.ref_prefix,
            rt,
            node,
            rt.ref_samples(node),
            &self.ref_order,
            take,
            scratch,
        );
        self.ref_prefix[take]
    }

    /// `strict-invariants` structural checks: the orders are permutations
    /// of their sample ranges and the prefix-sums are monotone running
    /// counts no longer than their sample range — the properties the
    /// S-growth loop and the pool consumer rely on without re-validating
    /// per lookup.
    fn check_invariants(&self, pool_len: usize, ref_len: usize) {
        let is_permutation = |order: &[u32], n: usize| {
            let mut seen = vec![false; n];
            order.len() == n
                && order.iter().all(|&i| {
                    let i = i as usize;
                    i < n && !std::mem::replace(&mut seen[i], true)
                })
        };
        assert!(
            is_permutation(&self.deviation, pool_len),
            "strict-invariants: deviation order is not a permutation of the pool"
        );
        assert!(
            is_permutation(&self.retrain, pool_len),
            "strict-invariants: retrain order is not a permutation of the pool"
        );
        assert!(
            is_permutation(&self.ref_order, ref_len),
            "strict-invariants: reference order is not a permutation of the held-out set"
        );
        let is_prefix_count = |prefix: &[u32], n: usize| {
            !prefix.is_empty()
                && prefix.len() <= n + 1
                && prefix[0] == 0
                && prefix.windows(2).all(|w| w[1] == w[0] || w[1] == w[0] + 1)
        };
        assert!(
            is_prefix_count(&self.pool_prefix, pool_len),
            "strict-invariants: pool prefix-sum is not a running correctness count"
        );
        assert!(
            is_prefix_count(&self.ref_prefix, ref_len),
            "strict-invariants: reference prefix-sum is not a running correctness count"
        );
    }
}

/// Reusable buffers for [`build_artifacts`]: PCA scratch, feature and
/// projection matrices, the scored index list and the inference
/// ping-pong buffers of the lazy prefix extension. One instance serves
/// every node of every app — artifacts are built one at a time.
#[derive(Clone, Debug, Default)]
pub struct DetectScratch {
    pca: PcaScratch,
    /// Feature matrix of the sample set being fitted or ranked: the old
    /// set, then the pool, then the held-out set, one after another.
    /// Each projection centres it in place.
    feats: Matrix,
    projected: Matrix,
    scored: Vec<(u32, f64)>,
    /// Gathered ranked-subset rows for the prefix extension.
    chunk: Matrix,
    /// Forward-pass ping-pong buffers for the prefix extension.
    infer: InferScratch,
}

/// Mean projected old-feature vector per class, accumulated in one
/// ascending pass over the labels. Classes unseen in the old data fall
/// back to the global mean. Bit-identical to a per-class rescan: each
/// class's sum still adds rows in ascending row order.
pub fn class_means(projected: &Matrix, labels: &[Label], classes: usize) -> Vec<Vec<f32>> {
    let k = projected.cols();
    let global_mean = projected.col_means();
    let mut sums = vec![0.0f32; classes * k];
    let mut counts = vec![0usize; classes];
    for (i, &label) in labels.iter().enumerate() {
        let label = usize::from(label);
        counts[label] += 1;
        for (m, v) in sums[label * k..(label + 1) * k]
            .iter_mut()
            .zip(projected.row(i))
        {
            *m += v;
        }
    }
    (0..classes)
        .map(|c| {
            if counts[c] == 0 {
                global_mean.clone()
            } else {
                sums[c * k..(c + 1) * k]
                    .iter()
                    .map(|&s| s / counts[c] as f32)
                    .collect()
            }
        })
        .collect()
}

/// Ranks `new` samples by descending cosine deviation of their projected
/// (pre-computed) feature vectors from the per-class means of the old
/// data. The projection centres `features` in place.
fn rank_features(
    new: &LabeledSamples,
    features: &mut Matrix,
    pca: &Pca,
    means: &[Vec<f32>],
    projected: &mut Matrix,
    scored: &mut Vec<(u32, f64)>,
) -> Vec<u32> {
    if new.is_empty() {
        return Vec::new();
    }
    pca.transform_into(features, projected);
    scored.clear();
    scored.extend(new.labels.iter().enumerate().map(|(i, &label)| {
        let mean = &means[usize::from(label)];
        (i as u32, cosine_distance(projected.row(i), mean))
    }));
    sort_by_deviation(scored);
    scored.iter().map(|&(i, _)| i).collect()
}

/// Sorts `(index, distance)` pairs by descending distance, ascending
/// index among equal distances: the stable descending sort of the
/// distances, since `scored` is built in ascending index. The keys are
/// integers, so no float comparator runs. Each distance maps to its
/// IEEE total-order bits after `+ 0.0` folds −0.0 into +0.0, which
/// orders exactly as `partial_cmp` does on non-NaN values (plain
/// `total_cmp` would put −0.0 below +0.0 and perturb the goldens).
/// Index keys are unique, so the unstable in-place sort is
/// deterministic. A NaN distance panics, as comparing it did.
fn sort_by_deviation(scored: &mut [(u32, f64)]) {
    scored.sort_unstable_by_key(|&(i, d)| {
        assert!(!d.is_nan(), "finite distances");
        let bits = (d + 0.0).to_bits() as i64;
        let total_order = bits ^ (((bits >> 63) as u64) >> 1) as i64;
        (std::cmp::Reverse(total_order), i)
    });
}

/// Interleaves the deviation ranking into the §3.3.2 retraining order:
/// most-deviating half 1:1 with the remainder, odd tail appended. Early
/// slices are thus dominated by the drifted samples (the paper's
/// "samples that deviate the most"), while every SGD stage still sees a
/// distribution mix, which keeps sequential slice training from
/// regressing onto the stale-looking tail at the end of the pool.
fn interleave(ranked: &[u32]) -> Vec<u32> {
    let n = ranked.len();
    let half = n / 2;
    let mut out = Vec::with_capacity(n);
    for i in 0..half {
        out.push(ranked[i]);
        if half + i < n {
            out.push(ranked[half + i]);
        }
    }
    if n % 2 == 1 {
        out.push(ranked[n - 1]);
    }
    out
}

/// What a build fits on a node's old training set: the PCA basis and
/// the per-class means of the projected old features. Everything the
/// rankings need of the old data, so the old set can go before the new
/// pool is drawn.
#[derive(Debug)]
struct OldFit {
    pca: Pca,
    means: Vec<Vec<f32>>,
}

/// Fits the PCA basis and class means on node `node`'s old training
/// set: one feature pass over the old data and **one** PCA fit, shared
/// by both rankings. `None` when the old set is empty: there is nothing
/// to deviate from.
///
/// # Panics
/// Panics if the old training set was freed.
fn fit_old(
    rt: &AppRuntime,
    node: usize,
    pca_components: usize,
    root: &Prng,
    scratch: &mut DetectScratch,
    warm: Option<&Matrix>,
) -> Option<OldFit> {
    let old = rt.old_samples(node);
    if old.is_empty() {
        return None;
    }
    let model = &rt.models[node];
    let DetectScratch {
        pca: pca_scratch,
        feats,
        projected,
        ..
    } = scratch;
    model.features_into(old, feats);
    let mut rng = root.split(PCA_STREAM ^ (rt.period() << 16) ^ node as u64);
    let pca = Pca::fit_warm_with_scratch(feats, pca_components, &mut rng, pca_scratch, warm);
    pca.transform_into(feats, projected);
    let means = class_means(projected, &old.labels, model.classes());
    Some(OldFit { pca, means })
}

/// The deviation rankings of the pool and the held-out reference set
/// against a fit of the old data (identity orders without one).
///
/// The pool and held-out features go through the one `scratch.feats`
/// buffer in turn, as the old features did in [`fit_old`]: each matrix
/// is dead once its set is fitted or ranked, so a build holds one
/// feature matrix at a time and keeps none after it returns.
///
/// # Panics
/// Panics if the pool is not drawn or the old held-out set was freed.
fn rank_new(
    rt: &AppRuntime,
    node: usize,
    fit: Option<&OldFit>,
    scratch: &mut DetectScratch,
) -> (Vec<u32>, Vec<u32>) {
    let pool = rt.pools[node].samples();
    let held_out = rt.ref_samples(node);
    let Some(OldFit { pca, means }) = fit else {
        return (
            (0..pool.len() as u32).collect(),
            (0..held_out.len() as u32).collect(),
        );
    };
    let model = &rt.models[node];
    let DetectScratch {
        feats,
        projected,
        scored,
        ..
    } = scratch;
    model.features_into(pool, feats);
    let deviation = rank_features(pool, feats, pca, means, projected, scored);
    model.features_into(held_out, feats);
    let ref_order = rank_features(held_out, feats, pca, means, projected, scored);
    (deviation, ref_order)
}

/// One node's ranked artifact set from its rankings and fit: the
/// retraining interleave, the correctness prefix-sums left at their
/// seed (`[0]`), to be extended lazily by
/// [`DriftArtifacts::pool_prefix_at`] / [`DriftArtifacts::ref_prefix_at`]
/// as deep as the detection loop actually reads, and the fitted basis
/// (empty without a fit).
fn ranked_artifacts(
    rt: &AppRuntime,
    node: usize,
    (deviation, ref_order): (Vec<u32>, Vec<u32>),
    fit: Option<OldFit>,
) -> DriftArtifacts {
    let retrain = interleave(&deviation);
    let artifacts = DriftArtifacts {
        deviation,
        retrain,
        ref_order,
        pool_prefix: vec![0],
        ref_prefix: vec![0],
        basis: fit.map_or_else(Matrix::default, |fit| fit.pca.into_components()),
    };
    if cfg!(feature = "strict-invariants") {
        artifacts.check_invariants(rt.pools[node].samples().len(), rt.ref_samples(node).len());
    }
    artifacts
}

/// Builds one node's ranked artifact set — both deviation rankings and
/// the retraining interleave — from its old training set, drawn pool
/// and old held-out set, with the prefix-sums left at their seed.
///
/// PCA randomness comes from `root.split(...)` keyed by the runtime's
/// period and the node, never from an advancing caller stream — so the
/// result is reproducible from the key and the warm-start basis alone:
/// replaying a build with the same `warm` input is bit-identical.
fn build_ranked(
    rt: &AppRuntime,
    node: usize,
    pca_components: usize,
    root: &Prng,
    scratch: &mut DetectScratch,
    warm: Option<&Matrix>,
) -> DriftArtifacts {
    let fit = fit_old(rt, node, pca_components, root, scratch, warm);
    let rankings = rank_new(rt, node, fit.as_ref(), scratch);
    ranked_artifacts(rt, node, rankings, fit)
}

/// Builds one node's complete artifact set: one feature pass over the old
/// data, **one** shared PCA fit, one projection per sample set, one
/// deviation ranking each for the pool and the held-out reference, the
/// retraining interleave and both correctness prefix-sums extended to
/// their full sample sets.
///
/// # Panics
/// Panics if the node's old training or held-out set was freed, or its
/// pool is not drawn.
pub fn build_artifacts(
    rt: &AppRuntime,
    node: usize,
    pca_components: usize,
    root: &Prng,
    scratch: &mut DetectScratch,
) -> DriftArtifacts {
    let mut artifacts = build_ranked(rt, node, pca_components, root, scratch, None);
    let pool_len = artifacts.deviation.len();
    let ref_len = artifacts.ref_order.len();
    if pool_len > 0 {
        artifacts.pool_prefix_at(rt, node, pool_len, scratch);
    }
    if ref_len > 0 {
        artifacts.ref_prefix_at(rt, node, ref_len, scratch);
    }
    artifacts
}

/// One cache slot: the tag it was built for and the artifacts
/// themselves.
#[derive(Clone, Debug)]
struct CacheEntry {
    /// `(pool generation, model version)` the artifacts were built at.
    key: (u64, u64),
    artifacts: DriftArtifacts,
    /// Set by [`DriftCache::retire`]: `artifacts` then holds only its
    /// basis, and the entry answers no lookup.
    retired: bool,
}

impl CacheEntry {
    fn live(key: (u64, u64), artifacts: DriftArtifacts) -> Self {
        CacheEntry {
            key,
            artifacts,
            retired: false,
        }
    }

    /// Whether a lookup at `key` may be answered from this entry.
    fn hits(&self, key: (u64, u64)) -> bool {
        !self.retired && self.key == key
    }

    /// The warm-start input a build at `key` should consume given this
    /// prior entry (callers only rebuild at a key the entry does not
    /// answer).
    ///
    /// * Next pool generation at an unchanged model version — the
    ///   previous period's basis is a valid warm start: the old-sample
    ///   distribution moves gradually, so the dominant subspace barely
    ///   rotates.
    /// * Anything else — a model-version bump (retraining rotated the
    ///   feature space) or a generation jump — invalidates the warm
    ///   state; the build falls back to the keyed random start.
    ///
    /// A retired entry seeds exactly as it did live: retirement keeps
    /// the key and the basis this rule reads.
    fn warm_for(&self, key: (u64, u64)) -> Option<&Matrix> {
        let usable = self.key.1 == key.1
            && self.key.0 + 1 == key.0
            && self.artifacts.basis.rows() > 0;
        usable.then_some(&self.artifacts.basis)
    }
}

/// The per-period artifact cache. Entries are keyed by `(app, node)` and
/// tagged with `(pool generation, model version)`; a tag mismatch
/// rebuilds in place, so the map never outgrows `apps × nodes` entries.
/// Rebuilds warm-start their PCA fit from the previous period's basis
/// when the model version is unchanged (see `CacheEntry::warm_for`).
#[derive(Clone, Debug, Default)]
pub struct DriftCache {
    entries: BTreeMap<(usize, usize), CacheEntry>,
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that rebuilt the artifacts.
    pub misses: u64,
    /// Rebuilds that warm-started their PCA fit from a previous basis.
    pub warm_starts: u64,
    scratch: DetectScratch,
}

/// One stale entry between the two phases of the boundary fill: its
/// slot, its key, whether its fit warm-started, and the fit.
#[derive(Debug)]
struct StaleBuild {
    slot: (usize, usize),
    key: (u64, u64),
    warm_started: bool,
    fit: Option<OldFit>,
}

/// The fits [`DriftCache::fit_stale`] made on the old training sets,
/// owned, for [`DriftCache::rank_stale`] to rank the new data against.
#[derive(Debug)]
pub struct StaleFits {
    builds: Vec<StaleBuild>,
}

impl StaleFits {
    /// The `(app, node)` slots being rebuilt, in job order: the pools
    /// [`DriftCache::rank_stale`] reads.
    pub fn slots(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.builds.iter().map(|b| b.slot)
    }
}

impl DriftCache {
    /// The artifacts of `(app, node)` for the runtime's current period
    /// and model version, building them on first use.
    ///
    /// # Panics
    /// A build panics if the node's old training or held-out set was
    /// freed, or its pool is not drawn.
    pub fn artifacts(
        &mut self,
        app: usize,
        rt: &AppRuntime,
        node: usize,
        pca_components: usize,
        root: &Prng,
    ) -> &DriftArtifacts {
        let key = (rt.period(), rt.models[node].version());
        let scratch = &mut self.scratch;
        match self.entries.entry((app, node)) {
            Entry::Occupied(mut e) => {
                if e.get().hits(key) {
                    self.hits += 1;
                } else {
                    self.misses += 1;
                    let warm = e.get().warm_for(key);
                    self.warm_starts += u64::from(warm.is_some());
                    let artifacts = build_ranked(rt, node, pca_components, root, scratch, warm);
                    *e.get_mut() = CacheEntry::live(key, artifacts);
                }
                &e.into_mut().artifacts
            }
            Entry::Vacant(v) => {
                self.misses += 1;
                let artifacts = build_ranked(rt, node, pca_components, root, scratch, None);
                &v.insert(CacheEntry::live(key, artifacts)).artifacts
            }
        }
    }

    /// Phase one of the period boundary's fill: fits the PCA basis and
    /// class means of every stale entry among `jobs` on its node's old
    /// training set, across up to `threads` workers (0 = the host's
    /// available parallelism). Current live entries are skipped (their
    /// next lookup hits). Each fit borrows the runtime and the current
    /// entry's warm basis and is a pure function of its
    /// `(pool generation, model version)` key and keyed PCA stream, so
    /// the fits are the same at every width. Warm inputs come from the
    /// *previous* period's entries, live or retired, so builds of one
    /// period never feed each other.
    ///
    /// The fits are all phase two needs of the old data: the caller
    /// frees the old training sets and draws the stale pools
    /// ([`StaleFits::slots`]) before handing them to
    /// [`Self::rank_stale`].
    ///
    /// # Panics
    /// Panics if a stale node's old training set was freed.
    pub fn fit_stale(
        &self,
        jobs: &[(usize, usize)],
        apps: &[AppRuntime],
        pca_components: usize,
        root: &Prng,
        threads: usize,
    ) -> StaleFits {
        let stale: Vec<((usize, usize), (u64, u64))> = jobs
            .iter()
            .map(|&(app, node)| {
                let rt = &apps[app];
                ((app, node), (rt.period(), rt.models[node].version()))
            })
            .filter(|(slot, key)| self.entries.get(slot).is_none_or(|e| !e.hits(*key)))
            .collect();
        let entries = &self.entries;
        let fits = parallel::fan_out_indexed(
            stale.len(),
            threads,
            DetectScratch::default,
            |i, scratch| {
                let ((app, node), key) = stale[i];
                let warm = entries.get(&(app, node)).and_then(|e| e.warm_for(key));
                let fit = fit_old(&apps[app], node, pca_components, root, scratch, warm);
                (warm.is_some(), fit)
            },
        );
        StaleFits {
            builds: stale
                .into_iter()
                .zip(fits)
                .map(|((slot, key), (warm_started, fit))| StaleBuild {
                    slot,
                    key,
                    warm_started,
                    fit,
                })
                .collect(),
        }
    }

    /// Phase two of the period boundary's fill: ranks every fitted
    /// entry's drawn pool and old held-out set against its fit, across
    /// up to `threads` workers, and installs the results in job order,
    /// bumping the counters a missing [`Self::artifacts`] lookup would.
    /// Entries, counters and warm chains equal those of sequential
    /// lookups at every width.
    ///
    /// Returns the resolved worker count (0 when nothing was stale).
    ///
    /// # Panics
    /// Panics if a fitted node's pool is not drawn or its old held-out
    /// set was freed.
    pub fn rank_stale(&mut self, fits: StaleFits, apps: &[AppRuntime], threads: usize) -> usize {
        let builds = fits.builds;
        let rankings = parallel::fan_out_indexed(
            builds.len(),
            threads,
            DetectScratch::default,
            |i, scratch| {
                let StaleBuild {
                    slot: (app, node),
                    fit,
                    ..
                } = &builds[i];
                rank_new(&apps[*app], *node, fit.as_ref(), scratch)
            },
        );
        let width = parallel::resolved_threads(builds.len(), threads);
        for (build, rankings) in builds.into_iter().zip(rankings) {
            let (app, node) = build.slot;
            self.misses += 1;
            self.warm_starts += u64::from(build.warm_started);
            let artifacts = ranked_artifacts(&apps[app], node, rankings, build.fit);
            self.entries
                .insert(build.slot, CacheEntry::live(build.key, artifacts));
        }
        width
    }

    /// Retires every entry to its warm-start seed: the key and the
    /// fitted basis stay, the rankings and prefix-sums are freed. The
    /// scheduler calls this once the boundary's detection sweep and
    /// `set_order` have read the period's artifacts, so they do not stay
    /// resident all period, nor beside the next period's while those
    /// build. A retired entry answers no lookup: [`Self::get`] and
    /// [`Self::get_mut`] return `None`, and [`Self::artifacts`] at its
    /// key rebuilds (a miss) rather than hits. The next generation's
    /// build warm-starts from it exactly as from a live entry.
    pub fn retire(&mut self) {
        for e in self.entries.values_mut() {
            let basis = std::mem::take(&mut e.artifacts.basis);
            e.artifacts = DriftArtifacts {
                basis,
                ..DriftArtifacts::default()
            };
            e.retired = true;
        }
    }

    /// Shared view of a live entry; `None` when [`Self::artifacts`] has
    /// not run for `(app, node)` yet or the entry is retired.
    pub fn get(&self, app: usize, node: usize) -> Option<&DriftArtifacts> {
        self.entries
            .get(&(app, node))
            .filter(|e| !e.retired)
            .map(|e| &e.artifacts)
    }

    /// Mutable view of a live entry, for lazily extending its
    /// prefix-sums in place (the extension is value-preserving, so a
    /// later hit replays exactly what a fresh build would produce).
    pub fn get_mut(&mut self, app: usize, node: usize) -> Option<&mut DriftArtifacts> {
        self.entries
            .get_mut(&(app, node))
            .filter(|e| !e.retired)
            .map(|e| &mut e.artifacts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adainf_apps::catalog;
    use adainf_driftgen::workload::ArrivalConfig;

    /// The integer-key sort must reproduce the float comparator it
    /// replaced on equal distances, signed zeros and the slightly
    /// negative `1 − cos` values rounding produces.
    #[test]
    fn deviation_sort_matches_the_float_comparator() {
        let mut rng = Prng::new(5);
        let special = [
            0.0,
            -0.0,
            -1.1102230246251565e-16,
            -2.220446049250313e-16,
            1.1102230246251565e-16,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            0.25,
            1.0,
            2.0,
            f64::INFINITY,
        ];
        for n in [0u32, 1, 2, 7, 64, 500] {
            let scored: Vec<(u32, f64)> = (0..n)
                .map(|i| {
                    let d = if rng.index(3) == 0 {
                        special[rng.index(special.len())]
                    } else {
                        // Quarter steps tie often; half get a small jitter.
                        let jitter = rng.f64() * 1e-3 * rng.index(2) as f64;
                        rng.index(9) as f64 / 4.0 - 0.5 + jitter
                    };
                    (i, d)
                })
                .collect();
            let mut want = scored.clone();
            want.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite").then(a.0.cmp(&b.0)));
            let mut got = scored;
            sort_by_deviation(&mut got);
            let order = |v: &[(u32, f64)]| v.iter().map(|&(i, _)| i).collect::<Vec<_>>();
            assert_eq!(order(&got), order(&want), "{n} pairs");
        }
    }

    #[test]
    #[should_panic(expected = "finite distances")]
    fn deviation_sort_panics_on_nan() {
        sort_by_deviation(&mut [(0, 0.5), (1, f64::NAN), (2, 0.1)]);
    }

    /// A runtime `periods` boundaries in, its pools drawn.
    fn drifted_runtime(periods: usize) -> AppRuntime {
        let root = Prng::new(314);
        let mut rt = AppRuntime::new(
            catalog::video_surveillance(0),
            ArrivalConfig::default(),
            400,
            &root,
        );
        for _ in 0..periods {
            rt.advance_period();
        }
        rt.draw_pools();
        rt
    }

    /// Both phases of the boundary fill over drawn pools, without the
    /// scheduler's frees between them, so lookups can still rebuild
    /// from the same runtime.
    fn refresh(
        cache: &mut DriftCache,
        jobs: &[(usize, usize)],
        apps: &[AppRuntime],
        root: &Prng,
        threads: usize,
    ) -> usize {
        let fits = cache.fit_stale(jobs, apps, 8, root, threads);
        cache.rank_stale(fits, apps, threads)
    }

    /// The scheduler's boundary sequence — fit the stale nodes on their
    /// old sets, free the old sets, draw the pools, rank — installs the
    /// artifacts sequential lookups build on a runtime whose pools were
    /// drawn up front, with the pools undrawn until the draw.
    #[test]
    fn phased_fill_with_frees_matches_lookups() {
        let root = Prng::new(7);
        let twin = drifted_runtime(2);
        let mut apps = [AppRuntime::new(
            catalog::video_surveillance(0),
            ArrivalConfig::default(),
            400,
            &Prng::new(314),
        )];
        apps[0].advance_period();
        apps[0].advance_period();
        let nodes = apps[0].spec.nodes.len();
        let jobs: Vec<(usize, usize)> = (0..nodes).map(|n| (0, n)).collect();
        let mut cache = DriftCache::default();
        let fits = cache.fit_stale(&jobs, &apps, 8, &root, 2);
        apps[0].free_old_samples();
        assert!(apps[0].pools.iter().all(|p| !p.is_drawn()));
        assert_eq!(fits.slots().collect::<Vec<_>>(), jobs);
        for (a, node) in fits.slots() {
            apps[a].pools[node].draw();
        }
        assert_eq!(cache.rank_stale(fits, &apps, 2), 2);
        let mut seq = DriftCache::default();
        for node in 0..nodes {
            let want = seq.artifacts(0, &twin, node, 8, &root);
            let got = cache.get(0, node).expect("installed");
            assert_eq!(got, want, "node {node}");
            assert_eq!(basis_bits(got), basis_bits(want), "node {node}");
        }
        assert_eq!(
            (cache.misses, cache.warm_starts),
            (seq.misses, seq.warm_starts)
        );
    }

    #[test]
    #[should_panic(expected = "old training set of node 1 read after it was freed")]
    fn looking_up_a_node_whose_old_set_is_gone_panics() {
        let mut rt = drifted_runtime(1);
        rt.free_old_samples();
        DriftCache::default().artifacts(0, &rt, 1, 8, &Prng::new(7));
    }

    #[test]
    #[should_panic(expected = "old held-out set of node 0 read after it was freed")]
    fn building_on_a_freed_held_out_set_panics() {
        let mut rt = drifted_runtime(1);
        rt.free_ref_samples();
        build_artifacts(&rt, 0, 8, &Prng::new(7), &mut DetectScratch::default());
    }

    #[test]
    #[should_panic(expected = "retraining pool read before it was drawn")]
    fn building_on_an_undrawn_pool_panics() {
        let mut rt = drifted_runtime(1);
        rt.advance_period();
        build_artifacts(&rt, 2, 8, &Prng::new(7), &mut DetectScratch::default());
    }

    /// The old `rank_against` computed class means with one full rescan
    /// of the labels per class; the single-pass accumulator must produce
    /// bit-identical means.
    #[test]
    fn single_pass_class_means_match_per_class_rescan() {
        let mut rng = Prng::new(21);
        let n = 200;
        let k = 6;
        let classes = 5;
        let data: Vec<f32> = (0..n * k).map(|_| rng.gauss() as f32).collect();
        let projected = Matrix::from_slice(n, k, &data);
        // Class 4 deliberately unseen: must fall back to the global mean.
        let labels: Vec<Label> = (0..n).map(|i| (i % (classes - 1)) as Label).collect();

        // Reference: the old per-class rescan, verbatim.
        let global_mean = projected.col_means();
        let mut expect = vec![global_mean.clone(); classes];
        let mut counts = vec![0usize; classes];
        for &label in &labels {
            counts[usize::from(label)] += 1;
        }
        for (c, out) in expect.iter_mut().enumerate() {
            if counts[c] == 0 {
                continue;
            }
            let mut mean = vec![0.0f32; k];
            for (i, &label) in labels.iter().enumerate() {
                if usize::from(label) == c {
                    for (m, v) in mean.iter_mut().zip(projected.row(i)) {
                        *m += v;
                    }
                }
            }
            for m in &mut mean {
                *m /= counts[c] as f32;
            }
            *out = mean;
        }

        let got = class_means(&projected, &labels, classes);
        assert_eq!(got.len(), expect.len());
        for (g, e) in got.iter().zip(&expect) {
            let gb: Vec<u32> = g.iter().map(|x| x.to_bits()).collect();
            let eb: Vec<u32> = e.iter().map(|x| x.to_bits()).collect();
            assert_eq!(gb, eb, "class means diverge");
        }
    }

    #[test]
    fn prefix_sums_match_accuracy_on_prefix_subsets() {
        let rt = drifted_runtime(2);
        let root = Prng::new(99);
        let mut scratch = DetectScratch::default();
        for node in 0..rt.spec.nodes.len() {
            let art = build_artifacts(&rt, node, 8, &root, &mut scratch);
            let pool = rt.pools[node].samples();
            let model = &rt.models[node];
            assert_eq!(art.pool_prefix.len(), pool.len() + 1);
            for take in [1, pool.len() / 3, pool.len()] {
                if take == 0 {
                    continue;
                }
                let subset = pool.gather(&art.deviation[..take]);
                let direct = model.accuracy_on(&subset, model.profile().full_cut());
                let via_prefix = art.pool_prefix[take] as f64 / take as f64;
                assert_eq!(
                    direct.to_bits(),
                    via_prefix.to_bits(),
                    "node {node} take {take}"
                );
            }
        }
    }

    #[test]
    fn cached_artifacts_bit_equal_fresh_build() {
        let rt = drifted_runtime(2);
        let root = Prng::new(7);
        let mut cache = DriftCache::default();
        let first = cache.artifacts(0, &rt, 1, 8, &root).clone();
        assert_eq!(cache.misses, 1);
        let hit = cache.artifacts(0, &rt, 1, 8, &root).clone();
        assert_eq!(cache.hits, 1);
        // A hit must replay the build exactly, and an independent fresh
        // build from the same root stream must agree bit-for-bit.
        let fresh = build_artifacts(&rt, 1, 8, &root, &mut DetectScratch::default());
        assert_eq!(first.deviation, fresh.deviation);
        assert_eq!(first.retrain, fresh.retrain);
        assert_eq!(first.ref_order, fresh.ref_order);
        assert_eq!(hit.deviation, fresh.deviation);
        // Lazily extending the cached entry — in two steps, through a
        // hit — must land on the same prefix-sums as the eager build.
        let art = cache.get_mut(0, 1).expect("entry present");
        let mut scratch = DetectScratch::default();
        let half = fresh.deviation.len() / 2;
        art.pool_prefix_at(&rt, 1, half, &mut scratch);
        art.pool_prefix_at(&rt, 1, fresh.deviation.len(), &mut scratch);
        art.ref_prefix_at(&rt, 1, fresh.ref_order.len(), &mut scratch);
        assert_eq!(art.pool_prefix, fresh.pool_prefix);
        assert_eq!(art.ref_prefix, fresh.ref_prefix);
    }

    #[test]
    fn cache_invalidates_on_period_and_version_bumps() {
        let mut rt = drifted_runtime(1);
        let root = Prng::new(7);
        let mut cache = DriftCache::default();
        cache.artifacts(0, &rt, 1, 8, &root);
        cache.artifacts(0, &rt, 1, 8, &root);
        assert_eq!((cache.hits, cache.misses), (1, 1));
        // Pool-generation bump: new period → rebuild.
        rt.advance_period();
        rt.draw_pools();
        cache.artifacts(0, &rt, 1, 8, &root);
        assert_eq!((cache.hits, cache.misses), (1, 2));
        // Model-version bump: retraining → rebuild.
        let slice = rt.pools[1].samples().clone();
        rt.models[1].train_slice(&slice, 1);
        cache.artifacts(0, &rt, 1, 8, &root);
        assert_eq!((cache.hits, cache.misses), (1, 3));
        // Stable key afterwards: hit again.
        cache.artifacts(0, &rt, 1, 8, &root);
        assert_eq!((cache.hits, cache.misses), (2, 3));
    }

    fn basis_bits(art: &DriftArtifacts) -> Vec<u32> {
        art.basis.data().iter().map(|x| x.to_bits()).collect()
    }

    /// The period boundary's fill: `refresh` at every width must leave
    /// the cache — entries, counters and warm chains — bit-identical to
    /// sequential lookups, and every lookup after it must hit. A cache
    /// retired after each generation's reads, as the scheduler's is,
    /// warm-starts its next refresh from the bases alone and lands on
    /// the same bits.
    #[test]
    fn refresh_bit_equal_sequential_lookups() {
        let root = Prng::new(7);
        for threads in [1, 2, 4, 8] {
            let mut rt = drifted_runtime(1);
            let mut seq = DriftCache::default();
            let mut refreshed = DriftCache::default();
            let mut retiring = DriftCache::default();
            // Two generations so the second refresh exercises warm starts.
            for _ in 0..2 {
                let nodes = rt.spec.nodes.len();
                let jobs: Vec<(usize, usize)> = (0..nodes).map(|n| (0, n)).collect();
                let misses = refreshed.misses;
                let width = refresh(
                    &mut refreshed,
                    &jobs,
                    std::slice::from_ref(&rt),
                    &root,
                    threads,
                );
                assert_eq!(width, threads.min(nodes), "threads {threads}");
                assert_eq!(
                    refreshed.misses - misses,
                    nodes as u64,
                    "all slots stale at a fresh generation"
                );
                refresh(
                    &mut retiring,
                    &jobs,
                    std::slice::from_ref(&rt),
                    &root,
                    threads,
                );
                for node in 0..nodes {
                    let s = seq.artifacts(0, &rt, node, 8, &root).clone();
                    let p = refreshed.artifacts(0, &rt, node, 8, &root);
                    assert_eq!(&s, p, "threads {threads} node {node}");
                    assert_eq!(
                        basis_bits(&s),
                        basis_bits(p),
                        "threads {threads} node {node} basis"
                    );
                    let r = retiring.get(0, node).expect("live until retired");
                    assert_eq!(r, p, "threads {threads} node {node} after retirement");
                    assert_eq!(
                        basis_bits(r),
                        basis_bits(p),
                        "threads {threads} node {node}"
                    );
                }
                // A second refresh at the same key finds nothing stale.
                assert_eq!(
                    refresh(
                        &mut refreshed,
                        &jobs,
                        std::slice::from_ref(&rt),
                        &root,
                        threads
                    ),
                    0
                );
                retiring.retire();
                rt.advance_period();
                rt.draw_pools();
            }
            assert_eq!(seq.misses, refreshed.misses, "threads {threads}");
            assert_eq!(seq.warm_starts, refreshed.warm_starts, "threads {threads}");
            assert_eq!(retiring.misses, refreshed.misses, "threads {threads}");
            assert_eq!(
                retiring.warm_starts, refreshed.warm_starts,
                "threads {threads}"
            );
            assert!(
                refreshed.warm_starts > 0,
                "second generation must warm-start"
            );
            // Refreshed entries are current: the lookups above all hit.
            assert_eq!(
                refreshed.hits as usize,
                2 * rt.spec.nodes.len(),
                "threads {threads}"
            );
        }
    }

    /// Warm state survives exactly one period step at a fixed model
    /// version, and dies on a model-version bump or a generation jump —
    /// whether the previous entry is still live or already retired.
    #[test]
    fn warm_start_invalidates_on_version_and_generation_bumps() {
        let root = Prng::new(7);
        for retire in [false, true] {
            let first_build = |rt: &AppRuntime| {
                let mut cache = DriftCache::default();
                cache.artifacts(0, rt, 1, 8, &root);
                if retire {
                    cache.retire();
                }
                cache
            };

            // Adjacent periods, same model version: warm start.
            let mut rt = drifted_runtime(1);
            let mut cache = first_build(&rt);
            rt.advance_period();
            rt.draw_pools();
            let warm = cache.artifacts(0, &rt, 1, 8, &root).clone();
            assert_eq!(
                cache.warm_starts, 1,
                "adjacent period must warm-start ({retire})"
            );
            // The same build through a live entry: bit-equal.
            let mut live = DriftCache::default();
            live.artifacts(0, &drifted_runtime(1), 1, 8, &root);
            let want = live.artifacts(0, &rt, 1, 8, &root);
            assert_eq!(&warm, want, "retired {retire}");
            assert_eq!(basis_bits(&warm), basis_bits(want), "retired {retire}");

            // Model-version bump alongside the period step: cold restart.
            let mut rt = drifted_runtime(1);
            let mut cache = first_build(&rt);
            rt.advance_period();
            let slice = rt.pools[1].draw().clone();
            rt.models[1].train_slice(&slice, 1);
            cache.artifacts(0, &rt, 1, 8, &root);
            assert_eq!(
                cache.warm_starts, 0,
                "version bump must invalidate ({retire})"
            );

            // Generation jump (two periods between builds): cold restart.
            let mut rt = drifted_runtime(1);
            let mut cache = first_build(&rt);
            rt.advance_period();
            rt.advance_period();
            rt.draw_pools();
            cache.artifacts(0, &rt, 1, 8, &root);
            assert_eq!(
                cache.warm_starts, 0,
                "generation jump must invalidate ({retire})"
            );
        }
    }

    /// A retired entry answers no lookup: `get`/`get_mut` see nothing,
    /// and a lookup at the very key it was built at rebuilds — one miss,
    /// no hit — bit-equal to a fresh build, after which the entry is
    /// live again.
    #[test]
    fn retired_entries_are_never_hits() {
        let rt = drifted_runtime(2);
        let root = Prng::new(7);
        let nodes = rt.spec.nodes.len();
        let jobs: Vec<(usize, usize)> = (0..nodes).map(|n| (0, n)).collect();
        let mut cache = DriftCache::default();
        refresh(&mut cache, &jobs, std::slice::from_ref(&rt), &root, 1);
        cache.retire();
        for node in 0..nodes {
            assert!(cache.get(0, node).is_none(), "node {node}");
            assert!(cache.get_mut(0, node).is_none(), "node {node}");
        }
        let (hits, misses) = (cache.hits, cache.misses);
        let rebuilt = cache.artifacts(0, &rt, 1, 8, &root).clone();
        assert_eq!((cache.hits, cache.misses), (hits, misses + 1));
        let fresh = build_ranked(&rt, 1, 8, &root, &mut DetectScratch::default(), None);
        assert_eq!(rebuilt, fresh);
        assert_eq!(basis_bits(&rebuilt), basis_bits(&fresh));
        assert!(!rebuilt.deviation.is_empty());
        cache.artifacts(0, &rt, 1, 8, &root);
        assert_eq!((cache.hits, cache.misses), (hits + 1, misses + 1));
        assert!(cache.get(0, 1).is_some() && cache.get(0, 0).is_none());
        // The rebuilt entry's next refresh at the same key is a no-op;
        // the still-retired nodes rebuild.
        assert_eq!(
            refresh(&mut cache, &jobs, std::slice::from_ref(&rt), &root, 1),
            1
        );
        assert_eq!(cache.misses, misses + nodes as u64);
    }
}
