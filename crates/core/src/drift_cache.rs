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
//! entry at once ([`DriftCache::refresh`], fanned out across the
//! boundary's workers), so its lookups that period all hit.
//! [`DriftCache::artifacts`] builds on a miss for every other caller.
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
//! bumps on every retraining slice and parameter load, so a retrained
//! model never serves stale rankings.

use adainf_apps::AppRuntime;
use adainf_driftgen::LabeledSamples;
use adainf_nn::metrics::cosine_distance;
use adainf_nn::pca::{Pca, PcaScratch};
use adainf_nn::{InferScratch, Matrix};
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
    pub deviation: Vec<usize>,
    /// The §3.3.2 retraining consumption order: the deviation ranking's
    /// most-deviating half interleaved 1:1 with the remainder.
    pub retrain: Vec<usize>,
    /// Held-out reference samples ranked by the same deviation metric.
    pub ref_order: Vec<usize>,
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
/// The chunk's input rows are gathered into `scratch` and predicted
/// through the scratch-based forward pass: no subset clone, no
/// per-layer allocations, bit-identical predictions. The pool and the
/// held-out reference prefixes both run this same input pass.
fn extend_prefix(
    prefix: &mut Vec<u32>,
    rt: &AppRuntime,
    node: usize,
    samples: &LabeledSamples,
    order: &[usize],
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
    let cut = model.profile.full_cut();
    let preds = model.predict_with_scratch(&scratch.chunk, cut, &mut scratch.infer);
    let mut acc = prefix[done];
    for (p, &i) in preds.iter().zip(&order[done..take]) {
        acc += u32::from(*p == samples.labels[i]);
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
        let is_permutation = |order: &[usize], n: usize| {
            let mut seen = vec![false; n];
            order.len() == n
                && order
                    .iter()
                    .all(|&i| i < n && !std::mem::replace(&mut seen[i], true))
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
    feats: Matrix,
    projected: Matrix,
    scored: Vec<(usize, f64)>,
    /// Gathered ranked-subset rows for the prefix extension.
    chunk: Matrix,
    /// Forward-pass ping-pong buffers for the prefix extension.
    infer: InferScratch,
}

/// Mean projected old-feature vector per class, accumulated in one
/// ascending pass over the labels. Classes unseen in the old data fall
/// back to the global mean. Bit-identical to a per-class rescan: each
/// class's sum still adds rows in ascending row order.
pub fn class_means(projected: &Matrix, labels: &[usize], classes: usize) -> Vec<Vec<f32>> {
    let k = projected.cols();
    let global_mean = projected.col_means();
    let mut sums = vec![0.0f32; classes * k];
    let mut counts = vec![0usize; classes];
    for (i, &label) in labels.iter().enumerate() {
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
/// data.
fn rank_features(
    new: &LabeledSamples,
    features: &Matrix,
    pca: &Pca,
    means: &[Vec<f32>],
    pca_scratch: &mut PcaScratch,
    projected: &mut Matrix,
    scored: &mut Vec<(usize, f64)>,
) -> Vec<usize> {
    if new.is_empty() {
        return Vec::new();
    }
    pca.transform_into(features, pca_scratch, projected);
    scored.clear();
    scored.extend((0..new.len()).map(|i| {
        let mean = &means[new.labels[i]];
        (i, cosine_distance(projected.row(i), mean))
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
fn sort_by_deviation(scored: &mut [(usize, f64)]) {
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
fn interleave(ranked: &[usize]) -> Vec<usize> {
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

/// The deviation rankings of the pool and the held-out reference set,
/// from one feature pass over the old data and **one** shared PCA fit,
/// plus the fitted basis for warm-starting the next period.
///
/// The old, pool and held-out features go through the one
/// `scratch.feats` buffer in turn: each matrix is dead once its set is
/// fitted or ranked, so a build holds one feature matrix at a time and
/// keeps none after it returns.
fn rankings(
    rt: &AppRuntime,
    node: usize,
    pca_components: usize,
    root: &Prng,
    scratch: &mut DetectScratch,
    warm: Option<&Matrix>,
) -> (Vec<usize>, Vec<usize>, Matrix) {
    let old = rt.old_samples(node);
    let pool = rt.pools[node].samples();
    let held_out = rt.ref_samples(node);
    let model = &rt.models[node];
    if old.is_empty() {
        // No old data to deviate from: identity orders, nothing fitted.
        return (
            (0..pool.len()).collect(),
            (0..held_out.len()).collect(),
            Matrix::default(),
        );
    }
    let DetectScratch {
        pca: pca_scratch,
        feats,
        projected,
        scored,
        ..
    } = scratch;
    model.features_into(old, feats);
    let mut rng = root.split(PCA_STREAM ^ (rt.period() << 16) ^ node as u64);
    let pca = Pca::fit_warm_with_scratch(feats, pca_components, &mut rng, pca_scratch, warm);
    pca.transform_into(feats, pca_scratch, projected);
    let means = class_means(projected, &old.labels, model.classes());
    model.features_into(pool, feats);
    let deviation = rank_features(pool, feats, &pca, &means, pca_scratch, projected, scored);
    model.features_into(held_out, feats);
    let ref_order = rank_features(
        held_out,
        feats,
        &pca,
        &means,
        pca_scratch,
        projected,
        scored,
    );
    (deviation, ref_order, pca.into_components())
}

/// Builds one node's ranked artifact set — both deviation rankings and
/// the retraining interleave — with the correctness prefix-sums left at
/// their seed (`[0]`), to be extended lazily by
/// [`DriftArtifacts::pool_prefix_at`] / [`DriftArtifacts::ref_prefix_at`]
/// as deep as the detection loop actually reads.
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
    let (deviation, ref_order, basis) = rankings(rt, node, pca_components, root, scratch, warm);
    let retrain = interleave(&deviation);
    let artifacts = DriftArtifacts {
        deviation,
        retrain,
        ref_order,
        pool_prefix: vec![0],
        ref_prefix: vec![0],
        basis,
    };
    if cfg!(feature = "strict-invariants") {
        artifacts.check_invariants(rt.pools[node].samples().len(), rt.ref_samples(node).len());
    }
    artifacts
}

/// Builds one node's complete artifact set: one feature pass over the old
/// data, **one** shared PCA fit, one projection per sample set, one
/// deviation ranking each for the pool and the held-out reference, the
/// retraining interleave and both correctness prefix-sums extended to
/// their full sample sets.
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
}

impl CacheEntry {
    /// The warm-start input a build at `key` should consume given this
    /// prior entry (callers only rebuild at a key the entry does not
    /// hold).
    ///
    /// * Next pool generation at an unchanged model version — the
    ///   previous period's basis is a valid warm start: the old-sample
    ///   distribution moves gradually, so the dominant subspace barely
    ///   rotates.
    /// * Anything else — a model-version bump (retraining rotated the
    ///   feature space) or a generation jump — invalidates the warm
    ///   state; the build falls back to the keyed random start.
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

impl DriftCache {
    /// The artifacts of `(app, node)` for the runtime's current period
    /// and model version, building them on first use.
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
                if e.get().key == key {
                    self.hits += 1;
                } else {
                    self.misses += 1;
                    let warm = e.get().warm_for(key);
                    self.warm_starts += u64::from(warm.is_some());
                    let artifacts = build_ranked(rt, node, pca_components, root, scratch, warm);
                    *e.get_mut() = CacheEntry { key, artifacts };
                }
                &e.into_mut().artifacts
            }
            Entry::Vacant(v) => {
                self.misses += 1;
                let artifacts = build_ranked(rt, node, pca_components, root, scratch, None);
                &v.insert(CacheEntry { key, artifacts }).artifacts
            }
        }
    }

    /// The period boundary's fill: builds every stale entry among `jobs`
    /// across up to `threads` workers (0 = the host's available
    /// parallelism) and installs the results in job order, bumping the
    /// counters a missing [`Self::artifacts`] lookup would. Each build
    /// borrows the runtime and the evicted entry's warm basis and is a
    /// pure function of its `(pool generation, model version)` key and
    /// keyed PCA stream, so entries, counters and warm chains are the
    /// same at every width. Current entries are skipped (their next
    /// lookup hits). Warm inputs come from the *previous* period's
    /// entries, so builds of one period never feed each other.
    ///
    /// Returns the resolved worker count (0 when nothing was stale).
    pub fn refresh(
        &mut self,
        jobs: &[(usize, usize)],
        apps: &[AppRuntime],
        pca_components: usize,
        root: &Prng,
        threads: usize,
    ) -> usize {
        let stale: Vec<((usize, usize), (u64, u64))> = jobs
            .iter()
            .map(|&(app, node)| {
                let rt = &apps[app];
                ((app, node), (rt.period(), rt.models[node].version()))
            })
            .filter(|(slot, key)| self.entries.get(slot).is_none_or(|e| e.key != *key))
            .collect();
        let entries = &self.entries;
        let built = parallel::fan_out_indexed(
            stale.len(),
            threads,
            DetectScratch::default,
            |i, scratch| {
                let ((app, node), key) = stale[i];
                let warm = entries.get(&(app, node)).and_then(|e| e.warm_for(key));
                let artifacts = build_ranked(&apps[app], node, pca_components, root, scratch, warm);
                (warm.is_some(), artifacts)
            },
        );
        for (&(slot, key), (warm_started, artifacts)) in stale.iter().zip(built) {
            self.misses += 1;
            self.warm_starts += u64::from(warm_started);
            self.entries.insert(slot, CacheEntry { key, artifacts });
        }
        parallel::resolved_threads(stale.len(), threads)
    }

    /// Shared view of an already-built entry; `None` when
    /// [`Self::artifacts`] has not run for `(app, node)` yet.
    pub fn get(&self, app: usize, node: usize) -> Option<&DriftArtifacts> {
        self.entries.get(&(app, node)).map(|e| &e.artifacts)
    }

    /// Mutable view of an already-built entry, for lazily extending its
    /// prefix-sums in place (the extension is value-preserving, so a
    /// later hit replays exactly what a fresh build would produce).
    pub fn get_mut(&mut self, app: usize, node: usize) -> Option<&mut DriftArtifacts> {
        self.entries.get_mut(&(app, node)).map(|e| &mut e.artifacts)
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
        for n in [0, 1, 2, 7, 64, 500] {
            let scored: Vec<(usize, f64)> = (0..n)
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
            let order = |v: &[(usize, f64)]| v.iter().map(|&(i, _)| i).collect::<Vec<_>>();
            assert_eq!(order(&got), order(&want), "{n} pairs");
        }
    }

    #[test]
    #[should_panic(expected = "finite distances")]
    fn deviation_sort_panics_on_nan() {
        sort_by_deviation(&mut [(0, 0.5), (1, f64::NAN), (2, 0.1)]);
    }

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
        rt
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
        let labels: Vec<usize> = (0..n).map(|i| i % (classes - 1)).collect();

        // Reference: the old per-class rescan, verbatim.
        let global_mean = projected.col_means();
        let mut expect = vec![global_mean.clone(); classes];
        let mut counts = vec![0usize; classes];
        for &label in &labels {
            counts[label] += 1;
        }
        for (c, out) in expect.iter_mut().enumerate() {
            if counts[c] == 0 {
                continue;
            }
            let mut mean = vec![0.0f32; k];
            for (i, &label) in labels.iter().enumerate() {
                if label == c {
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
                let subset = pool.select(&art.deviation[..take]);
                let direct = model.accuracy_on(&subset, model.profile.full_cut());
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

    /// The period boundary's fill: `refresh` at every width must leave
    /// the cache — entries, counters and warm chains — bit-identical to
    /// sequential lookups, and every lookup after it must hit.
    #[test]
    fn refresh_bit_equal_sequential_lookups() {
        let root = Prng::new(7);
        for threads in [1, 2, 4, 8] {
            let mut rt = drifted_runtime(1);
            let mut seq = DriftCache::default();
            let mut refreshed = DriftCache::default();
            // Two generations so the second refresh exercises warm starts.
            for _ in 0..2 {
                let nodes = rt.spec.nodes.len();
                let jobs: Vec<(usize, usize)> = (0..nodes).map(|n| (0, n)).collect();
                let misses = refreshed.misses;
                let width = refreshed.refresh(&jobs, std::slice::from_ref(&rt), 8, &root, threads);
                assert_eq!(width, threads.min(nodes), "threads {threads}");
                assert_eq!(
                    refreshed.misses - misses,
                    nodes as u64,
                    "all slots stale at a fresh generation"
                );
                for node in 0..nodes {
                    let s = seq.artifacts(0, &rt, node, 8, &root).clone();
                    let p = refreshed.artifacts(0, &rt, node, 8, &root);
                    assert_eq!(&s, p, "threads {threads} node {node}");
                    let sb: Vec<u32> = s.basis.data().iter().map(|x| x.to_bits()).collect();
                    let pb: Vec<u32> = p.basis.data().iter().map(|x| x.to_bits()).collect();
                    assert_eq!(sb, pb, "threads {threads} node {node} basis");
                }
                // A second refresh at the same key finds nothing stale.
                assert_eq!(
                    refreshed.refresh(&jobs, std::slice::from_ref(&rt), 8, &root, threads),
                    0
                );
                rt.advance_period();
            }
            assert_eq!(seq.misses, refreshed.misses, "threads {threads}");
            assert_eq!(seq.warm_starts, refreshed.warm_starts, "threads {threads}");
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
    /// version, and dies on a model-version bump or a generation jump.
    #[test]
    fn warm_start_invalidates_on_version_and_generation_bumps() {
        let root = Prng::new(7);

        // Adjacent periods, same model version: warm start.
        let mut rt = drifted_runtime(1);
        let mut cache = DriftCache::default();
        cache.artifacts(0, &rt, 1, 8, &root);
        rt.advance_period();
        cache.artifacts(0, &rt, 1, 8, &root);
        assert_eq!(cache.warm_starts, 1, "adjacent period must warm-start");

        // Model-version bump alongside the period step: cold restart.
        let mut rt = drifted_runtime(1);
        let mut cache = DriftCache::default();
        cache.artifacts(0, &rt, 1, 8, &root);
        rt.advance_period();
        let slice = rt.pools[1].samples().clone();
        rt.models[1].train_slice(&slice, 1);
        cache.artifacts(0, &rt, 1, 8, &root);
        assert_eq!(cache.warm_starts, 0, "version bump must invalidate");

        // Generation jump (two periods between builds): cold restart.
        let mut rt = drifted_runtime(1);
        let mut cache = DriftCache::default();
        cache.artifacts(0, &rt, 1, 8, &root);
        rt.advance_period();
        rt.advance_period();
        cache.artifacts(0, &rt, 1, 8, &root);
        assert_eq!(cache.warm_starts, 0, "generation jump must invalidate");
    }
}
