//! Per-boundary drift artifacts and the warm-start bases between
//! boundaries.
//!
//! The §3.2 detection loop and the §3.3.2 retraining-order selection
//! read the same per-node artifacts — a PCA fit of the old training
//! data, per-class means, the deviation rankings of the new pool and of
//! the held-out set, and correctness prefix-sums along them — once per
//! model per period. Each period boundary builds them once, for every
//! node it will read, into one table in job order: the scheduler's
//! detection sweep and `set_order` read that table, and the scheduler
//! drops it before serving resumes, so rankings and prefix-sums are
//! never resident between boundaries.
//!
//! The build runs in two phases, fanned out across the boundary's
//! workers, and owns the old sets it reads. [`WarmBases::fit`] takes
//! each job's [`Retired`] sets, fits the job's PCA basis and class means
//! on its old training set and drops the training sets when the fits
//! return; the scheduler then draws the jobs' pools, and
//! [`BoundaryFits::rank`] ranks each pool and old held-out set against
//! its fit. Each artifact set keeps its held-out set until the table is
//! dropped. A boundary thus never holds a model's old training set and
//! its new pool at once. A build panics on a job whose pool is not
//! drawn; only a set that really is empty takes the identity-order path.
//! [`build_artifacts`] is the standalone cold build of one node.
//!
//! Determinism: PCA-fit randomness is routed through a child [`Prng`]
//! stream derived from the scheduler's root stream via [`Prng::split`],
//! keyed by `(period, node)`, so a build is a pure function of its
//! node's data, the root stream and its warm-start basis — the same at
//! every worker count and in every build order.
//!
//! Warm starts: the only drift state that outlives a boundary is
//! [`WarmBases`], each `(app, node)`'s last build key
//! `(pool generation, model version)` and fitted basis. A build
//! warm-starts its fit from that basis only at the next pool generation
//! (the runtime's period counter) and the same model version (bumped by
//! every retraining slice); see [`WarmBases::warm_for`].
//!
//! Sample orders are `u32` (a pool never holds more than `u32::MAX`
//! samples), half the bytes of `usize` orders over 6000-sample pools.

use adainf_apps::{AppRuntime, Retired};
use adainf_driftgen::LabeledSamples;
use adainf_nn::metrics::cosine_distance;
use adainf_nn::pca::{Pca, PcaScratch};
use adainf_nn::{InferScratch, Label, Matrix};
use adainf_simcore::{parallel, Prng};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Stream label base for the per-`(period, node)` PCA child streams.
/// Mixed (not added) so labels cannot collide with other subsystem
/// streams split from the same root.
const PCA_STREAM: u64 = 0xD21F_7000;

/// PCA components the old features are reduced to before the cosine
/// deviations are measured (§3.2).
pub const PCA_COMPONENTS: usize = 8;

/// Everything the drift pipeline needs about one `(app, node)` in one
/// period, computed in a single pass over the data.
#[derive(Clone, Debug)]
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
    /// The node's old held-out set, which `ref_order` ranks and
    /// [`Self::ref_prefix_at`] reads; freed with the artifact set.
    pub held_out: Arc<LabeledSamples>,
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
            &self.held_out,
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

/// Reusable buffers for the artifact builds: PCA scratch, feature and
/// projection matrices, the scored index list and the inference
/// ping-pong buffers of the lazy prefix extension. One instance serves
/// every node a worker builds, one at a time.
#[derive(Clone, Debug, Default)]
pub struct DetectScratch {
    pca: PcaScratch,
    /// Feature matrix of the sample set being fitted or ranked: the old
    /// set, then the pool, then the held-out set, one after another.
    /// Each projection centres it in place.
    feats: Matrix,
    projected: Matrix,
    /// `(deviation key, sample index)` per ranked sample.
    scored: Vec<(i64, u32)>,
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
    scored: &mut Vec<(i64, u32)>,
) -> Vec<u32> {
    if new.is_empty() {
        return Vec::new();
    }
    pca.transform_into(features, projected);
    scored.clear();
    scored.extend(new.labels.iter().enumerate().map(|(i, &label)| {
        let mean = &means[usize::from(label)];
        (
            deviation_key(cosine_distance(projected.row(i), mean)),
            i as u32,
        )
    }));
    sort_by_deviation(scored);
    scored.iter().map(|&(_, i)| i).collect()
}

/// The sort key of a deviation `d`: an integer that orders ascending
/// as `d` descends. `d` maps to its IEEE total-order bits after `+ 0.0`
/// folds −0.0 into +0.0, which order exactly as `partial_cmp` does on
/// non-NaN values (plain `total_cmp` would put −0.0 below +0.0 and
/// perturb the goldens); the bitwise NOT reverses them.
///
/// # Panics
/// Panics on a NaN distance, as comparing it did.
fn deviation_key(d: f64) -> i64 {
    assert!(!d.is_nan(), "finite distances");
    let bits = (d + 0.0).to_bits() as i64;
    !(bits ^ (((bits >> 63) as u64) >> 1) as i64)
}

/// Sorts `(deviation key, index)` pairs ([`deviation_key`]) ascending:
/// descending distance, ascending index among equal distances — the
/// stable descending sort of the distances, since the pairs are built
/// in ascending index. Each key is built once, before the sort, so the
/// comparisons are plain integer ones. Index keys are unique, so the
/// unstable in-place sort is deterministic.
fn sort_by_deviation(scored: &mut [(i64, u32)]) {
    scored.sort_unstable();
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
/// set `old`: one feature pass over the old data and **one** PCA fit,
/// shared by both rankings. `None` when the old set is empty: there is
/// nothing to deviate from.
fn fit_old(
    rt: &AppRuntime,
    node: usize,
    old: &LabeledSamples,
    root: &Prng,
    scratch: &mut DetectScratch,
    warm: Option<&Matrix>,
) -> Option<OldFit> {
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
    let pca = Pca::fit(feats, PCA_COMPONENTS, &mut rng, pca_scratch, warm);
    pca.transform_into(feats, projected);
    let means = class_means(projected, &old.labels, model.classes());
    Some(OldFit { pca, means })
}

/// The deviation rankings of node `node`'s pool and of its old
/// held-out set `held_out` against a fit of the old data (identity
/// orders without one).
///
/// The pool and held-out features go through the one `scratch.feats`
/// buffer in turn, as the old features did in [`fit_old`]: each matrix
/// is dead once its set is fitted or ranked, so a build holds one
/// feature matrix at a time and keeps none after it returns.
///
/// # Panics
/// Panics if the pool is not drawn.
fn rank_new(
    rt: &AppRuntime,
    node: usize,
    held_out: &LabeledSamples,
    fit: Option<&OldFit>,
    scratch: &mut DetectScratch,
) -> (Vec<u32>, Vec<u32>) {
    let pool = rt.pools[node].samples();
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

/// One node's ranked artifact set from its rankings, fit and old
/// held-out set: the retraining interleave, the correctness prefix-sums
/// left at their seed (`[0]`), to be extended lazily by
/// [`DriftArtifacts::pool_prefix_at`] / [`DriftArtifacts::ref_prefix_at`]
/// as deep as the detection loop actually reads, and the fitted basis
/// (empty without a fit).
fn ranked_artifacts(
    rt: &AppRuntime,
    node: usize,
    (deviation, ref_order): (Vec<u32>, Vec<u32>),
    fit: Option<OldFit>,
    held_out: Arc<LabeledSamples>,
) -> DriftArtifacts {
    let retrain = interleave(&deviation);
    let artifacts = DriftArtifacts {
        deviation,
        retrain,
        ref_order,
        pool_prefix: vec![0],
        ref_prefix: vec![0],
        basis: fit.map_or_else(Matrix::default, |fit| fit.pca.into_components()),
        held_out,
    };
    if cfg!(feature = "strict-invariants") {
        artifacts.check_invariants(rt.pools[node].samples().len(), artifacts.held_out.len());
    }
    artifacts
}

/// Builds one node's complete artifact set, cold, from its retired sets
/// (a clone of its retiring pool, drawn if nobody read it) and its
/// drawn pool: one feature pass over the old data, **one** PCA fit, one
/// projection per sample set, one deviation ranking each for the pool
/// and the held-out reference, the retraining interleave and both
/// correctness prefix-sums extended to their full sample sets.
///
/// PCA randomness comes from `root.split(...)` keyed by the runtime's
/// period and the node, never from an advancing caller stream — so the
/// result is reproducible from the runtime alone, and equals the
/// boundary build of the node without a warm-start basis.
///
/// # Panics
/// Panics if the node's pool is not drawn.
pub fn build_artifacts(
    rt: &AppRuntime,
    node: usize,
    root: &Prng,
    scratch: &mut DetectScratch,
) -> DriftArtifacts {
    let Retired { train, held_out } = &rt.retired[node];
    let fit = fit_old(rt, node, train.clone().draw(), root, scratch, None);
    let rankings = rank_new(rt, node, held_out, fit.as_ref(), scratch);
    let mut artifacts = ranked_artifacts(rt, node, rankings, fit, Arc::clone(held_out));
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

/// A node's build key: its pool generation — the runtime's period
/// counter, since `advance_period` replaces every pool and held-out set
/// — and its model version, bumped by every retraining slice.
fn build_key(rt: &AppRuntime, node: usize) -> (u64, u64) {
    (rt.period(), rt.models[node].version())
}

/// The drift state that outlives a period boundary: per `(app, node)`,
/// the key of its last build and the PCA basis that build fitted (empty
/// when the node had no old data), the warm-start seed of the node's
/// next fit. One `k × d` basis per node, nothing else.
#[derive(Debug, Default)]
pub struct WarmBases {
    bases: BTreeMap<(usize, usize), ((u64, u64), Matrix)>,
}

/// A job after phase one: its `(app, node)` slot, the fit made on its
/// old training set and its old held-out set.
type FittedJob = ((usize, usize), Option<OldFit>, Arc<LabeledSamples>);

/// Phase one of a boundary build: each job's fit and old held-out set,
/// owned and in job order, for [`Self::rank`] to rank the new data
/// against.
#[derive(Debug)]
pub struct BoundaryFits {
    jobs: Vec<FittedJob>,
}

impl WarmBases {
    /// The basis a build of node `node` of app `app` on `rt` warm-starts
    /// its PCA fit from: the node's last basis, when that build was at
    /// the previous pool generation and the same model version and
    /// fitted one.
    ///
    /// * Next pool generation at an unchanged model version — the old
    ///   samples move gradually, so the dominant subspace barely rotates
    ///   and the previous basis is a valid start.
    /// * Anything else — a model-version bump (retraining rotated the
    ///   feature space), a generation jump, a rebuild at the same
    ///   generation, or no build yet — is cold: the fit falls back to
    ///   its keyed random start.
    pub fn warm_for(&self, app: usize, rt: &AppRuntime, node: usize) -> Option<&Matrix> {
        let ((generation, version), basis) = self.bases.get(&(app, node))?;
        let key = build_key(rt, node);
        let usable = *version == key.1 && generation + 1 == key.0 && basis.rows() > 0;
        usable.then_some(basis)
    }

    /// Phase one of the boundary build: fits the PCA basis and class
    /// means of every `(app, node)` in `jobs` on its old training set,
    /// taken with its held-out set in `retired` (one value per job, in
    /// job order), across up to `threads` workers (0 = the host's
    /// available parallelism). Each fit borrows the runtime and its warm
    /// basis ([`Self::warm_for`]) and is a pure function of them, its old
    /// set and its keyed PCA stream, so the fits are the same at every
    /// width; the warm bases are the previous boundary's, so the fits of
    /// one boundary never feed each other.
    ///
    /// The fits are all phase two needs of the old training sets, so
    /// they are dropped when the fits return, before the caller draws
    /// the jobs' pools for [`BoundaryFits::rank`]. A retiring pool
    /// nobody read is drawn here; in a run a job's pool was always read
    /// as a job in the period it retires from.
    ///
    /// # Panics
    /// Panics unless `retired` holds one value per job.
    pub fn fit(
        &self,
        jobs: &[(usize, usize)],
        mut retired: Vec<Retired>,
        apps: &[AppRuntime],
        root: &Prng,
        threads: usize,
    ) -> BoundaryFits {
        assert_eq!(jobs.len(), retired.len(), "one retired value per job");
        for set in &mut retired {
            set.train.draw();
        }
        let fits =
            parallel::fan_out_indexed(jobs.len(), threads, DetectScratch::default, |i, scratch| {
                let (app, node) = jobs[i];
                let rt = &apps[app];
                let old = retired[i].train.samples();
                fit_old(rt, node, old, root, scratch, self.warm_for(app, rt, node))
            });
        // Each job keeps its held-out set; its training set drops here.
        let jobs = jobs.iter().zip(fits).zip(retired);
        BoundaryFits {
            jobs: jobs
                .map(|((&job, fit), set)| (job, fit, set.held_out))
                .collect(),
        }
    }

    /// Drops a boundary's artifact table, keeping each job's build key
    /// and fitted basis as the warm-start seed of the node's next build.
    /// `jobs` and `apps` are the ones the table was built from, still in
    /// the boundary that built it: the keys are read off the runtimes,
    /// so no model may have retrained since.
    ///
    /// # Panics
    /// Panics unless the table holds one artifact set per job.
    pub fn keep(
        &mut self,
        jobs: &[(usize, usize)],
        apps: &[AppRuntime],
        table: Vec<DriftArtifacts>,
    ) {
        assert_eq!(jobs.len(), table.len(), "one artifact set per job");
        for (&(app, node), artifacts) in jobs.iter().zip(table) {
            let key = build_key(&apps[app], node);
            self.bases.insert((app, node), (key, artifacts.basis));
        }
    }
}

impl BoundaryFits {
    /// Phase two of the boundary build: ranks every job's drawn pool and
    /// old held-out set against its fit, across up to `threads` workers,
    /// and returns the artifact sets in job order, their prefix-sums at
    /// the seed, each holding its held-out set. The table is the same at
    /// every width.
    ///
    /// # Panics
    /// Panics if a job's pool is not drawn.
    pub fn rank(self, apps: &[AppRuntime], threads: usize) -> Vec<DriftArtifacts> {
        let jobs = self.jobs;
        let rankings =
            parallel::fan_out_indexed(jobs.len(), threads, DetectScratch::default, |i, scratch| {
                let ((app, node), fit, held_out) = &jobs[i];
                rank_new(&apps[*app], *node, held_out, fit.as_ref(), scratch)
            });
        jobs.into_iter()
            .zip(rankings)
            .map(|(((app, node), fit, held_out), rankings)| {
                ranked_artifacts(&apps[app], node, rankings, fit, held_out)
            })
            .collect()
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
            let want: Vec<u32> = want.iter().map(|&(i, _)| i).collect();
            let mut got: Vec<(i64, u32)> =
                scored.iter().map(|&(i, d)| (deviation_key(d), i)).collect();
            sort_by_deviation(&mut got);
            let got: Vec<u32> = got.iter().map(|&(_, i)| i).collect();
            assert_eq!(got, want, "{n} pairs");
        }
    }

    #[test]
    #[should_panic(expected = "finite distances")]
    fn deviation_sort_panics_on_nan() {
        let mut keyed: Vec<(i64, u32)> = [(0, 0.5), (1, f64::NAN), (2, 0.1)]
            .iter()
            .map(|&(i, d)| (deviation_key(d), i))
            .collect();
        sort_by_deviation(&mut keyed);
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
        for pool in &mut rt.pools {
            pool.draw();
        }
        rt
    }

    #[test]
    #[should_panic(expected = "retraining pool read before it was drawn")]
    fn building_on_an_undrawn_pool_panics() {
        let mut rt = drifted_runtime(1);
        rt.advance_period();
        build_artifacts(&rt, 2, &Prng::new(7), &mut DetectScratch::default());
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
            let art = build_artifacts(&rt, node, &root, &mut scratch);
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

    fn basis_bits(art: &DriftArtifacts) -> Vec<u32> {
        art.basis.data().iter().map(|x| x.to_bits()).collect()
    }

    /// One boundary's build of `jobs`: fit on the jobs' retired sets,
    /// draw the jobs' pools, rank — the scheduler's sequence, on clones
    /// of the retired sets.
    fn boundary(
        warm: &WarmBases,
        jobs: &[(usize, usize)],
        apps: &mut [AppRuntime],
        root: &Prng,
        threads: usize,
    ) -> Vec<DriftArtifacts> {
        let retired = jobs
            .iter()
            .map(|&(app, node)| apps[app].retired[node].clone())
            .collect();
        let fits = warm.fit(jobs, retired, apps, root, threads);
        for &(app, node) in jobs {
            apps[app].pools[node].draw();
        }
        fits.rank(apps, threads)
    }

    /// One node's ranked set built on its own, the boundary's two phases
    /// back to back, with the prefix-sums at their seed.
    fn one_node_build(
        rt: &AppRuntime,
        node: usize,
        root: &Prng,
        scratch: &mut DetectScratch,
        warm: Option<&Matrix>,
    ) -> DriftArtifacts {
        let Retired { train, held_out } = &rt.retired[node];
        let fit = fit_old(rt, node, train.clone().draw(), root, scratch, warm);
        let rankings = rank_new(rt, node, held_out, fit.as_ref(), scratch);
        ranked_artifacts(rt, node, rankings, fit, Arc::clone(held_out))
    }

    /// The two-phase boundary build at every width, over two
    /// generations, equals one single-node build per node on a runtime
    /// that had its pools drawn up front, warm-started by the same rule:
    /// the same rankings, the same basis bits, and the same warm chain
    /// (every node warm at the second generation).
    #[test]
    fn two_phase_build_matches_sequential_builds() {
        let root = Prng::new(7);
        for threads in [1, 2, 4, 8] {
            let mut apps = [AppRuntime::new(
                catalog::video_surveillance(0),
                ArrivalConfig::default(),
                400,
                &Prng::new(314),
            )];
            apps[0].advance_period();
            let mut seq = drifted_runtime(1);
            let nodes = seq.spec.nodes.len();
            let jobs: Vec<(usize, usize)> = (0..nodes).map(|n| (0, n)).collect();
            let (mut warm, mut seq_warm) = (WarmBases::default(), WarmBases::default());
            for generation in 0..2 {
                let at = format!("threads {threads} generation {generation}");
                let mut scratch = DetectScratch::default();
                let want: Vec<DriftArtifacts> = (0..nodes)
                    .map(|node| {
                        let basis = seq_warm.warm_for(0, &seq, node);
                        assert_eq!(basis.is_some(), generation == 1, "{at} node {node}");
                        one_node_build(&seq, node, &root, &mut scratch, basis)
                    })
                    .collect();
                assert!(apps[0].pools.iter().all(|p| !p.is_drawn()), "{at}");
                let got = boundary(&warm, &jobs, &mut apps, &root, threads);
                assert_eq!(got.len(), want.len(), "{at}");
                for (node, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(g.deviation, w.deviation, "{at} node {node}");
                    assert_eq!(g.retrain, w.retrain, "{at} node {node}");
                    assert_eq!(g.ref_order, w.ref_order, "{at} node {node}");
                    assert_eq!(basis_bits(g), basis_bits(w), "{at} node {node}");
                    assert_eq!(
                        warm.warm_for(0, &apps[0], node).is_some(),
                        seq_warm.warm_for(0, &seq, node).is_some(),
                        "{at} node {node}"
                    );
                }
                warm.keep(&jobs, &apps, got);
                seq_warm.keep(&jobs, std::slice::from_ref(&seq), want);
                apps[0].advance_period();
                seq.advance_period();
                for pool in &mut seq.pools {
                    pool.draw();
                }
            }
        }
    }

    /// The warm rule over real builds: the next generation at the same
    /// model version is warm; a rebuild at the same generation, a
    /// model-version bump and a generation jump are cold, as is a node
    /// never built.
    #[test]
    fn warm_rule_needs_next_generation_and_same_version() {
        let root = Prng::new(7);
        let built = |rt: &AppRuntime| {
            let jobs = [(0, 1)];
            let apps = std::slice::from_ref(rt);
            let mut warm = WarmBases::default();
            let retired = vec![rt.retired[1].clone()];
            let table = warm.fit(&jobs, retired, apps, &root, 1).rank(apps, 1);
            warm.keep(&jobs, apps, table);
            warm
        };

        let mut rt = drifted_runtime(1);
        let warm = built(&rt);
        assert!(warm.warm_for(0, &rt, 1).is_none(), "same generation");
        assert!(warm.warm_for(0, &rt, 0).is_none(), "never built");
        assert!(warm.warm_for(1, &rt, 1).is_none(), "other app");
        rt.advance_period();
        let basis = warm
            .warm_for(0, &rt, 1)
            .expect("next generation, same version");
        assert_eq!(basis.rows(), PCA_COMPONENTS);
        let slice = rt.pools[1].draw().clone();
        rt.models[1].train_slice(&slice, 1);
        assert!(warm.warm_for(0, &rt, 1).is_none(), "version bump");

        let mut rt = drifted_runtime(1);
        let warm = built(&rt);
        rt.advance_period();
        rt.advance_period();
        assert!(warm.warm_for(0, &rt, 1).is_none(), "generation jump");
    }

    /// A boundary-built set's lazily extended prefix-sums — grown in two
    /// steps, after the fits dropped the old training sets — land on the
    /// eager standalone build's, and its rankings, basis and held-out
    /// set equal it.
    #[test]
    fn boundary_prefix_sums_extend_to_the_full_build() {
        let root = Prng::new(7);
        let mut apps = [drifted_runtime(2)];
        let nodes = apps[0].spec.nodes.len();
        let mut scratch = DetectScratch::default();
        let fresh: Vec<DriftArtifacts> = (0..nodes)
            .map(|node| build_artifacts(&apps[0], node, &root, &mut scratch))
            .collect();
        let jobs: Vec<(usize, usize)> = (0..nodes).map(|n| (0, n)).collect();
        let table = boundary(&WarmBases::default(), &jobs, &mut apps, &root, 2);
        for (node, (mut art, fresh)) in table.into_iter().zip(fresh).enumerate() {
            assert_eq!(art.pool_prefix, [0], "node {node}");
            let pool_len = fresh.deviation.len();
            art.pool_prefix_at(&apps[0], node, pool_len / 2, &mut scratch);
            art.pool_prefix_at(&apps[0], node, pool_len, &mut scratch);
            art.ref_prefix_at(&apps[0], node, fresh.ref_order.len(), &mut scratch);
            assert_eq!(art.deviation, fresh.deviation, "node {node}");
            assert_eq!(art.retrain, fresh.retrain, "node {node}");
            assert_eq!(art.ref_order, fresh.ref_order, "node {node}");
            assert_eq!(art.pool_prefix, fresh.pool_prefix, "node {node}");
            assert_eq!(art.ref_prefix, fresh.ref_prefix, "node {node}");
            assert_eq!(basis_bits(&art), basis_bits(&fresh), "node {node}");
            assert!(Arc::ptr_eq(&art.held_out, &fresh.held_out), "node {node}");
        }
    }
}
