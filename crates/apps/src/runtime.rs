//! Runtime state of a deployed application.
//!
//! An [`AppRuntime`] owns, per DAG node, the drifting task stream (the
//! node's live data) and the trainable model instance serving it, plus
//! the application's request-arrival trace. It manages the per-period
//! life-cycle: at each period boundary the previous period's requests
//! (with golden labels) become the new retraining pool (§3.2), the
//! streams take their drift step, and fresh evaluation sets are drawn.
//!
//! Accuracy evaluation is cached per `(model version, period)` so the
//! harness can score millions of requests without re-running the head on
//! every job.

use crate::dag::AppSpec;
use adainf_driftgen::{ArrivalTrace, LabeledSamples, RetrainPool, TaskStream, TaskStreamConfig};
use adainf_driftgen::workload::ArrivalConfig;
use adainf_modelzoo::head::HEAD_EXITS;
use adainf_modelzoo::TrainableModel;
use adainf_nn::InferScratch;
use adainf_simcore::{Prng, SimTime};
use std::sync::Arc;

/// Evaluation-set size per node per period.
pub const EVAL_SIZE: usize = 400;

/// Live state of one application on the edge server.
pub struct AppRuntime {
    /// The application's DAG specification.
    pub spec: AppSpec,
    /// One trainable model per DAG node.
    pub models: Vec<TrainableModel>,
    /// One drifting task stream per DAG node.
    pub streams: Vec<TaskStream>,
    /// One retraining pool per DAG node (refreshed each period).
    pub pools: Vec<RetrainPool>,
    /// The application's request-arrival trace.
    pub arrivals: ArrivalTrace,
    /// Per-node samples of the *previous* period's training data — the
    /// "old training samples" the drift detector compares against (§3.2).
    /// Shared with the retired pool rather than copied from it.
    old_samples: Vec<Arc<LabeledSamples>>,
    /// Per-node held-out samples aligned with the *current* pool's
    /// distribution (promoted to `old_ref` at the next boundary).
    ref_samples: Vec<Arc<LabeledSamples>>,
    /// Per-node held-out samples aligned with `old_samples` — the
    /// distribution the model was last retrained on. Never trained on:
    /// the drift detector's drift-free counterfactual (tail accuracy on
    /// these is what the new pool's tail is compared against, avoiding
    /// train-set memorisation bias).
    old_ref: Vec<Arc<LabeledSamples>>,
    /// Per-node evaluation sets for the current period.
    eval_sets: Vec<LabeledSamples>,
    /// Initial full-structure accuracy `I_m` per node (§3.2).
    initial_accuracy: Vec<f64>,
    /// Per-node accuracy cache: (trained-sample bucket, period) →
    /// accuracy per head exit. Keyed by `trained_samples / 256` rather
    /// than the raw version so that incremental retraining (thousands of
    /// tiny slices per period) re-evaluates only every ~256 consumed
    /// samples — accuracy moves smoothly in between.
    acc_cache: Vec<(u64, u64, [f64; HEAD_EXITS])>,
    /// Forward-pass buffers reused by every accuracy-cache miss.
    score_scratch: InferScratch,
    /// Current period index.
    period: u64,
    /// Retraining pool size per period.
    pool_size: usize,
}

impl AppRuntime {
    /// Deploys `spec`: builds streams and models, trains every model on
    /// initial data (the "first 40 % of the dataset" role, §2), and draws
    /// the first pools and evaluation sets.
    pub fn new(spec: AppSpec, arrival: ArrivalConfig, pool_size: usize, root: &Prng) -> Self {
        let mut rng = root.split(0x0A11_0000 ^ spec.id as u64);
        let mut models = Vec::with_capacity(spec.nodes.len());
        let mut streams = Vec::with_capacity(spec.nodes.len());
        for (i, nspec) in spec.nodes.iter().enumerate() {
            let (p, m) = nspec.drift.intensities();
            let stream = TaskStream::new(
                TaskStreamConfig::new(
                    nspec.name.clone(),
                    nspec.classes,
                    (spec.id as u64) << 16 | i as u64,
                )
                .with_drift(p, m),
                root,
            );
            models.push(TrainableModel::new(nspec.profile.clone(), nspec.classes, &mut rng));
            streams.push(stream);
        }
        let arrivals = ArrivalTrace::new(arrival, spec.id as u64, root);
        let n = spec.nodes.len();
        let mut rt = AppRuntime {
            spec,
            models,
            streams,
            pools: (0..n).map(|_| RetrainPool::empty()).collect(),
            arrivals,
            old_samples: Vec::new(),
            ref_samples: Vec::new(),
            old_ref: Vec::new(),
            eval_sets: Vec::new(),
            initial_accuracy: vec![0.0; n],
            acc_cache: vec![(u64::MAX, u64::MAX, [0.0; HEAD_EXITS]); n],
            score_scratch: InferScratch::default(),
            period: 0,
            pool_size,
        };
        rt.initial_train();
        rt
    }

    fn initial_train(&mut self) {
        for i in 0..self.models.len() {
            let train = self.streams[i].sample(700);
            self.models[i].train_slice(&train, 12);
            let eval = self.streams[i].sample(EVAL_SIZE);
            self.initial_accuracy[i] =
                self.models[i].accuracy_on(&eval, self.models[i].profile.full_cut());
            self.old_samples.push(Arc::new(train));
            self.ref_samples.push(Arc::new(self.streams[i].sample(600)));
            self.old_ref.push(Arc::new(self.streams[i].sample(600)));
            self.eval_sets.push(eval);
            // Period-0 pool: the initial data is the "previous" data.
            self.pools[i] = RetrainPool::new(self.streams[i].sample(self.pool_size));
        }
    }

    /// Current period index.
    pub fn period(&self) -> u64 {
        self.period
    }

    /// Initial full-structure accuracy `I_m` of node `i`.
    pub fn initial_accuracy(&self, node: usize) -> f64 {
        self.initial_accuracy[node]
    }

    /// The previous period's training samples of node `i` (drift-detector
    /// comparison basis), shared like [`RetrainPool::samples`].
    pub fn old_samples(&self, node: usize) -> &Arc<LabeledSamples> {
        &self.old_samples[node]
    }

    /// Held-out samples from the distribution the model was last
    /// retrained on (never trained on) — the drift detector's drift-free
    /// counterfactual — shared like [`RetrainPool::samples`].
    pub fn ref_samples(&self, node: usize) -> &Arc<LabeledSamples> {
        &self.old_ref[node]
    }

    /// The current evaluation set of node `i`.
    pub fn eval_set(&self, node: usize) -> &LabeledSamples {
        &self.eval_sets[node]
    }

    /// Advances to the next period: the current pools' data becomes the
    /// "old samples" (handed over, not copied), streams drift, and new
    /// pools/eval sets are drawn from the new distribution (the pool lags
    /// one period, as retraining data is always the previous period's
    /// requests).
    pub fn advance_period(&mut self) {
        self.period += 1;
        for i in 0..self.streams.len() {
            // New pool drawn from the distribution requests just lived in,
            // plus a held-out reference set from the same distribution.
            let pool_samples = self.streams[i].sample(self.pool_size);
            self.old_ref[i] = std::mem::replace(
                &mut self.ref_samples[i],
                Arc::new(self.streams[i].sample(600)),
            );
            self.old_samples[i] = Arc::clone(self.pools[i].samples());
            self.pools[i] = RetrainPool::new(pool_samples);
            self.streams[i].advance_period();
            self.eval_sets[i] = self.streams[i].sample(EVAL_SIZE);
        }
    }

    /// Accuracy of node `i` at structure cut `cut`, on the current
    /// period's evaluation set, cached per (model version, period):
    /// exactly [`TrainableModel::accuracy_on`] at that cut.
    pub fn accuracy(&mut self, node: usize, cut: usize) -> f64 {
        let bucket = self.models[node].trained_samples() / 256;
        let (cb, cp, cached) = self.acc_cache[node];
        let exit = self.models[node].head_exit_for_cut(cut);
        if cb == bucket && cp == self.period {
            return cached[exit];
        }
        // Every exit from one trunk pass, indexed by exit.
        let accs =
            self.models[node].exit_accuracies(&self.eval_sets[node], &mut self.score_scratch);
        self.acc_cache[node] = (bucket, self.period, accs);
        accs[exit]
    }

    /// Requests arriving for this application in the session at `t`.
    pub fn requests_in_session(&mut self, t: SimTime) -> u32 {
        self.arrivals.requests_in_session(t)
    }

    /// Label distribution (priors) of node `i`'s stream — the Fig 6
    /// drift signal.
    pub fn label_distribution(&self, node: usize) -> Vec<f64> {
        self.streams[node].priors().to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    fn surveillance_runtime() -> AppRuntime {
        let root = Prng::new(2024);
        AppRuntime::new(
            catalog::video_surveillance(0),
            ArrivalConfig::default(),
            600,
            &root,
        )
    }

    #[test]
    fn initial_training_reaches_high_accuracy() {
        let mut rt = surveillance_runtime();
        for node in 0..3 {
            let acc = rt.accuracy(node, rt.spec.nodes[node].profile.full_cut());
            assert!(acc > 0.82, "node {node} initial accuracy {acc}");
            assert!((rt.initial_accuracy(node) - acc).abs() < 0.12);
        }
    }

    #[test]
    fn drifted_severe_node_loses_accuracy_without_retraining() {
        let mut rt = surveillance_runtime();
        let cut = rt.spec.nodes[1].profile.full_cut();
        let before = rt.accuracy(1, cut);
        for _ in 0..6 {
            rt.advance_period();
        }
        let after = rt.accuracy(1, cut);
        assert!(
            after < before - 0.05,
            "severe-drift node should decay: {before} -> {after}"
        );
    }

    #[test]
    fn stable_node_holds_accuracy() {
        let mut rt = surveillance_runtime();
        let cut = rt.spec.nodes[0].profile.full_cut();
        let before = rt.accuracy(0, cut);
        for _ in 0..6 {
            rt.advance_period();
        }
        let after = rt.accuracy(0, cut);
        assert!(
            after > before - 0.06,
            "stable node should hold: {before} -> {after}"
        );
    }

    #[test]
    fn retraining_from_pool_recovers_accuracy() {
        let mut rt = surveillance_runtime();
        let cut = rt.spec.nodes[1].profile.full_cut();
        for _ in 0..5 {
            rt.advance_period();
        }
        let stale = rt.accuracy(1, cut);
        // Consume the pool in slices, as incremental retraining would.
        for _ in 0..20 {
            let batch = rt.pools[1].take(32);
            if batch.is_empty() {
                break;
            }
            rt.models[1].train_slice(&batch, 2);
        }
        let retrained = rt.accuracy(1, cut);
        assert!(
            retrained > stale,
            "retraining should help: {stale} -> {retrained}"
        );
    }

    #[test]
    fn accuracy_cache_tracks_version_and_period() {
        let mut rt = surveillance_runtime();
        let cut = rt.spec.nodes[1].profile.full_cut();
        let a = rt.accuracy(1, cut);
        let b = rt.accuracy(1, cut);
        assert_eq!(a, b, "cached result must be identical");
        // Train past the 256-sample refresh bucket.
        for _ in 0..6 {
            let batch = rt.pools[1].take(64);
            rt.models[1].train_slice(&batch, 1);
        }
        // New bucket → re-evaluates (value may or may not change, but
        // the call must not panic and must return a valid probability).
        let c = rt.accuracy(1, cut);
        assert!((0.0..=1.0).contains(&c));
    }

    /// The cached per-exit accuracies must be indexed by the exit each
    /// cut maps to, on every zoo profile: backbones whose depth is not
    /// a multiple of the exit count map some representative cuts to a
    /// deeper exit.
    #[test]
    fn cached_accuracy_matches_accuracy_on_at_every_exit_point() {
        let root = Prng::new(31);
        for spec in catalog::apps_for_count(14) {
            let name = spec.name.clone();
            let mut rt = AppRuntime::new(spec, ArrivalConfig::default(), 100, &root);
            for node in 0..rt.models.len() {
                for cut in rt.models[node].profile.exit_points() {
                    let want = rt.models[node].accuracy_on(rt.eval_set(node), cut);
                    let got = rt.accuracy(node, cut);
                    assert_eq!(got.to_bits(), want.to_bits(), "{name} node {node} cut {cut}");
                }
            }
        }
    }

    /// The boundary hands the retiring pool's samples to `old_samples`
    /// and the held-out set to `old_ref` without copying either. The
    /// test holds the retiring sets alive, so an equal data pointer
    /// cannot come from a freed-and-reused allocation.
    #[test]
    fn advance_period_shares_the_retiring_sets() {
        let mut rt = surveillance_runtime();
        let pools: Vec<Arc<LabeledSamples>> =
            rt.pools.iter().map(|p| Arc::clone(p.samples())).collect();
        let held_out = rt.ref_samples.clone();
        rt.advance_period();
        let ptr = |s: &LabeledSamples| s.inputs.data().as_ptr();
        for node in 0..rt.models.len() {
            assert_eq!(
                ptr(rt.old_samples(node)),
                ptr(&pools[node]),
                "node {node} old samples"
            );
            assert_eq!(
                ptr(rt.ref_samples(node)),
                ptr(&held_out[node]),
                "node {node} held-out set"
            );
        }
    }

    #[test]
    fn pools_refresh_each_period() {
        let mut rt = surveillance_runtime();
        rt.pools[0].take(600);
        assert_eq!(rt.pools[0].remaining(), 0);
        rt.advance_period();
        assert_eq!(rt.pools[0].remaining(), 600);
        assert_eq!(rt.period(), 1);
    }

    #[test]
    fn all_catalog_apps_deploy() {
        let root = Prng::new(7);
        for spec in catalog::apps_for_count(14) {
            let name = spec.name.clone();
            let rt = AppRuntime::new(spec, ArrivalConfig::default(), 100, &root);
            assert!(!rt.models.is_empty(), "{name} deployed no models");
        }
    }
}
