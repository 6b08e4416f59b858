//! Runtime state of a deployed application.
//!
//! An [`AppRuntime`] owns, per DAG node, the drifting task stream (the
//! node's live data) and the trainable model instance serving it, plus
//! the application's request-arrival trace. It manages the per-period
//! life-cycle: at each period boundary the previous period's requests
//! (with golden labels) become the new retraining pool (§3.2), the
//! streams take their drift step, and fresh evaluation sets are drawn.
//!
//! Memory: a retraining pool is the largest set a node holds (6000
//! samples in the paper workload), and a node holds at most one at a
//! time. [`AppRuntime::new`] and [`AppRuntime::advance_period`] defer
//! every new pool ([`TaskStream::defer`]); it is drawn when first read.
//! At each boundary the retiring pool and the held-out set drawn beside
//! it are handed over once, as one [`Retired`] value per node in
//! [`AppRuntime::retired`]: whoever takes a value owns those sets, and
//! they are freed when their owner drops them. The drift build takes
//! the sets it reads; the harness drops whatever a period hook left. A
//! retiring pool nobody read is never drawn.
//!
//! Accuracy evaluation is cached per head exit and `(trained-sample
//! bucket, period)`, so the harness can score millions of requests
//! without re-running the head on every job. A node's first read in a
//! period (the period hook's accuracy refresh) scores every exit in one
//! trunk pass; a later miss, after retraining moved the bucket, scores
//! only the exit asked for.

use crate::dag::AppSpec;
use adainf_driftgen::workload::ArrivalConfig;
use adainf_driftgen::{ArrivalTrace, LabeledSamples, RetrainPool, TaskStream, TaskStreamConfig};
use adainf_modelzoo::head::HEAD_EXITS;
use adainf_modelzoo::TrainableModel;
use adainf_nn::InferScratch;
use adainf_simcore::{Prng, SimTime};
use std::sync::Arc;

/// Evaluation-set size per node per period.
pub const EVAL_SIZE: usize = 400;

/// Held-out reference-set size per node per period.
const HELD_OUT_SIZE: usize = 600;

/// One node's sets of the period that just ended, handed over once at
/// the period boundary: the drift detector's comparison basis (§3.2).
#[derive(Clone, Debug)]
pub struct Retired {
    /// The retiring pool: the "old training samples" the drift detector
    /// compares the new pool against. Still deferred if nobody read it.
    pub train: RetrainPool,
    /// Held-out samples from the same distribution, never trained on:
    /// the detector's drift-free counterfactual (tail accuracy on these
    /// is what the new pool's tail is compared against, avoiding
    /// train-set memorisation bias).
    pub held_out: Arc<LabeledSamples>,
}

/// Live state of one application on the edge server.
pub struct AppRuntime {
    /// The application's DAG specification.
    pub spec: AppSpec,
    /// One trainable model per DAG node.
    pub models: Vec<TrainableModel>,
    /// One drifting task stream per DAG node.
    pub streams: Vec<TaskStream>,
    /// One retraining pool per DAG node (refreshed each period, drawn
    /// when first read).
    pub pools: Vec<RetrainPool>,
    /// The application's request-arrival trace.
    pub arrivals: ArrivalTrace,
    /// Each node's sets of the period that just ended, in node order:
    /// its retiring pool and the held-out set drawn beside it. Refilled
    /// by [`Self::advance_period`] (by [`Self::new`] with the initial
    /// training sets); whoever takes them owns them.
    pub retired: Vec<Retired>,
    /// Per-node held-out samples aligned with the *current* pool's
    /// distribution, retired beside it at the next boundary.
    held_out: Vec<Arc<LabeledSamples>>,
    /// Per-node evaluation sets for the current period.
    eval_sets: Vec<LabeledSamples>,
    /// Initial full-structure accuracy `I_m` per node (§3.2).
    initial_accuracy: Vec<f64>,
    /// Per-node accuracy cache, one slot per head exit:
    /// `(trained-sample bucket, period, accuracy)`. Keyed by
    /// `trained_samples / 256` rather than the raw version so that
    /// incremental retraining (thousands of tiny slices per period)
    /// re-evaluates only every ~256 consumed samples — accuracy moves
    /// smoothly in between. Each slot holds its exit's accuracy under
    /// the weights of the read that scored it.
    acc_cache: Vec<[(u64, u64, f64); HEAD_EXITS]>,
    /// Forward-pass buffers reused by every accuracy-cache miss.
    score_scratch: InferScratch,
    /// Current period index.
    period: u64,
    /// Retraining pool size per period.
    pool_size: usize,
}

impl AppRuntime {
    /// Deploys `spec`: builds streams and models, trains every model on
    /// initial data (the "first 40 % of the dataset" role, §2), draws
    /// the first evaluation sets and defers the first pools.
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
            models.push(TrainableModel::new(
                nspec.profile.clone(),
                nspec.classes,
                &mut rng,
            ));
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
            retired: Vec::with_capacity(n),
            held_out: Vec::with_capacity(n),
            eval_sets: Vec::new(),
            initial_accuracy: vec![0.0; n],
            acc_cache: vec![[(u64::MAX, u64::MAX, 0.0); HEAD_EXITS]; n],
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
                self.models[i].accuracy_on(&eval, self.models[i].profile().full_cut());
            self.held_out
                .push(Arc::new(self.streams[i].sample(HELD_OUT_SIZE)));
            self.retired.push(Retired {
                train: RetrainPool::new(train),
                held_out: Arc::new(self.streams[i].sample(HELD_OUT_SIZE)),
            });
            self.eval_sets.push(eval);
            // Period-0 pool: the initial data is the "previous" data.
            self.pools[i] = RetrainPool::deferred(self.streams[i].defer(self.pool_size));
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

    /// Advances to the next period: each node's current pool and
    /// held-out set retire into [`Self::retired`] (handed over, not
    /// copied; a pool nobody read stays undrawn), streams drift, new
    /// evaluation sets are drawn and new pools deferred to their first
    /// read (the pool lags one period, as retraining data is always the
    /// previous period's requests).
    pub fn advance_period(&mut self) {
        self.period += 1;
        self.retired.clear();
        for i in 0..self.streams.len() {
            // New pool from the distribution requests just lived in,
            // plus a held-out reference set from the same distribution.
            let pool = RetrainPool::deferred(self.streams[i].defer(self.pool_size));
            let held_out = Arc::new(self.streams[i].sample(HELD_OUT_SIZE));
            self.retired.push(Retired {
                train: std::mem::replace(&mut self.pools[i], pool),
                held_out: std::mem::replace(&mut self.held_out[i], held_out),
            });
            self.streams[i].advance_period();
            self.eval_sets[i] = self.streams[i].sample(EVAL_SIZE);
        }
    }

    /// Accuracy of node `i` at structure cut `cut`, on the current
    /// period's evaluation set, cached per head exit and (trained-sample
    /// bucket, period): [`TrainableModel::accuracy_on`] at that cut, as
    /// of the read that scored it. A miss scores only the exit asked
    /// for, except on the node's first read in a period: every slot is
    /// then stale, and all exits come from one trunk pass, since the
    /// period hook's refresh reads each of them before any retraining.
    pub fn accuracy(&mut self, node: usize, cut: usize) -> f64 {
        let model = &self.models[node];
        let (bucket, period) = (model.trained_samples() / 256, self.period);
        let exit = model.head_exit_for_cut(cut);
        let slots = &mut self.acc_cache[node];
        let (b, p, cached) = slots[exit];
        if (b, p) == (bucket, period) {
            return cached;
        }
        let exits = if slots.iter().all(|&(_, p, _)| p != period) {
            (1 << HEAD_EXITS) - 1
        } else {
            1 << exit
        };
        let mut accs = [0.0; HEAD_EXITS];
        let eval = &self.eval_sets[node];
        model.score_exits(eval, exits, &mut self.score_scratch, &mut accs);
        for (e, (slot, &acc)) in slots.iter_mut().zip(&accs).enumerate() {
            if exits >> e & 1 == 1 {
                *slot = (bucket, period, acc);
            }
        }
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

    /// A structure cut of node `node` that maps to head exit `exit`.
    fn cut_for_exit(rt: &AppRuntime, node: usize, exit: usize) -> usize {
        let model = &rt.models[node];
        let cuts = model.profile().exit_points();
        *cuts
            .iter()
            .find(|&&c| model.head_exit_for_cut(c) == exit)
            .expect("a cut per exit")
    }

    /// Trains node 1 on pool slices of `n` samples until its
    /// trained-sample bucket moves (`true`) or would move with the next
    /// slice (`false`).
    fn train_node1(rt: &mut AppRuntime, n: usize, cross_bucket: bool) {
        let bucket = |rt: &AppRuntime| rt.models[1].trained_samples() / 256;
        let start = bucket(rt);
        loop {
            let next = (rt.models[1].trained_samples() + n as u64) / 256;
            if !cross_bucket && next != start {
                return;
            }
            let batch = rt.pools[1].take(n);
            assert!(!batch.is_empty(), "pool exhausted");
            rt.models[1].train_slice(&batch, 1);
            if bucket(rt) != start {
                return;
            }
        }
    }

    /// Each exit has its own slot: a node's first read in a period fills
    /// all three from one pass, a later miss scores only the exit asked
    /// for (a second exit in the same bucket is scored, with the weights
    /// of that read, and cached on its own), and a bucket or period
    /// change makes every slot stale.
    #[test]
    fn accuracy_cache_tracks_version_and_period() {
        let mut rt = surveillance_runtime();
        let cut = |rt: &AppRuntime, e: usize| cut_for_exit(rt, 1, e);
        let fresh =
            |rt: &AppRuntime, e: usize| rt.models[1].accuracy_on(&rt.eval_sets[1], cut(rt, e));
        let key = |rt: &AppRuntime| (rt.models[1].trained_samples() / 256, rt.period());
        let slot_keys = |rt: &AppRuntime| rt.acc_cache[1].map(|(b, p, _)| (b, p));

        // First read of the period: every exit scored at once.
        let a = rt.accuracy(1, cut(&rt, 2));
        assert_eq!(rt.accuracy(1, cut(&rt, 2)), a, "cached value");
        assert_eq!(slot_keys(&rt), [key(&rt); 3]);
        for e in 0..3 {
            let got = rt.accuracy(1, cut(&rt, e));
            assert_eq!(got.to_bits(), fresh(&rt, e).to_bits());
        }

        // A bucket change makes every slot stale; a read scores only
        // its own exit.
        train_node1(&mut rt, 64, true);
        let k1 = key(&rt);
        let full = rt.accuracy(1, cut(&rt, 2));
        assert_eq!(full.to_bits(), fresh(&rt, 2).to_bits());
        let keys = slot_keys(&rt);
        assert_eq!(keys[2], k1);
        assert!(keys[..2].iter().all(|&k| k != k1), "{keys:?}");

        // Retraining inside the bucket, then a second exit: scored with
        // the weights it is read at, cached on its own; the first
        // exit's slot keeps its value.
        train_node1(&mut rt, 8, false);
        assert_eq!(key(&rt), k1);
        let early = rt.accuracy(1, cut(&rt, 0));
        assert_eq!(early.to_bits(), fresh(&rt, 0).to_bits());
        assert_eq!(slot_keys(&rt)[0], k1);
        assert_eq!(slot_keys(&rt)[1], keys[1]);
        assert_eq!(rt.accuracy(1, cut(&rt, 2)).to_bits(), full.to_bits());

        // A period change: the node's first read refreshes every exit.
        rt.advance_period();
        let c = rt.accuracy(1, cut(&rt, 1));
        assert!((0.0..=1.0).contains(&c));
        assert_eq!(slot_keys(&rt), [key(&rt); 3]);
        for e in 0..3 {
            let got = rt.accuracy(1, cut(&rt, e));
            assert_eq!(got.to_bits(), fresh(&rt, e).to_bits());
        }
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
                for cut in rt.models[node].profile().exit_points() {
                    let want = rt.models[node].accuracy_on(&rt.eval_sets[node], cut);
                    let got = rt.accuracy(node, cut);
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{name} node {node} cut {cut}"
                    );
                }
            }
        }
    }

    /// The boundary hands each node's retiring pool and held-out set
    /// over as its `Retired` value without copying either. The test
    /// holds the retiring sets alive, so an equal data pointer cannot
    /// come from a freed-and-reused allocation.
    #[test]
    fn advance_period_shares_the_retiring_sets() {
        let mut rt = surveillance_runtime();
        let pools: Vec<Arc<LabeledSamples>> =
            rt.pools.iter_mut().map(|p| Arc::clone(p.draw())).collect();
        let held_out = rt.held_out.clone();
        rt.advance_period();
        let ptr = |s: &LabeledSamples| s.inputs.data().as_ptr();
        assert_eq!(rt.retired.len(), rt.models.len());
        for (node, retired) in rt.retired.iter().enumerate() {
            let train = retired.train.samples();
            assert_eq!(ptr(train), ptr(&pools[node]), "node {node} training set");
            let held = &retired.held_out;
            assert_eq!(ptr(held), ptr(&held_out[node]), "node {node} held-out set");
        }
    }

    /// `new` and `advance_period` defer every pool, and a retiring pool
    /// nobody read retires undrawn. Drawn later, it is bit-equal to the
    /// pool a read in its own period drew.
    #[test]
    fn pools_are_deferred_until_read() {
        let mut rt = surveillance_runtime();
        let mut read = surveillance_runtime();
        for _ in 0..2 {
            assert!(rt.pools.iter().all(|p| !p.is_drawn()));
            assert!(rt
                .pools
                .iter()
                .all(|p| p.total() == 600 && p.remaining() == 600));
            let drawn: Vec<Arc<LabeledSamples>> = read
                .pools
                .iter_mut()
                .map(|p| Arc::clone(p.draw()))
                .collect();
            rt.advance_period();
            read.advance_period();
            for (node, (retired, want)) in rt.retired.iter_mut().zip(&drawn).enumerate() {
                assert!(!retired.train.is_drawn(), "node {node}");
                let old = retired.train.draw();
                assert_eq!(old.labels, want.labels, "node {node}");
                assert_eq!(old.inputs.data(), want.inputs.data(), "node {node}");
            }
        }
    }

    /// Dropping the retired sets frees them; the next boundary hands
    /// over new ones, one per node. The period-0 sets are the initial
    /// training sets, drawn at deployment.
    #[test]
    fn freed_old_sets_come_back_at_the_next_boundary() {
        let mut rt = surveillance_runtime();
        assert_eq!(rt.retired.len(), 3);
        assert!(rt.retired.iter().all(|r| r.train.is_drawn()));
        rt.retired.clear();
        rt.advance_period();
        assert_eq!(rt.retired.len(), 3);
        for r in &rt.retired {
            assert_eq!((r.train.total(), r.held_out.len()), (600, HELD_OUT_SIZE));
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
