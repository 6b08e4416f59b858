//! Early-exit multi-layer perceptrons.
//!
//! An [`EarlyExitMlp`] is a trunk of ReLU dense layers with a softmax
//! classification head attached after *every* trunk layer (deep
//! supervision, the BranchyNet/SPINN construction the paper's early-exit
//! structures follow \[22\]). Inference can stop at any exit: earlier exits
//! are cheaper but less accurate — exactly the trade-off AdaInf's structure
//! selector (§3.3.2) exploits.
//!
//! Training uses SGD with momentum on a weighted sum of the per-exit
//! cross-entropy losses, so every exit remains usable after retraining.

use crate::layer::{Dense, GradScratch, Update};
use crate::matrix::{softmax_argmax, Matrix};
use adainf_simcore::Prng;

/// Hyper-parameters of an [`EarlyExitMlp`].
#[derive(Clone, Debug)]
pub struct MlpConfig {
    /// Input feature dimensionality.
    pub input_dim: usize,
    /// Width of each trunk layer; its length is the number of exits.
    pub hidden: Vec<usize>,
    /// Number of output classes.
    pub classes: usize,
    /// SGD learning rate.
    pub lr: f32,
    /// SGD momentum.
    pub momentum: f32,
    /// Loss weight per exit; later exits usually get more weight. Must
    /// have the same length as `hidden` (checked at build time).
    pub exit_weights: Vec<f32>,
    /// Optional update-rule override (e.g. [`Update::adam`]); `None`
    /// uses SGD with the `lr`/`momentum` fields above.
    pub update: Option<Update>,
}

impl MlpConfig {
    /// A reasonable default: two hidden layers, final exit weighted 1.0
    /// and the early exit 0.4.
    pub fn small(input_dim: usize, classes: usize) -> Self {
        MlpConfig {
            input_dim,
            hidden: vec![32, 32],
            classes,
            lr: 0.05,
            momentum: 0.9,
            exit_weights: vec![0.4, 1.0],
            update: None,
        }
    }

    /// The effective update rule.
    pub fn update_rule(&self) -> Update {
        self.update.unwrap_or(Update::SgdMomentum {
            lr: self.lr,
            momentum: self.momentum,
        })
    }
}

/// A labelled mini-batch.
#[derive(Clone, Debug)]
pub struct TrainBatch {
    /// Feature rows, `batch × input_dim`.
    pub inputs: Matrix,
    /// Class label per row.
    pub labels: Vec<usize>,
}

/// An MLP with an early-exit head after every trunk layer.
///
/// ```
/// use adainf_nn::{EarlyExitMlp, Matrix, MlpConfig, TrainBatch};
/// use adainf_simcore::Prng;
/// let mut rng = Prng::new(3);
/// let mut net = EarlyExitMlp::new(MlpConfig::small(4, 2), &mut rng);
/// // Two separable blobs at ±1.
/// let data: Vec<f32> = (0..32).flat_map(|i| {
///     let c = if i % 2 == 0 { -1.0f32 } else { 1.0 };
///     vec![c; 4]
/// }).collect();
/// let batch = TrainBatch {
///     inputs: Matrix::from_slice(32, 4, &data),
///     labels: (0..32).map(|i| i % 2).collect(),
/// };
/// net.train_epochs(&batch, 20);
/// let acc = net.accuracy(&batch.inputs, &batch.labels, net.num_exits() - 1);
/// assert!(acc > 0.95);
/// ```
#[derive(Debug)]
pub struct EarlyExitMlp {
    trunk: Vec<Dense>,
    heads: Vec<Dense>,
    config: MlpConfig,
    scratch: TrainScratch,
}

impl Clone for EarlyExitMlp {
    /// Clones the parameters and optimizer state; the training scratch
    /// buffers start empty in the clone (they re-warm on first use).
    fn clone(&self) -> Self {
        EarlyExitMlp {
            trunk: self.trunk.clone(),
            heads: self.heads.clone(),
            config: self.config.clone(),
            scratch: TrainScratch::default(),
        }
    }
}

/// Rows per trunk pass of [`EarlyExitMlp::score_exits`]:
/// scoring in fixed row chunks bounds its scratch at this many rows
/// whatever the evaluation-set size. Every row's forward pass is
/// independent of the others, so chunking changes no bit.
const SCORE_CHUNK: usize = 64;

/// Ping-pong activation buffers for the allocation-free inference
/// entry points ([`EarlyExitMlp::predict_with_scratch`],
/// [`EarlyExitMlp::score_exits`]). One instance
/// serves any number of forward passes; buffers reshape on first use.
#[derive(Clone, Debug, Default)]
pub struct InferScratch {
    ping: Matrix,
    pong: Matrix,
    /// The input rows of the current scoring chunk.
    rows: Matrix,
}

/// Preallocated buffers reused by every [`EarlyExitMlp::train_batch`]
/// call, so steady-state SGD retraining performs zero heap
/// allocations: forward activations per trunk layer (also the ReLU
/// masks of the backward pass), softmax/gradient carriers, and
/// per-layer parameter-gradient scratch.
///
/// Public so parallel training fan-outs can hold one instance per
/// *worker* (via [`EarlyExitMlp::train_batch_parts_with`]) instead of
/// re-warming each model's embedded scratch; the buffers carry no
/// model state — every field is fully overwritten before it is read —
/// so sharing an instance across models is bit-safe.
#[derive(Debug, Default)]
pub struct TrainScratch {
    /// Post-activation output of each trunk layer.
    activations: Vec<Matrix>,
    /// Head logits, softmaxed in place into class probabilities.
    probs: Matrix,
    /// Gradient carrier flowing backward through the trunk.
    grad: Matrix,
    /// Per-layer backward output buffer, swapped with `grad`.
    grad_in: Matrix,
    /// Gradient each head injects into its trunk level.
    head_grads: Vec<Matrix>,
    /// Parameter-gradient buffers shared by every layer's update.
    layer: GradScratch,
}

impl EarlyExitMlp {
    /// Builds a randomly-initialised network.
    ///
    /// # Panics
    /// Panics if `hidden` is empty or `exit_weights` length mismatches.
    pub fn new(config: MlpConfig, rng: &mut Prng) -> Self {
        assert!(!config.hidden.is_empty(), "need at least one trunk layer");
        assert_eq!(
            config.hidden.len(),
            config.exit_weights.len(),
            "one exit weight per trunk layer"
        );
        let mut trunk = Vec::with_capacity(config.hidden.len());
        let mut heads = Vec::with_capacity(config.hidden.len());
        let mut in_dim = config.input_dim;
        for &h in &config.hidden {
            trunk.push(Dense::new(in_dim, h, true, rng));
            heads.push(Dense::new(h, config.classes, false, rng));
            in_dim = h;
        }
        EarlyExitMlp {
            trunk,
            heads,
            config,
            scratch: TrainScratch::default(),
        }
    }

    /// Number of exits (== trunk depth).
    pub fn num_exits(&self) -> usize {
        self.trunk.len()
    }

    /// The configuration this network was built with.
    pub fn config(&self) -> &MlpConfig {
        &self.config
    }

    /// Number of output classes.
    pub fn classes(&self) -> usize {
        self.config.classes
    }

    /// Total trainable parameter count.
    pub fn param_count(&self) -> usize {
        self.trunk
            .iter()
            .chain(self.heads.iter())
            .map(Dense::param_count)
            .sum()
    }

    /// Predicted class per row at the given exit (0-based; the last exit
    /// is the "full structure"): the softmax argmax, last class on ties,
    /// read straight from the logits (see [`Self::predict_with_scratch`]).
    ///
    /// # Panics
    /// Panics if `exit >= num_exits()`.
    pub fn predict(&self, inputs: &Matrix, exit: usize) -> Vec<usize> {
        self.predict_with_scratch(inputs, exit, &mut InferScratch::default())
    }

    /// [`Self::predict`] through caller-provided ping-pong buffers: no
    /// input clone and no per-layer allocation. Each row's class is the
    /// one softmax then argmax would pick, taken from the logits without
    /// the softmax where that is exact (`matrix::softmax_argmax`).
    ///
    /// # Panics
    /// Panics if `exit >= num_exits()`.
    pub fn predict_with_scratch(
        &self,
        inputs: &Matrix,
        exit: usize,
        scratch: &mut InferScratch,
    ) -> Vec<usize> {
        assert!(exit < self.num_exits(), "exit out of range");
        let InferScratch { ping, pong, .. } = scratch;
        self.trunk[0].infer_into(inputs, ping);
        for layer in &self.trunk[1..=exit] {
            layer.infer_into(ping, pong);
            std::mem::swap(ping, pong);
        }
        self.heads[exit].infer_into(ping, pong);
        (0..pong.rows())
            .map(|r| softmax_argmax(pong.row_mut(r)))
            .collect()
    }

    /// Fraction of rows classified correctly at the given exit.
    pub fn accuracy(&self, inputs: &Matrix, labels: &[usize], exit: usize) -> f64 {
        assert_eq!(inputs.rows(), labels.len(), "label count mismatch");
        if labels.is_empty() {
            return 0.0;
        }
        let preds = self.predict(inputs, exit);
        let correct = preds.iter().zip(labels).filter(|(p, l)| p == l).count();
        correct as f64 / labels.len() as f64
    }

    /// [`Self::accuracy`] at each exit whose bit is set in `exits` (bit
    /// `e` asks for exit `e`), written into `accuracies[e]`; the other
    /// slots are left as they are. An empty batch scores `0.0`. Rows are
    /// scored in fixed chunks through `scratch`: the trunk runs up to
    /// the deepest exit asked for, and only the heads asked for run on
    /// the activation the pass already holds, so one trunk pass serves
    /// every exit and nothing is allocated once the scratch is warm.
    /// Forward kernels and the softmax argmax are the ones
    /// [`Self::accuracy`] runs, so every value is bit-identical to it.
    ///
    /// # Panics
    /// Panics on a label-count mismatch, when `accuracies.len()` differs
    /// from [`Self::num_exits`], or when `exits` names an exit past it.
    pub fn score_exits(
        &self,
        inputs: &Matrix,
        labels: &[usize],
        exits: u32,
        scratch: &mut InferScratch,
        accuracies: &mut [f64],
    ) {
        assert_eq!(inputs.rows(), labels.len(), "label count mismatch");
        assert_eq!(accuracies.len(), self.num_exits(), "one slot per exit");
        let depth = (u32::BITS - exits.leading_zeros()) as usize;
        assert!(depth <= self.num_exits(), "exit out of range");
        let wanted = |e: usize| exits >> e & 1 == 1;
        // Hit counts accumulate exactly in the f64 slots (far below
        // 2^53), then divide once — the same `correct / n` as
        // `accuracy`.
        for (e, a) in accuracies.iter_mut().enumerate() {
            if wanted(e) {
                *a = 0.0;
            }
        }
        if labels.is_empty() {
            return;
        }
        let InferScratch { ping, pong, rows } = scratch;
        let mut start = 0;
        while start < labels.len() {
            let end = (start + SCORE_CHUNK).min(labels.len());
            rows.copy_rows_from(inputs, start, end);
            let chunk_labels = &labels[start..end];
            let levels = self
                .trunk
                .iter()
                .zip(&self.heads)
                .zip(accuracies.iter_mut());
            for (e, ((layer, head), acc)) in levels.enumerate().take(depth) {
                if e == 0 {
                    layer.infer_into(rows, ping);
                } else {
                    layer.infer_into(ping, pong);
                    std::mem::swap(ping, pong);
                }
                if wanted(e) {
                    head.infer_into(ping, pong);
                    let hits = chunk_labels
                        .iter()
                        .enumerate()
                        .filter(|&(r, &label)| softmax_argmax(pong.row_mut(r)) == label)
                        .count();
                    *acc += hits as f64;
                }
            }
            start = end;
        }
        let n = labels.len() as f64;
        for (e, a) in accuracies.iter_mut().enumerate() {
            if wanted(e) {
                *a /= n;
            }
        }
    }

    /// The hidden representation at the *first* trunk layer — used as the
    /// "feature vector" of a sample by the drift detector (§3.2).
    pub fn features(&self, inputs: &Matrix) -> Matrix {
        self.trunk[0].infer(inputs)
    }

    /// [`Self::features`] into a caller-owned buffer (reshaped in
    /// place), for the drift data path's reusable feature matrices.
    pub fn features_into(&self, inputs: &Matrix, out: &mut Matrix) {
        self.trunk[0].infer_into(inputs, out);
    }

    /// One SGD step on a mini-batch with deep supervision: the loss is the
    /// exit-weighted sum of per-exit cross-entropies. Returns the mean
    /// (weighted) loss, for monitoring.
    ///
    /// All intermediate buffers live in the network's `TrainScratch`
    /// and are reused across calls, so steady-state retraining performs
    /// zero heap allocations once the buffers have warmed up.
    pub fn train_batch(&mut self, batch: &TrainBatch) -> f64 {
        self.step(&batch.inputs, &batch.labels, true)
    }

    /// [`Self::train_batch`] on borrowed inputs and labels, so callers
    /// slicing mini-batches out of a larger sample set need not assemble
    /// a [`TrainBatch`] (and clone rows into it) per step. It skips the
    /// loss, which only monitoring reads; the weights it leaves are
    /// bit-identical to [`Self::train_batch`]'s.
    pub fn train_batch_parts(&mut self, inputs: &Matrix, labels: &[usize]) {
        self.step(inputs, labels, false);
    }

    /// The SGD step behind [`Self::train_batch`] and
    /// [`Self::train_batch_parts`]; returns the mean weighted loss when
    /// `with_loss`, else `0.0`. The loss only reads the softmax, so
    /// skipping it changes no weight.
    fn step(&mut self, inputs: &Matrix, labels: &[usize], with_loss: bool) -> f64 {
        assert_eq!(inputs.rows(), labels.len());
        if labels.is_empty() {
            return 0.0;
        }
        let update = self.config.update_rule();
        let n_exits = self.num_exits();
        let scratch = &mut self.scratch;
        scratch.activations.resize_with(n_exits, Matrix::default);
        scratch.head_grads.resize_with(n_exits, Matrix::default);

        // Forward through the trunk with the fused dense kernel. Each
        // layer's output is both the next layer's input and, for the
        // backward pass, its own ReLU mask.
        for e in 0..n_exits {
            let (earlier, rest) = scratch.activations.split_at_mut(e);
            let input = if e == 0 { inputs } else { &earlier[e - 1] };
            self.trunk[e].infer_into(input, &mut rest[0]);
        }

        // Per-exit head forward + softmax-CE gradient, updating heads and
        // collecting the gradient each head injects into its trunk level.
        let mut total_loss = 0.0f64;
        for e in 0..n_exits {
            let w = self.config.exit_weights[e];
            self.heads[e].infer_into(&scratch.activations[e], &mut scratch.probs);
            scratch.probs.softmax_rows_inplace();
            if with_loss {
                for (r, &label) in labels.iter().enumerate() {
                    let p = scratch.probs.get(r, label).max(1e-12);
                    total_loss += -(p as f64).ln() * w as f64;
                }
            }
            // Gradient: dL/dlogits = (p − onehot) · w.
            scratch.grad.copy_from(&scratch.probs);
            for (r, &label) in labels.iter().enumerate() {
                scratch.grad.set(r, label, scratch.grad.get(r, label) - 1.0);
            }
            scratch.grad.scale(w);
            // Heads have no ReLU, so the pre-activation argument is
            // never read; pass the probs buffer to satisfy the shape.
            self.heads[e].backward_scratch(
                &scratch.activations[e],
                &scratch.probs,
                &mut scratch.grad,
                update,
                Some(&mut scratch.head_grads[e]),
                &mut scratch.layer,
            );
        }

        // Backward through the trunk, adding each head's contribution at
        // its level. Layer 0's input gradient would flow into the raw
        // features, which nothing trains, so it is never computed.
        std::mem::swap(&mut scratch.grad, &mut scratch.head_grads[n_exits - 1]);
        for e in (0..n_exits).rev() {
            let (input, grad_in) = if e == 0 {
                (inputs, None)
            } else {
                (&scratch.activations[e - 1], Some(&mut scratch.grad_in))
            };
            self.trunk[e].backward_scratch(
                input,
                &scratch.activations[e],
                &mut scratch.grad,
                update,
                grad_in,
                &mut scratch.layer,
            );
            if e > 0 {
                // The new `grad` targets activation e-1; add the exit
                // gradient injected there.
                std::mem::swap(&mut scratch.grad, &mut scratch.grad_in);
                scratch.grad.axpy(1.0, &scratch.head_grads[e - 1]);
            }
        }
        total_loss / labels.len() as f64
    }

    /// [`Self::train_batch_parts`] using a caller-owned scratch instead
    /// of the model's embedded one — the entry point for parallel
    /// training fan-outs, where one warmed [`TrainScratch`] per worker
    /// serves every model that worker trains. Implemented as two
    /// pointer swaps around the embedded-scratch path, so the math (and
    /// its result, bit for bit) is identical.
    pub fn train_batch_parts_with(
        &mut self,
        inputs: &Matrix,
        labels: &[usize],
        scratch: &mut TrainScratch,
    ) {
        std::mem::swap(&mut self.scratch, scratch);
        self.train_batch_parts(inputs, labels);
        std::mem::swap(&mut self.scratch, scratch);
    }

    /// Trains on `batch` for `epochs` passes; returns the final loss.
    pub fn train_epochs(&mut self, batch: &TrainBatch, epochs: usize) -> f64 {
        let mut loss = 0.0;
        for _ in 0..epochs {
            loss = self.train_batch(batch);
        }
        loss
    }

    /// Flattens all parameters (trunk then heads) into a vector.
    pub fn flatten_params(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.param_count());
        for layer in self.trunk.iter().chain(self.heads.iter()) {
            layer.append_params(&mut out);
        }
        out
    }

    /// Loads parameters produced by [`Self::flatten_params`] on a network
    /// of identical shape.
    ///
    /// # Panics
    /// Panics if the parameter count does not match.
    pub fn load_params(&mut self, params: &[f32]) {
        assert_eq!(params.len(), self.param_count(), "parameter count mismatch");
        let mut offset = 0;
        for layer in self.trunk.iter_mut().chain(self.heads.iter_mut()) {
            offset += layer.load_params(&params[offset..]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two well-separated Gaussian blobs; any working learner must reach
    /// high accuracy quickly.
    fn blob_batch(rng: &mut Prng, n: usize, dim: usize) -> TrainBatch {
        let mut data = Vec::with_capacity(n * dim);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let label = i % 2;
            let center = if label == 0 { -1.5 } else { 1.5 };
            for _ in 0..dim {
                data.push((center + rng.gauss() * 0.5) as f32);
            }
            labels.push(label);
        }
        TrainBatch {
            inputs: Matrix::from_slice(n, dim, &data),
            labels,
        }
    }

    #[test]
    fn learns_separable_blobs_at_every_exit() {
        let mut rng = Prng::new(42);
        let cfg = MlpConfig::small(8, 2);
        let mut net = EarlyExitMlp::new(cfg, &mut rng);
        let train = blob_batch(&mut rng, 64, 8);
        let test = blob_batch(&mut rng, 128, 8);
        let before = net.accuracy(&test.inputs, &test.labels, 1);
        let mut last_loss = f64::INFINITY;
        for _ in 0..30 {
            last_loss = net.train_batch(&train);
        }
        for exit in 0..net.num_exits() {
            let acc = net.accuracy(&test.inputs, &test.labels, exit);
            assert!(acc > 0.95, "exit {exit} accuracy {acc}");
        }
        assert!(last_loss < 0.2, "loss {last_loss}");
        let after = net.accuracy(&test.inputs, &test.labels, 1);
        assert!(after > before, "training must improve accuracy");
    }

    #[test]
    fn adam_learns_blobs_too() {
        let mut rng = Prng::new(44);
        let mut cfg = MlpConfig::small(8, 2);
        cfg.update = Some(Update::adam(0.01));
        let mut net = EarlyExitMlp::new(cfg, &mut rng);
        let train = blob_batch(&mut rng, 64, 8);
        let test = blob_batch(&mut rng, 128, 8);
        for _ in 0..60 {
            net.train_batch(&train);
        }
        let acc = net.accuracy(&test.inputs, &test.labels, 1);
        assert!(acc > 0.95, "adam accuracy {acc}");
    }

    #[test]
    fn training_is_nan_safe_under_extreme_inputs() {
        // Gradient clipping must keep the network finite even on
        // pathological feature magnitudes.
        let mut rng = Prng::new(45);
        let mut net = EarlyExitMlp::new(MlpConfig::small(4, 2), &mut rng);
        let data: Vec<f32> = (0..64)
            .map(|i| if i % 3 == 0 { 1e6 } else { -1e6 })
            .collect();
        let batch = TrainBatch {
            inputs: Matrix::from_slice(16, 4, &data),
            labels: (0..16).map(|i| i % 2).collect(),
        };
        for _ in 0..50 {
            let loss = net.train_batch(&batch);
            assert!(loss.is_finite(), "loss diverged");
        }
        for p in net.flatten_params() {
            assert!(p.is_finite(), "parameter became non-finite");
        }
        // Predictions still well-defined.
        let _ = net.predict(&batch.inputs, 1);
    }

    #[test]
    fn loss_decreases_monotonically_enough() {
        let mut rng = Prng::new(7);
        let mut net = EarlyExitMlp::new(MlpConfig::small(4, 3), &mut rng);
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for i in 0..60 {
            let c = i % 3;
            for d in 0..4 {
                let center = if d == c { 2.0 } else { 0.0 };
                data.push((center + rng.gauss() * 0.3) as f32);
            }
            labels.push(c);
        }
        let batch = TrainBatch {
            inputs: Matrix::from_slice(60, 4, &data),
            labels,
        };
        let first = net.train_batch(&batch);
        let last = net.train_epochs(&batch, 40);
        assert!(last < first * 0.5, "loss {first} -> {last}");
    }

    #[test]
    fn params_round_trip_preserves_predictions() {
        let mut rng = Prng::new(9);
        let cfg = MlpConfig::small(6, 4);
        let mut a = EarlyExitMlp::new(cfg.clone(), &mut rng);
        let b = EarlyExitMlp::new(cfg, &mut rng);
        let batch = blob_batch(&mut rng, 16, 6);
        a.train_epochs(&batch, 5);
        let params = a.flatten_params();
        let mut b2 = b.clone();
        b2.load_params(&params);
        let pa = a.predict(&batch.inputs, 1);
        let pb = b2.predict(&batch.inputs, 1);
        assert_eq!(pa, pb);
    }

    /// The reference prediction per row: softmax over the logits, then
    /// the last maximal probability.
    fn softmax_then_argmax(net: &EarlyExitMlp, inputs: &Matrix, exit: usize) -> Vec<usize> {
        let mut x = inputs.clone();
        for layer in &net.trunk[..=exit] {
            x = layer.infer(&x);
        }
        let mut probs = net.heads[exit].infer(&x);
        probs.softmax_rows_inplace();
        (0..probs.rows())
            .map(|r| {
                let row = probs.row(r);
                (0..row.len()).fold(0, |best, i| if row[i] >= row[best] { i } else { best })
            })
            .collect()
    }

    /// Both prediction entry points must pick, at every exit, the class
    /// softmax then argmax picks, with dirty reused buffers.
    #[test]
    fn predictions_match_softmax_then_argmax() {
        let mut rng = Prng::new(13);
        let mut net = EarlyExitMlp::new(MlpConfig::small(8, 3), &mut rng);
        let train = blob_batch(&mut rng, 48, 8);
        net.train_epochs(&train, 10);
        let test = blob_batch(&mut rng, 96, 8);
        let mut scratch = InferScratch::default();
        for exit in 0..net.num_exits() {
            let want = softmax_then_argmax(&net, &test.inputs, exit);
            assert_eq!(net.predict(&test.inputs, exit), want, "exit {exit}");
            let fast = net.predict_with_scratch(&test.inputs, exit, &mut scratch);
            assert_eq!(fast, want, "exit {exit}");
        }
        let feats = net.features(&test.inputs);
        let mut out = Matrix::from_slice(1, 3, &[3.0, 3.0, 3.0]);
        net.features_into(&test.inputs, &mut out);
        assert_eq!(feats, out);
    }

    /// The masked scorer must bit-match [`EarlyExitMlp::accuracy`] at
    /// every exit, for every set of exits asked for, at row counts
    /// below, at and across its row chunks, through one scratch reused
    /// across sizes; slots not asked for stay untouched.
    #[test]
    fn one_pass_exit_scoring_matches_accuracy() {
        let mut rng = Prng::new(19);
        let mut net = EarlyExitMlp::new(head_config(6, None), &mut rng);
        for _ in 0..3 {
            let (x, y) = random_batch(&mut rng, 32, 6);
            net.train_batch_parts(&x, &y);
        }
        let mut scratch = InferScratch::default();
        for rows in [400, 0, 1, 63, 64, 65, 31] {
            let (x, y) = random_batch(&mut rng, rows, 6);
            let want: Vec<f64> = (0..3).map(|e| net.accuracy(&x, &y, e)).collect();
            for exits in 0..8u32 {
                let mut accs = [9.0; 3];
                net.score_exits(&x, &y, exits, &mut scratch, &mut accs);
                for (e, &got) in accs.iter().enumerate() {
                    let want = if exits >> e & 1 == 1 { want[e] } else { 9.0 };
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{rows} rows, exits {exits:03b}, exit {e}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "exit out of range")]
    fn scoring_an_exit_past_the_trunk_panics() {
        let mut rng = Prng::new(1);
        let net = EarlyExitMlp::new(head_config(2, None), &mut rng);
        let (x, y) = random_batch(&mut rng, 4, 2);
        net.score_exits(&x, &y, 0b1000, &mut InferScratch::default(), &mut [0.0; 3]);
    }

    /// Skipping the loss must leave the same weights as computing it.
    #[test]
    fn loss_free_step_leaves_identical_weights() {
        let mut rng = Prng::new(21);
        let mut with_loss = EarlyExitMlp::new(head_config(6, None), &mut rng);
        let mut without = with_loss.clone();
        for rows in [32, 17, 32] {
            let (inputs, labels) = random_batch(&mut rng, rows, 6);
            let loss = with_loss.train_batch(&TrainBatch {
                inputs: inputs.clone(),
                labels: labels.clone(),
            });
            assert!(loss > 0.0);
            without.train_batch_parts(&inputs, &labels);
        }
        let bits = |n: &EarlyExitMlp| -> Vec<u32> {
            n.flatten_params().iter().map(|p| p.to_bits()).collect()
        };
        assert_eq!(bits(&with_loss), bits(&without));
    }

    /// The deployed heads' shape: 16 inputs, a 32/24/16 trunk.
    fn head_config(classes: usize, update: Option<Update>) -> MlpConfig {
        MlpConfig {
            input_dim: 16,
            hidden: vec![32, 24, 16],
            classes,
            lr: 0.05,
            momentum: 0.9,
            exit_weights: vec![0.3, 0.55, 1.0],
            update,
        }
    }

    fn random_batch(rng: &mut Prng, rows: usize, classes: usize) -> (Matrix, Vec<usize>) {
        let data: Vec<f32> = (0..rows * 16).map(|_| rng.gauss() as f32).collect();
        let labels = (0..rows).map(|_| rng.index(classes)).collect();
        (Matrix::from_slice(rows, 16, &data), labels)
    }

    /// One dense layer of the naive reference step: parameters plus
    /// optimizer state, all as flat row-major vectors.
    struct RefLayer {
        w: Vec<f32>,
        b: Vec<f32>,
        n_in: usize,
        n_out: usize,
        relu: bool,
        m_w: Vec<f32>,
        m_b: Vec<f32>,
        v_w: Vec<f32>,
        v_b: Vec<f32>,
        steps: u64,
    }

    /// `a (rows × k) × b (k × n)` as a plain triple loop.
    fn ref_matmul(a: &[f32], b: &[f32], rows: usize, k: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; rows * n];
        for i in 0..rows {
            for j in 0..n {
                let mut acc = 0.0f32;
                for kk in 0..k {
                    acc += a[i * k + kk] * b[kk * n + j];
                }
                out[i * n + j] = acc;
            }
        }
        out
    }

    impl RefLayer {
        fn of(layer: &Dense) -> Self {
            let (n_in, n_out) = (layer.in_dim(), layer.out_dim());
            RefLayer {
                w: layer.weights.data().to_vec(),
                b: layer.bias.clone(),
                n_in,
                n_out,
                relu: layer.relu,
                m_w: vec![0.0; n_in * n_out],
                m_b: vec![0.0; n_out],
                v_w: vec![0.0; n_in * n_out],
                v_b: vec![0.0; n_out],
                steps: 0,
            }
        }

        /// Unfused forward: GEMM, then the bias pass, then the ReLU
        /// pass. Returns `(pre-activation, activation)`.
        fn forward(&self, x: &[f32], rows: usize) -> (Vec<f32>, Vec<f32>) {
            let mut pre = ref_matmul(x, &self.w, rows, self.n_in, self.n_out);
            for row in pre.chunks_mut(self.n_out) {
                for (p, b) in row.iter_mut().zip(&self.b) {
                    *p += b;
                }
            }
            let mut act = pre.clone();
            if self.relu {
                for a in &mut act {
                    if *a < 0.0 {
                        *a = 0.0;
                    }
                }
            }
            (pre, act)
        }

        /// Masks `grad` by `pre`, then returns the input gradient
        /// `grad × Wᵀ` (pre-update weights) and applies the update.
        fn backward(
            &mut self,
            x: &[f32],
            pre: &[f32],
            grad: &mut [f32],
            rows: usize,
            update: Update,
        ) -> Vec<f32> {
            let (n_in, n_out) = (self.n_in, self.n_out);
            if self.relu {
                for (g, &p) in grad.iter_mut().zip(pre) {
                    if p <= 0.0 {
                        *g = 0.0;
                    }
                }
            }
            let mut grad_in = vec![0.0f32; rows * n_in];
            for r in 0..rows {
                for i in 0..n_in {
                    let mut acc = 0.0f32;
                    for k in 0..n_out {
                        acc += grad[r * n_out + k] * self.w[i * n_out + k];
                    }
                    grad_in[r * n_in + i] = acc;
                }
            }
            let mut grad_w = vec![0.0f32; n_in * n_out];
            for i in 0..n_in {
                for j in 0..n_out {
                    let mut acc = 0.0f32;
                    for r in 0..rows {
                        acc += x[r * n_in + i] * grad[r * n_out + j];
                    }
                    grad_w[i * n_out + j] = acc;
                }
            }
            let batch = rows.max(1) as f32;
            let mut grad_b = vec![0.0f32; n_out];
            for r in 0..rows {
                for j in 0..n_out {
                    grad_b[j] += grad[r * n_out + j];
                }
            }
            for g in &mut grad_b {
                *g = (*g / batch).clamp(-5.0, 5.0);
            }
            let inv_batch = 1.0 / batch;
            for g in &mut grad_w {
                *g = (*g * inv_batch).clamp(-5.0, 5.0);
            }
            match update {
                Update::SgdMomentum { lr, momentum } => {
                    let params = self.w.iter_mut().chain(&mut self.b);
                    let vel = self.m_w.iter_mut().chain(&mut self.m_b);
                    for ((p, v), g) in params.zip(vel).zip(grad_w.iter().chain(&grad_b)) {
                        *v = momentum * *v - lr * g;
                        *p += *v;
                    }
                }
                Update::Adam {
                    lr,
                    beta1,
                    beta2,
                    eps,
                } => {
                    self.steps += 1;
                    let t = self.steps as f32;
                    let (c1, c2) = (1.0 - beta1.powf(t), 1.0 - beta2.powf(t));
                    let params = self.w.iter_mut().chain(&mut self.b);
                    let m1 = self.m_w.iter_mut().chain(&mut self.m_b);
                    let m2 = self.v_w.iter_mut().chain(&mut self.v_b);
                    for (((p, m), v), g) in params.zip(m1).zip(m2).zip(grad_w.iter().chain(&grad_b))
                    {
                        *m = beta1 * *m + (1.0 - beta1) * g;
                        *v = beta2 * *v + (1.0 - beta2) * g * g;
                        *p -= lr * (*m / c1) / ((*v / c2).sqrt() + eps);
                    }
                }
            }
            grad_in
        }
    }

    /// One deep-supervision SGD step, computed naively: every exit's
    /// softmax-CE gradient updates its head, then the trunk backward
    /// adds each head's input gradient at its level. Layer 0's input
    /// gradient is computed like every other layer's and dropped.
    fn reference_step(
        trunk: &mut [RefLayer],
        heads: &mut [RefLayer],
        exit_weights: &[f32],
        x: &[f32],
        labels: &[usize],
        update: Update,
    ) {
        let rows = labels.len();
        let mut pres = Vec::new();
        let mut acts: Vec<Vec<f32>> = Vec::new();
        for (e, layer) in trunk.iter().enumerate() {
            let input = if e == 0 { x } else { &acts[e - 1] };
            let (pre, act) = layer.forward(input, rows);
            pres.push(pre);
            acts.push(act);
        }
        let mut head_grads = Vec::new();
        for (e, head) in heads.iter_mut().enumerate() {
            let (logits, mut grad) = head.forward(&acts[e], rows);
            for (row, &label) in grad.chunks_mut(head.n_out).zip(labels) {
                let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                let mut total = 0.0;
                for p in row.iter_mut() {
                    *p = (*p - max).exp();
                    total += *p;
                }
                for p in row.iter_mut() {
                    *p /= total;
                }
                row[label] -= 1.0;
                for p in row.iter_mut() {
                    *p *= exit_weights[e];
                }
            }
            head_grads.push(head.backward(&acts[e], &logits, &mut grad, rows, update));
        }
        let mut grad = head_grads.pop().expect("at least one exit");
        for e in (0..trunk.len()).rev() {
            let input = if e == 0 { x } else { &acts[e - 1] };
            let grad_in = trunk[e].backward(input, &pres[e], &mut grad, rows, update);
            if e > 0 {
                grad = grad_in;
                for (g, h) in grad.iter_mut().zip(&head_grads[e - 1]) {
                    *g += 1.0 * h;
                }
            }
        }
    }

    /// The production step (fused forward, activation-masked ReLU
    /// backward, transposed and lane-padded GEMMs, no layer-0 input
    /// gradient) must leave every parameter bit-equal to the naive
    /// reference step, under both update rules, at every deployed head
    /// width and on a ragged batch.
    #[test]
    fn train_step_bit_matches_naive_reference() {
        for classes in [2, 3, 6, 12] {
            for update in [None, Some(Update::adam(0.01))] {
                let mut rng = Prng::new(100 + classes as u64);
                let cfg = head_config(classes, update);
                let rule = cfg.update_rule();
                let exit_weights = cfg.exit_weights.clone();
                let mut net = EarlyExitMlp::new(cfg, &mut rng);
                let mut trunk: Vec<RefLayer> = net.trunk.iter().map(RefLayer::of).collect();
                let mut heads: Vec<RefLayer> = net.heads.iter().map(RefLayer::of).collect();
                for (step, rows) in [32, 32, 17, 32].into_iter().enumerate() {
                    let (x, y) = random_batch(&mut rng, rows, classes);
                    net.train_batch_parts(&x, &y);
                    reference_step(&mut trunk, &mut heads, &exit_weights, x.data(), &y, rule);
                    let want: Vec<u32> = trunk
                        .iter()
                        .chain(&heads)
                        .flat_map(|l| l.w.iter().chain(&l.b))
                        .map(|p| p.to_bits())
                        .collect();
                    let got: Vec<u32> = net.flatten_params().iter().map(|p| p.to_bits()).collect();
                    assert!(
                        got == want,
                        "{classes} classes, {update:?}: step {step} diverges"
                    );
                }
            }
        }
    }

    #[test]
    fn features_have_first_layer_width() {
        let mut rng = Prng::new(3);
        let net = EarlyExitMlp::new(MlpConfig::small(8, 2), &mut rng);
        let batch = blob_batch(&mut rng, 4, 8);
        let f = net.features(&batch.inputs);
        assert_eq!(f.rows(), 4);
        assert_eq!(f.cols(), 32);
    }

    #[test]
    #[should_panic(expected = "one exit weight per trunk layer")]
    fn mismatched_exit_weights_panic() {
        let mut rng = Prng::new(1);
        EarlyExitMlp::new(
            MlpConfig {
                input_dim: 4,
                hidden: vec![8, 8],
                classes: 2,
                lr: 0.1,
                momentum: 0.9,
                exit_weights: vec![1.0],
                update: None,
            },
            &mut rng,
        );
    }

    #[test]
    #[should_panic(expected = "at least one trunk layer")]
    fn empty_trunk_panics() {
        let mut rng = Prng::new(1);
        EarlyExitMlp::new(
            MlpConfig {
                input_dim: 4,
                hidden: vec![],
                classes: 2,
                lr: 0.1,
                momentum: 0.9,
                exit_weights: vec![],
                update: None,
            },
            &mut rng,
        );
    }

    #[test]
    fn empty_batch_train_is_zero_loss() {
        let mut rng = Prng::new(2);
        let mut net = EarlyExitMlp::new(MlpConfig::small(4, 2), &mut rng);
        let batch = TrainBatch {
            inputs: Matrix::zeros(0, 4),
            labels: vec![],
        };
        assert_eq!(net.train_batch(&batch), 0.0);
        assert_eq!(net.accuracy(&batch.inputs, &batch.labels, 0), 0.0);
    }

    #[test]
    fn param_count_matches_architecture() {
        let mut rng = Prng::new(3);
        let net = EarlyExitMlp::new(
            MlpConfig {
                input_dim: 10,
                hidden: vec![8, 6],
                classes: 4,
                lr: 0.1,
                momentum: 0.9,
                exit_weights: vec![0.5, 1.0],
                update: None,
            },
            &mut rng,
        );
        // trunk: 10*8+8 + 8*6+6 ; heads: 8*4+4 + 6*4+4
        let expect = (10 * 8 + 8) + (8 * 6 + 6) + (8 * 4 + 4) + (6 * 4 + 4);
        assert_eq!(net.param_count(), expect);
        assert_eq!(net.flatten_params().len(), expect);
    }

    #[test]
    #[should_panic(expected = "exit out of range")]
    fn bad_exit_panics() {
        let mut rng = Prng::new(1);
        let net = EarlyExitMlp::new(MlpConfig::small(4, 2), &mut rng);
        let x = Matrix::zeros(1, 4);
        net.predict(&x, 5);
    }
}
