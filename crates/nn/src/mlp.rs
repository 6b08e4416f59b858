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

use crate::layer::{Dense, GradScratch, SgdMomentum};
use crate::matrix::{softmax_argmax, Matrix};
use crate::{Label, MAX_CLASSES};
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
        }
    }
}

/// An MLP with an early-exit head after every trunk layer.
///
/// ```
/// use adainf_nn::{EarlyExitMlp, Label, Matrix, MlpConfig, TrainScratch};
/// use adainf_simcore::Prng;
/// let mut rng = Prng::new(3);
/// let mut net = EarlyExitMlp::new(MlpConfig::small(4, 2), &mut rng);
/// // Two separable blobs at ±1.
/// let data: Vec<f32> = (0..32).flat_map(|i| {
///     let c = if i % 2 == 0 { -1.0f32 } else { 1.0 };
///     vec![c; 4]
/// }).collect();
/// let inputs = Matrix::from_slice(32, 4, &data);
/// let labels: Vec<Label> = (0..32).map(|i| i % 2).collect();
/// let mut scratch = TrainScratch::default();
/// for _ in 0..20 {
///     net.train_batch(&inputs, &labels, &mut scratch);
/// }
/// let acc = net.accuracy(&inputs, &labels, net.num_exits() - 1);
/// assert!(acc > 0.95);
/// ```
#[derive(Clone, Debug)]
pub struct EarlyExitMlp {
    trunk: Vec<Dense>,
    heads: Vec<Dense>,
    config: MlpConfig,
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

/// The buffers of [`EarlyExitMlp::train_batch`], reused across calls
/// so steady-state SGD retraining performs zero heap allocations:
/// forward activations per trunk layer (also the ReLU masks of the
/// backward pass), softmax/gradient carriers, and per-layer
/// parameter-gradient scratch. They carry no model state — every
/// field is fully overwritten before it is read — so one instance
/// serves any number of networks of any shape, bit for bit.
#[derive(Clone, Debug, Default)]
pub struct TrainScratch {
    /// Post-activation output of each trunk layer.
    activations: Vec<Matrix>,
    /// Head logits, lane-padded; the real ones become their
    /// exponentials in the gradient pass.
    logits: Matrix,
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
    /// Panics if `hidden` is empty, `exit_weights` length mismatches, or
    /// `classes` exceeds the 256 a [`Label`] can name.
    pub fn new(config: MlpConfig, rng: &mut Prng) -> Self {
        assert!(!config.hidden.is_empty(), "need at least one trunk layer");
        assert!(
            config.classes <= MAX_CLASSES,
            "at most 256 classes: a Label is one byte, got {}",
            config.classes
        );
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
            heads.push(Dense::head(h, config.classes, rng));
            in_dim = h;
        }
        EarlyExitMlp {
            trunk,
            heads,
            config,
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
    /// is the "full structure"), through caller-provided ping-pong
    /// buffers: no input clone and no per-layer allocation. Each row's
    /// class is the one softmax then argmax would pick (the last class
    /// on ties), taken from the logits without the softmax where that
    /// is exact (`matrix::softmax_argmax`).
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
        let classes = self.classes();
        (0..pong.rows())
            .map(|r| softmax_argmax(&mut pong.row_mut(r)[..classes]))
            .collect()
    }

    /// Fraction of rows classified correctly at the given exit.
    pub fn accuracy(&self, inputs: &Matrix, labels: &[Label], exit: usize) -> f64 {
        assert_eq!(inputs.rows(), labels.len(), "label count mismatch");
        if labels.is_empty() {
            return 0.0;
        }
        let preds = self.predict_with_scratch(inputs, exit, &mut InferScratch::default());
        let correct = preds
            .iter()
            .zip(labels)
            .filter(|&(&p, &l)| p == usize::from(l))
            .count();
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
        labels: &[Label],
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
        let classes = self.classes();
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
                        .filter(|&(r, &label)| {
                            let logits = &mut pong.row_mut(r)[..classes];
                            softmax_argmax(logits) == usize::from(label)
                        })
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

    /// The hidden representation at the *first* trunk layer — the
    /// "feature vector" of a sample the drift detector uses (§3.2) —
    /// written into a caller-owned buffer (reshaped in place), for the
    /// drift data path's reusable feature matrices.
    pub fn features_into(&self, inputs: &Matrix, out: &mut Matrix) {
        self.trunk[0].infer_into(inputs, out);
    }

    /// One SGD step on a mini-batch with deep supervision: the loss is
    /// the exit-weighted sum of per-exit cross-entropies, and the step
    /// applies its gradient without evaluating the loss, which nothing
    /// reads. Every intermediate buffer lives in `scratch` and is reused
    /// across calls, so steady-state retraining performs zero heap
    /// allocations once the buffers have warmed up. An empty batch is a
    /// no-op.
    pub fn train_batch(&mut self, inputs: &Matrix, labels: &[Label], scratch: &mut TrainScratch) {
        assert_eq!(inputs.rows(), labels.len());
        if labels.is_empty() {
            return;
        }
        let update = SgdMomentum {
            lr: self.config.lr,
            momentum: self.config.momentum,
        };
        let n_exits = self.num_exits();
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
        let classes = self.config.classes;
        for e in 0..n_exits {
            let w = self.config.exit_weights[e];
            self.heads[e].infer_into(&scratch.activations[e], &mut scratch.logits);
            softmax_ce_grad(&mut scratch.logits, classes, labels, w, &mut scratch.grad);
            // Heads have no ReLU, so the mask argument is never read;
            // pass the logits buffer to satisfy the shape.
            self.heads[e].backward_scratch(
                &scratch.activations[e],
                &scratch.logits,
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
    }

    /// Flattens all parameters (trunk then heads) into a vector.
    pub fn flatten_params(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.param_count());
        for layer in self.trunk.iter().chain(self.heads.iter()) {
            layer.append_params(&mut out);
        }
        out
    }
}

/// The softmax cross-entropy gradient of one exit, `(p − onehot)·weight`
/// per row, written into `grad` (reshaped to the padded logit width,
/// with `+0.0` in every pad column) from `logits`, whose first
/// `classes` columns are the real logits. One `expf` per real logit,
/// left in `logits`, then one normalising pass writes each real
/// gradient element: `p = expf(x − max) / total`, with `total` summed
/// in ascending class order as the softmax sums it, minus 1 at the
/// label, times `weight`. Bit-identical to softmax, copy, one-hot
/// subtraction and scaling as separate passes.
fn softmax_ce_grad(
    logits: &mut Matrix,
    classes: usize,
    labels: &[Label],
    weight: f32,
    grad: &mut Matrix,
) {
    let width = logits.cols();
    grad.reshape_for_overwrite(logits.rows(), width);
    if width > classes {
        // The pad columns, in one pass; the rows below write the rest.
        grad.data_mut().fill(0.0);
    }
    let rows = logits.data_mut().chunks_exact_mut(width);
    for ((x, g), &label) in rows
        .zip(grad.data_mut().chunks_exact_mut(width))
        .zip(labels)
    {
        let (real, label) = (&mut x[..classes], usize::from(label));
        // The maximum the softmax's `f32::max` fold finds, at one
        // compare per logit: both skip NaN, and the two may differ only
        // in the sign of a zero maximum, which no `expf(x − max)` sees.
        let mut max = f32::NEG_INFINITY;
        for &v in real.iter() {
            if v > max {
                max = v;
            }
        }
        let mut total = 0.0;
        for v in real.iter_mut() {
            *v = (*v - max).exp();
            total += *v;
        }
        let g = &mut g[..classes];
        for (g, &e) in g.iter_mut().zip(real.iter()) {
            *g = e / total * weight;
        }
        g[label] = (real[label] / total - 1.0) * weight;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two well-separated Gaussian blobs; any working learner must reach
    /// high accuracy quickly.
    fn blob_batch(rng: &mut Prng, n: usize, dim: usize) -> (Matrix, Vec<Label>) {
        let mut data = Vec::with_capacity(n * dim);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let label = (i % 2) as Label;
            let center = if label == 0 { -1.5 } else { 1.5 };
            for _ in 0..dim {
                data.push((center + rng.gauss() * 0.5) as f32);
            }
            labels.push(label);
        }
        (Matrix::from_slice(n, dim, &data), labels)
    }

    /// The mean exit-weighted cross-entropy of `net` on a batch, from the
    /// naive reference forward pass: per row and exit,
    /// `−ln(max(p_label, 1e-12))·weight`, with `p` the softmax of the
    /// exit's logits. A training step's gradient is that of this loss
    /// at the parameters it starts from.
    fn reference_loss(net: &EarlyExitMlp, inputs: &Matrix, labels: &[Label]) -> f64 {
        let rows = labels.len();
        let mut x = inputs.data().to_vec();
        let mut total = 0.0f64;
        for (e, &weight) in net.config.exit_weights.iter().enumerate() {
            x = RefLayer::of(&net.trunk[e], true).forward(&x, rows).1;
            let head = RefLayer::of(&net.heads[e], false);
            let logits = head.forward(&x, rows).0;
            for (row, &label) in logits.chunks_exact(head.n_out).zip(labels) {
                let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                let sum: f32 = row.iter().map(|&v| (v - max).exp()).sum();
                let p = ((row[usize::from(label)] - max).exp() / sum).max(1e-12);
                total += -(p as f64).ln() * weight as f64;
            }
        }
        total / rows.max(1) as f64
    }

    #[test]
    fn learns_separable_blobs_at_every_exit() {
        let mut rng = Prng::new(42);
        let cfg = MlpConfig::small(8, 2);
        let mut net = EarlyExitMlp::new(cfg, &mut rng);
        let (x, y) = blob_batch(&mut rng, 64, 8);
        let (test_x, test_y) = blob_batch(&mut rng, 128, 8);
        let before = net.accuracy(&test_x, &test_y, 1);
        let mut scratch = TrainScratch::default();
        let mut last_loss = f64::INFINITY;
        for _ in 0..30 {
            last_loss = reference_loss(&net, &x, &y);
            net.train_batch(&x, &y, &mut scratch);
        }
        for exit in 0..net.num_exits() {
            let acc = net.accuracy(&test_x, &test_y, exit);
            assert!(acc > 0.95, "exit {exit} accuracy {acc}");
        }
        assert!(last_loss < 0.2, "loss {last_loss}");
        let after = net.accuracy(&test_x, &test_y, 1);
        assert!(after > before, "training must improve accuracy");
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
        let x = Matrix::from_slice(16, 4, &data);
        let y: Vec<Label> = (0..16).map(|i| i % 2).collect();
        let mut scratch = TrainScratch::default();
        for _ in 0..50 {
            let loss = reference_loss(&net, &x, &y);
            assert!(loss.is_finite(), "loss diverged");
            net.train_batch(&x, &y, &mut scratch);
        }
        for p in net.flatten_params() {
            assert!(p.is_finite(), "parameter became non-finite");
        }
        // Predictions still well-defined.
        let _ = net.predict_with_scratch(&x, 1, &mut InferScratch::default());
    }

    #[test]
    fn loss_decreases_monotonically_enough() {
        let mut rng = Prng::new(7);
        let mut net = EarlyExitMlp::new(MlpConfig::small(4, 3), &mut rng);
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for i in 0..60u8 {
            let c = i % 3;
            for d in 0..4 {
                let center = if d == c { 2.0 } else { 0.0 };
                data.push((center + rng.gauss() * 0.3) as f32);
            }
            labels.push(c);
        }
        let x = Matrix::from_slice(60, 4, &data);
        let first = reference_loss(&net, &x, &labels);
        let mut scratch = TrainScratch::default();
        for _ in 0..40 {
            net.train_batch(&x, &labels, &mut scratch);
        }
        let last = reference_loss(&net, &x, &labels);
        assert!(last < first * 0.5, "loss {first} -> {last}");
    }

    /// The reference prediction per row: the naive forward pass of
    /// [`RefLayer`] over the unpadded parameters, softmax over the
    /// logits, then the last maximal probability.
    fn softmax_then_argmax(net: &EarlyExitMlp, inputs: &Matrix, exit: usize) -> Vec<usize> {
        let rows = inputs.rows();
        let mut x = inputs.data().to_vec();
        for layer in &net.trunk[..=exit] {
            x = RefLayer::of(layer, true).forward(&x, rows).1;
        }
        let head = RefLayer::of(&net.heads[exit], false);
        let mut probs = Matrix::from_slice(rows, head.n_out, &head.forward(&x, rows).0);
        probs.softmax_rows_inplace();
        (0..probs.rows())
            .map(|r| {
                let row = probs.row(r);
                (0..row.len()).fold(0, |best, i| if row[i] >= row[best] { i } else { best })
            })
            .collect()
    }

    /// Predictions must pick, at every exit, the class softmax then
    /// argmax picks, with dirty reused buffers.
    #[test]
    fn predictions_match_softmax_then_argmax() {
        let mut rng = Prng::new(13);
        let mut net = EarlyExitMlp::new(MlpConfig::small(8, 3), &mut rng);
        let (x, y) = blob_batch(&mut rng, 48, 8);
        let mut train = TrainScratch::default();
        for _ in 0..10 {
            net.train_batch(&x, &y, &mut train);
        }
        let (test_x, _) = blob_batch(&mut rng, 96, 8);
        let mut scratch = InferScratch::default();
        for exit in 0..net.num_exits() {
            let want = softmax_then_argmax(&net, &test_x, exit);
            let fast = net.predict_with_scratch(&test_x, exit, &mut scratch);
            assert_eq!(fast, want, "exit {exit}");
        }
    }

    /// The masked scorer must bit-match [`EarlyExitMlp::accuracy`] at
    /// every exit, for every set of exits asked for, at row counts
    /// below, at and across its row chunks, through one scratch reused
    /// across sizes; slots not asked for stay untouched.
    #[test]
    fn one_pass_exit_scoring_matches_accuracy() {
        let mut rng = Prng::new(19);
        let mut net = EarlyExitMlp::new(head_config(6), &mut rng);
        let mut train = TrainScratch::default();
        for _ in 0..3 {
            let (x, y) = random_batch(&mut rng, 32, 6);
            net.train_batch(&x, &y, &mut train);
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
        let net = EarlyExitMlp::new(head_config(2), &mut rng);
        let (x, y) = random_batch(&mut rng, 4, 2);
        net.score_exits(&x, &y, 0b1000, &mut InferScratch::default(), &mut [0.0; 3]);
    }

    /// The deployed heads' shape: 16 inputs, a 32/24/16 trunk.
    fn head_config(classes: usize) -> MlpConfig {
        MlpConfig {
            input_dim: 16,
            hidden: vec![32, 24, 16],
            classes,
            lr: 0.05,
            momentum: 0.9,
            exit_weights: vec![0.3, 0.55, 1.0],
        }
    }

    fn random_batch(rng: &mut Prng, rows: usize, classes: usize) -> (Matrix, Vec<Label>) {
        let data: Vec<f32> = (0..rows * 16).map(|_| rng.gauss() as f32).collect();
        let labels = (0..rows).map(|_| rng.index(classes) as Label).collect();
        (Matrix::from_slice(rows, 16, &data), labels)
    }

    /// One dense layer of the naive reference step: parameters plus
    /// momentum velocities, all as flat row-major vectors.
    struct RefLayer {
        w: Vec<f32>,
        b: Vec<f32>,
        n_in: usize,
        n_out: usize,
        relu: bool,
        vel_w: Vec<f32>,
        vel_b: Vec<f32>,
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
        /// The unpadded parameters of `layer`, read through
        /// [`Dense::append_params`], and zero velocities.
        fn of(layer: &Dense, relu: bool) -> Self {
            let (n_in, n_out) = (layer.in_dim(), layer.out_dim());
            let mut w = Vec::new();
            layer.append_params(&mut w);
            let b = w.split_off(n_in * n_out);
            RefLayer {
                w,
                b,
                n_in,
                n_out,
                relu,
                vel_w: vec![0.0; n_in * n_out],
                vel_b: vec![0.0; n_out],
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
            update: SgdMomentum,
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
            let SgdMomentum { lr, momentum } = update;
            let params = self.w.iter_mut().chain(&mut self.b);
            let vel = self.vel_w.iter_mut().chain(&mut self.vel_b);
            for ((p, v), g) in params.zip(vel).zip(grad_w.iter().chain(&grad_b)) {
                *v = momentum * *v - lr * g;
                *p += *v;
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
        labels: &[Label],
        update: SgdMomentum,
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
                row[usize::from(label)] -= 1.0;
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

    /// The class counts the application catalog deploys.
    const DEPLOYED_CLASSES: [usize; 10] = [2, 3, 4, 5, 6, 7, 8, 9, 10, 12];

    /// The production step (write-once fused forward, class-padded
    /// heads, the fused softmax gradient, the fused ReLU mask and bias
    /// sums, kept transposed weights, no layer-0 input gradient) must
    /// leave every parameter bit-equal to the naive reference step at
    /// every deployed class count and on a ragged batch, through one
    /// scratch reused across every class count.
    #[test]
    fn train_step_bit_matches_naive_reference() {
        let mut scratch = TrainScratch::default();
        for classes in DEPLOYED_CLASSES {
            let mut rng = Prng::new(100 + classes as u64);
            let cfg = head_config(classes);
            let rule = SgdMomentum {
                lr: cfg.lr,
                momentum: cfg.momentum,
            };
            let exit_weights = cfg.exit_weights.clone();
            let mut net = EarlyExitMlp::new(cfg, &mut rng);
            let mut trunk: Vec<RefLayer> =
                net.trunk.iter().map(|l| RefLayer::of(l, true)).collect();
            let mut heads: Vec<RefLayer> =
                net.heads.iter().map(|l| RefLayer::of(l, false)).collect();
            for (step, rows) in [32, 32, 17, 32].into_iter().enumerate() {
                let (x, y) = random_batch(&mut rng, rows, classes);
                net.train_batch(&x, &y, &mut scratch);
                reference_step(&mut trunk, &mut heads, &exit_weights, x.data(), &y, rule);
                let want: Vec<u32> = trunk
                    .iter()
                    .chain(&heads)
                    .flat_map(|l| l.w.iter().chain(&l.b))
                    .map(|p| p.to_bits())
                    .collect();
                let got: Vec<u32> = net.flatten_params().iter().map(|p| p.to_bits()).collect();
                assert!(got == want, "{classes} classes: step {step} diverges");
            }
        }
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|x| x.to_bits()).collect()
    }

    /// The inference twin of the step reference: at every deployed
    /// class count and every exit, `score_exits`,
    /// `predict_with_scratch` and `features_into` bit-match a naive
    /// forward pass, softmax and argmax, at row counts below, at and
    /// across the scoring chunks, through buffers reused across sizes.
    #[test]
    fn inference_bit_matches_naive_reference() {
        for classes in DEPLOYED_CLASSES {
            let mut rng = Prng::new(200 + classes as u64);
            let mut net = EarlyExitMlp::new(head_config(classes), &mut rng);
            let mut train = TrainScratch::default();
            for _ in 0..3 {
                let (x, y) = random_batch(&mut rng, 32, classes);
                net.train_batch(&x, &y, &mut train);
            }
            let mut scratch = InferScratch::default();
            let mut feats = Matrix::from_slice(1, 1, &[7.0]);
            for rows in [1, 17, 63, 64, 65, 400] {
                let (x, y) = random_batch(&mut rng, rows, classes);
                let mut accs = [9.0; 3];
                net.score_exits(&x, &y, 0b111, &mut scratch, &mut accs);
                for (exit, acc) in accs.iter().enumerate() {
                    let at = format!("{classes} classes, {rows} rows, exit {exit}");
                    let want = softmax_then_argmax(&net, &x, exit);
                    assert_eq!(
                        net.predict_with_scratch(&x, exit, &mut scratch),
                        want,
                        "{at}"
                    );
                    let hits = want.iter().zip(&y).filter(|&(&p, &l)| p == usize::from(l));
                    let want_acc = hits.count() as f64 / rows as f64;
                    assert_eq!(acc.to_bits(), want_acc.to_bits(), "{at}");
                }
                net.features_into(&x, &mut feats);
                let want = RefLayer::of(&net.trunk[0], true).forward(x.data(), rows).1;
                assert_eq!((feats.rows(), feats.cols()), (rows, 32));
                assert!(
                    bits(feats.data()) == bits(&want),
                    "{classes} classes, {rows} rows"
                );
            }
        }
    }

    /// Padding the heads changes neither the parameter count nor the
    /// flattened parameters: a fresh network flattens to the unpadded
    /// He draws, in draw order per layer (trunk then heads), with zero
    /// biases.
    #[test]
    fn padding_leaves_param_count_and_flattening_unchanged() {
        for classes in DEPLOYED_CLASSES {
            let cfg = head_config(classes);
            let net = EarlyExitMlp::new(cfg.clone(), &mut Prng::new(classes as u64));
            let mut rng = Prng::new(classes as u64);
            let (mut trunk, mut heads) = (Vec::new(), Vec::new());
            let mut in_dim = cfg.input_dim;
            for &h in &cfg.hidden {
                trunk.push((Matrix::he_init(in_dim, h, &mut rng), h));
                heads.push((Matrix::he_init(h, classes, &mut rng), classes));
                in_dim = h;
            }
            let want: Vec<f32> = trunk
                .iter()
                .chain(&heads)
                .flat_map(|(w, n)| w.data().iter().copied().chain(vec![0.0; *n]))
                .collect();
            let hidden = 16 * 32 + 32 * 24 + 24 * 16 + (32 + 24 + 16);
            let expect = hidden + (32 + 24 + 16) * classes + 3 * classes;
            assert_eq!(net.param_count(), expect, "{classes} classes");
            assert_eq!(want.len(), expect, "{classes} classes");
            assert!(
                bits(&net.flatten_params()) == bits(&want),
                "{classes} classes"
            );
        }
    }

    #[test]
    fn features_have_first_layer_width() {
        let mut rng = Prng::new(3);
        let net = EarlyExitMlp::new(MlpConfig::small(8, 2), &mut rng);
        let (x, _) = blob_batch(&mut rng, 4, 8);
        let mut f = Matrix::default();
        net.features_into(&x, &mut f);
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
            },
            &mut rng,
        );
    }

    /// A `Label` is one byte, so a head with more than 256 classes
    /// could not name its own outputs; 256 itself still builds.
    #[test]
    #[should_panic(expected = "at most 256 classes")]
    fn more_classes_than_a_label_names_panics() {
        let mut rng = Prng::new(1);
        let config = |classes| MlpConfig::small(4, classes);
        let net = EarlyExitMlp::new(config(MAX_CLASSES), &mut rng);
        assert_eq!(net.classes(), 256);
        EarlyExitMlp::new(config(MAX_CLASSES + 1), &mut rng);
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
            },
            &mut rng,
        );
    }

    #[test]
    fn empty_batch_training_is_a_no_op() {
        let mut rng = Prng::new(2);
        let mut net = EarlyExitMlp::new(MlpConfig::small(4, 2), &mut rng);
        let before = net.flatten_params();
        let x = Matrix::zeros(0, 4);
        net.train_batch(&x, &[], &mut TrainScratch::default());
        assert_eq!(net.flatten_params(), before);
        assert_eq!(net.accuracy(&x, &[], 0), 0.0);
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
        net.predict_with_scratch(&x, 5, &mut InferScratch::default());
    }
}
