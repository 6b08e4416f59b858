//! Dense layers with manual forward/backward passes.

use crate::matrix::Matrix;
use adainf_simcore::Prng;

/// The update rule applied by [`Dense::backward`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Update {
    /// Classic SGD with momentum: `v = m·v − lr·g ; w += v`.
    SgdMomentum {
        /// Learning rate.
        lr: f32,
        /// Velocity decay.
        momentum: f32,
    },
    /// Adam (Kingma & Ba): bias-corrected first/second moment estimates.
    Adam {
        /// Learning rate.
        lr: f32,
        /// First-moment decay (typ. 0.9).
        beta1: f32,
        /// Second-moment decay (typ. 0.999).
        beta2: f32,
        /// Numerical floor.
        eps: f32,
    },
}

impl Update {
    /// Adam with the textbook defaults at the given learning rate.
    pub fn adam(lr: f32) -> Update {
        Update::Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
        }
    }
}

/// A fully-connected layer `y = x·W + b` with an optional ReLU.
#[derive(Clone, Debug)]
pub struct Dense {
    /// Weight matrix, `in_dim × out_dim`.
    pub weights: Matrix,
    /// Bias vector, length `out_dim`.
    pub bias: Vec<f32>,
    /// Whether a ReLU follows the affine map.
    pub relu: bool,
    // First-moment buffers (SGD velocity / Adam m).
    vel_w: Matrix,
    vel_b: Vec<f32>,
    // Adam second-moment buffers, allocated on first Adam step.
    adam_v_w: Option<Matrix>,
    adam_v_b: Vec<f32>,
    // Adam step counter (bias correction).
    steps: u64,
}

/// Cached activations needed by the backward pass of one layer.
#[derive(Clone, Debug)]
pub struct DenseCache {
    /// The layer input.
    pub input: Matrix,
    /// Pre-activation output (before ReLU), used for the ReLU mask.
    pub pre: Matrix,
}

/// Reusable parameter-gradient buffers for [`Dense::backward_scratch`]
/// (plus the transposed-weight copy its input gradient multiplies by).
/// Holding one of these across SGD steps makes the backward pass free
/// of heap allocations in steady state.
#[derive(Clone, Debug, Default)]
pub struct GradScratch {
    grad_w: Matrix,
    grad_b: Vec<f32>,
    weights_t: Matrix,
}

impl Dense {
    /// Creates a He-initialised layer.
    pub fn new(in_dim: usize, out_dim: usize, relu: bool, rng: &mut Prng) -> Self {
        Dense {
            weights: Matrix::he_init(in_dim, out_dim, rng),
            bias: vec![0.0; out_dim],
            relu,
            vel_w: Matrix::zeros(in_dim, out_dim),
            vel_b: vec![0.0; out_dim],
            adam_v_w: None,
            adam_v_b: Vec::new(),
            steps: 0,
        }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.weights.rows()
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.weights.cols()
    }

    /// Number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.weights.rows() * self.weights.cols() + self.bias.len()
    }

    /// Forward pass; returns the activation and the cache for backward.
    pub fn forward(&self, input: &Matrix) -> (Matrix, DenseCache) {
        let mut pre = Matrix::default();
        input.affine_into(&self.weights, &self.bias, false, &mut pre);
        let mut out = pre.clone();
        if self.relu {
            out.relu_inplace();
        }
        (
            out,
            DenseCache {
                input: input.clone(),
                pre,
            },
        )
    }

    /// Forward pass without caching (inference).
    pub fn infer(&self, input: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.infer_into(input, &mut out);
        out
    }

    /// Inference forward pass into a caller-owned buffer, through the
    /// fused [`Matrix::affine_into`] kernel — bias and ReLU are applied
    /// per output row inside the GEMM instead of as two further
    /// full-matrix passes. Bit-identical to the unfused pipeline.
    pub fn infer_into(&self, input: &Matrix, out: &mut Matrix) {
        input.affine_into(&self.weights, &self.bias, self.relu, out);
    }

    /// Backward pass with SGD-momentum (kept as the common fast path).
    /// See [`Self::backward_with`] for pluggable update rules.
    pub fn backward(
        &mut self,
        cache: &DenseCache,
        grad_out: Matrix,
        lr: f32,
        momentum: f32,
    ) -> Matrix {
        self.backward_with(cache, grad_out, Update::SgdMomentum { lr, momentum })
    }

    /// Backward pass: consumes the gradient w.r.t. this layer's output,
    /// applies the given update rule, and returns the gradient w.r.t.
    /// the input. The gradient is averaged over the batch.
    pub fn backward_with(
        &mut self,
        cache: &DenseCache,
        mut grad_out: Matrix,
        update: Update,
    ) -> Matrix {
        let mut grad_in = Matrix::default();
        let mut scratch = GradScratch::default();
        self.backward_scratch(
            &cache.input,
            &cache.pre,
            &mut grad_out,
            update,
            Some(&mut grad_in),
            &mut scratch,
        );
        grad_in
    }

    /// Allocation-free backward pass. `input` is the layer's forward
    /// input; `mask` is its forward pre-activation or its ReLU output —
    /// `relu(x) ≤ 0 ⇔ x ≤ 0`, so either gives the same ReLU mask, and it
    /// is not read when the layer has no ReLU. `grad_out` is the
    /// gradient w.r.t. this layer's output (mutated in place by the
    /// mask), `grad_in` receives the gradient w.r.t. the input (`None`
    /// skips it, for a first layer whose input has no parameters to
    /// train), and `scratch` holds the reusable parameter-gradient
    /// buffers. Arithmetic and update order match
    /// [`Self::backward_with`] exactly, so results are bit-identical.
    pub fn backward_scratch(
        &mut self,
        input: &Matrix,
        mask: &Matrix,
        grad_out: &mut Matrix,
        update: Update,
        grad_in: Option<&mut Matrix>,
        scratch: &mut GradScratch,
    ) {
        if self.relu {
            grad_out.relu_backward_inplace(mask);
        }
        let batch = input.rows().max(1) as f32;
        // Gradient w.r.t. input, for the upstream layer (reads the
        // pre-update weights, so it must precede the optimizer step).
        if let Some(grad_in) = grad_in {
            grad_out.matmul_t_into(&self.weights, &mut scratch.weights_t, grad_in);
        }
        // Raw weight-gradient sums; the batch-mean scaling and
        // robustness clamp are fused into the optimizer kernels below,
        // saving two full passes over the gradient buffer per step.
        let grad_w = &mut scratch.grad_w;
        input.t_matmul_into(grad_out, grad_w);
        // The bias gradient is a short vector — scale and clamp in
        // place, exactly as before.
        let grad_b = &mut scratch.grad_b;
        grad_out.col_sums_into(grad_b);
        for g in grad_b.iter_mut() {
            *g = (*g / batch).clamp(-5.0, 5.0);
        }
        self.apply_update(update, &scratch.grad_w, 1.0 / batch, &scratch.grad_b);
    }

    /// Applies one optimizer step: `grad_w` holds *raw* gradient sums
    /// (scaled by `inv_batch` and clamped inside the fused kernels),
    /// `grad_b` is already batch-averaged and clamped.
    fn apply_update(
        &mut self,
        update: Update,
        grad_w: &Matrix,
        inv_batch: f32,
        grad_b: &[f32],
    ) {
        match update {
            Update::SgdMomentum { lr, momentum } => {
                // Momentum update: v = m·v − lr·g ; w += v.
                crate::matrix::momentum_step(
                    self.weights.data_mut(),
                    self.vel_w.data_mut(),
                    grad_w.data(),
                    inv_batch,
                    5.0,
                    lr,
                    momentum,
                );
                for ((b, v), g) in
                    self.bias.iter_mut().zip(&mut self.vel_b).zip(grad_b)
                {
                    *v = momentum * *v - lr * g;
                    *b += *v;
                }
            }
            Update::Adam { lr, beta1, beta2, eps } => {
                self.steps += 1;
                if self.adam_v_b.len() != self.bias.len() {
                    self.adam_v_b = vec![0.0; self.bias.len()];
                }
                let t = self.steps as f32;
                let c1 = 1.0 - beta1.powf(t);
                let c2 = 1.0 - beta2.powf(t);
                let (rows, cols) = (self.weights.rows(), self.weights.cols());
                let v_w = self.adam_v_w.get_or_insert_with(|| Matrix::zeros(rows, cols));
                crate::matrix::adam_step(
                    self.weights.data_mut(),
                    self.vel_w.data_mut(),
                    v_w.data_mut(),
                    grad_w.data(),
                    inv_batch,
                    5.0,
                    lr,
                    beta1,
                    beta2,
                    eps,
                    c1,
                    c2,
                );
                for ((b, m), (v, g)) in self
                    .bias
                    .iter_mut()
                    .zip(&mut self.vel_b)
                    .zip(self.adam_v_b.iter_mut().zip(grad_b))
                {
                    *m = beta1 * *m + (1.0 - beta1) * g;
                    *v = beta2 * *v + (1.0 - beta2) * g * g;
                    *b -= lr * (*m / c1) / ((*v / c2).sqrt() + eps);
                }
            }
        }
    }

    /// Flattens the parameters into `out` (used by parameter averaging).
    pub fn append_params(&self, out: &mut Vec<f32>) {
        out.extend_from_slice(self.weights.data());
        out.extend_from_slice(&self.bias);
    }

    /// Loads parameters from a flat slice, returning how many were read.
    pub fn load_params(&mut self, params: &[f32]) -> usize {
        let w = self.weights.data_mut();
        let nw = w.len();
        w.copy_from_slice(&params[..nw]);
        let nb = self.bias.len();
        self.bias.copy_from_slice(&params[nw..nw + nb]);
        nw + nb
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_shapes_and_values() {
        let mut rng = Prng::new(1);
        let mut layer = Dense::new(3, 2, false, &mut rng);
        // Overwrite with known params.
        layer
            .weights
            .data_mut()
            .copy_from_slice(&[1.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
        layer.bias = vec![0.5, -0.5];
        let x = Matrix::from_slice(1, 3, &[1.0, 2.0, 3.0]);
        let y = layer.infer(&x);
        // y0 = 1*1 + 2*0 + 3*1 + 0.5 = 4.5 ; y1 = 0 + 2 + 3 − 0.5 = 4.5
        assert_eq!(y.data(), &[4.5, 4.5]);
    }

    #[test]
    fn gradient_check_single_layer() {
        // Numerical gradient check of dLoss/dW for a tiny layer with
        // L = sum(y), so dL/dy = 1.
        let mut rng = Prng::new(2);
        let layer = Dense::new(2, 2, true, &mut rng);
        let x = Matrix::from_slice(2, 2, &[0.3, -0.7, 1.2, 0.4]);
        let eps = 1e-3;

        let loss = |l: &Dense| -> f32 { l.infer(&x).data().iter().sum() };

        // Analytic: run backward with grad_out = ones and lr so small the
        // update exposes the gradient: after update w' = w − lr·g, so
        // g ≈ (w − w')/lr. Use zero momentum.
        let mut l2 = layer.clone();
        let (_, cache) = l2.forward(&x);
        let ones = Matrix::from_slice(2, 2, &[1.0, 1.0, 1.0, 1.0]);
        let lr = 1e-4;
        let w_before = l2.weights.clone();
        l2.backward(&cache, ones, lr, 0.0);
        for r in 0..2 {
            for c in 0..2 {
                let analytic = (w_before.get(r, c) - l2.weights.get(r, c)) / lr;
                // Numerical gradient (batch-mean convention: divide by batch).
                let mut lp = layer.clone();
                lp.weights.set(r, c, w_before.get(r, c) + eps);
                let mut lm = layer.clone();
                lm.weights.set(r, c, w_before.get(r, c) - eps);
                let numeric = (loss(&lp) - loss(&lm)) / (2.0 * eps) / 2.0;
                assert!(
                    (analytic - numeric).abs() < 0.02,
                    "grad mismatch at ({r},{c}): {analytic} vs {numeric}"
                );
            }
        }
    }

    #[test]
    fn adam_converges_on_a_linear_target() {
        // Fit y = sum(x) with a single linear layer under Adam.
        let mut rng = Prng::new(5);
        let mut layer = Dense::new(3, 1, false, &mut rng);
        let mut last = f32::INFINITY;
        for step in 0..400 {
            let x = Matrix::from_slice(
                4,
                3,
                &(0..12)
                    .map(|i| ((i * 7 + step) % 11) as f32 / 11.0 - 0.5)
                    .collect::<Vec<_>>(),
            );
            let target: Vec<f32> = (0..4)
                .map(|r| x.row(r).iter().sum::<f32>())
                .collect();
            let (y, cache) = layer.forward(&x);
            let mut grad = Matrix::zeros(4, 1);
            let mut loss = 0.0;
            for (r, &tgt) in target.iter().enumerate() {
                let e = y.get(r, 0) - tgt;
                loss += e * e;
                grad.set(r, 0, 2.0 * e);
            }
            last = loss;
            layer.backward_with(&cache, grad, Update::adam(0.02));
        }
        assert!(last < 0.01, "adam did not converge: {last}");
        // Weights near the true [1, 1, 1].
        for c in 0..3 {
            assert!((layer.weights.get(c, 0) - 1.0).abs() < 0.15);
        }
    }

    #[test]
    fn params_round_trip() {
        let mut rng = Prng::new(3);
        let layer = Dense::new(4, 3, true, &mut rng);
        let mut flat = Vec::new();
        layer.append_params(&mut flat);
        assert_eq!(flat.len(), layer.param_count());
        let mut other = Dense::new(4, 3, true, &mut rng);
        let read = other.load_params(&flat);
        assert_eq!(read, flat.len());
        assert_eq!(other.weights.data(), layer.weights.data());
        assert_eq!(other.bias, layer.bias);
    }
}
