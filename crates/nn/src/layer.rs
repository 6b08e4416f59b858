//! Dense layers with manual forward/backward passes.

use crate::matrix::{lane_width, Matrix};
use adainf_simcore::Prng;

/// The SGD-with-momentum step [`Dense::backward_scratch`] applies:
/// `v = momentum·v − lr·g ; w += v`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SgdMomentum {
    /// Learning rate.
    pub lr: f32,
    /// Velocity decay.
    pub momentum: f32,
}

/// A fully-connected layer `y = x·W + b` with an optional ReLU.
///
/// A classification head ([`Dense::head`]) stores its weights, bias and
/// velocities padded with zero columns up to the GEMM lane width, so
/// its class-wide products run full-width in place; every gradient it
/// is given carries `+0.0` in the pad columns, so the pad parameters
/// stay `+0.0`. Its forward output has the padded width, the real
/// outputs first.
#[derive(Clone, Debug)]
pub struct Dense {
    /// Weight matrix, `in_dim × width`: the `out_dim` real columns,
    /// then the zero pad columns of a head.
    weights: Matrix,
    /// Bias vector, `width` long.
    bias: Vec<f32>,
    /// Whether a ReLU follows the affine map.
    relu: bool,
    /// The real output count.
    out_dim: usize,
    // SGD-momentum velocities, padded like the parameters.
    vel_w: Matrix,
    vel_b: Vec<f32>,
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
        Self::padded(in_dim, out_dim, out_dim, relu, rng)
    }

    /// Creates a He-initialised classification head: no ReLU, and its
    /// parameters padded with zero columns to the GEMM lane width (8
    /// lanes up to 8 classes, 16 up to 16, …). The random draw is the
    /// unpadded layer's, in the same order.
    pub fn head(in_dim: usize, classes: usize, rng: &mut Prng) -> Self {
        Self::padded(in_dim, classes, lane_width(classes), false, rng)
    }

    fn padded(in_dim: usize, out_dim: usize, width: usize, relu: bool, rng: &mut Prng) -> Self {
        Dense {
            weights: Matrix::he_init(in_dim, out_dim, rng).padded_to(width),
            bias: vec![0.0; width],
            relu,
            out_dim,
            vel_w: Matrix::zeros(in_dim, width),
            vel_b: vec![0.0; width],
        }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.weights.rows()
    }

    /// Output dimensionality: the real outputs, without a head's pad.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Number of trainable parameters, without a head's pad.
    pub fn param_count(&self) -> usize {
        (self.in_dim() + 1) * self.out_dim
    }

    /// Inference forward pass into a caller-owned buffer, through the
    /// fused [`Matrix::affine_into`] kernel — bias and ReLU are applied
    /// to each output element before its store instead of as two
    /// further full-matrix passes. Bit-identical to the unfused
    /// pipeline. A head writes its padded width, the real outputs
    /// first.
    pub fn infer_into(&self, input: &Matrix, out: &mut Matrix) {
        input.affine_into(&self.weights, &self.bias, self.relu, out);
    }

    /// Allocation-free backward pass. `input` is the layer's forward
    /// input; `mask` is its forward pre-activation or its ReLU output —
    /// `relu(x) ≤ 0 ⇔ x ≤ 0`, so either gives the same ReLU mask, and it
    /// is not read when the layer has no ReLU. `grad_out` is the
    /// gradient w.r.t. this layer's output, as wide as the forward
    /// output (a head's pad columns hold `+0.0`), mutated in place by
    /// the mask; `grad_in` receives the gradient w.r.t. the input
    /// (`None` skips it, for a first layer whose input has no
    /// parameters to train), and `scratch` holds the reusable
    /// parameter-gradient buffers. The gradient is averaged over the
    /// batch.
    pub fn backward_scratch(
        &mut self,
        input: &Matrix,
        mask: &Matrix,
        grad_out: &mut Matrix,
        update: SgdMomentum,
        grad_in: Option<&mut Matrix>,
        scratch: &mut GradScratch,
    ) {
        // The ReLU mask and the raw bias-gradient sums, in one pass.
        let grad_b = &mut scratch.grad_b;
        grad_out.masked_col_sums_into(self.relu.then_some(mask), grad_b);
        let batch = input.rows().max(1) as f32;
        // Gradient w.r.t. input, for the upstream layer (reads the
        // pre-update weights, so it must precede the optimizer step),
        // contracted over the real outputs only. A transposed copy kept
        // current by the update instead measured no faster: every step
        // changes every weight, so it costs the same transpose.
        if let Some(grad_in) = grad_in {
            let weights_t = &mut scratch.weights_t;
            self.weights.transpose_leading_into(self.out_dim, weights_t);
            grad_out.matmul_leading_into(weights_t, grad_in);
        }
        // Raw weight-gradient sums; the batch-mean scaling and
        // robustness clamp are fused into `momentum_step` below, saving
        // two full passes over the gradient buffer per step.
        input.t_matmul_into(grad_out, &mut scratch.grad_w);
        // The bias gradient is a short vector — scale and clamp in
        // place, exactly as before.
        for g in grad_b.iter_mut() {
            *g = (*g / batch).clamp(-5.0, 5.0);
        }
        let SgdMomentum { lr, momentum } = update;
        crate::matrix::momentum_step(
            self.weights.data_mut(),
            self.vel_w.data_mut(),
            scratch.grad_w.data(),
            1.0 / batch,
            5.0,
            lr,
            momentum,
        );
        for ((b, v), g) in self.bias.iter_mut().zip(&mut self.vel_b).zip(grad_b.iter()) {
            *v = momentum * *v - lr * g;
            *b += *v;
        }
    }

    /// Flattens the parameters into `out`: the weights row by row, then
    /// the bias, without a head's pad.
    pub fn append_params(&self, out: &mut Vec<f32>) {
        for r in 0..self.in_dim() {
            out.extend_from_slice(&self.weights.row(r)[..self.out_dim]);
        }
        out.extend_from_slice(&self.bias[..self.out_dim]);
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
        let mut y = Matrix::from_slice(2, 2, &[9.0; 4]);
        layer.infer_into(&x, &mut y);
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

        let loss = |l: &Dense| -> f32 {
            let mut y = Matrix::default();
            l.infer_into(&x, &mut y);
            y.data().iter().sum()
        };

        // Analytic: run backward with grad_out = ones and lr so small the
        // update exposes the gradient: after update w' = w − lr·g, so
        // g ≈ (w − w')/lr. Use zero momentum. The ReLU output is the mask.
        let mut l2 = layer.clone();
        let mut out = Matrix::default();
        l2.infer_into(&x, &mut out);
        let mut ones = Matrix::from_slice(2, 2, &[1.0, 1.0, 1.0, 1.0]);
        let lr = 1e-4;
        let w_before = l2.weights.clone();
        let update = SgdMomentum { lr, momentum: 0.0 };
        l2.backward_scratch(
            &x,
            &out,
            &mut ones,
            update,
            None,
            &mut GradScratch::default(),
        );
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
    fn append_params_flattens_weights_then_bias() {
        let mut rng = Prng::new(3);
        let layer = Dense::new(4, 3, true, &mut rng);
        let mut flat = Vec::new();
        layer.append_params(&mut flat);
        assert_eq!(flat.len(), layer.param_count());
        assert_eq!(flat, [layer.weights.data(), &layer.bias].concat());
    }
}
