//! # adainf-nn
//!
//! A small, dependency-free neural-network library written for the AdaInf
//! reproduction. The paper's accuracy dynamics — accuracy dropping under
//! data drift, recovering with retraining samples, early-exit structures
//! trading accuracy for latency — are produced by *actual learning* on
//! these networks rather than by a lookup table. The heavy backbones
//! (TinyYOLOv3, MobileNetV2, …) are represented by cost profiles in
//! `adainf-modelzoo`; this crate provides the trainable classifier heads
//! that sit behind those profiles, plus the numerical utilities the AdaInf
//! drift detector needs (PCA, cosine distance, Jensen–Shannon divergence).
//!
//! Contents:
//!
//! * [`matrix`] — a minimal row-major `f32` matrix with the handful of ops
//!   backprop needs; every product writes into a caller-owned output
//!   (`matmul_into`, `t_matmul_into`, `affine_into`).
//! * [`layer`] — dense layers with ReLU, forward/backward passes.
//! * [`mlp`] — [`mlp::EarlyExitMlp`]: a multi-layer perceptron with a
//!   softmax classification head after every hidden layer (deep
//!   supervision, as in BranchyNet/SPINN), trained with SGD + momentum.
//!   The network holds only its parameters: training runs through a
//!   caller-owned [`TrainScratch`], inference through an
//!   [`InferScratch`].
//! * [`pca`] — principal component analysis by power iteration, used by
//!   the drift detector (§3.2) before computing cosine distances; one
//!   `Pca::fit`, cold or warm-started, through a caller-owned scratch.
//! * [`metrics`] — cosine distance, KL and Jensen–Shannon divergence
//!   (Fig 6), accuracy helpers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod layer;
pub mod matrix;
pub mod metrics;
pub mod mlp;
pub mod pca;

pub use matrix::{Matrix, RowIndex};
pub use mlp::{EarlyExitMlp, InferScratch, MlpConfig, TrainScratch};

/// A class label. One byte: the catalogue's tasks have at most a dozen
/// classes, and the sample sets the simulator holds (a 6000-sample
/// retraining pool per model) keep one label per row, so a `usize`
/// label would spend eight bytes where one does. [`EarlyExitMlp::new`] and the task
/// streams reject more than 256 classes, the most a `Label` can name.
pub type Label = u8;

/// The number of distinct classes a [`Label`] can name.
pub const MAX_CLASSES: usize = Label::MAX as usize + 1;
