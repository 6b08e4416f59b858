//! Trainable model instances.
//!
//! A [`TrainableModel`] is one deployed model of one application: the cost
//! profile of its backbone plus a real early-exit MLP head whose learning
//! dynamics stand in for the backbone's (see DESIGN.md). The head has
//! three exits; a structure cut of the backbone maps proportionally onto a
//! head exit, so a shallow early-exit structure both runs faster (profile)
//! and classifies worse (head) — the trade-off of Obs. 4.

use crate::profile::ModelProfile;
use adainf_driftgen::LabeledSamples;
use adainf_nn::{EarlyExitMlp, InferScratch, Matrix, MlpConfig, TrainScratch};
use adainf_simcore::Prng;

/// Feature dimensionality shared by all task streams and heads.
pub const FEATURE_DIM: usize = 16;

/// Number of exits of every head MLP.
pub const HEAD_EXITS: usize = 3;

/// A deployed, retrainable model instance.
#[derive(Clone, Debug)]
pub struct TrainableModel {
    /// Backbone cost profile.
    pub profile: ModelProfile,
    head: EarlyExitMlp,
    /// Monotone version counter, bumped by every retraining slice.
    version: u64,
    /// Samples consumed by retraining since construction.
    trained_samples: u64,
    /// Reusable mini-batch buffer for [`Self::train_slice`].
    slice_scratch: SliceScratch,
}

/// Scratch buffer reused by every [`TrainableModel::train_slice`]
/// mini-batch: the input rows of the current chunk are copied here
/// (one contiguous slab) instead of allocating an index vector and a
/// cloned sample set per 32-sample SGD step.
#[derive(Clone, Debug, Default)]
struct SliceScratch {
    inputs: Matrix,
}

/// Per-*worker* training buffers for parallel `train_slice` fan-outs:
/// the mini-batch input slab plus the full backward-pass scratch of
/// the head MLP. One instance serves every model a worker trains
/// (buffers carry no model state), so a fan-out warms
/// `worker_count` scratches instead of `model_count`.
#[derive(Debug, Default)]
pub struct TrainSliceScratch {
    inputs: Matrix,
    net: TrainScratch,
}

impl TrainableModel {
    /// Creates an untrained instance for a `classes`-way task.
    pub fn new(profile: ModelProfile, classes: usize, rng: &mut Prng) -> Self {
        let config = MlpConfig {
            input_dim: FEATURE_DIM,
            hidden: vec![32, 24, 16],
            classes,
            lr: 0.05,
            momentum: 0.9,
            exit_weights: vec![0.3, 0.55, 1.0],
        };
        TrainableModel {
            profile,
            head: EarlyExitMlp::new(config, rng),
            version: 0,
            trained_samples: 0,
            slice_scratch: SliceScratch::default(),
        }
    }

    /// Number of classes of the bound task.
    pub fn classes(&self) -> usize {
        self.head.classes()
    }

    /// Monotone retraining version (bumps on every slice).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Total samples consumed by retraining.
    pub fn trained_samples(&self) -> u64 {
        self.trained_samples
    }

    /// Maps a backbone structure cut onto a head exit: proportional in
    /// depth fraction, so cutting the backbone early classifies with the
    /// shallow head exit.
    pub fn head_exit_for_cut(&self, cut: usize) -> usize {
        let frac = (cut + 1) as f64 / self.profile.num_layers() as f64;
        ((frac * HEAD_EXITS as f64).ceil() as usize).clamp(1, HEAD_EXITS) - 1
    }

    /// Accuracy of the structure cut at `cut` on a sample batch.
    pub fn accuracy_on(&self, samples: &LabeledSamples, cut: usize) -> f64 {
        if samples.is_empty() {
            return 0.0;
        }
        self.head.accuracy(
            &samples.inputs,
            &samples.labels,
            self.head_exit_for_cut(cut),
        )
    }

    /// Accuracy on a sample batch of each head exit whose bit is set in
    /// `exits` (bit `e` asks for exit `e`), from one trunk pass through
    /// `scratch`, written into `accuracies[e]`; the other slots are left
    /// as they are (see [`adainf_nn::EarlyExitMlp::score_exits`]). Entry
    /// `e` bit-equals [`Self::accuracy_on`] at any cut that
    /// [`Self::head_exit_for_cut`] maps to exit `e`.
    pub fn score_exits(
        &self,
        samples: &LabeledSamples,
        exits: u32,
        scratch: &mut InferScratch,
        accuracies: &mut [f64; HEAD_EXITS],
    ) {
        self.head
            .score_exits(&samples.inputs, &samples.labels, exits, scratch, accuracies);
    }

    /// Predicted class per sample at the given cut.
    pub fn predict(&self, inputs: &Matrix, cut: usize) -> Vec<usize> {
        self.head.predict(inputs, self.head_exit_for_cut(cut))
    }

    /// [`Self::predict`] through caller-provided inference buffers —
    /// bit-identical predictions, no per-call allocations beyond the
    /// returned index vector.
    pub fn predict_with_scratch(
        &self,
        inputs: &Matrix,
        cut: usize,
        scratch: &mut InferScratch,
    ) -> Vec<usize> {
        self.head
            .predict_with_scratch(inputs, self.head_exit_for_cut(cut), scratch)
    }

    /// Mini-batch size of the head's SGD.
    pub const SGD_BATCH: usize = 32;

    /// One retraining slice: mini-batch SGD over `samples` for `epochs`
    /// passes, bumping the version. Empty batches are no-ops.
    pub fn train_slice(&mut self, samples: &LabeledSamples, epochs: usize) {
        if samples.is_empty() || epochs == 0 {
            return;
        }
        let n = samples.len();
        for _ in 0..epochs {
            let mut start = 0;
            while start < n {
                let end = (start + Self::SGD_BATCH).min(n);
                // Chunks are contiguous row ranges: copy the slab into the
                // reusable scratch matrix and borrow the label slice —
                // zero allocations per mini-batch once warm, and the SGD
                // math is unchanged (identical rows, identical order).
                self.slice_scratch
                    .inputs
                    .copy_rows_from(&samples.inputs, start, end);
                self.head
                    .train_batch_parts(&self.slice_scratch.inputs, &samples.labels[start..end]);
                start = end;
            }
        }
        self.version += 1;
        self.trained_samples += n as u64;
    }

    /// [`Self::train_slice`] through caller-owned buffers — the entry
    /// point for parallel training fan-outs (one warmed
    /// [`TrainSliceScratch`] per worker). Identical chunking, identical
    /// SGD math, identical version/sample accounting; results are bit
    /// for bit the same as the embedded-scratch path.
    pub fn train_slice_with(
        &mut self,
        samples: &LabeledSamples,
        epochs: usize,
        scratch: &mut TrainSliceScratch,
    ) {
        if samples.is_empty() || epochs == 0 {
            return;
        }
        let n = samples.len();
        for _ in 0..epochs {
            let mut start = 0;
            while start < n {
                let end = (start + Self::SGD_BATCH).min(n);
                scratch
                    .inputs
                    .copy_rows_from(&samples.inputs, start, end);
                self.head.train_batch_parts_with(
                    &scratch.inputs,
                    &samples.labels[start..end],
                    &mut scratch.net,
                );
                start = end;
            }
        }
        self.version += 1;
        self.trained_samples += n as u64;
    }

    /// First-layer feature representation of samples — what the drift
    /// detector uses as "the feature vector of every new sample" (§3.2).
    pub fn features(&self, samples: &LabeledSamples) -> Matrix {
        self.head.features(&samples.inputs)
    }

    /// [`Self::features`] into a caller-owned buffer (reshaped in
    /// place) — the drift data path reuses one feature matrix per
    /// period instead of allocating per pass.
    pub fn features_into(&self, samples: &LabeledSamples, out: &mut Matrix) {
        self.head.features_into(&samples.inputs, out);
    }

    /// Snapshot of the head parameters.
    pub fn snapshot_params(&self) -> Vec<f32> {
        self.head.flatten_params()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;
    use adainf_driftgen::{TaskStream, TaskStreamConfig};

    fn setup() -> (TrainableModel, TaskStream) {
        let root = Prng::new(77);
        let mut rng = root.split(1);
        let model = TrainableModel::new(zoo::mobilenet_v2(), 6, &mut rng);
        let stream = TaskStream::new(
            TaskStreamConfig::new("vehicle", 6, 9).with_drift(0.4, 0.2),
            &root,
        );
        (model, stream)
    }

    #[test]
    fn exit_mapping_is_proportional_and_total() {
        let (model, _) = setup();
        let l = model.profile.num_layers();
        assert_eq!(model.head_exit_for_cut(l - 1), HEAD_EXITS - 1);
        assert_eq!(model.head_exit_for_cut(0), 0);
        // Monotone in cut.
        let mut prev = 0;
        for cut in 0..l {
            let e = model.head_exit_for_cut(cut);
            assert!(e >= prev);
            prev = e;
        }
    }

    #[test]
    fn training_improves_accuracy_and_bumps_version() {
        let (mut model, mut stream) = setup();
        let train = stream.sample(400);
        let eval = stream.sample(400);
        let before = model.accuracy_on(&eval, model.profile.full_cut());
        assert_eq!(model.version(), 0);
        for _ in 0..30 {
            model.train_slice(&train, 1);
        }
        let after = model.accuracy_on(&eval, model.profile.full_cut());
        assert!(after > before + 0.2, "accuracy {before} -> {after}");
        assert!(after > 0.85, "final accuracy {after}");
        assert_eq!(model.version(), 30);
        assert_eq!(model.trained_samples(), 30 * 400);
    }

    #[test]
    fn deeper_cut_is_at_least_as_accurate() {
        let (mut model, mut stream) = setup();
        let train = stream.sample(600);
        for _ in 0..40 {
            model.train_slice(&train, 1);
        }
        let eval = stream.sample(800);
        let shallow = model.accuracy_on(&eval, 2);
        let full = model.accuracy_on(&eval, model.profile.full_cut());
        // Deep supervision makes this a soft property: the shallow exit
        // can edge out the full exit on easy realisations, but never by a
        // wide margin.
        assert!(
            full + 0.05 >= shallow,
            "full {full} should not trail shallow {shallow}"
        );
    }

    #[test]
    fn empty_slice_is_noop() {
        let (mut model, mut stream) = setup();
        let empty = stream.sample(0);
        model.train_slice(&empty, 3);
        assert_eq!(model.version(), 0);
    }

    /// The external-scratch training path must bit-match the embedded
    /// one — including when one dirty scratch is shared across models,
    /// the parallel fan-out's per-worker usage pattern.
    #[test]
    fn external_scratch_training_matches_embedded() {
        let (mut a, mut stream) = setup();
        let mut b = a.clone();
        let mut scratch = TrainSliceScratch::default();
        let eval = stream.sample(300);
        for round in 0..6 {
            let train = stream.sample(90 + round * 7);
            a.train_slice(&train, 1 + round % 2);
            b.train_slice_with(&train, 1 + round % 2, &mut scratch);
            assert_eq!(a.version(), b.version(), "round {round}");
            assert_eq!(a.trained_samples(), b.trained_samples());
        }
        assert_eq!(a.snapshot_params(), b.snapshot_params());
        assert_eq!(
            a.predict(&eval.inputs, a.profile.full_cut()),
            b.predict(&eval.inputs, b.profile.full_cut())
        );
    }
}
