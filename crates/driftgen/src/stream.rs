//! Class-conditional Gaussian task streams with per-period drift.
//!
//! Each DNN model in an application solves a classification sub-problem
//! (vehicle type, person activity, …). A [`TaskStream`] generates that
//! sub-problem's data: samples are drawn from per-class Gaussians, and at
//! every period boundary both the class priors (label-distribution drift,
//! what Fig 6 measures with JS divergence) and the class means (appearance
//! drift — "sudden changes in lighting or occlusion") take a random-walk
//! step whose magnitude is the stream's drift intensity.
//!
//! Samples carry one-byte [`Label`]s: a model's 6000-sample retraining
//! pool is the largest set the simulator holds, and an eight-byte label
//! would add an eighth to every 64-byte feature row. A stream therefore
//! has at most 256 classes.
//!
//! A draw can be deferred: [`TaskStream::defer`] snapshots what
//! [`TaskStream::sample`] reads (the generator, the priors and the
//! class means) and moves the stream's generator past exactly the draws
//! `sample` would have made, without computing them. The
//! [`DeferredSample`] later draws the same rows, bit for bit, and the
//! stream goes on as if they had been drawn at once. Retraining pools
//! are deferred this way, so a pool is drawn only when first read.
//!
//! A draw is one call of the generator's blocked Box–Muller kernel
//! ([`Prng::scaled_gauss_rows`]): per row the class draw, then
//! `feature_dim` normals times the stream's noise, rounded to `f32`,
//! with the class mean added once the row is done. Its rows, labels and
//! the generator state it leaves are bit-identical to drawing each value
//! through [`Prng::gauss`], at about a third of the cost.

use adainf_nn::{Label, Matrix, RowIndex, MAX_CLASSES};
use adainf_simcore::Prng;

/// Configuration of one task stream.
#[derive(Clone, Debug)]
pub struct TaskStreamConfig {
    /// Human-readable task name ("vehicle type recognition").
    pub name: String,
    /// Number of classes.
    pub classes: usize,
    /// Feature dimensionality.
    pub feature_dim: usize,
    /// Std-dev of the log-normal prior perturbation applied per period.
    /// 0 ⇒ the label distribution never changes.
    pub prior_drift: f64,
    /// Step size of the class-mean random walk per period, as a fraction
    /// of the inter-class distance. 0 ⇒ class appearance never changes.
    pub mean_drift: f64,
    /// Within-class feature noise (std-dev). Larger values make the
    /// classification problem intrinsically harder.
    pub noise: f64,
    /// Scale of the random class-mean placement. Smaller values bring
    /// classes closer together — harder problems, more drift-sensitive.
    pub mean_scale: f64,
    /// Seed label for the stream's private RNG split.
    pub seed: u64,
}

impl TaskStreamConfig {
    /// A stream with `classes` classes and default geometry.
    pub fn new(name: impl Into<String>, classes: usize, seed: u64) -> Self {
        TaskStreamConfig {
            name: name.into(),
            classes,
            feature_dim: 16,
            prior_drift: 0.0,
            mean_drift: 0.0,
            noise: 0.55,
            mean_scale: 0.52,
            seed,
        }
    }

    /// Sets the drift intensities.
    pub fn with_drift(mut self, prior_drift: f64, mean_drift: f64) -> Self {
        self.prior_drift = prior_drift;
        self.mean_drift = mean_drift;
        self
    }
}

/// A batch of labelled samples.
#[derive(Clone, Debug)]
pub struct LabeledSamples {
    /// Feature rows, `n × feature_dim`.
    pub inputs: Matrix,
    /// Golden label per row (what the cloud golden model would return).
    pub labels: Vec<Label>,
}

impl LabeledSamples {
    /// An empty batch.
    pub fn empty() -> Self {
        LabeledSamples {
            inputs: Matrix::zeros(0, 1),
            labels: Vec::new(),
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Empties the batch to `0 × dim` with room for `capacity` rows,
    /// keeping its allocations: the start of a gather from several
    /// batches through [`Self::push`].
    pub fn reset(&mut self, dim: usize, capacity: usize) {
        self.inputs.reset_rows(dim, capacity);
        self.labels.clear();
        self.labels.reserve(capacity);
    }

    /// Appends row `i` of `src` — its input row and its label.
    ///
    /// # Panics
    /// Panics when `i` is out of range or the widths differ.
    #[inline]
    pub fn push(&mut self, src: &LabeledSamples, i: usize) {
        self.inputs.push_row(src.inputs.row(i));
        self.labels.push(src.labels[i]);
    }

    /// Concatenates batches of equal feature width, copying each part's
    /// rows once, straight into the output matrix.
    pub fn concat(parts: &[&LabeledSamples]) -> LabeledSamples {
        let dim = parts
            .iter()
            .find(|p| !p.is_empty())
            .map(|p| p.inputs.cols())
            .unwrap_or(0);
        let rows = parts.iter().map(|p| p.len()).sum();
        let mut inputs = Matrix::zeros(rows, dim.max(1));
        let mut labels = Vec::with_capacity(rows);
        let mut at = 0;
        for p in parts {
            assert!(p.is_empty() || p.inputs.cols() == dim, "width mismatch");
            let part = p.inputs.data();
            inputs.data_mut()[at..at + part.len()].copy_from_slice(part);
            at += part.len();
            labels.extend_from_slice(&p.labels);
        }
        LabeledSamples { inputs, labels }
    }

    /// Selects a subset of rows by index, gathered straight into the
    /// output matrix.
    pub fn select(&self, indices: &[usize]) -> LabeledSamples {
        self.gather(indices)
    }

    /// [`Self::select`] for any row-index type: the pool's `u32` orders
    /// gather through here without a widened copy of the index list.
    pub fn gather<I: RowIndex>(&self, indices: &[I]) -> LabeledSamples {
        let mut inputs = Matrix::default();
        inputs.gather_rows_from(&self.inputs, indices);
        LabeledSamples {
            inputs,
            labels: indices
                .iter()
                .map(|&i| self.labels[i.row_index()])
                .collect(),
        }
    }
}

/// A drifting classification data stream.
#[derive(Clone, Debug)]
pub struct TaskStream {
    config: TaskStreamConfig,
    rng: Prng,
    /// Current class priors (the label distribution of new data).
    priors: Vec<f64>,
    /// Current class means, `classes × feature_dim`.
    means: Matrix,
    /// Coordinate pairing used by the rotation drift (a random perfect
    /// matching of feature dimensions).
    rotation_pairs: Vec<(usize, usize)>,
    /// Per-class angular velocity (radians/period, signed). Appearance
    /// drift is modelled as a slow *rotation* of each class mean in
    /// random coordinate planes: persistent (the class keeps moving the
    /// same way, so per-period damage is consistent across seeds) yet
    /// norm-preserving, so feature magnitudes stay bounded over
    /// arbitrarily long runs.
    omegas: Vec<f64>,
    /// Periods advanced so far.
    period: u64,
}

impl TaskStream {
    /// Creates the stream at period 0 with well-separated class means and
    /// mildly non-uniform priors.
    ///
    /// # Panics
    /// Panics with fewer than two classes or features, or with more
    /// classes than a one-byte [`Label`] names (256).
    pub fn new(config: TaskStreamConfig, root: &Prng) -> Self {
        assert!(config.classes >= 2, "need at least two classes");
        assert!(
            config.classes <= MAX_CLASSES,
            "at most 256 classes: a Label is one byte, got {}",
            config.classes
        );
        assert!(config.feature_dim >= 2, "need at least two features");
        let mut rng = root.split(config.seed ^ STREAM_TAG);
        // Class means: random directions at a separation that a small MLP
        // resolves at roughly the paper's ~93–97 % top accuracies under
        // the default noise — leaving real headroom for drift damage.
        let mut means = Matrix::zeros(config.classes, config.feature_dim);
        for c in 0..config.classes {
            for d in 0..config.feature_dim {
                means.set(c, d, (rng.gauss() * config.mean_scale) as f32);
            }
        }
        // Random coordinate pairing for the rotation planes.
        let mut dims: Vec<usize> = (0..config.feature_dim).collect();
        rng.shuffle(&mut dims);
        let rotation_pairs: Vec<(usize, usize)> =
            dims.chunks_exact(2).map(|c| (c[0], c[1])).collect();
        // Per-class signed angular velocity around the configured
        // intensity (classes drift at different speeds, Obs. 3).
        let omegas: Vec<f64> = (0..config.classes)
            .map(|_| {
                let sign = if rng.chance(0.5) { 1.0 } else { -1.0 };
                sign * config.mean_drift * rng.range_f64(0.7, 1.3)
            })
            .collect();
        // Mildly skewed initial priors.
        let mut priors = vec![1.0; config.classes];
        rng.perturb_simplex(&mut priors, 0.3);
        TaskStream {
            config,
            rng,
            priors,
            means,
            rotation_pairs,
            omegas,
            period: 0,
        }
    }

    /// The stream's configuration.
    pub fn config(&self) -> &TaskStreamConfig {
        &self.config
    }

    /// The current class-prior vector (the live label distribution).
    pub fn priors(&self) -> &[f64] {
        &self.priors
    }

    /// Current period index.
    pub fn period(&self) -> u64 {
        self.period
    }

    /// Advances to the next period: priors and class means drift.
    pub fn advance_period(&mut self) {
        self.period += 1;
        if self.config.prior_drift > 0.0 {
            self.rng
                .perturb_simplex(&mut self.priors, self.config.prior_drift);
        }
        if self.config.mean_drift > 0.0 {
            for c in 0..self.config.classes {
                // Rotate the class mean in each plane, with mild angular
                // jitter so realisations stay distinct across seeds.
                let theta = self.omegas[c] * (1.0 + self.rng.gauss() * 0.15);
                let (sin, cos) = (theta.sin() as f32, theta.cos() as f32);
                for &(i, j) in &self.rotation_pairs {
                    let x = self.means.get(c, i);
                    let y = self.means.get(c, j);
                    self.means.set(c, i, x * cos - y * sin);
                    self.means.set(c, j, x * sin + y * cos);
                }
            }
        }
    }

    /// Draws `n` labelled samples from the *current* distribution: per
    /// sample one class draw, then one Gaussian per feature, written
    /// straight into the output row.
    pub fn sample(&mut self, n: usize) -> LabeledSamples {
        draw_samples(
            &mut self.rng,
            &self.priors,
            &self.means,
            self.config.noise,
            n,
        )
    }

    /// [`Self::sample`]`(n)`, drawn later: the returned snapshot draws
    /// the same rows bit for bit, and the stream's generator moves on
    /// now past exactly the draws `sample(n)` makes — one uniform per
    /// class draw, `feature_dim` Gaussians per row — so every later
    /// draw of the stream is unchanged. Moving on takes integer draws
    /// only: the order of raw draws does not change the state they
    /// reach, and a spare left pending comes from the last two draws
    /// either way, since each row ends with its Gaussians.
    pub fn defer(&mut self, n: usize) -> DeferredSample {
        let deferred = DeferredSample {
            rng: self.rng.clone(),
            priors: self.priors.clone(),
            means: self.means.clone(),
            noise: self.config.noise,
            n,
        };
        assert!(
            n == 0 || Prng::weight_total(&self.priors) > 0.0,
            "priors are positive"
        );
        for _ in 0..n {
            self.rng.next_u64();
        }
        self.rng.skip_gauss(n * self.config.feature_dim);
        deferred
    }
}

/// The body of [`TaskStream::sample`], shared with
/// [`DeferredSample::draw`] so a deferred draw runs the same code on the
/// same inputs. Per row, the generator's blocked kernel
/// ([`Prng::scaled_gauss_rows`]) makes the class draw, then the row's
/// noise `(gauss() · noise) as f32`; the class's mean row is added
/// once the row is done.
fn draw_samples(
    rng: &mut Prng,
    priors: &[f64],
    means: &Matrix,
    noise: f64,
    n: usize,
) -> LabeledSamples {
    let mut inputs = Matrix::zeros(n, means.cols());
    let mut labels = Vec::with_capacity(n);
    let total = Prng::weight_total(priors);
    rng.scaled_gauss_rows(inputs.data_mut(), means.cols(), noise, |lead, row| {
        let class = Prng::weighted_index_at(lead, priors, total)
            // simlint: allow(no-unwrap-in-lib) — priors come from a simplex draw, all strictly positive
            .expect("priors are positive");
        // `x + m` is `m + x` bit for bit: IEEE addition commutes.
        for (x, &m) in row.iter_mut().zip(means.row(class)) {
            *x += m;
        }
        // Exact: `TaskStream::new` caps the classes at 256.
        labels.push(class as Label);
    });
    LabeledSamples { inputs, labels }
}

/// A [`TaskStream::sample`] call not drawn yet: the generator with its
/// pending Box–Muller spare, the priors and the class means it would
/// read (a few hundred bytes), and the sample count.
#[derive(Clone, Debug)]
pub struct DeferredSample {
    rng: Prng,
    priors: Vec<f64>,
    means: Matrix,
    noise: f64,
    n: usize,
}

impl DeferredSample {
    /// Number of samples the draw yields.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the draw yields no samples.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Draws the samples: bit-equal to what `sample(n)` returned had it
    /// run at the [`TaskStream::defer`] call, however often it is drawn.
    pub fn draw(&self) -> LabeledSamples {
        let mut rng = self.rng.clone();
        draw_samples(&mut rng, &self.priors, &self.means, self.noise, self.n)
    }
}

/// A distinct tag mixed into the per-stream RNG split so stream seeds never
/// collide with other subsystem splits of the same root.
const STREAM_TAG: u64 = 0x7A5C_57E3_A11D_11F5;

#[cfg(test)]
mod tests {
    use super::*;
    use adainf_nn::metrics::{js_divergence, normalize_hist};
    use adainf_nn::{EarlyExitMlp, MlpConfig, TrainScratch};
    use adainf_simcore::rng::GAUSS_BLOCK;

    fn stream(prior_drift: f64, mean_drift: f64) -> TaskStream {
        let root = Prng::new(99);
        TaskStream::new(
            TaskStreamConfig::new("test", 6, 1).with_drift(prior_drift, mean_drift),
            &root,
        )
    }

    #[test]
    fn stable_stream_keeps_distribution() {
        let mut s = stream(0.0, 0.0);
        let before = s.priors().to_vec();
        let a = s.sample(500);
        for _ in 0..5 {
            s.advance_period();
        }
        let b = s.sample(500);
        assert_eq!(s.priors(), &before[..]);
        let histogram = |samples: &LabeledSamples| {
            let mut counts = vec![0.0; 6];
            for &l in &samples.labels {
                counts[usize::from(l)] += 1.0;
            }
            normalize_hist(&counts)
        };
        let (ha, hb) = (histogram(&a), histogram(&b));
        assert!(js_divergence(&ha, &hb) < 0.02, "stable stream drifted");
    }

    #[test]
    fn drifting_stream_changes_label_distribution() {
        let mut s = stream(0.6, 0.0);
        let h0 = s.priors().to_vec();
        let mut max_js = 0.0f64;
        for _ in 0..10 {
            s.advance_period();
            let js = js_divergence(&h0, s.priors());
            max_js = max_js.max(js);
        }
        assert!(max_js > 0.05, "priors did not drift: {max_js}");
    }

    /// `epochs` full-batch SGD steps of `net` on `samples`.
    fn sgd_epochs(net: &mut EarlyExitMlp, samples: &LabeledSamples, epochs: usize) {
        let mut scratch = TrainScratch::default();
        for _ in 0..epochs {
            net.train_batch(&samples.inputs, &samples.labels, &mut scratch);
        }
    }

    #[test]
    fn mean_drift_degrades_a_frozen_model() {
        // A model trained at period 0 must lose accuracy as class means
        // drift — the core premise of the paper (Obs. 1).
        let mut s = stream(0.0, 0.6);
        let train = s.sample(600);
        let mut rng = Prng::new(5);
        let mut net = EarlyExitMlp::new(MlpConfig::small(16, 6), &mut rng);
        sgd_epochs(&mut net, &train, 60);
        let eval0 = s.sample(800);
        let acc0 = net.accuracy(&eval0.inputs, &eval0.labels, 1);
        assert!(acc0 > 0.85, "initial accuracy too low: {acc0}");
        for _ in 0..6 {
            s.advance_period();
        }
        let eval1 = s.sample(800);
        let acc1 = net.accuracy(&eval1.inputs, &eval1.labels, 1);
        assert!(
            acc1 < acc0 - 0.05,
            "drift should reduce accuracy: {acc0} -> {acc1}"
        );
    }

    #[test]
    fn retraining_recovers_accuracy() {
        let mut s = stream(0.0, 0.6);
        let train = s.sample(600);
        let mut rng = Prng::new(6);
        let mut net = EarlyExitMlp::new(MlpConfig::small(16, 6), &mut rng);
        sgd_epochs(&mut net, &train, 60);
        for _ in 0..6 {
            s.advance_period();
        }
        let eval = s.sample(800);
        let stale = net.accuracy(&eval.inputs, &eval.labels, 1);
        let fresh = s.sample(600);
        sgd_epochs(&mut net, &fresh, 40);
        let retrained = net.accuracy(&eval.inputs, &eval.labels, 1);
        assert!(
            retrained > stale + 0.05,
            "retraining should recover accuracy: {stale} -> {retrained}"
        );
    }

    #[test]
    fn select_and_concat() {
        let mut s = stream(0.0, 0.0);
        let a = s.sample(10);
        let sub = a.select(&[0, 2, 4]);
        assert_eq!(sub.len(), 3);
        assert_eq!(sub.labels[1], a.labels[2]);
        assert_eq!(sub.inputs.row(1), a.inputs.row(2));
        let both = LabeledSamples::concat(&[&a, &sub]);
        assert_eq!(both.len(), 13);
    }

    /// `TaskStream::sample` as it was before rows were written in place:
    /// the prior sum redone per draw, each mean row copied out, rows
    /// staged in a vector that `Matrix::from_slice` copies again.
    fn staged_sample(s: &mut TaskStream, n: usize) -> LabeledSamples {
        let dim = s.config.feature_dim;
        let mut data = Vec::with_capacity(n * dim);
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            let class = s
                .rng
                .weighted_index(&s.priors)
                .expect("priors are positive");
            let mean_row = s.means.row(class).to_vec();
            for &m in mean_row.iter().take(dim) {
                data.push(m + (s.rng.gauss() * s.config.noise) as f32);
            }
            labels.push(class as Label);
        }
        LabeledSamples {
            inputs: Matrix::from_slice(n, dim, &data),
            labels,
        }
    }

    /// `LabeledSamples::concat` as it was, staging rows in a vector.
    fn staged_concat(parts: &[&LabeledSamples]) -> LabeledSamples {
        let dim = parts
            .iter()
            .find(|p| !p.is_empty())
            .map(|p| p.inputs.cols())
            .unwrap_or(0);
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for p in parts {
            assert!(p.is_empty() || p.inputs.cols() == dim, "width mismatch");
            data.extend_from_slice(p.inputs.data());
            labels.extend_from_slice(&p.labels);
        }
        LabeledSamples {
            inputs: Matrix::from_slice(labels.len(), dim.max(1), &data),
            labels,
        }
    }

    /// `LabeledSamples::select` as it was, staging rows in a vector.
    fn staged_select(s: &LabeledSamples, indices: &[usize]) -> LabeledSamples {
        let dim = s.inputs.cols();
        let mut data = Vec::with_capacity(indices.len() * dim);
        let mut labels = Vec::with_capacity(indices.len());
        for &i in indices {
            data.extend_from_slice(s.inputs.row(i));
            labels.push(s.labels[i]);
        }
        LabeledSamples {
            inputs: Matrix::from_slice(indices.len(), dim, &data),
            labels,
        }
    }

    fn assert_bit_equal(got: &LabeledSamples, want: &LabeledSamples, what: &str) {
        let bits = |s: &LabeledSamples| -> Vec<u32> {
            s.inputs.data().iter().map(|x| x.to_bits()).collect()
        };
        assert_eq!(
            (got.inputs.rows(), got.inputs.cols()),
            (want.inputs.rows(), want.inputs.cols()),
            "{what}: shape"
        );
        assert_eq!(bits(got), bits(want), "{what}: inputs");
        assert_eq!(got.labels, want.labels, "{what}: labels");
    }

    /// Whether the generator holds a pending Box–Muller spare: its
    /// `Debug` form prints the spare with round-trip precision.
    fn spare_pending(rng: &Prng) -> bool {
        !format!("{rng:?}").contains("gauss_spare: None")
    }

    /// Row counts whose draw, from the generator's current state, ends
    /// exactly on a block boundary of the sample kernel, and one row
    /// past it.
    fn block_boundary_rows(rng: &Prng, dim: usize) -> [usize; 2] {
        let first = usize::from(spare_pending(rng));
        let ends_on_boundary = |n: usize| {
            let transforms = (n * dim - first).div_ceil(2);
            transforms > 0 && transforms.is_multiple_of(GAUSS_BLOCK)
        };
        let n = (1..).find(|&n| ends_on_boundary(n)).unwrap();
        [n, n + 1]
    }

    /// Both streams' generators: the same state, the same pending
    /// spare (bits, through `Debug`) and the same next raw draw.
    fn assert_same_generator(a: &mut TaskStream, b: &mut TaskStream, what: &str) {
        assert_eq!(
            format!("{:?}", a.rng),
            format!("{:?}", b.rng),
            "{what}: state"
        );
        assert_eq!(a.rng.next_u64(), b.rng.next_u64(), "{what}: next raw draw");
    }

    /// A stream of `classes` classes at width `dim`.
    fn stream_config(name: &str, classes: usize, seed: u64, dim: usize) -> TaskStreamConfig {
        TaskStreamConfig {
            feature_dim: dim,
            ..TaskStreamConfig::new(name, classes, seed)
        }
    }

    /// Writing sample rows in place (one prior sum per call, noise from
    /// the blocked kernel) and building `concat`/`select` without a
    /// staging vector must reproduce the staged builders bit for bit,
    /// and leave the stream's generator in the same state. Odd widths
    /// carry the pending spare across rows, block ends and calls, so
    /// draws start with and without one; row counts include those
    /// ending on a block boundary and one row past it.
    #[test]
    fn in_place_builders_bit_match_staged_reference() {
        let mut entry_spares = [0usize; 2];
        for dim in [16usize, 3, 5, 17] {
            for classes in [2usize, 3, 5, 6, 8, 10, 12] {
                let root = Prng::new(60 + classes as u64);
                let config =
                    stream_config("ref", classes, classes as u64, dim).with_drift(0.5, 0.4);
                let mut fast = TaskStream::new(config, &root);
                let mut slow = fast.clone();
                let mut drawn = Vec::new();
                for step in 0..6 {
                    let n = match step {
                        0..=3 => [0usize, 1, 17, 600][step],
                        _ => block_boundary_rows(&fast.rng, dim)[step - 4],
                    };
                    entry_spares[usize::from(spare_pending(&fast.rng))] += 1;
                    let got = fast.sample(n);
                    let want = staged_sample(&mut slow, n);
                    let what = format!("width {dim}, {classes} classes, sample({n})");
                    assert_bit_equal(&got, &want, &what);
                    assert_same_generator(&mut fast, &mut slow, &what);
                    drawn.push(got);
                    fast.advance_period();
                    slow.advance_period();
                }
                let empty = LabeledSamples::empty();
                let [none, one, some, many] = [&drawn[0], &drawn[1], &drawn[2], &drawn[3]];
                let part_lists: [&[&LabeledSamples]; 5] = [
                    &[],
                    &[&empty, none],
                    &[many],
                    &[&empty, one, none, some, &empty, many],
                    &[some, some],
                ];
                for parts in part_lists {
                    let what = format!("{classes} classes, concat of {}", parts.len());
                    assert_bit_equal(&LabeledSamples::concat(parts), &staged_concat(parts), &what);
                }

                let mut rng = Prng::new(classes as u64);
                let mut shuffled: Vec<usize> = (0..many.len()).collect();
                rng.shuffle(&mut shuffled);
                let index_lists: [&[usize]; 4] = [&[], &[5], &[3, 3, 0, 599], &shuffled[..250]];
                for indices in index_lists {
                    let what = format!("{classes} classes, select of {}", indices.len());
                    assert_bit_equal(&many.select(indices), &staged_select(many, indices), &what);
                }
                assert_bit_equal(
                    &none.select(&[]),
                    &staged_select(none, &[]),
                    "select from empty",
                );
            }
        }
        assert!(
            entry_spares.iter().all(|&n| n > 0),
            "draws with and without an entry spare: {entry_spares:?}"
        );
    }

    /// A deferred draw, made later, equals the draw `sample` makes at
    /// the `defer` call, and the stream goes on as if it had been made:
    /// the same generator state and pending spare, and the same next
    /// rows. Five classes leave a Box–Muller spare pending after `new`
    /// (its prior perturbation draws one Gaussian per class), six do
    /// not; each period's drift draws an even number of them. Odd
    /// widths leave a spare pending after an odd number of values, so
    /// later draws start with one; row counts include those ending on a
    /// block boundary of the sample kernel and one row past it.
    #[test]
    fn deferred_draws_bit_match_sample() {
        let mut entry_spares = [0usize; 2];
        for dim in [16usize, 3, 5, 17] {
            for classes in [5usize, 6] {
                for (prior_drift, mean_drift) in [(0.0, 0.0), (0.5, 0.4)] {
                    let root = Prng::new(70 + classes as u64);
                    let config =
                        stream_config("defer", classes, 3, dim).with_drift(prior_drift, mean_drift);
                    let mut now = TaskStream::new(config, &root);
                    let mut later = now.clone();
                    let mut drawn = Vec::new();
                    let mut deferred = Vec::new();
                    for step in 0..7 {
                        let n = match step {
                            0..=4 => [0usize, 1, 17, 600, 6000][step],
                            _ => block_boundary_rows(&now.rng, dim)[step - 5],
                        };
                        entry_spares[usize::from(spare_pending(&now.rng))] += 1;
                        drawn.push(now.sample(n));
                        let d = later.defer(n);
                        assert_eq!((d.len(), d.is_empty()), (n, n == 0));
                        deferred.push(d);
                        let what = format!(
                            "width {dim}, {classes} classes, drift {prior_drift}, after defer({n})"
                        );
                        assert_same_generator(&mut now, &mut later, &what);
                        assert_bit_equal(&later.sample(3), &now.sample(3), &what);
                        now.advance_period();
                        later.advance_period();
                    }
                    for (d, want) in deferred.into_iter().zip(&drawn) {
                        let what = format!(
                            "width {dim}, {classes} classes, drift {prior_drift}, draw of {}",
                            want.len()
                        );
                        assert_bit_equal(&d.draw(), want, &what);
                    }
                    assert_same_generator(&mut now, &mut later, "end");
                }
            }
        }
        assert!(
            entry_spares.iter().all(|&n| n > 0),
            "draws with and without an entry spare: {entry_spares:?}"
        );
    }

    /// Labels are one byte: a stream of 256 classes builds and labels
    /// its samples in range, and one class more is rejected up front.
    #[test]
    #[should_panic(expected = "at most 256 classes")]
    fn more_classes_than_a_label_names_panics() {
        let root = Prng::new(3);
        let mut widest = TaskStream::new(TaskStreamConfig::new("w", MAX_CLASSES, 1), &root);
        let batch = widest.sample(2000);
        assert!(batch.labels.iter().any(|&l| l > 200), "high classes drawn");
        TaskStream::new(TaskStreamConfig::new("x", MAX_CLASSES + 1, 1), &root);
    }

    #[test]
    fn streams_are_deterministic_per_seed() {
        let root = Prng::new(1);
        let mut a = TaskStream::new(TaskStreamConfig::new("x", 4, 7), &root);
        let mut b = TaskStream::new(TaskStreamConfig::new("x", 4, 7), &root);
        let sa = a.sample(20);
        let sb = b.sample(20);
        assert_eq!(sa.labels, sb.labels);
        assert_eq!(sa.inputs.data(), sb.inputs.data());
    }
}
