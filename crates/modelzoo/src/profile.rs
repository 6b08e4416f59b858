//! Layered cost profiles of DNN backbones.
//!
//! A [`ModelProfile`] describes what the GPU simulator needs to know about
//! a model: per-layer FLOPs, parameter bytes and activation bytes. The
//! synthetic layer distribution follows the usual CNN shape — activations
//! are large in early layers and shrink with depth, parameters are thin
//! early and fat late — which is what makes early exits attractive
//! latency-wise (they skip the parameter-heavy tail) while costing
//! accuracy.

use adainf_gpusim::exec::LayerSpec;
use adainf_gpusim::StructureCost;

/// Spacing of early-exit points: "the layer after every 3 layers of the
/// full structure", following SPINN \[22\] (§2.2).
pub const EXIT_STRIDE: usize = 3;

/// A backbone's cost profile: per-layer costs, and the aggregate cost
/// of every structure cut, summed once when the profile is built.
#[derive(Clone, Debug)]
pub struct ModelProfile {
    /// Backbone name ("TinyYOLOv3", …).
    pub name: String,
    /// Per-layer forward FLOPs (per sample).
    layer_flops: Vec<f64>,
    /// Per-layer parameter bytes.
    layer_param_bytes: Vec<u64>,
    /// Per-layer activation bytes (per sample).
    layer_activation_bytes: Vec<u64>,
    /// `costs[cut]`: the aggregate cost of layers `0..=cut`, the prefix
    /// sums of the layer vectors in ascending layer order.
    costs: Vec<StructureCost>,
}

impl ModelProfile {
    /// Builds a profile with `n_layers` layers summing to the given
    /// totals, using the standard CNN shape: activation bytes decay
    /// geometrically with depth while parameter bytes grow.
    pub fn synth(
        name: impl Into<String>,
        n_layers: usize,
        total_flops: f64,
        total_param_bytes: u64,
        total_activation_bytes: u64,
    ) -> Self {
        assert!(n_layers >= 2, "profiles need at least two layers");
        let n = n_layers as f64;
        // Geometric weights: activations front-loaded (ratio < 1),
        // parameters back-loaded (ratio > 1), flops mildly front-loaded.
        let weights = |ratio: f64| -> Vec<f64> {
            let raw: Vec<f64> = (0..n_layers).map(|i| ratio.powf(i as f64 / n)).collect();
            let total: f64 = raw.iter().sum();
            raw.into_iter().map(|w| w / total).collect()
        };
        let act_w = weights(0.15);
        let param_w = weights(6.0);
        let flop_w = weights(0.6);
        ModelProfile {
            name: name.into(),
            layer_flops: flop_w.iter().map(|w| w * total_flops).collect(),
            layer_param_bytes: param_w
                .iter()
                .map(|w| (w * total_param_bytes as f64) as u64)
                .collect(),
            layer_activation_bytes: act_w
                .iter()
                .map(|w| (w * total_activation_bytes as f64) as u64)
                .collect(),
            costs: Vec::new(),
        }
        .with_costs()
    }

    /// Rebuilds the per-cut cost table from the layer vectors. Each
    /// running sum adds one layer to the previous cut's, left to right —
    /// the order of a slice sum over `..=cut` — so every entry is the
    /// bit pattern summing that slice gives.
    fn with_costs(mut self) -> Self {
        let mut acc = StructureCost::zero();
        self.costs = self
            .layer_flops
            .iter()
            .zip(&self.layer_param_bytes)
            .zip(&self.layer_activation_bytes)
            .map(|((&flops, &params), &acts)| {
                acc = acc.plus(StructureCost {
                    flops_per_sample: flops,
                    activation_bytes: acts as f64,
                    param_bytes: params as f64,
                });
                acc
            })
            .collect();
        self
    }

    /// Number of layers in the full structure.
    pub fn num_layers(&self) -> usize {
        self.layer_flops.len()
    }

    /// The early-exit cut points: layer indices (inclusive) at which the
    /// structure can stop, every [`EXIT_STRIDE`] layers plus the full
    /// structure. A "cut at `c`" runs layers `0..=c`.
    pub fn exit_points(&self) -> Vec<usize> {
        let last = self.num_layers() - 1;
        let mut points: Vec<usize> = (EXIT_STRIDE - 1..last).step_by(EXIT_STRIDE).collect();
        points.push(last);
        points
    }

    /// Layer specs of the structure cut at layer `cut` (inclusive), for
    /// the execution engine.
    ///
    /// # Panics
    /// Panics if `cut` is out of range.
    pub fn structure_layers(&self, cut: usize) -> Vec<LayerSpec> {
        assert!(cut < self.num_layers(), "cut {cut} out of range");
        (0..=cut)
            .map(|i| LayerSpec {
                flops: self.layer_flops[i],
                param_bytes: self.layer_param_bytes[i],
                activation_bytes: self.layer_activation_bytes[i],
            })
            .collect()
    }

    /// Aggregate cost of the structure cut at `cut` (inclusive), for the
    /// latency model: a lookup in the table built with the profile.
    ///
    /// # Panics
    /// Panics if `cut` is out of range.
    pub fn structure_cost(&self, cut: usize) -> StructureCost {
        assert!(cut < self.num_layers(), "cut {cut} out of range");
        self.costs[cut]
    }

    /// Cost of the full structure.
    pub fn full_cost(&self) -> StructureCost {
        self.costs[self.full_cut()]
    }

    /// The full-structure cut index.
    pub fn full_cut(&self) -> usize {
        self.num_layers() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> ModelProfile {
        ModelProfile::synth("test", 13, 9.0e7, 8_000_000, 1_200_000)
    }

    #[test]
    fn totals_are_preserved() {
        let p = profile();
        assert_eq!(p.num_layers(), 13);
        let flops: f64 = p.layer_flops.iter().sum();
        assert!((flops - 9.0e7).abs() / 9.0e7 < 1e-9);
        let params: u64 = p.layer_param_bytes.iter().sum();
        assert!((params as i64 - 8_000_000i64).abs() < 13);
        let act: u64 = p.layer_activation_bytes.iter().sum();
        assert!((act as i64 - 1_200_000i64).abs() < 13);
    }

    #[test]
    fn cnn_shape_holds() {
        let p = profile();
        // Activations shrink with depth; parameters grow.
        assert!(p.layer_activation_bytes[0] > p.layer_activation_bytes[12]);
        assert!(p.layer_param_bytes[0] < p.layer_param_bytes[12]);
    }

    #[test]
    fn exit_points_every_three_layers() {
        let p = profile();
        assert_eq!(p.exit_points(), vec![2, 5, 8, 11, 12]);
        let short = ModelProfile::synth("s", 4, 1e6, 1000, 1000);
        assert_eq!(short.exit_points(), vec![2, 3]);
    }

    #[test]
    fn structure_cost_monotone_in_cut() {
        let p = profile();
        let mut prev = 0.0;
        for cut in p.exit_points() {
            let c = p.structure_cost(cut);
            assert!(c.flops_per_sample > prev);
            prev = c.flops_per_sample;
        }
        assert_eq!(
            p.full_cost().flops_per_sample,
            p.structure_cost(p.full_cut()).flops_per_sample
        );
    }

    /// The summing `structure_cost` the per-cut table replaced: each
    /// field summed over the layer slice `..=cut`.
    fn summed_cost(p: &ModelProfile, cut: usize) -> StructureCost {
        StructureCost {
            flops_per_sample: p.layer_flops[..=cut].iter().sum(),
            activation_bytes: p.layer_activation_bytes[..=cut]
                .iter()
                .map(|b| *b as f64)
                .sum(),
            param_bytes: p.layer_param_bytes[..=cut].iter().map(|b| *b as f64).sum(),
        }
    }

    /// Every zoo backbone: the stored cost of every cut bit-equals the
    /// slice sums over the layer vectors.
    #[test]
    fn cost_table_bit_equals_layer_sums() {
        use crate::zoo;
        let bits = |c: StructureCost| {
            [
                c.flops_per_sample.to_bits(),
                c.activation_bytes.to_bits(),
                c.param_bytes.to_bits(),
            ]
        };
        let backbones = [
            zoo::tiny_yolo_v3(),
            zoo::mobilenet_v2(),
            zoo::shufflenet(),
            zoo::resnet18(),
            zoo::ssdlite(),
            zoo::stn_ocr(),
            zoo::image_recognizer(),
            zoo::nsfw_net(),
            zoo::lang_id(),
            zoo::translator(),
            zoo::audio_net(),
            zoo::intent_net(),
        ];
        for p in backbones {
            for cut in 0..p.num_layers() {
                assert_eq!(
                    bits(p.structure_cost(cut)),
                    bits(summed_cost(&p, cut)),
                    "{} cut {cut}",
                    p.name
                );
            }
            assert_eq!(bits(p.full_cost()), bits(summed_cost(&p, p.full_cut())));
        }
    }

    #[test]
    fn structure_layers_match_cost() {
        let p = profile();
        let layers = p.structure_layers(5);
        assert_eq!(layers.len(), 6);
        let flops: f64 = layers.iter().map(|l| l.flops).sum();
        assert!((flops - p.structure_cost(5).flops_per_sample).abs() < 1e-6);
    }
}
