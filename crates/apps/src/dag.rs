//! Application DAG specifications.
//!
//! A multi-model application is "several DNN models organized in a
//! directed acyclic graph" (§1, Fig 1): each node runs a model whose input
//! is either the raw stream input (roots) or the output of an upstream
//! model. Since every node has at most one upstream model in all of the
//! paper's applications (Fig 17), the DAG is stored as a parent pointer
//! per node; nodes are kept in topological order by construction.

use adainf_driftgen::DriftProfile;
use adainf_gpusim::StructureCost;
use adainf_modelzoo::ModelProfile;
use adainf_simcore::SimDuration;

/// One model node of an application DAG.
#[derive(Clone, Debug)]
pub struct NodeSpec {
    /// Task name ("vehicle type recognition").
    pub name: String,
    /// The backbone cost profile the node runs.
    pub profile: ModelProfile,
    /// Classes of the node's classification task.
    pub classes: usize,
    /// Drift intensity of the node's data (Obs. 2–3).
    pub drift: DriftProfile,
    /// Index of the upstream node whose output feeds this node; `None`
    /// for roots consuming the raw input.
    pub upstream: Option<usize>,
}

/// A multi-model application.
#[derive(Clone, Debug)]
pub struct AppSpec {
    /// Stable application id (index into the catalogue).
    pub id: u32,
    /// Application name.
    pub name: String,
    /// Latency SLO of the application's jobs (400–600 ms, §4).
    pub slo: SimDuration,
    /// DAG nodes in topological order (`upstream < index`).
    pub nodes: Vec<NodeSpec>,
}

impl AppSpec {
    /// Builds an application, validating the topological invariant.
    ///
    /// # Panics
    /// Panics if any node references an upstream at or after itself.
    pub fn new(id: u32, name: impl Into<String>, slo: SimDuration, nodes: Vec<NodeSpec>) -> Self {
        assert!(!nodes.is_empty(), "an application needs at least one model");
        for (i, n) in nodes.iter().enumerate() {
            if let Some(up) = n.upstream {
                assert!(up < i, "node {i} upstream {up} breaks topological order");
            }
        }
        AppSpec {
            id,
            name: name.into(),
            slo,
            nodes,
        }
    }

    /// Indices of the leaf nodes — the outputs whose predictions define
    /// the application's accuracy (§2: "the percentage of all inference
    /// requests for vehicle type and person activity outputs … predicted
    /// correctly").
    pub fn leaves(&self) -> Vec<usize> {
        let mut has_child = vec![false; self.nodes.len()];
        for n in &self.nodes {
            if let Some(up) = n.upstream {
                has_child[up] = true;
            }
        }
        (0..self.nodes.len()).filter(|i| !has_child[*i]).collect()
    }

    /// Aggregate cost of the full structures of all models (the "initial
    /// DAG" used for offline profiling, §3.3.1).
    pub fn full_structure_cost(&self) -> StructureCost {
        self.nodes.iter().fold(StructureCost::zero(), |acc, n| {
            acc.plus(n.profile.full_cost())
        })
    }

    /// Aggregate cost for an arbitrary per-model structure choice.
    ///
    /// # Panics
    /// Panics if `cuts` length mismatches the node count.
    pub fn structure_cost(&self, cuts: &[usize]) -> StructureCost {
        assert_eq!(cuts.len(), self.nodes.len(), "one cut per node");
        self.nodes
            .iter()
            .zip(cuts)
            .fold(StructureCost::zero(), |acc, (n, &c)| {
                acc.plus(n.profile.structure_cost(c))
            })
    }

    /// Per-node full cuts (the full-structure choice vector).
    pub fn full_cuts(&self) -> Vec<usize> {
        self.nodes.iter().map(|n| n.profile.full_cut()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adainf_modelzoo::zoo;

    fn surveillance() -> AppSpec {
        AppSpec::new(
            0,
            "video surveillance",
            SimDuration::from_millis(400),
            vec![
                NodeSpec {
                    name: "object detection".into(),
                    profile: zoo::tiny_yolo_v3(),
                    classes: 3,
                    drift: DriftProfile::Stable,
                    upstream: None,
                },
                NodeSpec {
                    name: "vehicle type recognition".into(),
                    profile: zoo::mobilenet_v2(),
                    classes: 6,
                    drift: DriftProfile::Severe,
                    upstream: Some(0),
                },
                NodeSpec {
                    name: "person activity recognition".into(),
                    profile: zoo::shufflenet(),
                    classes: 5,
                    drift: DriftProfile::Moderate,
                    upstream: Some(0),
                },
            ],
        )
    }

    #[test]
    fn leaves_are_the_recognition_tasks() {
        let app = surveillance();
        assert_eq!(app.leaves(), vec![1, 2]);
    }

    #[test]
    fn structure_cost_sums_nodes() {
        let app = surveillance();
        let full = app.full_structure_cost();
        let by_cuts = app.structure_cost(&app.full_cuts());
        assert!((full.flops_per_sample - by_cuts.flops_per_sample).abs() < 1e-6);
        assert!((full.flops_per_sample - 1.5e8).abs() / 1.5e8 < 0.01);
    }

    #[test]
    fn early_cuts_reduce_cost() {
        let app = surveillance();
        let mut cuts = app.full_cuts();
        cuts[1] = 2;
        assert!(
            app.structure_cost(&cuts).flops_per_sample < app.full_structure_cost().flops_per_sample
        );
    }

    #[test]
    #[should_panic(expected = "topological order")]
    fn bad_upstream_panics() {
        AppSpec::new(
            0,
            "bad",
            SimDuration::from_millis(400),
            vec![NodeSpec {
                name: "self-loop".into(),
                profile: zoo::shufflenet(),
                classes: 2,
                drift: DriftProfile::Stable,
                upstream: Some(0),
            }],
        );
    }
}
