//! Retraining-inference DAG generation (§3.2, Fig 15).
//!
//! AdaInf augments an application's inference DAG with one retraining
//! vertex per drift-impacted model; the retraining vertex points to the
//! model's inference vertex, carries the model's impact degree, and is
//! absent for unimpacted models. During a session, a job's tasks execute
//! in the DAG order: a model's retraining slice (if any) immediately
//! precedes its inference task, which follows its upstream model's
//! inference.

use crate::drift_detect::DriftReport;
use crate::plan::RiEntry;
use adainf_apps::AppSpec;

/// One vertex of the retraining-inference DAG.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RiVertex {
    /// Retraining task of a model, with its impact degree.
    Retrain {
        /// DAG node (model) index.
        node: usize,
        /// Impact degree from drift detection.
        impact: f64,
    },
    /// Inference task of a model.
    Inference {
        /// DAG node (model) index.
        node: usize,
    },
}

/// The retraining-inference DAG of one application for one period.
#[derive(Clone, Debug, Default)]
pub struct RiDag {
    /// Vertices in execution order (retraining immediately before the
    /// same model's inference; upstream inference before downstream).
    pub order: Vec<RiVertex>,
    /// The retraining entries (node, impact), ascending node.
    pub entries: Vec<RiEntry>,
}

impl RiDag {
    /// Builds the DAG for `app` from a drift report. Models absent from
    /// the report get no retraining vertex.
    pub fn build(app: &AppSpec, report: &DriftReport) -> RiDag {
        let mut impact = vec![None; app.nodes.len()];
        for (node, deg) in &report.impacted {
            impact[*node] = Some(*deg);
        }
        let mut order = Vec::new();
        // Nodes are stored topologically, so iterating in index order
        // respects upstream-before-downstream.
        for (node, deg) in impact.iter().enumerate().take(app.nodes.len()) {
            if let Some(deg) = deg {
                order.push(RiVertex::Retrain { node, impact: *deg });
            }
            order.push(RiVertex::Inference { node });
        }
        let entries = report
            .impacted
            .iter()
            .map(|&(node, impact)| RiEntry { node, impact })
            .collect();
        RiDag { order, entries }
    }

    /// Whether `node` has a retraining vertex this period.
    pub fn retrains(&self, node: usize) -> bool {
        self.entries.iter().any(|e| e.node == node)
    }

    /// Sum of impact degrees (the denominator of the §3.3.2 time split).
    pub fn total_impact(&self) -> f64 {
        self.entries.iter().map(|e| e.impact).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adainf_apps::catalog;

    fn report(impacted: Vec<(usize, f64)>) -> DriftReport {
        DriftReport {
            impacted,
            final_s: 0.18,
            trace: Vec::new(),
        }
    }

    #[test]
    fn builds_fig15_shape() {
        // Vehicle (1) and person (2) impacted, detection (0) not — the
        // Fig 15 configuration.
        let app = catalog::video_surveillance(0);
        let dag = RiDag::build(&app, &report(vec![(1, 0.12), (2, 0.05)]));
        assert_eq!(
            dag.order,
            vec![
                RiVertex::Inference { node: 0 },
                RiVertex::Retrain {
                    node: 1,
                    impact: 0.12
                },
                RiVertex::Inference { node: 1 },
                RiVertex::Retrain {
                    node: 2,
                    impact: 0.05
                },
                RiVertex::Inference { node: 2 },
            ]
        );
        assert!(!dag.retrains(0));
        assert!(dag.retrains(1));
        assert!((dag.total_impact() - 0.17).abs() < 1e-12);
    }

    #[test]
    fn no_drift_means_inference_only() {
        let app = catalog::video_surveillance(0);
        let dag = RiDag::build(&app, &report(vec![]));
        assert_eq!(dag.order.len(), 3);
        assert!(dag.entries.is_empty());
        assert_eq!(dag.total_impact(), 0.0);
    }
}
