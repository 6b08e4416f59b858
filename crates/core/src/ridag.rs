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

/// The retraining-inference DAG of one application for one period:
/// its retraining vertices. Every model has an inference vertex, so
/// only the retraining ones are stored.
#[derive(Clone, Debug, Default)]
pub struct RiDag {
    /// The retraining entries (node, impact), ascending node.
    pub entries: Vec<RiEntry>,
}

impl RiDag {
    /// Builds the DAG from a drift report. Models absent from the report
    /// get no retraining vertex.
    pub fn build(report: &DriftReport) -> RiDag {
        let entries = report
            .impacted
            .iter()
            .map(|&(node, impact)| RiEntry { node, impact })
            .collect();
        RiDag { entries }
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
        let dag = RiDag::build(&report(vec![(1, 0.12), (2, 0.05)]));
        let entries: Vec<(usize, f64)> = dag.entries.iter().map(|e| (e.node, e.impact)).collect();
        assert_eq!(entries, vec![(1, 0.12), (2, 0.05)]);
        assert!(!dag.retrains(0));
        assert!(dag.retrains(1));
        assert!(dag.retrains(2));
        assert!((dag.total_impact() - 0.17).abs() < 1e-12);
    }

    #[test]
    fn no_drift_means_inference_only() {
        let dag = RiDag::build(&report(vec![]));
        assert!(dag.entries.is_empty());
        assert!((0..3).all(|node| !dag.retrains(node)));
        assert_eq!(dag.total_impact(), 0.0);
    }
}
