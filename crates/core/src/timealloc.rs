//! GPU time division among the DAG vertices of an application (§3.3.2).
//!
//! Given a job's allocated space, AdaInf:
//!
//! 1. chooses an early-exit structure per inference task — the full
//!    structure for models not being retrained; otherwise the cheapest
//!    structure whose (period-refreshed) accuracy clears the threshold
//!    `A_m` — leaving more SLO time for retraining (Obs. 4);
//! 2. re-adjusts the request batch size for the chosen structure (Obs. 6);
//! 3. computes the total inference time `Σ l_k` and the spare time
//!    `T_r = L_s − Σ l_k`;
//! 4. splits `T_r` among the retraining tasks in proportion to their
//!    impact degrees and converts each share into a retraining setting
//!    (samples, batch, epochs) via the offline profiles.
//!
//! Step 1 depends only on period state, so the scheduler runs
//! [`select_structures`] once per period; steps 2–4 are
//! [`plan_time`], memoised per `(app, requests, gpu)` by the decision
//! cache; [`clamp_slices`] then caps each slice at the live pool state
//! every session.

use crate::config::AdaInfConfig;
use crate::plan::RetrainSlice;
use crate::profiler::Profiler;
use crate::ridag::RiDag;
use adainf_apps::AppSpec;
use adainf_gpusim::{EvictionPolicyKind, ExecMode};
use adainf_simcore::SimDuration;

/// A retraining slice before the pool bound is applied: `fit` samples
/// fit in the budget; the live pool state caps it at plan time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ProtoSlice {
    /// DAG node (model) index.
    pub node: usize,
    /// Time budget of the slice.
    pub time: SimDuration,
    /// Samples that fit in the budget (uncapped).
    pub fit: u32,
    /// Retraining batch size.
    pub batch: u32,
    /// Epochs per slice.
    pub epochs: u32,
}

/// The pool-independent part of a time division: everything except the
/// clamp of slice samples against the remaining retraining pools. This
/// is what the scheduler's decision cache stores — pools drain between
/// sessions, so the clamp must be re-applied at every lookup.
#[derive(Clone, Debug, PartialEq)]
pub struct TimePlan {
    /// Structure cut per DAG node.
    pub cuts: Vec<usize>,
    /// Re-adjusted request batch size.
    pub batch: u32,
    /// Estimated total inference time of the job.
    pub inference_time: SimDuration,
    /// Retraining slices before pool clamping.
    pub proto: Vec<ProtoSlice>,
}

/// The memory-strategy pair implied by an AdaInf configuration.
pub fn strategies(config: &AdaInfConfig) -> (ExecMode, EvictionPolicyKind) {
    let mode = if config.maximize_memory_usage {
        ExecMode::LayerGrouped
    } else {
        ExecMode::PerRequest
    };
    let policy = if config.priority_eviction {
        EvictionPolicyKind::Priority
    } else {
        EvictionPolicyKind::Lru
    };
    (mode, policy)
}

/// Step 1 — early-exit structure selection per node. Depends only on
/// the period's RI-DAG and refreshed accuracy snapshot, never on the
/// session's GPU fraction or request count, so the scheduler computes
/// it once per period.
pub fn select_structures(
    app: &AppSpec,
    ridag: &RiDag,
    accuracy: &dyn Fn(usize, usize) -> f64,
    initial_acc: &[f64],
    config: &AdaInfConfig,
) -> Vec<usize> {
    app.nodes
        .iter()
        .enumerate()
        .map(|(node, nspec)| {
            let full = nspec.profile.full_cut();
            if !config.use_early_exit || !ridag.retrains(node) {
                // "If there is no retraining task vertex … AdaInf uses the
                // full structure since it does not need to save time."
                return full;
            }
            let threshold = config.a_m * initial_acc[node];
            // Exit points are depth-ordered, so the first passing cut is
            // the cheapest (lowest per-batch latency).
            nspec
                .profile
                .exit_points()
                .into_iter()
                .find(|&cut| accuracy(node, cut) >= threshold)
                .unwrap_or(full)
        })
        .collect()
}

/// Steps 2–4 for pre-selected structures, stopping short of the pool
/// clamp: batch re-adjustment, inference/spare time and the
/// impact-proportional split into (budget, fit, batch) settings.
pub fn plan_time(
    app: &AppSpec,
    ridag: &RiDag,
    cuts: Vec<usize>,
    gpu: f64,
    requests: u32,
    config: &AdaInfConfig,
    profiler: &Profiler,
) -> TimePlan {
    let (mode, policy) = strategies(config);

    // 2. Batch re-adjustment for the chosen structure.
    let dag_cost = app.structure_cost(&cuts);
    let (batch, _) = profiler.optimal_batch_at(&dag_cost, requests.max(1), gpu);

    // 3. Inference time and spare time.
    let inference_time =
        profiler.inference_latency(&dag_cost, requests, batch, gpu, mode, policy);
    let spare = if config.retraining_enabled {
        app.slo.saturating_sub(inference_time)
    } else {
        SimDuration::ZERO
    };

    // 4. Impact-proportional split into retraining settings.
    let mut proto = Vec::new();
    if spare > SimDuration::ZERO && !ridag.entries.is_empty() {
        let total_impact = ridag.total_impact();
        let k = ridag.entries.len() as f64;
        for entry in &ridag.entries {
            let share = if config.use_impact_degrees && total_impact > 0.0 {
                entry.impact / total_impact
            } else {
                1.0 / k
            };
            let budget = spare.mul_f64(share);
            // Retraining always trains the full model; the setting's
            // batch size is chosen for the allocated fraction (a batch
            // past the space's saturation knee would waste the budget).
            let cost = app.nodes[entry.node].profile.full_cost();
            let batch = profiler.best_train_batch(&cost, gpu);
            let fit = profiler.samples_within(&cost, batch, gpu, budget);
            proto.push(ProtoSlice {
                node: entry.node,
                time: budget,
                fit,
                batch,
                epochs: config.retrain_epochs,
            });
        }
    }

    TimePlan {
        cuts,
        batch,
        inference_time,
        proto,
    }
}

/// Applies the live pool state to a plan's proto slices: each slice's
/// samples are capped at the node's remaining pool, and empty slices
/// are dropped. A slice whose node has no pool entry at all (pool state
/// shorter than the DAG — the state pool-exhaustion faults produce) is
/// dropped rather than indexed out of bounds.
pub fn clamp_slices(proto: &[ProtoSlice], pool_remaining: &[usize]) -> Vec<RetrainSlice> {
    proto
        .iter()
        .filter_map(|p| {
            let remaining = *pool_remaining.get(p.node)?;
            let samples = p.fit.min(remaining as u32);
            if samples == 0 {
                return None;
            }
            Some(RetrainSlice {
                node: p.node,
                time: p.time,
                samples,
                batch: p.batch,
                epochs: p.epochs,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drift_detect::DriftReport;
    use adainf_apps::catalog;

    fn surveillance_setup() -> (AppSpec, RiDag) {
        let app = catalog::video_surveillance(0);
        let report = DriftReport {
            impacted: vec![(1, 0.12), (2, 0.04)],
            final_s: 0.18,
            trace: Vec::new(),
        };
        let dag = RiDag::build(&app, &report);
        (app, dag)
    }

    /// An accuracy oracle where every cut retains 95 % of initial
    /// accuracy except the shallowest, which drops to 70 %.
    fn acc_fn(app: &AppSpec) -> impl Fn(usize, usize) -> f64 + '_ {
        move |node, cut| {
            let first = app.nodes[node].profile.exit_points()[0];
            if cut == first {
                0.70
            } else {
                0.95
            }
        }
    }

    /// The scheduler's time path for one job: the period's structure
    /// choice, the pool-independent plan, then the clamp against `pools`.
    fn allocate(
        app: &AppSpec,
        dag: &RiDag,
        gpu: f64,
        requests: u32,
        pools: &[usize],
        config: &AdaInfConfig,
    ) -> (TimePlan, Vec<RetrainSlice>) {
        let cuts = select_structures(app, dag, &acc_fn(app), &[0.95, 0.95, 0.95], config);
        let plan = plan_time(app, dag, cuts, gpu, requests, config, &Profiler::default());
        let slices = clamp_slices(&plan.proto, pools);
        (plan, slices)
    }

    #[test]
    fn unimpacted_models_use_full_structure() {
        let (app, dag) = surveillance_setup();
        let config = AdaInfConfig::default();
        let (plan, _) = allocate(&app, &dag, 0.3, 32, &[1000, 1000, 1000], &config);
        // Node 0 (not retrained) must use its full structure; impacted
        // nodes must pick an early exit clearing A_m (skipping the 70 %
        // shallowest exit).
        assert_eq!(plan.cuts[0], app.nodes[0].profile.full_cut());
        let exits1 = app.nodes[1].profile.exit_points();
        assert_eq!(plan.cuts[1], exits1[1], "should skip the failing exit");
        assert!(plan.cuts[1] < app.nodes[1].profile.full_cut());
    }

    #[test]
    fn spare_time_split_follows_impact() {
        let (app, dag) = surveillance_setup();
        let pools = [100_000, 100_000, 100_000];
        let (plan, slices) = allocate(&app, &dag, 0.3, 16, &pools, &AdaInfConfig::default());
        assert_eq!(slices.len(), 2);
        let s1 = slices.iter().find(|s| s.node == 1).unwrap();
        let s2 = slices.iter().find(|s| s.node == 2).unwrap();
        // Impact 0.12 vs 0.04 → 3:1 time split.
        let ratio = s1.time.as_millis_f64() / s2.time.as_millis_f64();
        assert!((ratio - 3.0).abs() < 0.05, "ratio {ratio}");
        // The budgets must fit inside the SLO spare time.
        let total: f64 = slices.iter().map(|s| s.time.as_millis_f64()).sum();
        assert!(
            total <= app.slo.as_millis_f64() - plan.inference_time.as_millis_f64() + 0.01
        );
    }

    #[test]
    fn variant_i_splits_evenly() {
        let (app, dag) = surveillance_setup();
        let pools = [100_000, 100_000, 100_000];
        let (_, slices) = allocate(&app, &dag, 0.3, 16, &pools, &AdaInfConfig::variant_i());
        let times: Vec<f64> = slices.iter().map(|s| s.time.as_millis_f64()).collect();
        assert!((times[0] - times[1]).abs() < 0.01, "{times:?}");
    }

    #[test]
    fn variant_e_uses_full_structures() {
        let (app, dag) = surveillance_setup();
        let config = AdaInfConfig::variant_e();
        let (plan, _) = allocate(&app, &dag, 0.3, 16, &[1000, 1000, 1000], &config);
        assert_eq!(plan.cuts, app.full_cuts());
    }

    #[test]
    fn pool_exhaustion_limits_samples() {
        let (app, dag) = surveillance_setup();
        let (plan, slices) = allocate(&app, &dag, 0.3, 16, &[5, 0, 0], &AdaInfConfig::default());
        // The plan budgets both impacted models, but their pools are
        // empty → no slices at all.
        assert_eq!(plan.proto.len(), 2);
        assert!(slices.is_empty(), "{slices:?}");
    }

    #[test]
    fn clamp_drops_slices_past_the_pool_vector() {
        // A proto slice whose node id exceeds the pool state (the shape
        // pool-exhaustion faults produce) is dropped, not a panic.
        let proto = vec![
            ProtoSlice {
                node: 0,
                time: SimDuration::from_millis(10),
                fit: 32,
                batch: 16,
                epochs: 1,
            },
            ProtoSlice {
                node: 5,
                time: SimDuration::from_millis(10),
                fit: 32,
                batch: 16,
                epochs: 1,
            },
        ];
        let slices = clamp_slices(&proto, &[20]);
        assert_eq!(slices.len(), 1);
        assert_eq!(slices[0].node, 0);
        assert_eq!(slices[0].samples, 20, "capped at the remaining pool");
    }

    #[test]
    fn no_retraining_when_disabled() {
        let (app, dag) = surveillance_setup();
        let config = AdaInfConfig::early_without_retraining();
        let (plan, slices) = allocate(&app, &dag, 0.3, 16, &[1000, 1000, 1000], &config);
        assert!(slices.is_empty());
        // Early exits still used (it is "Early"-w/o).
        assert!(plan.cuts[1] < app.nodes[1].profile.full_cut());
    }

    #[test]
    fn overloaded_job_gets_no_spare_time() {
        let (app, dag) = surveillance_setup();
        // A tiny fraction with a large job: inference exceeds the SLO.
        let config = AdaInfConfig::default();
        let (plan, slices) = allocate(&app, &dag, 0.005, 256, &[1000, 1000, 1000], &config);
        assert!(plan.inference_time > app.slo);
        assert!(slices.is_empty());
    }
}
