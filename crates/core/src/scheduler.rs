//! The AdaInf scheduler (§3.1 overview).
//!
//! At each period boundary: run drift detection per application, build
//! the retraining-inference DAGs, order every retraining pool by
//! deviation (most-deviating samples first) and refresh the per-structure
//! accuracy snapshots. At each session: divide GPU space among the jobs
//! (§3.3.1) and divide each job's SLO time between inference and
//! retraining (§3.3.2), emitting one [`JobPlan`] per job.
//!
//! The period hook's wall-clock, less the retraining-pool draws it
//! makes on the simulated world's behalf, is reported in the period
//! plan; the harness times each session call (Table 1 — the paper's
//! AdaInf takes ~4.2 s for the periodical DAG update and ~2 ms per
//! scheduling round).

use crate::cache::DecisionCache;
use crate::config::AdaInfConfig;
use crate::drift_cache::DriftCache;
use crate::drift_detect::{detect_drift_cached, DriftReport};
use crate::plan::{AppPeriodPlan, JobPlan, PeriodPlan, Scheduler, SessionCtx};
use crate::predict::{LatencyFeatures, LatencyPredictor, PredictedLatency};
use crate::profiler::Profiler;
use crate::ridag::RiDag;
use crate::space::{divide_space, divide_space_joint, JobDemand};
use crate::timealloc::{clamp_slices, plan_time, select_structures, strategies};
use adainf_apps::{AppRuntime, AppSpec};
use adainf_simcore::walltime::WallTimer;
use adainf_simcore::{Prng, SimDuration, SimTime};
use std::sync::Arc;

/// Per-application scheduling state snapshotted at the period boundary.
#[derive(Clone, Debug, Default)]
struct AppState {
    ridag: RiDag,
    /// `(cut, accuracy)` per node, refreshed each period from the `S`
    /// new training samples (§3.3.2).
    acc_table: Vec<Vec<(usize, f64)>>,
    initial_acc: Vec<f64>,
    /// Early-exit structure choice per node for this period (§3.3.2
    /// step 1). The selection depends only on period state, never on a
    /// session's GPU fraction or request count, so it is made once here.
    cuts: Vec<usize>,
    /// AdaInf/U: the DAG freezes at its first non-empty detection ("it
    /// creates the retraining-inference DAG once").
    frozen: bool,
}

/// The AdaInf scheduler.
pub struct AdaInfScheduler {
    config: AdaInfConfig,
    /// Shared, immutable profiling tables (the harness hands the same
    /// `Arc` to the world model — no per-construction clone).
    profiler: Arc<Profiler>,
    rng: Prng,
    specs: Arc<[AppSpec]>,
    states: Vec<AppState>,
    /// Drift reports of the latest detection round (Table 2).
    pub last_reports: Vec<DriftReport>,
    /// Cumulative wall-clock of period-boundary drift work: the
    /// artifact build plus the detection sweep, less the pool draws
    /// between the build's two phases.
    drift_wall_ns: u128,
    /// The same drift wall-clock, per period boundary in period order —
    /// the distribution behind the harness's p99 drift latency.
    drift_period_ns: Vec<u64>,
    /// Exact memoisation of the per-session searches (see [`crate::cache`]).
    cache: DecisionCache,
    /// Per-period drift artifact cache (see [`crate::drift_cache`]):
    /// detection and retraining-order selection share one feature/PCA/
    /// ranking computation per `(app, node, period, model version)`.
    drift: DriftCache,
    /// Largest resolved worker-thread count used by any boundary drift
    /// build this run (0 when no build had work). Bench rows record it so
    /// results document the host parallelism they were measured under.
    worker_threads: usize,
    /// Online per-app latency predictor (see [`crate::predict`]), built
    /// only when [`AdaInfConfig::predicted_latency`] is on.
    predictor: Option<LatencyPredictor>,
}

impl AdaInfScheduler {
    /// Creates the scheduler for a fixed application set. `profiler` and
    /// `specs` accept owned values or pre-shared `Arc`s.
    pub fn new(
        config: AdaInfConfig,
        profiler: impl Into<Arc<Profiler>>,
        specs: impl Into<Arc<[AppSpec]>>,
        seed: u64,
    ) -> Self {
        let specs = specs.into();
        let n = specs.len();
        let predictor = config
            .predicted_latency
            .then(|| LatencyPredictor::new(n, config.predictor_warmup as u64));
        AdaInfScheduler {
            config,
            profiler: profiler.into(),
            // simlint: allow(prng-stream-discipline) — the scheduler's ctor IS its seed boundary: callers hand it the run seed, and the xor-label keeps its stream disjoint from the harness's
            rng: Prng::new(seed ^ 0x000A_DA1F),
            specs,
            states: vec![AppState::default(); n],
            last_reports: Vec::new(),
            drift_wall_ns: 0,
            drift_period_ns: Vec::new(),
            cache: DecisionCache::default(),
            drift: DriftCache::default(),
            worker_threads: 0,
            predictor,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &AdaInfConfig {
        &self.config
    }

    /// `(hits, misses)` of the drift artifact cache so far.
    pub fn drift_cache_stats(&self) -> (u64, u64) {
        (self.drift.hits, self.drift.misses)
    }

    /// Refreshes the per-node `(cut, accuracy)` tables and initial
    /// accuracies. Reads only model weights and evaluation sets (and
    /// writes only the runtime's accuracy cache) — disjoint from
    /// everything the drift build and sweep touch, so `on_period_start`
    /// can run it ahead of them, outside the drift clock, without
    /// changing any result.
    fn refresh_accuracy_values(&mut self, apps: &mut [AppRuntime]) {
        for (a, rt) in apps.iter_mut().enumerate() {
            let mut table = Vec::with_capacity(rt.spec.nodes.len());
            let mut init = Vec::with_capacity(rt.spec.nodes.len());
            for node in 0..rt.spec.nodes.len() {
                let cuts = rt.spec.nodes[node].profile.exit_points();
                let entries: Vec<(usize, f64)> = cuts
                    .into_iter()
                    .map(|cut| (cut, rt.accuracy(node, cut)))
                    .collect();
                table.push(entries);
                init.push(rt.initial_accuracy(node));
            }
            self.states[a].acc_table = table;
            self.states[a].initial_acc = init;
        }
    }

    /// With the tables refreshed and this period's RI-DAGs built, makes
    /// the period's structure choice per application (it is
    /// session-invariant, §3.3.2 step 1). Must run after the drift
    /// sweep — the selection reads the new DAGs.
    fn select_period_structures(&mut self) {
        for a in 0..self.states.len() {
            let state = &self.states[a];
            let acc_table = &state.acc_table;
            let acc = |node: usize, cut: usize| -> f64 {
                acc_table
                    .get(node)
                    .and_then(|entries| entries.iter().find(|(c, _)| *c == cut).map(|(_, a)| *a))
                    .unwrap_or(0.0)
            };
            let cuts = select_structures(
                &self.specs[a],
                &state.ridag,
                &acc,
                &state.initial_acc,
                &self.config,
            );
            self.states[a].cuts = cuts;
        }
    }
}

impl Scheduler for AdaInfScheduler {
    fn name(&self) -> String {
        self.config.variant_name().to_string()
    }

    fn cache_stats(&self) -> (u64, u64, u64) {
        self.cache.stats()
    }

    fn drift_overhead_ns(&self) -> u128 {
        self.drift_wall_ns
    }

    fn drift_period_ns(&self) -> &[u64] {
        &self.drift_period_ns
    }

    fn worker_threads(&self) -> Option<usize> {
        (self.worker_threads > 0).then_some(self.worker_threads)
    }

    fn predictor_enabled(&self) -> bool {
        self.predictor.is_some()
    }

    fn predict_latency(
        &self,
        app: usize,
        feats: &LatencyFeatures,
    ) -> Option<PredictedLatency> {
        self.predictor.as_ref()?.predict(app, feats)
    }

    fn observe_latency(
        &mut self,
        app: usize,
        feats: &LatencyFeatures,
        per_batch_us: f64,
        fixed_us: f64,
    ) {
        if let Some(p) = self.predictor.as_mut() {
            p.observe(app, feats, per_batch_us, fixed_us);
        }
    }

    fn on_period_start(
        &mut self,
        apps: &mut [AppRuntime],
        _server: &adainf_gpusim::GpuSpec,
        _now: SimTime,
    ) -> PeriodPlan {
        let wall = WallTimer::start();
        self.last_reports.clear();
        // Time plans are valid only for one period's DAGs and accuracy
        // snapshots, and nothing below looks one up: drop the finished
        // period's now, before the drift build allocates.
        self.cache.start_period();

        self.refresh_accuracy_values(apps);

        // One drift clock over the artifact build and the detection
        // sweep, less the pool draws (the simulated world making data,
        // not scheduling work: they are left out of the period overhead
        // too).
        let drift_wall = WallTimer::start();
        let AdaInfScheduler {
            config,
            rng,
            states,
            last_reports,
            drift,
            worker_threads,
            ..
        } = &mut *self;
        // Build every stale artifact set up front. The job set mirrors
        // exactly what the sweep below reads — every node of apps that
        // run detection, and only the frozen RI-DAG's retraining nodes
        // otherwise — so every lookup in the sweep hits.
        let mut jobs: Vec<(usize, usize)> = Vec::new();
        for (a, rt) in apps.iter().enumerate() {
            let update_dag = config.update_dag_each_period || !states[a].frozen;
            for node in 0..rt.spec.nodes.len() {
                if update_dag || states[a].ridag.retrains(node) {
                    jobs.push((a, node));
                }
            }
        }
        // The build runs in two phases, so that no model's old training
        // set and new pool are held at once: fit on the old sets, free
        // them all, draw the stale pools, rank the pools and held-out
        // sets against the fits.
        let fits = drift.fit_stale(
            &jobs,
            apps,
            config.pca_components,
            rng,
            config.drift_workers,
        );
        for rt in apps.iter_mut() {
            rt.free_old_samples();
        }
        let draw_wall = WallTimer::start();
        for (a, node) in fits.slots() {
            apps[a].pools[node].draw();
        }
        let draw_ns = draw_wall.elapsed_nanos();
        let width = drift.rank_stale(fits, apps, config.drift_workers);
        *worker_threads = (*worker_threads).max(width);

        for (a, rt) in apps.iter_mut().enumerate() {
            // AdaInf/U builds each application's DAG once — frozen at
            // the first period in which drift is detected at all.
            let update_dag = config.update_dag_each_period || !states[a].frozen;
            if update_dag {
                let report = detect_drift_cached(rt, a, config, drift, rng);
                states[a].ridag = RiDag::build(&rt.spec, &report);
                if !report.impacted.is_empty() {
                    states[a].frozen = true;
                }
                last_reports.push(report);
            }
            // Order every retraining pool by deviation so retraining
            // consumes the most-deviating samples first (§3.3.2). This
            // applies even for /U — sample selection is not part of
            // the DAG-update ablation. The order comes from the same
            // cached artifacts the detector just read.
            for node in 0..rt.spec.nodes.len() {
                if states[a].ridag.retrains(node) {
                    let order = &drift
                        .artifacts(a, rt, node, config.pca_components, rng)
                        .retrain;
                    rt.pools[node].set_order(order);
                }
            }
        }
        // The sweep and `set_order` were the artifacts' and the old
        // held-out sets' last readers: keep only each entry's warm-start
        // basis for the next boundary.
        drift.retire();
        for rt in apps.iter_mut() {
            rt.free_ref_samples();
        }
        let drift_ns = drift_wall.elapsed_nanos().saturating_sub(draw_ns);
        self.drift_wall_ns += drift_ns;
        self.drift_period_ns.push(drift_ns as u64);
        self.select_period_structures();

        PeriodPlan {
            apps: self
                .states
                .iter()
                .map(|s| AppPeriodPlan {
                    ri_entries: s.ridag.entries.clone(),
                })
                .collect(),
            bulk: Vec::new(),
            overhead: SimDuration::from_millis_f64(
                wall.elapsed_nanos().saturating_sub(draw_ns) as f64 / 1e6,
            ),
            edge_cloud_bytes: 0,
        }
    }

    fn on_session(&mut self, ctx: &SessionCtx<'_>) -> Vec<JobPlan> {
        let demands: Vec<JobDemand> = ctx
            .predicted
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(app, &n)| JobDemand {
                app,
                requests: n,
                cost: self.specs[app].full_structure_cost(),
                slo: self.specs[app].slo,
            })
            .collect();
        if demands.is_empty() {
            return Vec::new();
        }

        // §6 extension: serve low-rate applications on the host CPU when
        // that still meets their SLO, freeing GPU space.
        let cpu_jobs: Vec<usize> = if self.config.cpu_offload_threshold > 0 {
            demands
                .iter()
                .filter(|j| {
                    j.requests <= self.config.cpu_offload_threshold
                        && self.profiler.latency.cpu_inference(&j.cost, j.requests) <= j.slo
                })
                .map(|j| j.app)
                .collect()
        } else {
            Vec::new()
        };
        let gpu_demands: Vec<JobDemand> = demands
            .iter()
            .filter(|j| !cpu_jobs.contains(&j.app))
            .cloned()
            .collect();

        let mut division = if self.config.joint_batch_space {
            divide_space_joint(
                &gpu_demands,
                ctx.server.total_space(),
                ctx.avg_job_time,
                &self.profiler,
                &mut self.cache,
            )
        } else {
            divide_space(
                &gpu_demands,
                ctx.server.total_space(),
                ctx.avg_job_time,
                self.config.slo_aware_space,
                &self.profiler,
                &mut self.cache,
            )
        };
        // Never over-commit the free capacity: scale down proportionally.
        let wanted: f64 = division.iter().map(|d| d.gpu).sum();
        if wanted > ctx.free_gpus && wanted > 0.0 {
            let k = (ctx.free_gpus / wanted).max(0.0);
            for d in &mut division {
                // Floor onto the centi-GPU allocation grid: the scale
                // factor is a fresh f64 every session (free space moves
                // with in-flight releases), and an unsnapped product
                // would hand the plan cache one novel key per session.
                // Flooring keeps the squeezed sum within the free space.
                d.gpu = ((d.gpu * k * 100.0).floor() / 100.0).max(1e-3);
            }
        }

        let (mode, policy) = strategies(&self.config);
        // Disjoint field borrows: the plan-cache closure reads specs and
        // states while the cache is written.
        let AdaInfScheduler {
            config,
            profiler,
            specs,
            states,
            cache,
            ..
        } = self;
        let mut plans: Vec<JobPlan> = division
            .iter()
            .zip(&gpu_demands)
            .map(|(d, job)| {
                let state = &states[job.app];
                let spec = &specs[job.app];
                // The pool-independent plan is memoised; only the clamp
                // against the live pools runs per session.
                let plan = cache.plan(job.app, job.requests, d.gpu, || {
                    plan_time(
                        spec,
                        &state.ridag,
                        state.cuts.clone(),
                        d.gpu,
                        job.requests,
                        config,
                        profiler,
                    )
                });
                JobPlan {
                    app: job.app,
                    gpu: d.gpu,
                    batch: plan.batch,
                    cuts: plan.cuts.clone(),
                    retrain: clamp_slices(&plan.proto, &ctx.pool_remaining[job.app]),
                    exec: mode,
                    eviction: policy,
                    serial: false,
                    cpu: false,
                }
            })
            .collect();
        for app in cpu_jobs {
            plans.push(JobPlan {
                app,
                gpu: 0.0,
                batch: 1,
                cuts: self.specs[app].full_cuts(),
                retrain: Vec::new(),
                exec: mode,
                eviction: policy,
                serial: false,
                cpu: true,
            });
        }
        plans
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adainf_apps::catalog;
    use adainf_driftgen::workload::ArrivalConfig;
    use adainf_gpusim::GpuSpec;

    fn setup(n_apps: usize) -> (AdaInfScheduler, Vec<AppRuntime>, GpuSpec) {
        let root = Prng::new(55);
        let specs = catalog::apps_for_count(n_apps);
        let apps: Vec<AppRuntime> = specs
            .iter()
            .cloned()
            .map(|s| AppRuntime::new(s, ArrivalConfig::default(), 400, &root))
            .collect();
        let sched = AdaInfScheduler::new(AdaInfConfig::default(), Profiler::default(), specs, 7);
        (sched, apps, GpuSpec::with_gpus(4))
    }

    #[test]
    fn period_plan_contains_ri_dags() {
        let (mut sched, mut apps, server) = setup(2);
        for rt in &mut apps {
            for _ in 0..3 {
                rt.advance_period();
            }
        }
        let plan = sched.on_period_start(&mut apps, &server, SimTime::from_secs(150));
        assert_eq!(plan.apps.len(), 2);
        assert!(plan.bulk.is_empty());
        assert_eq!(plan.edge_cloud_bytes, 0);
        // At least one model somewhere should be flagged after 3 drifted
        // periods (app 0 has a severe node).
        let total: usize = plan.apps.iter().map(|a| a.ri_entries.len()).sum();
        assert!(total >= 1, "no drift detected at all");
    }

    #[test]
    fn session_plans_fit_capacity_and_slo() {
        let (mut sched, mut apps, server) = setup(3);
        for rt in &mut apps {
            rt.advance_period();
        }
        sched.on_period_start(&mut apps, &server, SimTime::from_secs(50));
        let predicted = vec![16u32, 32, 8];
        let pools: Vec<Vec<usize>> = apps
            .iter()
            .map(|rt| rt.pools.iter().map(|p| p.remaining()).collect())
            .collect();
        let ctx = SessionCtx {
            now: SimTime::from_secs(50),
            predicted: &predicted,
            server: &server,
            free_gpus: 4.0,
            avg_job_time: SimDuration::from_millis(100),
            pool_remaining: &pools,
        };
        let plans = sched.on_session(&ctx);
        assert_eq!(plans.len(), 3);
        let total_gpu: f64 = plans.iter().map(|p| p.gpu).sum();
        assert!(total_gpu <= 4.0 + 1e-9, "over-committed {total_gpu}");
        for p in &plans {
            assert!(p.batch >= 1);
            assert_eq!(p.cuts.len(), apps[p.app].spec.nodes.len());
            // Slice budgets must fit inside the SLO.
            let retrain_ms: f64 = p.retrain.iter().map(|s| s.time.as_millis_f64()).sum();
            assert!(retrain_ms <= apps[p.app].spec.slo.as_millis_f64() + 1e-6);
        }
    }

    #[test]
    fn capacity_squeeze_scales_allocations() {
        let (mut sched, mut apps, server) = setup(2);
        sched.on_period_start(&mut apps, &server, SimTime::ZERO);
        let predicted = vec![32u32, 32];
        let pools: Vec<Vec<usize>> = apps
            .iter()
            .map(|rt| rt.pools.iter().map(|p| p.remaining()).collect())
            .collect();
        let mut ctx = SessionCtx {
            now: SimTime::ZERO,
            predicted: &predicted,
            server: &server,
            free_gpus: 4.0,
            avg_job_time: SimDuration::from_millis(50),
            pool_remaining: &pools,
        };
        let roomy: f64 = sched.on_session(&ctx).iter().map(|p| p.gpu).sum();
        ctx.free_gpus = 0.05;
        let squeezed: f64 = sched.on_session(&ctx).iter().map(|p| p.gpu).sum();
        assert!(squeezed <= 0.05 + 1e-6);
        assert!(squeezed < roomy);
    }

    #[test]
    fn no_requests_no_plans() {
        let (mut sched, mut apps, server) = setup(1);
        sched.on_period_start(&mut apps, &server, SimTime::ZERO);
        let predicted = vec![0u32];
        let pools = vec![vec![0usize; 3]];
        let ctx = SessionCtx {
            now: SimTime::ZERO,
            predicted: &predicted,
            server: &server,
            free_gpus: 4.0,
            avg_job_time: SimDuration::from_millis(50),
            pool_remaining: &pools,
        };
        assert!(sched.on_session(&ctx).is_empty());
    }

    #[test]
    fn cpu_offload_serves_small_jobs_on_cpu() {
        let (_, mut apps, server) = setup(2);
        let specs: Vec<AppSpec> = apps.iter().map(|a| a.spec.clone()).collect();
        let config = AdaInfConfig {
            cpu_offload_threshold: 4,
            ..AdaInfConfig::default()
        };
        let mut sched = AdaInfScheduler::new(config, Profiler::default(), specs, 7);
        sched.on_period_start(&mut apps, &server, SimTime::ZERO);
        let predicted = vec![2u32, 48];
        let pools: Vec<Vec<usize>> = apps
            .iter()
            .map(|rt| rt.pools.iter().map(|p| p.remaining()).collect())
            .collect();
        let ctx = SessionCtx {
            now: SimTime::ZERO,
            predicted: &predicted,
            server: &server,
            free_gpus: 4.0,
            avg_job_time: SimDuration::from_millis(60),
            pool_remaining: &pools,
        };
        let plans = sched.on_session(&ctx);
        assert_eq!(plans.len(), 2);
        let small = plans.iter().find(|p| p.app == 0).unwrap();
        let big = plans.iter().find(|p| p.app == 1).unwrap();
        assert!(small.cpu, "2-request job should go to the CPU");
        assert_eq!(small.gpu, 0.0);
        assert!(small.retrain.is_empty());
        assert!(!big.cpu, "48-request job stays on the GPU");
        assert!(big.gpu > 0.0);
    }

    #[test]
    fn joint_batch_space_produces_valid_plans() {
        let (_, mut apps, server) = setup(2);
        let specs: Vec<AppSpec> = apps.iter().map(|a| a.spec.clone()).collect();
        let config = AdaInfConfig {
            joint_batch_space: true,
            ..AdaInfConfig::default()
        };
        let mut sched = AdaInfScheduler::new(config, Profiler::default(), specs, 7);
        sched.on_period_start(&mut apps, &server, SimTime::ZERO);
        let predicted = vec![32u32, 32];
        let pools: Vec<Vec<usize>> = apps
            .iter()
            .map(|rt| rt.pools.iter().map(|p| p.remaining()).collect())
            .collect();
        let ctx = SessionCtx {
            now: SimTime::ZERO,
            predicted: &predicted,
            server: &server,
            free_gpus: 4.0,
            avg_job_time: SimDuration::from_millis(60),
            pool_remaining: &pools,
        };
        let plans = sched.on_session(&ctx);
        assert_eq!(plans.len(), 2);
        for p in &plans {
            assert!(p.gpu > 0.0 && p.gpu <= 1.0);
            assert!(p.batch >= 1);
        }
    }

    /// Every plan served from the warm decision cache equals the plan
    /// recomputed with the cache swapped for an empty one: 12 contexts,
    /// each recurring 5 times in each of 3 periods (180 sessions), for
    /// both space dividers, with half the sessions squeezed below demand
    /// and a third of app 0's counts past the cache's dense bound (those
    /// compute uncached, warm or cold).
    #[test]
    fn warm_cache_plans_equal_cold_recomputes() {
        const SQUEEZED: f64 = 0.3;
        const FAR: u32 = crate::cache::DENSE_REQUESTS + 9;
        for joint_batch_space in [false, true] {
            let (_, mut apps, server) = setup(3);
            let specs: Vec<AppSpec> = apps.iter().map(|a| a.spec.clone()).collect();
            let config = AdaInfConfig {
                joint_batch_space,
                ..AdaInfConfig::default()
            };
            let mut sched = AdaInfScheduler::new(config, Profiler::default(), specs, 7);
            for period in 1..=3u64 {
                for rt in &mut apps {
                    rt.advance_period();
                }
                let now = SimTime::from_secs(50 * period);
                sched.on_period_start(&mut apps, &server, now);
                let pools: Vec<Vec<usize>> = apps
                    .iter()
                    .map(|rt| rt.pools.iter().map(|p| p.remaining()).collect())
                    .collect();
                let (hits_before, ..) = sched.cache.stats();
                for i in 0..60usize {
                    let mut predicted: Vec<u32> =
                        (0..3).map(|a| [8, 16, 32][(i + a) % 3]).collect();
                    predicted[0] = [8, 16, FAR][i % 3];
                    let free_gpus = [4.0, SQUEEZED][i % 2];
                    let ctx = SessionCtx {
                        now,
                        predicted: &predicted,
                        server: &server,
                        free_gpus,
                        avg_job_time: SimDuration::from_millis([40, 60][(i / 2) % 2]),
                        pool_remaining: &pools,
                    };
                    let warm = sched.on_session(&ctx);
                    let warm_cache = std::mem::take(&mut sched.cache);
                    let cold = sched.on_session(&ctx);
                    sched.cache = warm_cache;
                    // Debug renders f64 in shortest round-trip form, so
                    // equal renderings are bit-equal plans.
                    assert_eq!(
                        format!("{warm:?}"),
                        format!("{cold:?}"),
                        "joint {joint_batch_space}, period {period}, session {i}"
                    );
                    // Roomy sessions want more than the squeezed free
                    // space, so the squeezed ones ran the scale-down.
                    let total: f64 = warm.iter().map(|p| p.gpu).sum();
                    if free_gpus == SQUEEZED {
                        assert!(total <= SQUEEZED + 1e-9, "squeezed total {total}");
                    } else {
                        assert!(total > SQUEEZED, "roomy total {total}");
                    }
                }
                let (hits, ..) = sched.cache.stats();
                assert!(
                    hits > hits_before,
                    "period {period}: the warm cache never hit"
                );
            }
        }
    }

    /// The serving loop waits out the whole boundary build, so the drift
    /// clock it stalls on is the sum of the per-period samples.
    #[test]
    fn drift_clock_is_the_serving_stall() {
        let (_, mut apps, server) = setup(2);
        let specs: Vec<AppSpec> = apps.iter().map(|a| a.spec.clone()).collect();
        let config = AdaInfConfig {
            drift_workers: 1,
            ..AdaInfConfig::default()
        };
        let mut sched = AdaInfScheduler::new(config, Profiler::default(), specs, 7);
        for period in 1..=2u64 {
            for rt in &mut apps {
                rt.advance_period();
            }
            sched.on_period_start(&mut apps, &server, SimTime::from_secs(50 * period));
        }
        assert_eq!(sched.drift_period_ns().len(), 2);
        let per_period: u64 = sched.drift_period_ns().iter().sum();
        assert!(per_period > 0);
        assert_eq!(sched.drift_overhead_ns(), u128::from(per_period));
        assert_eq!(sched.worker_threads(), Some(1));
    }

    /// Each boundary retires every drift entry once the sweep and
    /// `set_order` have read it, and retiring moves no lookup: over four
    /// boundaries, with and without AdaInf/U's frozen DAG (whose later
    /// boundaries rebuild only the retraining nodes), the cache reports
    /// the counts it did when entries stayed live all period.
    #[test]
    fn period_start_retires_every_drift_entry() {
        let cases = [
            (
                AdaInfConfig::default(),
                [(8, 7), (16, 14), (26, 21), (37, 28)],
            ),
            (
                AdaInfConfig::variant_u(),
                [(8, 7), (13, 12), (19, 17), (24, 21)],
            ),
        ];
        for (config, want) in cases {
            let (_, mut apps, server) = setup(3);
            let specs: Vec<AppSpec> = apps.iter().map(|a| a.spec.clone()).collect();
            let name = config.variant_name();
            let mut sched = AdaInfScheduler::new(config, Profiler::default(), specs, 7);
            let mut stats = Vec::new();
            for period in 0..4u64 {
                if period > 0 {
                    for rt in &mut apps {
                        rt.advance_period();
                    }
                }
                sched.on_period_start(&mut apps, &server, SimTime::from_secs(50 * period));
                for (a, rt) in apps.iter().enumerate() {
                    for node in 0..rt.spec.nodes.len() {
                        assert!(
                            sched.drift.get(a, node).is_none(),
                            "{name} period {period}: ({a}, {node}) still live"
                        );
                    }
                }
                stats.push(sched.drift_cache_stats());
            }
            assert_eq!(stats, want, "{name}");
        }
    }

    /// Each boundary frees every old training and held-out set, and
    /// draws exactly the pools the drift build read: all of them by
    /// default, only the frozen DAG's retraining nodes' under AdaInf/U,
    /// whose other pools stay undrawn.
    #[test]
    fn period_start_frees_old_sets_and_draws_only_read_pools() {
        for config in [AdaInfConfig::default(), AdaInfConfig::variant_u()] {
            let (_, mut apps, server) = setup(3);
            let specs: Vec<AppSpec> = apps.iter().map(|a| a.spec.clone()).collect();
            let name = config.variant_name();
            let mut sched = AdaInfScheduler::new(config, Profiler::default(), specs, 7);
            let mut undrawn = 0;
            for period in 0..4u64 {
                if period > 0 {
                    for rt in &mut apps {
                        rt.advance_period();
                    }
                }
                assert!(apps.iter().all(|rt| rt.pools.iter().all(|p| !p.is_drawn())));
                let read: Vec<Vec<bool>> = sched
                    .states
                    .iter()
                    .zip(&apps)
                    .map(|(state, rt)| {
                        let update_dag = sched.config.update_dag_each_period || !state.frozen;
                        (0..rt.spec.nodes.len())
                            .map(|node| update_dag || state.ridag.retrains(node))
                            .collect()
                    })
                    .collect();
                sched.on_period_start(&mut apps, &server, SimTime::from_secs(50 * period));
                for (a, (rt, read)) in apps.iter().zip(&read).enumerate() {
                    for (node, &read) in read.iter().enumerate() {
                        let at = format!("{name} period {period}: ({a}, {node})");
                        assert!(!rt.has_old_samples(node), "{at} old training set held");
                        assert!(!rt.has_ref_samples(node), "{at} old held-out set held");
                        assert_eq!(rt.pools[node].is_drawn(), read, "{at}");
                        undrawn += usize::from(!read);
                    }
                }
            }
            assert_eq!(
                undrawn > 0,
                name == "AdaInf/U",
                "{name}: {undrawn} undrawn pools"
            );
        }
    }

    #[test]
    fn variant_u_keeps_first_dag() {
        let (_, mut apps, server) = setup(1);
        let specs = vec![apps[0].spec.clone()];
        let mut sched =
            AdaInfScheduler::new(AdaInfConfig::variant_u(), Profiler::default(), specs, 7);
        for _ in 0..2 {
            apps[0].advance_period();
        }
        let p1 = sched.on_period_start(&mut apps, &server, SimTime::from_secs(100));
        let first: Vec<_> = p1.apps[0].ri_entries.clone();
        for _ in 0..3 {
            apps[0].advance_period();
        }
        let p2 = sched.on_period_start(&mut apps, &server, SimTime::from_secs(250));
        assert_eq!(
            first, p2.apps[0].ri_entries,
            "variant U must not update the DAG"
        );
    }
}
