//! The AdaInf scheduler (§3.1 overview).
//!
//! At each period boundary: run drift detection per application, build
//! the retraining-inference DAGs, order every retraining pool by
//! deviation (most-deviating samples first) and refresh the per-structure
//! accuracy snapshots. At each session: divide GPU space among the jobs
//! (§3.3.1) and divide each job's SLO time between inference and
//! retraining (§3.3.2), emitting one [`JobPlan`] per job.
//!
//! Planning overheads are measured with wall-clock timers and reported in
//! the period plan (Table 1 — the paper's AdaInf takes ~4.2 s for the
//! periodical DAG update and ~2 ms per scheduling round).

use crate::cache::DecisionCache;
use crate::config::AdaInfConfig;
use crate::drift_cache::{BuiltArtifacts, DetectScratch, DriftCache, DriftSnapshot};
use crate::drift_detect::{detect_drift_cached, DriftReport};
use crate::incremental::RetrainProgress;
use crate::plan::{AppPeriodPlan, JobPlan, PeriodPlan, Scheduler, SessionCtx};
use crate::predict::{LatencyFeatures, LatencyPredictor, PredictedLatency};
use crate::profiler::Profiler;
use crate::ridag::RiDag;
use crate::space::{divide_space, divide_space_joint, JobDemand};
use crate::timealloc::{clamp_slices, plan_time, select_structures, strategies};
use adainf_apps::{AppRuntime, AppSpec};
use adainf_simcore::parallel;
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
    /// Live incremental-retraining progress (planned slices; the harness
    /// holds ground truth for actually consumed samples).
    pub progress: RetrainProgress,
    /// Cumulative wall-clock spent in session scheduling, and calls.
    sched_wall_ns: u128,
    sched_calls: u64,
    /// Cumulative wall-clock of period-boundary drift **work** —
    /// caller-thread compute plus background-worker build time.
    drift_wall_ns: u128,
    /// The same drift work wall-clock, per period boundary in period
    /// order — the distribution behind the harness's p99 drift latency.
    drift_period_ns: Vec<u64>,
    /// Cumulative wall-clock the serving loop was actually **stalled**
    /// by drift work — the critical path: snapshot + spawn, the
    /// detection sweep's own compute, and time blocked joining
    /// background builds. The gap between this and `drift_wall_ns` is
    /// the work the background stage hid from serving.
    drift_blocked_ns: u128,
    /// Exact memoisation of the per-session searches (see [`crate::cache`]).
    cache: DecisionCache,
    /// Per-period drift artifact cache (see [`crate::drift_cache`]):
    /// detection and retraining-order selection share one feature/PCA/
    /// ranking computation per `(app, node, period, model version)`.
    drift: DriftCache,
    /// Largest resolved worker-thread count used by any background drift
    /// stage this run (0 when no stage had work). Bench rows record it so
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
            progress: RetrainProgress::new(),
            sched_wall_ns: 0,
            sched_calls: 0,
            drift_wall_ns: 0,
            drift_period_ns: Vec::new(),
            drift_blocked_ns: 0,
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

    /// Mean measured wall-clock per session scheduling call.
    pub fn mean_sched_wall(&self) -> std::time::Duration {
        if self.sched_calls == 0 {
            return std::time::Duration::ZERO;
        }
        std::time::Duration::from_nanos((self.sched_wall_ns / self.sched_calls as u128) as u64)
    }

    /// `(hits, misses)` of the drift artifact cache so far.
    pub fn drift_cache_stats(&self) -> (u64, u64) {
        (self.drift.hits, self.drift.misses)
    }

    /// Refreshes the per-node `(cut, accuracy)` tables and initial
    /// accuracies. Reads only model weights and evaluation sets (and
    /// writes only the runtime's accuracy cache) — disjoint from
    /// everything the drift sweep touches, which is what lets
    /// `on_period_start` run this in the window between spawning the
    /// background builds and joining them without changing any result.
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

    fn drift_blocked_ns(&self) -> u128 {
        self.drift_blocked_ns
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

        // Three drift wall-clock components, accumulated separately so
        // the metrics can tell total *work* apart from the serving
        // loop's *stall*:
        //   caller  — time this thread spent inside the drift sections
        //             (snapshot + spawn + the sweep, waits included);
        //   built   — background workers' build time;
        //   blocked — the subset of `caller` spent waiting on joins.
        // Total work = caller − blocked + built; critical path = caller.
        let mut drift_caller_ns: u128 = 0;
        let mut drift_built_ns: u128 = 0;
        let mut drift_blocked_ns: u128 = 0;

        // Stage 1: snapshot the stale artifact inputs at their
        // (pool generation, model version) keys and launch the builds on
        // a detached background stage. The job set mirrors exactly what
        // the sweep below reads — every node of apps that run detection,
        // and only the frozen RI-DAG's retraining nodes otherwise.
        let seg = WallTimer::start();
        let (mut stage, slots) = {
            let AdaInfScheduler {
                config,
                rng,
                states,
                drift,
                worker_threads,
                ..
            } = &mut *self;
            let mut jobs: Vec<(usize, usize)> = Vec::new();
            for (a, rt) in apps.iter().enumerate() {
                let update_dag = config.update_dag_each_period || !states[a].frozen;
                for node in 0..rt.spec.nodes.len() {
                    if update_dag || states[a].ridag.retrains(node) {
                        jobs.push((a, node));
                    }
                }
            }
            let snaps = drift.snapshot_stale(&jobs, apps, rng);
            if !snaps.is_empty() {
                *worker_threads = (*worker_threads)
                    .max(parallel::resolved_threads(snaps.len(), config.drift_workers).max(1));
            }
            let slots: Vec<(usize, usize)> = snaps.iter().map(|s| s.slot).collect();
            let pca_components = config.pca_components;
            let stage = parallel::spawn_background(
                snaps,
                config.drift_workers,
                DetectScratch::default,
                move |_, snap: DriftSnapshot, scratch: &mut DetectScratch| {
                    let t = WallTimer::start();
                    let built = snap.build(pca_components, scratch);
                    (built, t.elapsed_nanos() as u64)
                },
            );
            (stage, slots)
        };
        drift_caller_ns += seg.elapsed_nanos();

        // Overlap window: the accuracy-table value refresh reads only
        // model weights and evaluation sets — independent of every build
        // in flight — so it fills the caller's wait.
        self.refresh_accuracy_values(apps);

        // Stage 2: the detection sweep, joining each application's
        // background builds right before it needs them (first artifact
        // consumption). Inserts happen in job order, so cache counters
        // and warm chains do not depend on the pool width.
        let seg = WallTimer::start();
        {
            let AdaInfScheduler {
                config,
                rng,
                states,
                last_reports,
                drift,
                ..
            } = &mut *self;
            let mut next_slot = 0usize;
            for (a, rt) in apps.iter_mut().enumerate() {
                while next_slot < slots.len() && slots[next_slot].0 == a {
                    let waited = WallTimer::start();
                    let (built, build_ns): (BuiltArtifacts, u64) = stage.take(next_slot);
                    drift_blocked_ns += waited.elapsed_nanos();
                    drift_built_ns += u128::from(build_ns);
                    drift.insert_built(built);
                    next_slot += 1;
                }
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
            // Slots are in application order and the sweep visits every
            // application, so every build is joined by now; finish()
            // asserts each snapshot was built and joined exactly once.
            stage.finish();
        }
        drift_caller_ns += seg.elapsed_nanos();
        let drift_work_ns = drift_caller_ns - drift_blocked_ns + drift_built_ns;
        self.drift_wall_ns += drift_work_ns;
        self.drift_period_ns.push(drift_work_ns as u64);
        self.drift_blocked_ns += drift_caller_ns;
        self.select_period_structures();
        // Time plans are valid only for this period's DAGs and accuracy
        // snapshots — drop the stale ones.
        self.cache.start_period();
        // Register this period's retraining nodes with the progress
        // tracker.
        let registrations: Vec<((usize, usize), u32)> = self
            .states
            .iter()
            .enumerate()
            .flat_map(|(a, s)| {
                s.ridag
                    .entries
                    .iter()
                    .map(move |e| ((a, e.node), 0u32))
                    .collect::<Vec<_>>()
            })
            .collect();
        let mut regs = registrations;
        for ((a, node), pool) in regs.iter_mut() {
            *pool = apps[*a].pools[*node].total() as u32;
        }
        self.progress.start_period(regs);

        PeriodPlan {
            apps: self
                .states
                .iter()
                .map(|s| AppPeriodPlan {
                    ri_entries: s.ridag.entries.clone(),
                })
                .collect(),
            bulk: Vec::new(),
            overhead: SimDuration::from_millis_f64(wall.elapsed_ms()),
            edge_cloud_bytes: 0,
        }
    }

    fn on_session(&mut self, ctx: &SessionCtx<'_>) -> Vec<JobPlan> {
        let wall = WallTimer::start();
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
        // states while the cache and progress tracker are written.
        let AdaInfScheduler {
            config,
            profiler,
            specs,
            states,
            cache,
            progress,
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
                let slices = clamp_slices(&plan.proto, &ctx.pool_remaining[job.app]);
                for s in &slices {
                    progress.record_slice(
                        job.app,
                        s.node,
                        s.samples,
                        s.time.mul_f64(d.gpu),
                        ctx.now,
                    );
                }
                JobPlan {
                    app: job.app,
                    gpu: d.gpu,
                    batch: plan.batch,
                    cuts: plan.cuts.clone(),
                    retrain: slices,
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

        self.sched_wall_ns += wall.elapsed_nanos();
        self.sched_calls += 1;
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
        assert!(sched.mean_sched_wall().as_micros() < 50_000);
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
    /// both space dividers and with half the sessions squeezed below
    /// demand.
    #[test]
    fn warm_cache_plans_equal_cold_recomputes() {
        const SQUEEZED: f64 = 0.3;
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
                    let predicted: Vec<u32> = (0..3).map(|a| [8, 16, 32][(i + a) % 3]).collect();
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
