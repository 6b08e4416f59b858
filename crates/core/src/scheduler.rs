//! The AdaInf scheduler (§3.1 overview).
//!
//! At each period boundary: run drift detection per application, build
//! the retraining-inference DAGs, order every retraining pool by
//! deviation (most-deviating samples first) and choose each node's
//! early-exit structure from the runtime's cached exit accuracies. At
//! each session: divide GPU space among the jobs (§3.3.1) and divide
//! each job's SLO time between inference and retraining (§3.3.2),
//! emitting one [`JobPlan`] per job.
//!
//! The period hook's wall-clock, less the retraining-pool draws it
//! makes on the simulated world's behalf, is reported in the period
//! plan; the harness times each session call (Table 1 — the paper's
//! AdaInf takes ~4.2 s for the periodical DAG update and ~2 ms per
//! scheduling round).

use crate::cache::DecisionCache;
use crate::config::{AdaInfConfig, Variant};
use crate::drift_artifacts::WarmBases;
use crate::drift_detect::{detect, DriftReport};
use crate::plan::{AppPeriodPlan, JobPlan, PeriodPlan, Scheduler, SessionCtx};
use crate::predict::{LatencyFeatures, LatencyPredictor, PredictedLatency};
use crate::profiler::Profiler;
use crate::ridag::RiDag;
use crate::space::{divide_space, squeeze_space, JobDemand};
use crate::timealloc::{clamp_slices, plan_time, select_structures, strategies};
use adainf_apps::{AppRuntime, AppSpec};
use adainf_simcore::walltime::WallTimer;
use adainf_simcore::{parallel, Prng, SimDuration, SimTime};
use std::sync::Arc;

/// Per-application scheduling state snapshotted at the period boundary.
#[derive(Clone, Debug, Default)]
struct AppState {
    ridag: RiDag,
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
    /// Each `(app, node)`'s last drift build key and PCA basis, the
    /// warm-start seeds of the next boundary's build (see
    /// [`crate::drift_artifacts`]) — the only drift state kept between
    /// boundaries.
    warm: WarmBases,
    /// `(reads, builds)` of drift artifact sets so far: each detecting
    /// app's sweep reads one per node and each `set_order` one; each
    /// boundary job builds one.
    drift_stats: (u64, u64),
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
            warm: WarmBases::default(),
            drift_stats: (0, 0),
            worker_threads: 0,
            predictor,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &AdaInfConfig {
        &self.config
    }

    /// `(reads, builds)` of drift artifact sets so far: the sets the
    /// detection sweeps and `set_order` read, and the sets the
    /// boundaries built — the counts a drift artifact cache reported as
    /// `(hits, misses)` when every read was a lookup that hit a set
    /// built at the boundary.
    pub fn drift_cache_stats(&self) -> (u64, u64) {
        self.drift_stats
    }

    /// With this period's RI-DAGs built, makes the period's structure
    /// choice per application (it is session-invariant, §3.3.2 step 1),
    /// reading each exit's accuracy from the runtime's cache. Must run
    /// after the drift sweep — the selection reads the new DAGs.
    fn select_period_structures(&mut self, apps: &mut [AppRuntime]) {
        for (a, rt) in apps.iter_mut().enumerate() {
            let initial: Vec<f64> = (0..rt.spec.nodes.len())
                .map(|node| rt.initial_accuracy(node))
                .collect();
            self.states[a].cuts = select_structures(
                &self.specs[a],
                &self.states[a].ridag,
                &mut |node, cut| rt.accuracy(node, cut),
                &initial,
                &self.config,
            );
        }
    }
}

impl Scheduler for AdaInfScheduler {
    fn name(&self) -> String {
        self.config.variant.name().to_string()
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

    fn predict_latency(&self, app: usize, feats: &LatencyFeatures) -> Option<PredictedLatency> {
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

        // A node's first accuracy read in a period scores every exit in
        // one pass: read each full cut now, before anything retrains, so
        // the structure choice and serving read this period's values. It
        // reads only weights and evaluation sets, so it stays outside the
        // drift clock without changing any result.
        for rt in apps.iter_mut() {
            for node in 0..rt.spec.nodes.len() {
                rt.accuracy(node, rt.spec.nodes[node].profile.full_cut());
            }
        }

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
            warm,
            drift_stats,
            worker_threads,
            ..
        } = &mut *self;
        // The boundary's jobs, in app and node order: every node of apps
        // that run detection, and only the frozen RI-DAG's retraining
        // nodes otherwise — exactly the sets the sweep and `set_order`
        // below read. The build takes the jobs' retired sets; the others
        // have no reader and drop here, a pool nobody read undrawn.
        let detects: Vec<bool> = states
            .iter()
            .map(|state| config.variant != Variant::U || !state.frozen)
            .collect();
        let (mut jobs, mut retired) = (Vec::new(), Vec::new());
        for (a, rt) in apps.iter_mut().enumerate() {
            for (node, set) in std::mem::take(&mut rt.retired).into_iter().enumerate() {
                if detects[a] || states[a].ridag.retrains(node) {
                    jobs.push((a, node));
                    retired.push(set);
                }
            }
        }
        // The build runs in two phases, so that no model's old training
        // set and new pool are held at once: fit on the old sets, which
        // the fits drop, draw the jobs' pools, rank the pools and
        // held-out sets against the fits.
        let fits = warm.fit(&jobs, retired, apps, rng, config.drift_workers);
        let draw_wall = WallTimer::start();
        for &(a, node) in &jobs {
            apps[a].pools[node].draw();
        }
        let draw_ns = draw_wall.elapsed_nanos();
        let mut table = fits.rank(apps, config.drift_workers);
        drift_stats.1 += jobs.len() as u64;
        *worker_threads =
            (*worker_threads).max(parallel::resolved_threads(jobs.len(), config.drift_workers));

        for (a, rt) in apps.iter_mut().enumerate() {
            let range = jobs.partition_point(|j| j.0 < a)..jobs.partition_point(|j| j.0 <= a);
            let artifacts = &mut table[range.clone()];
            // AdaInf/U builds each application's DAG once — frozen at
            // the first period in which drift is detected at all.
            if detects[a] {
                let report = detect(rt, artifacts, config);
                drift_stats.0 += artifacts.len() as u64;
                states[a].ridag = RiDag::build(&report);
                if !report.impacted.is_empty() {
                    states[a].frozen = true;
                }
                last_reports.push(report);
            }
            // Order every retraining pool by deviation so retraining
            // consumes the most-deviating samples first (§3.3.2). This
            // applies even for /U — sample selection is not part of
            // the DAG-update ablation. The order comes from the same
            // artifact sets the detector just read.
            for (&(_, node), art) in jobs[range].iter().zip(artifacts.iter()) {
                if states[a].ridag.retrains(node) {
                    rt.pools[node].set_order(&art.retrain);
                    drift_stats.0 += 1;
                }
            }
        }
        // The sweep and `set_order` were the table's and the old
        // held-out sets' last readers: keep only each node's warm-start
        // basis for the next boundary.
        warm.keep(&jobs, apps, table);
        let drift_ns = drift_wall.elapsed_nanos().saturating_sub(draw_ns);
        self.drift_wall_ns += drift_ns;
        self.drift_period_ns.push(drift_ns as u64);
        self.select_period_structures(apps);

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

        let mut division = divide_space(
            &gpu_demands,
            ctx.server.total_space(),
            ctx.avg_job_time,
            self.config.variant != Variant::S,
            &self.profiler,
            &mut self.cache,
        );
        // Never over-commit the free capacity.
        squeeze_space(&mut division, ctx.free_gpus);

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

    /// Every plan served from the warm decision cache equals the plan
    /// recomputed with the cache swapped for an empty one: 12 contexts,
    /// each recurring 5 times in each of 3 periods (180 sessions), with
    /// half the sessions squeezed below demand and a third of app 0's
    /// counts past the cache's dense bound (those compute uncached, warm
    /// or cold).
    #[test]
    fn warm_cache_plans_equal_cold_recomputes() {
        const SQUEEZED: f64 = 0.3;
        const FAR: u32 = crate::cache::DENSE_REQUESTS + 9;
        let (_, mut apps, server) = setup(3);
        let specs: Vec<AppSpec> = apps.iter().map(|a| a.spec.clone()).collect();
        let mut sched =
            AdaInfScheduler::new(AdaInfConfig::default(), Profiler::default(), specs, 7);
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
                let mut predicted: Vec<u32> = (0..3).map(|a| [8, 16, 32][(i + a) % 3]).collect();
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
                    "period {period}, session {i}"
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

    /// Each boundary counts one read per artifact set its sweep and
    /// `set_order` read and one build per job — with and without
    /// AdaInf/U's frozen DAG, whose later boundaries build only the
    /// retraining nodes, the counts the drift artifact cache reported
    /// as `(hits, misses)` — and keeps each built node's basis, so the
    /// next boundary's build of it warm-starts.
    #[test]
    fn period_start_counts_reads_and_builds_and_keeps_bases() {
        let cases = [
            (
                AdaInfConfig::default(),
                [(8, 7), (16, 14), (26, 21), (37, 28)],
            ),
            (
                AdaInfConfig::from(Variant::U),
                [(8, 7), (13, 12), (19, 17), (24, 21)],
            ),
        ];
        for (config, want) in cases {
            let (_, mut apps, server) = setup(3);
            let specs: Vec<AppSpec> = apps.iter().map(|a| a.spec.clone()).collect();
            let name = config.variant.name();
            let mut sched = AdaInfScheduler::new(config, Profiler::default(), specs, 7);
            let mut stats = Vec::new();
            let mut built: Vec<Vec<bool>> = apps
                .iter()
                .map(|rt| vec![false; rt.spec.nodes.len()])
                .collect();
            for period in 0..4u64 {
                if period > 0 {
                    for rt in &mut apps {
                        rt.advance_period();
                    }
                }
                for (a, rt) in apps.iter().enumerate() {
                    for (node, &built) in built[a].iter().enumerate() {
                        assert_eq!(
                            sched.warm.warm_for(a, rt, node).is_some(),
                            built,
                            "{name} period {period}: ({a}, {node})"
                        );
                    }
                }
                sched.on_period_start(&mut apps, &server, SimTime::from_secs(50 * period));
                // The boundary draws exactly its jobs' pools.
                built = apps
                    .iter()
                    .map(|rt| rt.pools.iter().map(|p| p.is_drawn()).collect())
                    .collect();
                stats.push(sched.drift_cache_stats());
            }
            assert_eq!(stats, want, "{name}");
        }
    }

    /// Each boundary takes every retired set, and draws exactly the
    /// pools the drift build read: all of them by default, only the
    /// frozen DAG's retraining nodes' under AdaInf/U, whose other pools
    /// stay undrawn.
    #[test]
    fn period_start_frees_old_sets_and_draws_only_read_pools() {
        for config in [AdaInfConfig::default(), AdaInfConfig::from(Variant::U)] {
            let (_, mut apps, server) = setup(3);
            let specs: Vec<AppSpec> = apps.iter().map(|a| a.spec.clone()).collect();
            let name = config.variant.name();
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
                        let update_dag = sched.config.variant != Variant::U || !state.frozen;
                        (0..rt.spec.nodes.len())
                            .map(|node| update_dag || state.ridag.retrains(node))
                            .collect()
                    })
                    .collect();
                sched.on_period_start(&mut apps, &server, SimTime::from_secs(50 * period));
                for (a, (rt, read)) in apps.iter().zip(&read).enumerate() {
                    assert!(rt.retired.is_empty(), "{name} period {period}: app {a}");
                    for (node, &read) in read.iter().enumerate() {
                        let at = format!("{name} period {period}: ({a}, {node})");
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

    /// Under AdaInf/U, a retiring pool nobody read is never drawn:
    /// `advance_period` retires every pool as it was, and each boundary's
    /// build takes only retired sets that are already drawn (read as
    /// jobs in the period they retire from), so its fit draws none; the
    /// unread sets drop undrawn with the rest.
    #[test]
    fn unread_retiring_pools_are_never_drawn() {
        let (_, mut apps, server) = setup(3);
        let specs: Vec<AppSpec> = apps.iter().map(|a| a.spec.clone()).collect();
        let config = AdaInfConfig::from(Variant::U);
        let mut sched = AdaInfScheduler::new(config, Profiler::default(), specs, 7);
        let mut unread = 0;
        for period in 0..4u64 {
            if period > 0 {
                for rt in &mut apps {
                    let drawn: Vec<bool> = rt.pools.iter().map(|p| p.is_drawn()).collect();
                    rt.advance_period();
                    let retired: Vec<bool> =
                        rt.retired.iter().map(|r| r.train.is_drawn()).collect();
                    assert_eq!(retired, drawn, "period {period}");
                }
            }
            for (a, (state, rt)) in sched.states.iter().zip(&apps).enumerate() {
                for (node, set) in rt.retired.iter().enumerate() {
                    let taken = !state.frozen || state.ridag.retrains(node);
                    let drawn = set.train.is_drawn();
                    assert!(drawn || !taken, "period {period}: ({a}, {node})");
                    unread += usize::from(!drawn);
                }
            }
            sched.on_period_start(&mut apps, &server, SimTime::from_secs(50 * period));
            assert!(
                apps.iter().all(|rt| rt.retired.is_empty()),
                "period {period}"
            );
        }
        assert!(unread > 0, "no retiring pool went unread");
    }

    /// What each variant changes, decision by decision: the memory
    /// strategies; whether node 1 of the surveillance app, under the
    /// RI-DAG that retrains nodes 1 (impact 0.12) and 2 (0.04), runs an
    /// early exit; how that job's spare time splits between the two
    /// retraining nodes; and how a session divides space between two
    /// apps of unequal demand. AdaInf/U matches AdaInf in all four: its
    /// frozen DAG is pinned by `variant_u_keeps_first_dag`.
    #[test]
    fn each_variant_changes_only_its_own_decisions() {
        use adainf_gpusim::EvictionPolicyKind::{Lru, Priority};
        use adainf_gpusim::ExecMode::{LayerGrouped, PerRequest};
        use Variant::*;
        let grouped = (LayerGrouped, Priority);
        let want = [
            (AdaInf, grouped, true, "3.00:1", "demand"),
            (I, grouped, true, "1.00:1", "demand"),
            (U, grouped, true, "3.00:1", "demand"),
            (S, grouped, true, "3.00:1", "even"),
            (E, grouped, false, "3.00:1", "demand"),
            (M1, (PerRequest, Priority), true, "3.00:1", "demand"),
            (M2, (LayerGrouped, Lru), true, "3.00:1", "demand"),
            (EarlyWithoutRetraining, grouped, true, "none", "demand"),
            (NoRetraining, grouped, false, "none", "demand"),
        ];
        let app = catalog::video_surveillance(0);
        let report = DriftReport {
            impacted: vec![(1, 0.12), (2, 0.04)],
            final_s: 0.18,
            trace: Vec::new(),
        };
        let dag = RiDag::build(&report);
        let profiler = Profiler::default();
        let predicted = [8u32, 64];
        for (variant, memory, early_exit, split, space) in want {
            let config = AdaInfConfig::from(variant);
            let name = variant.name();
            assert_eq!(strategies(&config), memory, "{name}");
            let cuts = select_structures(&app, &dag, &mut |_, _| 0.95, &[0.95; 3], &config);
            let full = app.nodes[1].profile.full_cut();
            assert_eq!(cuts[1] < full, early_exit, "{name}");
            let plan = plan_time(&app, &dag, cuts, 0.3, 16, &config, &profiler);
            let time = |node| {
                let slice = plan.proto.iter().find(|p| p.node == node).unwrap();
                slice.time.as_millis_f64()
            };
            let got = match plan.proto.len() {
                0 => "none".to_string(),
                _ => format!("{:.2}:1", time(1) / time(2)),
            };
            assert_eq!(got, split, "{name}");

            let (_, mut apps, server) = setup(2);
            let specs: Vec<AppSpec> = apps.iter().map(|a| a.spec.clone()).collect();
            let mut sched = AdaInfScheduler::new(config, Profiler::default(), specs, 7);
            sched.on_period_start(&mut apps, &server, SimTime::ZERO);
            let pools: Vec<Vec<usize>> = apps
                .iter()
                .map(|rt| rt.pools.iter().map(|p| p.remaining()).collect())
                .collect();
            let ctx = SessionCtx {
                now: SimTime::ZERO,
                predicted: &predicted,
                server: &server,
                free_gpus: 4.0,
                avg_job_time: SimDuration::from_millis(100),
                pool_remaining: &pools,
            };
            let gpus: Vec<f64> = sched.on_session(&ctx).iter().map(|p| p.gpu).collect();
            let got = if gpus[0] == gpus[1] { "even" } else { "demand" };
            assert_eq!(got, space, "{name}: {gpus:?}");
        }
    }

    #[test]
    fn variant_u_keeps_first_dag() {
        let (_, mut apps, server) = setup(1);
        let specs = vec![apps[0].spec.clone()];
        let mut sched = AdaInfScheduler::new(Variant::U.into(), Profiler::default(), specs, 7);
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
