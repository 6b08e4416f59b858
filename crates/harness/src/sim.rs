//! The end-to-end simulation loop.
//!
//! A [`Simulation`] owns the application runtimes (streams + trainable
//! models), the edge-server description, a scheduler, and the metric
//! sinks. [`Simulation::run`] advances 5 ms session by session:
//!
//! 1. At every 50 s boundary the applications drift, their pools refresh,
//!    and the scheduler's period hook runs (drift detection / bulk
//!    retraining plans). Bulk retraining occupies edge GPUs until its
//!    completion and refreshes the affected model when it lands.
//! 2. Each session, actual arrivals are drawn per application while the
//!    scheduler sees only the *predicted* counts (an EWMA of past
//!    sessions) — the prediction error is why finish rates stay below
//!    100 % (§5.1).
//! 3. Each planned job executes: retraining slices consume pool samples
//!    and run real SGD on the model heads, then the inference tasks'
//!    latency is computed from the GPU latency model times the
//!    communication inflation of the job's memory strategies. Requests
//!    are scored against the golden labels through the current model
//!    state, batch by batch against the SLO.
//!
//! Capacity is enforced: allocations hold their GPU amount until job
//! completion, and the scheduler sees the remaining free amount.

use crate::metrics::RunMetrics;
use adainf_apps::{apps_for_count, AppRuntime, AppSpec};
use adainf_baselines::{EkyaScheduler, ScroogeScheduler};
use adainf_core::degrade::{admit_within_slo, should_shed_retraining, DegradePolicy, ReloadState};
use adainf_core::plan::{BulkRetrain, JobPlan, RetrainSlice, Scheduler, SessionCtx};
use adainf_core::predict::LatencyFeatures;
use adainf_core::profiler::{CommProfile, Profiler};
use adainf_core::{AdaInfConfig, AdaInfScheduler};
use adainf_driftgen::faultgen::FaultWindow;
use adainf_driftgen::workload::ArrivalConfig;
use adainf_driftgen::{FaultKind, FaultSpec, FaultTimeline, Impairments, LabeledSamples};
use adainf_gpusim::memory::AccessIntent;
use adainf_gpusim::{
    ContentKey, EdgeServer, GpuMemory, GpuSpec, LatencyModel, StructureCost, TaskContext,
};
use adainf_modelzoo::TrainSliceScratch;
use adainf_simcore::parallel;
use adainf_simcore::time::{PERIOD, SESSION};
use adainf_simcore::walltime::WallTimer;
use adainf_simcore::{Prng, SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Which scheduling method a run uses.
#[derive(Clone, Debug)]
pub enum Method {
    /// AdaInf or one of its ablation variants / references.
    AdaInf(AdaInfConfig),
    /// Ekya \[3\].
    Ekya,
    /// Scrooge \[10\] (greedy capacity capping).
    Scrooge,
    /// Scrooge* (proportional capacity division).
    ScroogeStar,
}

impl Method {
    /// Display name of the method.
    pub fn name(&self) -> String {
        match self {
            Method::AdaInf(c) => c.variant.name().to_string(),
            Method::Ekya => "Ekya".to_string(),
            Method::Scrooge => "Scrooge".to_string(),
            Method::ScroogeStar => "Scrooge*".to_string(),
        }
    }
}

/// Fault-injection configuration of a run: the seeded fault scenario
/// plus the degradation policy the serving loop uses to absorb it.
/// `Copy` so it rides inside [`RunConfig::with_method`]'s functional
/// update like every other non-method field.
#[derive(Clone, Copy, Debug)]
pub struct ChaosConfig {
    /// The fault scenario (an empty spec injects nothing, and the run
    /// stays bit-identical to one with `chaos: None`).
    pub faults: FaultSpec,
    /// Graceful-degradation knobs.
    pub degrade: DegradePolicy,
}

impl ChaosConfig {
    /// A scenario with the default degradation policy.
    pub fn scenario(faults: FaultSpec) -> Self {
        ChaosConfig {
            faults,
            degrade: DegradePolicy::default(),
        }
    }
}

/// Configuration of one simulation run.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Root RNG seed — the whole run is a deterministic function of it.
    pub seed: u64,
    /// Simulated horizon (the paper uses 1000 s = 20 periods).
    pub duration: SimDuration,
    /// Number of edge-server GPUs.
    pub num_gpus: u32,
    /// Number of applications (1–14, catalogue order).
    pub num_apps: usize,
    /// Mean request rate per application (req/s).
    pub base_rate: f64,
    /// Retraining-pool samples per model per period.
    pub pool_size: usize,
    /// The scheduling method.
    pub method: Method,
    /// Override of the communication-inflation profile (α sweeps re-run
    /// the offline memory profiling and feed the result in here).
    pub comm: Option<CommProfile>,
    /// §6 extension: heterogeneous fleet speed factors (empty = a
    /// homogeneous fleet of `num_gpus` reference GPUs). Shared so that
    /// cloning a config (sweeps build dozens) bumps a refcount instead
    /// of copying the list.
    pub device_factors: Arc<[f64]>,
    /// Fault injection + graceful degradation (`None` = pristine run;
    /// the fault machinery is then never touched and metrics stay
    /// bit-identical to builds without it).
    pub chaos: Option<ChaosConfig>,
    /// Worker threads for the period-boundary training fan-out
    /// (0 = the host's available parallelism). The staged SGD flushes
    /// of a boundary are independent per `(app, node)`, so the fan-out
    /// is bit-identical at any width — exposed only so determinism
    /// tests can pin exact counts.
    pub train_workers: usize,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            seed: 42,
            duration: SimDuration::from_secs(1000),
            num_gpus: 4,
            num_apps: 8,
            base_rate: 6400.0,
            pool_size: 6000,
            method: Method::AdaInf(AdaInfConfig::default()),
            comm: None,
            device_factors: Arc::from([]),
            chaos: None,
            train_workers: 0,
        }
    }
}

impl RunConfig {
    /// Same run with a different method (for comparisons). Does not
    /// clone the replaced method; the remaining fields are `Copy` or
    /// refcounted.
    pub fn with_method(&self, method: Method) -> RunConfig {
        RunConfig {
            method,
            device_factors: Arc::clone(&self.device_factors),
            ..*self
        }
    }

    /// Checks the inputs a run cannot serve without: 1–14 applications,
    /// at least one GPU, a duration of one or more whole sessions (a
    /// run steps whole sessions, so a partial one would be dropped
    /// unserved), a finite, positive request rate and finite, positive fleet speed factors; under
    /// AdaInf also `A_m` and the initial `S` in (0, 1]. Fields of the
    /// method are named `method.<field>`.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let method = match &self.method {
            Method::AdaInf(c) => adainf_range_error(c),
            Method::Ekya | Method::Scrooge | Method::ScroogeStar => None,
        };
        let bad_factor = self
            .device_factors
            .iter()
            .find(|f| !(f.is_finite() && **f > 0.0));
        let (micros, session) = (self.duration.as_micros(), SESSION.as_micros());
        let whole_sessions = micros >= session && micros.is_multiple_of(session);
        let (field, reason) = if !(1..=14).contains(&self.num_apps) {
            ("num_apps", format!("{} is outside 1..=14", self.num_apps))
        } else if self.num_gpus == 0 {
            ("num_gpus", "0; a run needs at least one GPU".into())
        } else if !whole_sessions {
            let d = self.duration;
            let reason = format!("{d:?} is not a positive whole number of {SESSION:?} sessions");
            ("duration", reason)
        } else if !(self.base_rate.is_finite() && self.base_rate > 0.0) {
            let r = self.base_rate;
            ("base_rate", format!("{r} is not a finite, positive rate"))
        } else if let Some(f) = bad_factor {
            (
                "device_factors",
                format!("{f} is not a finite, positive speed factor"),
            )
        } else if let Some(error) = method {
            error
        } else {
            return Ok(());
        };
        Err(ConfigError { field, reason })
    }
}

/// The first of AdaInf's ranged fields [`RunConfig::validate`] rejects:
/// `A_m` or the initial `S` outside (0, 1] (a NaN is outside every
/// range).
fn adainf_range_error(c: &AdaInfConfig) -> Option<(&'static str, String)> {
    let unit = |x: f64| x > 0.0 && x <= 1.0;
    if !unit(c.a_m) {
        Some(("method.a_m", format!("{} is outside (0, 1]", c.a_m)))
    } else if !unit(c.s_init) {
        Some(("method.s_init", format!("{} is outside (0, 1]", c.s_init)))
    } else {
        None
    }
}

/// A [`RunConfig`] field [`RunConfig::validate`] rejects.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConfigError {
    /// The field's name.
    pub field: &'static str,
    /// Its value and why it is rejected.
    pub reason: String,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid `{}`: {}", self.field, self.reason)
    }
}

impl std::error::Error for ConfigError {}

/// A bulk retraining registered at a period boundary, with the pool
/// samples snapshotted at registration time (the data that was shipped /
/// handed to the trainer).
struct PendingBulk {
    plan: BulkRetrain,
    samples: LabeledSamples,
}

/// Per-session working buffers, reused across all ~200k sessions of a
/// run instead of being reallocated each time.
#[derive(Default)]
struct SessionScratch {
    actual: Vec<u32>,
    predicted: Vec<u32>,
    pool_remaining: Vec<Vec<usize>>,
    /// Per app: the scheduler planned a job for it.
    planned: Vec<bool>,
}

/// What each job of a session reads: its start, its impairments and
/// their policy, and the predictor's run quartile (`None` without one).
struct Session {
    t: SimTime,
    imp: Impairments,
    degrade: DegradePolicy,
    quartile: Option<usize>,
}

/// A planned job's latency terms, each computed once; its stages refine
/// them in turn.
struct Job<'p> {
    plan: &'p JobPlan,
    /// Requests that arrived; `served` are those admitted.
    arrived: u32,
    served: u32,
    cost: StructureCost,
    slo: SimDuration,
    /// Serial-queue wait before the job starts.
    wait: SimDuration,
    /// Time before the first batch: the wait, retraining and reload.
    fixed: SimDuration,
    /// Worst-case inference latency of the served requests.
    inference: SimDuration,
    /// Retraining samples taken from the pools.
    taken: f64,
    /// One batch's fault-free latency, the latency predictor's baseline.
    analytic: SimDuration,
}

impl Job<'_> {
    /// The latency predictor's features at `requests` requests.
    fn features(&self, requests: u32) -> LatencyFeatures {
        LatencyFeatures::new(
            requests,
            self.plan.batch,
            self.plan.gpu,
            self.cost.flops_per_sample,
            self.taken,
            self.wait.as_micros() as f64,
            self.analytic.as_micros() as f64,
        )
    }
}

/// The batch count of `requests` requests in batches of `batch`, and
/// the service time of one batch when all of them take `inference`.
fn split_batches(inference: SimDuration, requests: u32, batch: u32) -> (u32, SimDuration) {
    let batches = requests.div_ceil(batch.max(1));
    (batches, inference / u64::from(batches.max(1)))
}

/// Requests of a job that finish within `slo` (§2.3). Its `⌈n / batch⌉`
/// batches end one after another, batch `i` at `fixed + per_batch·(i+1)`,
/// and only the last can be short: each batch that ends in time counts
/// `batch` requests, capped at `n`.
fn in_slo(n: u32, batch: u32, per_batch: SimDuration, fixed: SimDuration, slo: SimDuration) -> u32 {
    let batch = u64::from(batch.max(1));
    let batches = u64::from(n).div_ceil(batch);
    let in_time = if fixed > slo {
        0
    } else if per_batch == SimDuration::ZERO {
        batches
    } else {
        ((slo - fixed).as_micros() / per_batch.as_micros()).min(batches)
    };
    (in_time * batch).min(u64::from(n)) as u32
}

/// A run's arrived requests, counted once more by outcome, so that
/// [`Simulation::finalize`] can check none is lost or counted twice.
#[derive(Clone, Copy, Debug, Default)]
struct RequestTally {
    arrived: u64,
    in_slo: u64,
    late: u64,
    shed: u64,
    skipped: u64,
    unplanned: u64,
}

/// Runtime state of fault injection, present only when the run was
/// configured with a non-empty [`ChaosConfig`].
struct ChaosRuntime {
    /// Pre-generated fault windows for the whole horizon.
    timeline: FaultTimeline,
    /// Degradation knobs (copied out of the config).
    degrade: DegradePolicy,
    /// A fault-facing model of the edge GPUs' memory, seeded with every
    /// application's parameters resident. Pressure windows collapse its
    /// capacity; the resulting eviction storms and parameter reloads
    /// charge real PCIe time to the affected jobs.
    mem: GpuMemory,
    /// Pool-starvation windows, in start order.
    starve: Vec<FaultWindow>,
    /// First starvation window not yet fired.
    starve_cursor: usize,
    /// A memory-pressure window is currently open.
    pressure_active: bool,
    /// Per-app bounded-retry state for parameter reloads.
    reload: Vec<ReloadState>,
    /// Per app: its nodes' parameter blocks `(key, bytes)` in node
    /// order, the working set the pressure storms fight over.
    param_keys: Vec<Vec<(ContentKey, u64)>>,
    /// Per app: the flat per-session latency penalty of serving with
    /// host-resident weights after reload give-up (streaming the full
    /// parameter set over the pageable link, without churning the
    /// shared memory model any further).
    degraded_penalty: Vec<SimDuration>,
}

impl ChaosRuntime {
    /// The fault state of a run: `timeline`'s windows, and a memory
    /// model of `gpus` with every app's parameters resident.
    fn new(cc: ChaosConfig, timeline: FaultTimeline, specs: &[AppSpec], gpus: &GpuSpec) -> Self {
        let mut mem = GpuMemory::new(gpus.memory_config());
        let pageable = mem.config().pageable_bandwidth;
        let mut param_keys = Vec::with_capacity(specs.len());
        let mut degraded_penalty = Vec::with_capacity(specs.len());
        for spec in specs {
            let mut keys = Vec::with_capacity(spec.nodes.len());
            let mut total = 0u64;
            for (node, ns) in spec.nodes.iter().enumerate() {
                let bytes = ns.profile.full_cost().param_bytes as u64;
                let key = ContentKey::param(spec.id, node as u32, 0);
                // Seed the block resident (Produce: no fetch cost) —
                // steady state before the first pressure window.
                mem.access(
                    key,
                    bytes,
                    TaskContext::Inference,
                    0,
                    node as u32,
                    spec.slo.as_millis_f64(),
                    AccessIntent::Produce,
                    SimTime::ZERO,
                );
                keys.push((key, bytes));
                total += bytes;
            }
            param_keys.push(keys);
            degraded_penalty.push(SimDuration::from_millis_f64(total as f64 / pageable * 1e3));
        }
        ChaosRuntime {
            starve: timeline.windows_of(FaultKind::PoolStarvation),
            timeline,
            degrade: cc.degrade,
            mem,
            starve_cursor: 0,
            pressure_active: false,
            reload: vec![ReloadState::default(); specs.len()],
            param_keys,
            degraded_penalty,
        }
    }

    /// Per-session fault bookkeeping: fires starvation windows, tracks
    /// memory-pressure edges (storm on entry, release + retry reset on
    /// exit), and returns the session's impairments.
    fn begin_session(
        &mut self,
        t: SimTime,
        apps: &mut [AppRuntime],
        metrics: &mut RunMetrics,
    ) -> Impairments {
        let imp = self.timeline.impairments_at(t);
        // Pool starvation: at each window start, a fraction of every
        // pool's remaining samples is destroyed (the labelling pipeline
        // stalled / the golden model was unreachable).
        while let Some(w) = self.starve.get(self.starve_cursor).filter(|w| w.start <= t) {
            self.starve_cursor += 1;
            for pool in apps.iter_mut().flat_map(|rt| rt.pools.iter_mut()) {
                let drain = (pool.remaining() as f64 * w.magnitude) as usize;
                if drain > 0 {
                    metrics.starved_samples += pool.take(drain).len() as u64;
                }
            }
        }
        // Memory pressure: collapse capacity while a window is open
        // (re-applied every session so overlapping windows deepen the
        // collapse; once evicted down, re-application is free), restore
        // it on the falling edge.
        if imp.capacity_frac < 1.0 {
            if !self.pressure_active {
                self.pressure_active = true;
                metrics.eviction_storms += 1;
            }
            let comm = self.mem.apply_pressure(imp.capacity_frac, t);
            if comm > SimDuration::ZERO {
                metrics.fault_comm.add(comm.as_millis_f64());
            }
        } else if self.pressure_active {
            self.pressure_active = false;
            self.mem.release_pressure();
            self.reload.iter_mut().for_each(ReloadState::reset);
        }
        if imp.impaired {
            metrics.fault_sessions += 1;
        }
        imp
    }

    /// The parameter-reload stage of a GPU job, returning the time it
    /// charges. Under memory pressure, parameters the storm or other
    /// apps' reloads evicted are fetched again, at most
    /// `max_reload_retries` times in a row; then the app serves with
    /// host-resident weights at a flat penalty.
    fn reload(&mut self, job: &Job, t: SimTime, metrics: &mut RunMetrics) -> SimDuration {
        let app = job.plan.app;
        if !self.pressure_active {
            return SimDuration::ZERO;
        }
        if self.reload[app].gave_up() {
            let penalty = self.degraded_penalty[app];
            metrics.degraded_jobs += 1;
            metrics.fault_comm.add(penalty.as_millis_f64());
            return penalty;
        }
        let (session, slo_ms) = (t.session_index(), job.slo.as_millis_f64());
        let mut comm = SimDuration::ZERO;
        for (node, &(key, bytes)) in self.param_keys[app].iter().enumerate() {
            comm += self.mem.access(
                key,
                bytes,
                TaskContext::Inference,
                session,
                node as u32,
                slo_ms,
                AccessIntent::Fetch,
                t,
            );
        }
        if comm == SimDuration::ZERO {
            self.reload[app].record_success();
        } else {
            metrics.reload_retries += 1;
            metrics.fault_comm.add(comm.as_millis_f64());
            if !self.reload[app].record_failure(self.degrade.max_reload_retries) {
                metrics.reload_gave_up += 1;
            }
        }
        comm
    }
}

/// One end-to-end simulation.
pub struct Simulation {
    config: RunConfig,
    specs: Arc<[AppSpec]>,
    apps: Vec<AppRuntime>,
    server: EdgeServer,
    scheduler: Box<dyn Scheduler>,
    metrics: RunMetrics,
    /// The "world" latency law and communication profile (identical to
    /// the scheduler's — offline profiling is accurate in the paper too),
    /// shared with the scheduler rather than cloned into it.
    profiler: Arc<Profiler>,
    /// (release time µs, milli-GPUs) of in-flight allocations.
    releases: BinaryHeap<Reverse<(u64, u64)>>,
    in_use_milli: u64,
    /// EWMA of job completion time.
    avg_job_time: SimDuration,
    /// EWMA of per-app arrivals per session.
    predicted_ewma: Vec<f64>,
    pending_bulk: Vec<PendingBulk>,
    /// Per (app, node): retrained at least once this period.
    updated_this_period: Vec<Vec<bool>>,
    /// Per (app, node): scheduled for retraining this period.
    scheduled_retrain: Vec<Vec<bool>>,
    /// Per (app, node): staged retraining samples. Tiny per-job slices
    /// are accumulated here and applied as one SGD step per full batch —
    /// matching how a training stream accumulates a batch before
    /// stepping, and keeping the head updates low-noise.
    stage: Vec<Vec<Vec<LabeledSamples>>>,
    /// Per (app, node): replay reservoir of samples already trained on
    /// this period. Each staged flush rehearses a draw from it, the
    /// standard continual-learning stabiliser (iCaRL \[8\]) — without it,
    /// sequentially consuming a deviation-ordered pool makes the head
    /// track whatever the most recent slices looked like.
    replay: Vec<Vec<LabeledSamples>>,
    /// The buffer every reservoir update gathers into before swapping
    /// it with the reservoir (see [`absorb`]).
    replay_spare: LabeledSamples,
    /// Harness-side RNG (replay draws, shuffles).
    rng: Prng,
    /// Per-app completion time of the last serial job (queueing for
    /// `JobPlan::serial` schedulers).
    serial_free_at: Vec<SimTime>,
    /// Reusable per-session buffers.
    scratch: SessionScratch,
    /// Fault-injection state (`None` on pristine runs).
    chaos: Option<ChaosRuntime>,
    /// Every arrived request, counted by outcome.
    tally: RequestTally,
    /// Wall-clock nanoseconds of session serving (each `step_session`
    /// minus the training time accrued inside it).
    serve_wall_ns: u128,
    /// Wall-clock nanoseconds of model training: staged SGD flushes
    /// (inline and boundary fan-outs) plus bulk retraining.
    train_wall_ns: u128,
    /// Largest resolved width of the boundary training fan-out.
    train_pool_width: usize,
}

/// Staged samples per (app, node) before an SGD step fires.
const STAGE_THRESHOLD: usize = 64;

/// Replay reservoir capacity per (app, node).
const REPLAY_CAP: usize = 1024;

/// A flush's training set: the `fresh` rows plus a rehearsal draw of
/// `min(fresh / 2, reservoir)` reservoir rows (with replacement),
/// shuffled. The rows are gathered in shuffled order straight from
/// `fresh` and the reservoir: the same rows, in the same order and from
/// the same draws, as shuffling the concatenation of `fresh` and the
/// drawn subset.
fn rehearsal_set(
    reservoir: &LabeledSamples,
    fresh: &LabeledSamples,
    rng: &mut Prng,
) -> LabeledSamples {
    let draws = (fresh.len() / 2).min(reservoir.len());
    let drawn: Vec<usize> = (0..draws).map(|_| rng.index(reservoir.len())).collect();
    let mut order: Vec<usize> = (0..fresh.len() + draws).collect();
    rng.shuffle(&mut order);
    let mut out = LabeledSamples::empty();
    out.reset(fresh.inputs.cols(), order.len());
    for &i in &order {
        match i.checked_sub(fresh.len()) {
            None => out.push(fresh, i),
            Some(d) => out.push(reservoir, drawn[d]),
        }
    }
    out
}

/// The down-sampling draw of a reservoir update that adds `fresh_len`
/// rows to `reservoir_len`: when they overflow [`REPLAY_CAP`], the
/// first `REPLAY_CAP` of one shuffle of their indices (old rows first,
/// then fresh); `None` when they fit.
fn draw_keep(reservoir_len: usize, fresh_len: usize, rng: &mut Prng) -> Option<Vec<usize>> {
    let total = reservoir_len + fresh_len;
    (total > REPLAY_CAP).then(|| {
        let mut keep: Vec<usize> = (0..total).collect();
        rng.shuffle(&mut keep);
        keep.truncate(REPLAY_CAP);
        keep
    })
}

/// Folds `fresh` into `reservoir`: the old rows then the fresh ones,
/// down-sampled by [`draw_keep`]. The kept rows are gathered straight
/// into `spare`, which then swaps with the reservoir: the old
/// reservoir's buffer becomes the spare of the next update, of any
/// (app, node), so once the buffers have grown an update allocates
/// nothing but its draw.
fn absorb(
    reservoir: &mut LabeledSamples,
    spare: &mut LabeledSamples,
    fresh: &LabeledSamples,
    rng: &mut Prng,
) {
    let keep = draw_keep(reservoir.len(), fresh.len(), rng);
    let old = &*reservoir;
    let total = old.len() + fresh.len();
    spare.reset(fresh.inputs.cols(), total.min(REPLAY_CAP));
    let push = |i: usize| match i.checked_sub(old.len()) {
        None => spare.push(old, i),
        Some(f) => spare.push(fresh, f),
    };
    match keep {
        Some(keep) => keep.into_iter().for_each(push),
        None => (0..total).for_each(push),
    }
    std::mem::swap(reservoir, spare);
}

impl Simulation {
    /// Builds a run from its configuration.
    pub fn new(config: RunConfig) -> Self {
        // simlint: allow(prng-stream-discipline) — the run's seed boundary: RunConfig.seed enters the system exactly here; everything below receives split children
        let root = Prng::new(config.seed);
        let specs: Arc<[AppSpec]> = apps_for_count(config.num_apps).into();
        let arrival = ArrivalConfig {
            base_rate: config.base_rate,
            ..ArrivalConfig::default()
        };
        let apps: Vec<AppRuntime> = specs
            .iter()
            .cloned()
            .map(|s| AppRuntime::new(s, arrival.clone(), config.pool_size, &root))
            .collect();
        let spec_hw = if config.device_factors.is_empty() {
            GpuSpec::with_gpus(config.num_gpus)
        } else {
            GpuSpec::heterogeneous(config.device_factors.to_vec())
        };
        let profiler: Arc<Profiler> = Arc::new(match config.comm {
            Some(comm) => Profiler::new(LatencyModel::default(), comm),
            None => Profiler::default(),
        });
        let scheduler: Box<dyn Scheduler> = match &config.method {
            Method::AdaInf(c) => Box::new(AdaInfScheduler::new(
                c.clone(),
                Arc::clone(&profiler),
                Arc::clone(&specs),
                config.seed,
            )),
            Method::Ekya => Box::new(EkyaScheduler::new(
                Arc::clone(&profiler),
                Arc::clone(&specs),
            )),
            Method::Scrooge => Box::new(ScroogeScheduler::new(
                Arc::clone(&profiler),
                Arc::clone(&specs),
            )),
            Method::ScroogeStar => Box::new(ScroogeScheduler::new_star(
                Arc::clone(&profiler),
                Arc::clone(&specs),
            )),
        };
        let node_counts: Vec<usize> = specs.iter().map(|s| s.nodes.len()).collect();
        let n_apps_for_state = specs.len();
        let metrics = RunMetrics::new(config.method.name(), &node_counts);
        let updated: Vec<Vec<bool>> = node_counts.iter().map(|&n| vec![false; n]).collect();
        let stage: Vec<Vec<Vec<LabeledSamples>>> = node_counts
            .iter()
            .map(|&n| (0..n).map(|_| Vec::new()).collect())
            .collect();
        let replay: Vec<Vec<LabeledSamples>> = node_counts
            .iter()
            .map(|&n| (0..n).map(|_| LabeledSamples::empty()).collect())
            .collect();
        let predicted_ewma = vec![config.base_rate * SESSION.as_secs_f64(); specs.len()];
        let server = EdgeServer::new(spec_hw);
        let chaos = config.chaos.filter(|cc| !cc.faults.is_empty()).map(|cc| {
            let timeline = FaultTimeline::generate(&cc.faults, config.duration, &root);
            ChaosRuntime::new(cc, timeline, &specs, server.spec())
        });
        Simulation {
            specs,
            apps,
            server,
            scheduler,
            metrics,
            profiler,
            releases: BinaryHeap::new(),
            in_use_milli: 0,
            avg_job_time: SimDuration::from_millis(60),
            predicted_ewma,
            pending_bulk: Vec::new(),
            updated_this_period: updated.clone(),
            scheduled_retrain: updated,
            stage,
            replay,
            replay_spare: LabeledSamples::empty(),
            rng: root.split(0x0051_ACE5),
            serial_free_at: vec![SimTime::ZERO; n_apps_for_state],
            scratch: SessionScratch::default(),
            chaos,
            tally: RequestTally::default(),
            serve_wall_ns: 0,
            train_wall_ns: 0,
            train_pool_width: 0,
            config,
        }
    }

    /// Runs to the horizon and returns the collected metrics.
    pub fn run(mut self) -> RunMetrics {
        let sessions = self.config.duration.as_micros() / SESSION.as_micros();
        for si in 0..sessions {
            let t = SimTime::from_micros(si * SESSION.as_micros());
            if t.as_micros().is_multiple_of(PERIOD.as_micros()) {
                if t > SimTime::ZERO {
                    self.close_period();
                }
                self.open_period(t);
            }
            self.apply_due_bulk(t);
            // Serving wall = the session step minus whatever training
            // it triggered inline (threshold-crossing staged flushes) —
            // the train timer is nested inside the session timer on the
            // same clock, so the subtraction cannot underflow; the
            // saturation only guards clock pathologies.
            let w = WallTimer::start();
            let train_before = self.train_wall_ns;
            self.step_session(t);
            let train_delta = self.train_wall_ns - train_before;
            self.serve_wall_ns += w.elapsed_nanos().saturating_sub(train_delta);
        }
        self.finalize();
        self.metrics
    }

    /// Closes the period before its pools refresh: applies the bulk
    /// retrainings still pending (their data would vanish with the
    /// pools), flushes every staged (app, node) and advances the apps.
    fn close_period(&mut self) {
        let mut pending = std::mem::take(&mut self.pending_bulk);
        for p in &mut pending {
            self.apply_bulk(p);
        }
        // The boundary flush, batched: the RNG-ordered preparation runs
        // sequentially in (app, node) order — consuming the harness RNG
        // exactly as the fused sequential loop did — and the pure SGD
        // slices fan out with one training scratch per worker. Each job
        // owns its sample set and a disjoint `&mut` model, so results
        // are bit-identical at any worker count. The reservoirs die with
        // the period, each right after its last flush, and no boundary
        // flush gathers into the spare.
        self.replay_spare = LabeledSamples::empty();
        let mut flushes = Vec::new();
        for a in 0..self.apps.len() {
            for node in 0..self.apps[a].models.len() {
                flushes.push(self.prepare_flush(a, node, true));
                self.replay[a][node] = LabeledSamples::empty();
            }
        }
        let jobs: Vec<_> = self
            .apps
            .iter_mut()
            .flat_map(|rt| rt.models.iter_mut())
            .zip(flushes)
            .filter_map(|(model, flush)| flush.map(|shuffled| (model, shuffled)))
            .collect();
        if !jobs.is_empty() {
            let w = WallTimer::start();
            self.train_pool_width = self.train_pool_width.max(parallel::resolved_threads(
                jobs.len(),
                self.config.train_workers,
            ));
            parallel::fan_out_indexed_owned(
                jobs,
                self.config.train_workers,
                TrainSliceScratch::default,
                |_, (model, shuffled), scratch: &mut TrainSliceScratch| {
                    model.train_slice_with(&shuffled, 1, scratch);
                },
            );
            self.train_wall_ns += w.elapsed_nanos();
        }
        let (mut used, mut total) = (0.0, 0.0);
        for pool in self.apps.iter().flat_map(|rt| &rt.pools) {
            used += pool.used() as f64;
            total += pool.total() as f64;
        }
        self.metrics
            .samples_used
            .push(if total > 0.0 { used / total } else { 0.0 });
        for rt in &mut self.apps {
            rt.advance_period();
        }
    }

    /// Opens a period: records each node's label distribution, runs
    /// the scheduler's period hook, drops the retired sets it left,
    /// marks the nodes it schedules for retraining and registers its
    /// bulk retrainings.
    fn open_period(&mut self, t: SimTime) {
        for (a, rt) in self.apps.iter().enumerate() {
            for node in 0..rt.spec.nodes.len() {
                self.metrics.label_distributions[a][node].push(rt.label_distribution(node));
            }
        }
        for flags in self.updated_this_period.iter_mut() {
            flags.iter_mut().for_each(|f| *f = false);
        }

        let plan = self
            .scheduler
            .on_period_start(&mut self.apps, self.server.spec(), t);
        // The hook took the retired sets it reads, and nothing reads the
        // rest: drop them before bulk registration draws pools.
        for rt in &mut self.apps {
            rt.retired.clear();
        }
        self.metrics
            .period_overhead
            .add(plan.overhead.as_millis_f64());
        self.metrics.edge_cloud_bytes += plan.edge_cloud_bytes;

        // Which nodes are scheduled for retraining this period: bulk
        // tasks (Ekya/Scrooge) or RI-DAG entries (AdaInf).
        for flags in self.scheduled_retrain.iter_mut() {
            flags.iter_mut().for_each(|f| *f = false);
        }
        for (a, app_plan) in plan.apps.iter().enumerate() {
            for e in &app_plan.ri_entries {
                self.scheduled_retrain[a][e.node] = true;
            }
        }
        for b in &plan.bulk {
            self.scheduled_retrain[b.app][b.node] = true;
        }

        // Register bulk retraining: snapshot the pool data, reserve edge
        // GPU capacity, account the retraining time.
        for b in plan.bulk {
            let cap = if b.sample_cap == 0 {
                usize::MAX
            } else {
                b.sample_cap as usize
            };
            let samples = self.apps[b.app].pools[b.node].take(cap);
            if b.gpu > 0.0 {
                let hold = b.busy_until.since(t);
                self.reserve(b.gpu, b.busy_until);
                self.server.record_busy(t, hold, b.gpu);
                self.metrics
                    .add_retrain_gpu_time(t, hold.as_secs_f64() * b.gpu);
                self.metrics.retrain_latency.add(hold.as_millis_f64());
            } else {
                // Cloud retraining: latency recorded, no edge GPU held.
                self.metrics
                    .retrain_latency
                    .add(b.available_at.since(t).as_millis_f64());
            }
            self.pending_bulk.push(PendingBulk { plan: b, samples });
        }
    }

    fn apply_bulk(&mut self, p: &mut PendingBulk) {
        let (app, node) = (p.plan.app, p.plan.node);
        // Two SGD passes capture the accuracy effect of the configured
        // multi-epoch retraining (the heads converge in 1–2 passes; the
        // GPU time charged is the scheduler's full setting).
        let samples = std::mem::replace(&mut p.samples, LabeledSamples::empty());
        if !samples.is_empty() {
            self.metrics.retrain_samples[app][node] += samples.len() as u64;
            let w = WallTimer::start();
            self.apps[app].models[node].train_slice(&samples, 2);
            self.train_wall_ns += w.elapsed_nanos();
        }
        self.updated_this_period[app][node] = true;
    }

    fn apply_due_bulk(&mut self, t: SimTime) {
        // Fast path: nothing due this session (the common case — bulk
        // retrainings land once per period, sessions run every 5 ms).
        if self.pending_bulk.iter().all(|p| p.plan.available_at > t) {
            return;
        }
        let mut pending = std::mem::take(&mut self.pending_bulk);
        pending.retain_mut(|p| {
            if p.plan.available_at <= t {
                self.apply_bulk(p);
                false
            } else {
                true
            }
        });
        self.pending_bulk = pending;
    }

    fn reserve(&mut self, gpu: f64, until: SimTime) {
        let milli = (gpu * 1000.0).round() as u64;
        self.in_use_milli += milli;
        self.releases.push(Reverse((until.as_micros(), milli)));
    }

    fn release_due(&mut self, t: SimTime) {
        while let Some(Reverse((at, milli))) = self.releases.peek().copied() {
            if at > t.as_micros() {
                break;
            }
            self.releases.pop();
            self.in_use_milli = self.in_use_milli.saturating_sub(milli);
        }
    }

    /// The worst-case inference latency of `n` requests of `plan`: on the
    /// host CPU, or on the plan's GPU share times the communication
    /// inflation of its memory strategies. A transient device stall
    /// inflates the GPU latency law for the session; CPU-offloaded jobs
    /// are unaffected.
    fn inference_latency(
        &self,
        plan: &JobPlan,
        cost: &StructureCost,
        n: u32,
        imp: &Impairments,
    ) -> SimDuration {
        let latency = &self.profiler.latency;
        if plan.cpu {
            return latency.cpu_inference(cost, n);
        }
        let inflation = self.profiler.comm.inflation(plan.exec, plan.eviction);
        let lat = if imp.latency_inflation > 1.0 {
            latency
                .with_stall(imp.latency_inflation)
                .worst_case(cost, n, plan.batch, plan.gpu)
        } else {
            latency.worst_case(cost, n, plan.batch, plan.gpu)
        };
        lat.mul_f64(inflation)
    }

    /// One session: faults, arrivals and plans, each planned job's
    /// stages ([`Self::run_job`]), then the unplanned arrivals.
    fn step_session(&mut self, t: SimTime) {
        self.release_due(t);
        // Faults first: starvation must drain pools before the scheduler
        // snapshots them, pressure storms must land before jobs reload.
        let (imp, degrade) = match self.chaos.as_mut() {
            Some(chaos) => (
                chaos.begin_session(t, &mut self.apps, &mut self.metrics),
                chaos.degrade,
            ),
            None => (Impairments::NEUTRAL, DegradePolicy::default()),
        };
        // Predictor errors are bucketed by run quartile, so the bench can
        // assert the model converges (first quartile's error > last's).
        let quartile = self.scheduler.predictor_enabled().then(|| {
            let sessions = (self.config.duration.as_micros() / SESSION.as_micros()).max(1);
            ((t.session_index() * 4 / sessions) as usize).min(3)
        });
        let session = Session {
            t,
            imp,
            degrade,
            quartile,
        };
        // The buffers leave `self` for the session, so the scheduler's
        // context can borrow them while the rest of `self` stays mutable.
        let mut scratch = std::mem::take(&mut self.scratch);
        let plans = self.arrivals_and_plans(&session, &mut scratch);
        scratch.planned.clear();
        scratch.planned.resize(scratch.actual.len(), false);
        for plan in &plans {
            scratch.planned[plan.app] = true;
            self.run_job(&session, plan, scratch.actual[plan.app]);
        }
        for (a, &n) in scratch.actual.iter().enumerate() {
            if !scratch.planned[a] && n > 0 {
                self.tally.unplanned += self.finish(t, 0, n);
            }
            self.predicted_ewma[a] = self.predicted_ewma[a] * 0.7 + n as f64 * 0.3;
        }
        self.scratch = scratch;
    }

    /// Draws each app's arrivals, then asks the scheduler, which sees
    /// only the predicted counts, for the session's jobs.
    fn arrivals_and_plans(&mut self, s: &Session, scratch: &mut SessionScratch) -> Vec<JobPlan> {
        scratch.actual.clear();
        scratch.predicted.clear();
        for (rt, ewma) in self.apps.iter_mut().zip(&self.predicted_ewma) {
            scratch.actual.push(rt.requests_in_session(s.t));
            scratch.predicted.push(ewma.round() as u32);
        }
        // Rate bursts scale the drawn arrivals *after* the draw, so the
        // arrival RNG streams stay identical with and without faults.
        if s.imp.rate_gain > 1.0 {
            for a in scratch.actual.iter_mut() {
                *a = ((*a as f64) * s.imp.rate_gain).round() as u32;
            }
        }
        self.tally.arrived += scratch.actual.iter().map(|&n| u64::from(n)).sum::<u64>();
        scratch
            .pool_remaining
            .resize_with(self.apps.len(), Vec::new);
        for (rt, dst) in self.apps.iter().zip(scratch.pool_remaining.iter_mut()) {
            dst.clear();
            dst.extend(rt.pools.iter().map(|p| p.remaining()));
        }
        let in_use = self.in_use_milli as f64 / 1000.0;
        let free = (self.server.spec().total_space() - in_use).max(0.0);
        let ctx = SessionCtx {
            now: s.t,
            predicted: &scratch.predicted,
            server: self.server.spec(),
            free_gpus: free,
            avg_job_time: self.avg_job_time,
            pool_remaining: &scratch.pool_remaining,
        };
        let wall = WallTimer::start();
        let plans = self.scheduler.on_session(&ctx);
        self.metrics.sched_overhead.add(wall.elapsed_ms());
        self.metrics.diag_free.add(free);
        plans
    }

    /// Runs a planned job of `n` arrivals through its stages, in order:
    /// retraining, reload, admission, SLO accounting, predictor, accuracy
    /// and capacity.
    fn run_job(&mut self, s: &Session, plan: &JobPlan, n: u32) {
        self.metrics.total_requests += u64::from(n);
        if n == 0 {
            return;
        }
        self.metrics.diag_gpu.add(plan.gpu);
        let planned = plan.retrain.iter().map(|slice| slice.samples as f64).sum();
        self.metrics.diag_planned.add(planned);
        let mut job = self.job(s, plan, n);
        self.retrain(s, &mut job);
        // A CPU-offloaded job reads no GPU memory.
        if let Some(chaos) = self.chaos.as_mut().filter(|_| !plan.cpu) {
            job.fixed += chaos.reload(&job, s.t, &mut self.metrics);
        }
        if !self.admit(s, &mut job) {
            return;
        }
        let (batches, per_batch) = self.account_slo(s.t, &job);
        if let Some(quartile) = s.quartile {
            self.observe(quartile, &job, batches, per_batch);
        }
        self.record_accuracy(s.t, &job);
        self.occupy(s.t, &job);
    }

    /// A job before its stages: its cut's cost, its serial-queue wait
    /// and the worst-case inference latency of all its arrivals.
    fn job<'p>(&self, s: &Session, plan: &'p JobPlan, n: u32) -> Job<'p> {
        let cost = self.specs[plan.app].structure_cost(&plan.cuts);
        let wait = if plan.serial {
            self.serial_free_at[plan.app].since(s.t)
        } else {
            SimDuration::ZERO
        };
        // The predictor's baseline is deliberately unstalled: a device
        // stall is the regime change it must track, not read off faults.
        let analytic = match s.quartile {
            Some(_) => self.inference_latency(plan, &cost, plan.batch, &Impairments::NEUTRAL),
            None => SimDuration::ZERO,
        };
        Job {
            plan,
            arrived: n,
            served: n,
            inference: self.inference_latency(plan, &cost, n, &s.imp),
            cost,
            slo: self.specs[plan.app].slo,
            wait,
            fixed: wait,
            taken: 0.0,
            analytic,
        }
    }

    /// GPU time of `samples` samples of `app`'s `slice` on a `gpu` share.
    fn slice_time(&self, app: usize, slice: &RetrainSlice, samples: u32, gpu: f64) -> SimDuration {
        let cost = self.specs[app].nodes[slice.node].profile.full_cost();
        let latency = &self.profiler.latency;
        latency.training_latency(&cost, samples, slice.batch, slice.epochs, gpu)
    }

    /// Retraining stage: each slice stages samples from its node's pool
    /// for SGD and adds its GPU time to the job. When a fault window
    /// collapsed the spare time the plan assumed, the slices are dropped
    /// and their samples stay pooled for calmer sessions.
    fn retrain(&mut self, s: &Session, job: &mut Job) {
        let (plan, app) = (job.plan, job.plan.app);
        let fallback = s.imp.impaired
            && s.degrade.inference_only_under_pressure
            && !plan.retrain.is_empty()
            && {
                let planned = plan.retrain.iter().fold(SimDuration::ZERO, |acc, slice| {
                    acc + self.slice_time(app, slice, slice.samples, plan.gpu)
                });
                should_shed_retraining(job.wait, planned, job.inference, job.slo)
            };
        if fallback {
            self.metrics.dropped_retrain_slices += plan.retrain.len() as u64;
        }
        for slice in plan.retrain.iter().filter(|_| !fallback) {
            let batch = self.apps[app].pools[slice.node].take(slice.samples as usize);
            if batch.is_empty() {
                continue;
            }
            let time = self.slice_time(app, slice, batch.len() as u32, plan.gpu);
            job.taken += batch.len() as f64;
            self.metrics.retrain_samples[app][slice.node] += batch.len() as u64;
            self.stage_train(app, slice.node, batch, slice.epochs.min(2) as usize);
            job.fixed += time;
            self.metrics
                .add_retrain_gpu_time(s.t, time.as_secs_f64() * plan.gpu);
            self.metrics.retrain_latency.add(time.as_millis_f64());
            self.updated_this_period[app][slice.node] = true;
        }
        self.metrics.diag_taken.add(job.taken);
    }

    /// Admission stage: whether any of the job's requests is served. A
    /// serial job whose wait alone exceeds the SLO is a stale frame,
    /// skipped whole (video pipelines shed stale frames rather than
    /// queue without bound). Under a fault window, requests whose batches
    /// cannot end in time are shed up front, judged by the app's latency
    /// forecast once its predictor is warm.
    fn admit(&mut self, s: &Session, job: &mut Job) -> bool {
        let plan = job.plan;
        if plan.serial && job.wait > job.slo {
            self.tally.skipped += self.finish(s.t, 0, job.arrived);
            return false;
        }
        if !(s.imp.impaired && s.degrade.admission_control) {
            return true;
        }
        let forecast = s.quartile.and_then(|_| {
            let feats = job.features(job.arrived);
            self.scheduler.predict_latency(plan.app, &feats)
        });
        let analytic = split_batches(job.inference, job.arrived, plan.batch).1;
        let us = |x: f64| SimDuration::from_micros(x.round() as u64);
        let (per_batch, fixed) = match forecast {
            Some(p) => (us(p.per_batch_us), us(p.fixed_us)),
            None => (analytic, job.fixed),
        };
        let adm = admit_within_slo(job.arrived, plan.batch, per_batch, fixed, job.slo);
        if adm.shed > 0 {
            self.metrics.shed_requests += u64::from(adm.shed);
            self.tally.shed += self.finish(s.t, 0, adm.shed);
            job.served = adm.admitted;
            if job.served == 0 {
                return false;
            }
            job.inference = self.inference_latency(plan, &job.cost, job.served, &s.imp);
        }
        true
    }

    /// SLO accounting stage: the served requests run as sequential
    /// batches, each an equal share of the inference latency. Returns
    /// the batch count and one batch's service time.
    fn account_slo(&mut self, t: SimTime, job: &Job) -> (u32, SimDuration) {
        let (batches, per_batch) = split_batches(job.inference, job.served, job.plan.batch);
        let hits = in_slo(job.served, job.plan.batch, per_batch, job.fixed, job.slo);
        self.tally.late += self.finish(t, hits, job.served);
        self.metrics
            .inference_latency
            .add(job.inference.as_millis_f64());
        let latency = (job.fixed + job.inference).as_millis_f64();
        self.metrics.per_app_latency[job.plan.app].add(latency);
        (batches, per_batch)
    }

    /// Predictor observation stage: forecasts the job's observed shape
    /// *before* folding its outcome in (an honest out-of-sample error),
    /// then streams the observation, so every completed job trains it.
    fn observe(&mut self, quartile: usize, job: &Job, batches: u32, per_batch: SimDuration) {
        let feats = job.features(job.served);
        let fixed_us = job.fixed.as_micros() as f64;
        let per_batch_us = per_batch.as_micros() as f64;
        let total_us = fixed_us + per_batch_us * batches as f64;
        if let Some(p) = self.scheduler.predict_latency(job.plan.app, &feats) {
            let m = &mut self.metrics;
            m.pred_abs_err_us
                .add((p.total_us(batches) - total_us).abs());
            // Quartile buckets hold the *relative* error of the
            // per-batch forecast: present in every job and scale-free,
            // it isolates model convergence, while the total error also
            // carries the retraining mix that drift brings.
            let pb_err = (p.per_batch_us - per_batch_us).abs();
            m.pred_rel_err_quartiles[quartile].add(pb_err / per_batch_us.max(1.0));
            let slo_us = job.slo.as_micros() as f64;
            if p.headroom_us(slo_us, batches) >= 0.0 {
                m.headroom_predicted_fit += 1;
                m.headroom_violations += u64::from(total_us > slo_us);
            }
        }
        self.scheduler
            .observe_latency(job.plan.app, &feats, per_batch_us, fixed_us);
    }

    /// Accuracy stage, weighted by the served requests: each node's, the
    /// app's as its leaves' mean, and the share of the nodes scheduled
    /// for retraining this period that already were (Fig 4b).
    fn record_accuracy(&mut self, t: SimTime, job: &Job) {
        let (app, w) = (job.plan.app, job.served as f64);
        let nodes = &self.specs[app].nodes;
        let (mut leaf_sum, mut leaves) = (0.0, 0usize);
        for node in 0..nodes.len() {
            let acc = self.apps[app].accuracy(node, job.plan.cuts[node]);
            self.metrics.per_node_accuracy[app][node].record(t, acc * w, w);
            // Nodes are in topological order: a leaf feeds no later node.
            if !nodes[node + 1..].iter().any(|n| n.upstream == Some(node)) {
                leaf_sum += acc;
                leaves += 1;
            }
        }
        let acc = leaf_sum / leaves.max(1) as f64;
        self.metrics.accuracy.record(t, acc * w, w);
        self.metrics.accuracy_fine.record(t, acc * w, w);
        self.metrics.per_app_accuracy[app].record(t, acc * w, w);
        let (mut scheduled, mut updated) = (0usize, 0usize);
        let flags = &self.updated_this_period[app];
        for (&s, &u) in self.scheduled_retrain[app].iter().zip(flags) {
            scheduled += usize::from(s);
            updated += usize::from(s && u);
        }
        let frac = if scheduled == 0 {
            1.0
        } else {
            updated as f64 / scheduled as f64
        };
        self.metrics.updated_model.record(t, frac * w, w);
    }

    /// Capacity stage: a GPU job holds its share until it ends (a serial
    /// one not while queued), the app's serial queue frees at its end,
    /// and its service time feeds the job-time EWMA.
    fn occupy(&mut self, t: SimTime, job: &Job) {
        let (plan, end) = (job.plan, t + job.fixed + job.inference);
        if plan.serial {
            self.serial_free_at[plan.app] = end;
        }
        let service = end.since(t + job.wait);
        if !plan.cpu {
            self.server.record_busy(t + job.wait, service, plan.gpu);
            self.reserve(plan.gpu, end);
        }
        let ewma = self.avg_job_time.as_micros() as f64 * 0.95;
        let job_time = ewma + service.as_micros() as f64 * 0.05;
        self.avg_job_time = SimDuration::from_micros(job_time as u64);
    }

    /// Records `hits` of `n` requests as finished within the SLO, and
    /// returns the misses for the caller to tally by kind.
    fn finish(&mut self, t: SimTime, hits: u32, n: u32) -> u64 {
        self.tally.in_slo += u64::from(hits);
        self.metrics.finish.record(t, hits as f64, n as f64);
        u64::from(n - hits)
    }

    /// Stages a retraining slice; fires an SGD step once a full batch of
    /// samples has accumulated for the (app, node).
    fn stage_train(&mut self, app: usize, node: usize, batch: LabeledSamples, epochs: usize) {
        if batch.is_empty() {
            return;
        }
        self.stage[app][node].push(batch);
        let total: usize = self.stage[app][node].iter().map(|b| b.len()).sum();
        if total >= STAGE_THRESHOLD {
            self.flush_stage(app, node, epochs);
        }
    }

    /// The RNG-ordered half of a staged flush: assembles the training
    /// set for (app, node) — rehearsal draw from the replay reservoir,
    /// shuffle, reservoir fold-in — and returns it, WITHOUT training.
    /// All harness-RNG consumption of a flush happens here, in the
    /// exact order of the original fused routine (the hoisted
    /// `train_slice` consumed no RNG), so boundary flushes can prepare
    /// every (app, node) sequentially and fan the pure SGD work out in
    /// parallel, bit-identically. `last` marks the period boundary's
    /// flush, after which the reservoir is dropped: it makes the fold-in's
    /// draws but gathers no rows.
    fn prepare_flush(&mut self, app: usize, node: usize, last: bool) -> Option<LabeledSamples> {
        if self.stage[app][node].is_empty() {
            return None;
        }
        let parts = std::mem::take(&mut self.stage[app][node]);
        let refs: Vec<&LabeledSamples> = parts.iter().collect();
        let fresh = LabeledSamples::concat(&refs);
        let reservoir = &mut self.replay[app][node];
        let shuffled = rehearsal_set(reservoir, &fresh, &mut self.rng);
        if last {
            // The boundary drops the reservoir right after this flush:
            // only the update's draws, which later flushes' streams
            // depend on, still matter.
            draw_keep(reservoir.len(), fresh.len(), &mut self.rng);
        } else {
            absorb(reservoir, &mut self.replay_spare, &fresh, &mut self.rng);
        }
        Some(shuffled)
    }

    /// Applies any staged samples of (app, node) as one SGD slice,
    /// rehearsing an equal-sized draw from the replay reservoir and
    /// shuffling, then folds the new samples into the reservoir.
    fn flush_stage(&mut self, app: usize, node: usize, epochs: usize) {
        if let Some(shuffled) = self.prepare_flush(app, node, false) {
            let w = WallTimer::start();
            self.apps[app].models[node].train_slice(&shuffled, epochs.max(1));
            self.train_wall_ns += w.elapsed_nanos();
        }
    }

    fn finalize(&mut self) {
        // Request conservation: every arrival has one outcome, and
        // `total_requests` counts those of the apps the scheduler planned.
        let (c, total) = (self.tally, self.metrics.total_requests);
        assert!(
            c.in_slo + c.late + c.shed + c.skipped + c.unplanned == c.arrived
                && total + c.unplanned == c.arrived,
            "requests not conserved: {c:?}, total_requests {total}"
        );
        let (hits, misses, evictions) = self.scheduler.cache_stats();
        self.metrics.cache_hits = hits;
        self.metrics.cache_misses = misses;
        self.metrics.cache_evictions = evictions;
        self.metrics.drift_detect_ns = self.scheduler.drift_overhead_ns() as u64;
        self.metrics.drift_detect_period_us = self
            .scheduler
            .drift_period_ns()
            .iter()
            .map(|&ns| ns as f64 / 1e3)
            .collect();
        self.metrics.drift_blocked_ns = self.metrics.drift_detect_ns;
        self.metrics.serve_ns = self.serve_wall_ns as u64;
        self.metrics.train_ns = self.train_wall_ns as u64;
        // The run's resolved pool width: the widest fan-out of either
        // the scheduler's drift pools or the harness's boundary
        // training stage; `None` when neither ever fanned out, so the
        // bench omits the column for pool-less rows.
        self.metrics.worker_threads = match (self.scheduler.worker_threads(), self.train_pool_width)
        {
            (None, 0) => None,
            (sched, train) => Some(sched.unwrap_or(0).max(train)),
        };
        if let Some(chaos) = &self.chaos {
            self.metrics.storm_evictions = chaos.mem.stats().pressure_evictions;
        }
        let alloc = self.server.utilization_per_second();
        // nvidia-smi-style utilization: a GPU counts as utilized in any
        // second in which kernels were resident — with hundreds of
        // MPS-multiplexed jobs per second this is ~100 % whenever there
        // is any load at all (Fig 21).
        self.metrics.utilization = alloc
            .iter()
            .map(|&a| if a > 0.005 { 1.0 } else { 0.0 })
            .collect();
        self.metrics.allocation = alloc;
    }
}

/// Convenience: run one configuration to completion.
pub fn run(config: RunConfig) -> RunMetrics {
    Simulation::new(config).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use adainf_driftgen::{TaskStream, TaskStreamConfig};

    /// A flush as it was before the reservoir gathered its rows: the
    /// training set selected, in shuffled order, out of the fresh rows
    /// concatenated with the drawn reservoir subset, and the reservoir
    /// concatenated with the fresh rows, then shuffle-selected down to
    /// the cap when over it. Returns `(training set, new reservoir)`.
    fn concat_then_select(
        reservoir: &LabeledSamples,
        fresh: &LabeledSamples,
        rng: &mut Prng,
    ) -> (LabeledSamples, LabeledSamples) {
        let mix = if reservoir.is_empty() {
            fresh.clone()
        } else {
            let draw: Vec<usize> = (0..(fresh.len() / 2).min(reservoir.len()))
                .map(|_| rng.index(reservoir.len()))
                .collect();
            LabeledSamples::concat(&[fresh, &reservoir.select(&draw)])
        };
        let mut order: Vec<usize> = (0..mix.len()).collect();
        rng.shuffle(&mut order);
        let shuffled = mix.select(&order);
        let mut merged = LabeledSamples::concat(&[reservoir, fresh]);
        if merged.len() > REPLAY_CAP {
            let mut keep: Vec<usize> = (0..merged.len()).collect();
            rng.shuffle(&mut keep);
            keep.truncate(REPLAY_CAP);
            merged = merged.select(&keep);
        }
        (shuffled, merged)
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

    /// Gathering the training set and the reservoir straight from their
    /// sources must reproduce the concatenate-then-select flush bit for
    /// bit — below, exactly at and above the reservoir cap, through
    /// buffers reused across flushes — and leave the harness RNG at the
    /// same next draw.
    #[test]
    fn gathered_reservoir_bit_matches_concat_then_select() {
        let root = Prng::new(17);
        let mut stream = TaskStream::new(TaskStreamConfig::new("r", 6, 3), &root);
        let mut rng = Prng::new(5);
        let mut reference_rng = rng.clone();
        let (mut reservoir, mut spare) = (LabeledSamples::empty(), LabeledSamples::empty());
        let mut reference = LabeledSamples::empty();
        let mut totals = Vec::new();
        // Running totals: 64, 264, 964, 1024 (the cap), 1088, 1154, 1025,
        // 1924, 1088.
        for (flush, n) in [64, 200, 700, 60, 64, 130, 1, 900, 64]
            .into_iter()
            .enumerate()
        {
            let fresh = stream.sample(n);
            totals.push(reference.len() + n);
            let got = rehearsal_set(&reservoir, &fresh, &mut rng);
            absorb(&mut reservoir, &mut spare, &fresh, &mut rng);
            let (want, merged) = concat_then_select(&reference, &fresh, &mut reference_rng);
            reference = merged;
            assert_bit_equal(&got, &want, &format!("flush {flush}: training set"));
            assert_bit_equal(&reservoir, &reference, &format!("flush {flush}: reservoir"));
        }
        assert!(totals.iter().any(|&t| t < REPLAY_CAP), "{totals:?}");
        assert!(totals.contains(&REPLAY_CAP), "{totals:?}");
        assert!(totals.iter().any(|&t| t > REPLAY_CAP), "{totals:?}");
        // The boundary's last flush draws but gathers no reservoir rows.
        let fresh = stream.sample(100);
        let got = rehearsal_set(&reservoir, &fresh, &mut rng);
        assert!(draw_keep(reservoir.len(), fresh.len(), &mut rng).is_some());
        let (want, _) = concat_then_select(&reference, &fresh, &mut reference_rng);
        assert_bit_equal(&got, &want, "last flush: training set");
        assert_eq!(rng.next_u64(), reference_rng.next_u64());
    }

    /// `in_slo`'s reference, batch by batch: the batches end one after
    /// another, and each that ends within the SLO counts its requests.
    fn in_slo_by_batch(
        n: u32,
        batch: u32,
        per_batch: SimDuration,
        fixed: SimDuration,
        slo: SimDuration,
    ) -> u32 {
        let n_batches = n.div_ceil(batch.max(1));
        let mut hits = 0u32;
        for i in 0..n_batches {
            let done = fixed + per_batch * (i as u64 + 1);
            if done <= slo {
                let size = if i + 1 == n_batches && !n.is_multiple_of(batch) {
                    n % batch
                } else {
                    batch.min(n)
                };
                hits += size;
            }
        }
        hits
    }

    /// The closed-form SLO count equals the per-batch loop on every small
    /// job: fixed time past, at and inside the SLO, free batches, and
    /// request counts that do and do not fill their last batch.
    #[test]
    fn closed_form_slo_count_matches_the_per_batch_loop() {
        for batch in 1..=9 {
            for n in 1..=40 {
                for per_batch in (0..=7).map(SimDuration) {
                    for fixed in (0..=40).map(SimDuration) {
                        for slo in (0..=40).map(SimDuration) {
                            assert_eq!(
                                in_slo(n, batch, per_batch, fixed, slo),
                                in_slo_by_batch(n, batch, per_batch, fixed, slo),
                                "{n} requests in batches of {batch}, {per_batch:?} each, \
                                 fixed {fixed:?}, SLO {slo:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    fn tiny(method: Method) -> RunConfig {
        RunConfig {
            seed: 9,
            duration: SimDuration::from_secs(100),
            num_gpus: 4,
            num_apps: 2,
            base_rate: 4000.0,
            pool_size: 400,
            method,
            comm: None,
            device_factors: Arc::from([]),
            chaos: None,
            train_workers: 0,
        }
    }

    /// At 100 requests/s an app's predicted count often rounds to zero,
    /// so requests arrive for apps the scheduler did not plan: they are
    /// tallied as unplanned, and the run's requests still balance.
    #[test]
    fn unplanned_arrivals_are_tallied_and_conserved() {
        let mut sim = Simulation::new(RunConfig {
            base_rate: 100.0,
            ..tiny(Method::AdaInf(AdaInfConfig::default()))
        });
        sim.open_period(SimTime::ZERO);
        for si in 0..2000 {
            sim.step_session(SimTime::from_micros(si * SESSION.as_micros()));
        }
        sim.finalize();
        let tally = sim.tally;
        assert!(tally.unplanned > 0 && tally.in_slo > 0, "{tally:?}");
    }

    #[test]
    fn adainf_run_produces_metrics() {
        let m = run(tiny(Method::AdaInf(AdaInfConfig::default())));
        assert_eq!(m.name, "AdaInf");
        assert!(m.total_requests > 10_000, "requests {}", m.total_requests);
        assert!(m.mean_accuracy() > 0.5, "accuracy {}", m.mean_accuracy());
        assert!(
            m.mean_finish_rate() > 0.5,
            "finish {}",
            m.mean_finish_rate()
        );
        assert_eq!(m.accuracy.len(), 2, "two periods in 100 s");
        assert!(!m.utilization.is_empty());
    }

    #[test]
    fn ekya_run_produces_metrics() {
        let m = run(tiny(Method::Ekya));
        assert_eq!(m.name, "Ekya");
        assert!(m.total_requests > 10_000);
        assert!(m.mean_accuracy() > 0.4);
        // Ekya spends edge GPU time retraining.
        let retrain: f64 = m.retrain_gpu_seconds.iter().sum();
        assert!(retrain > 1.0, "retrain gpu-s {retrain}");
        assert_eq!(m.edge_cloud_bytes, 0);
    }

    /// Drift work runs on the serving loop's own boundary, so the run's
    /// drift stall is its drift clock: positive for AdaInf, zero for a
    /// scheduler that runs no drift detection.
    #[test]
    fn drift_stall_is_the_drift_clock() {
        let m = run(tiny(Method::AdaInf(AdaInfConfig::default())));
        assert!(m.drift_detect_ns > 0);
        assert_eq!(m.drift_blocked_ns, m.drift_detect_ns);
        let m = run(tiny(Method::Ekya));
        assert_eq!((m.drift_detect_ns, m.drift_blocked_ns), (0, 0));
    }

    #[test]
    fn scrooge_ships_data_to_cloud() {
        let m = run(tiny(Method::Scrooge));
        assert!(m.edge_cloud_bytes > 1_000_000_000, "{}", m.edge_cloud_bytes);
        // No edge retraining time from jobs.
        let retrain: f64 = m.retrain_gpu_seconds.iter().sum();
        assert_eq!(retrain, 0.0);
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run(tiny(Method::AdaInf(AdaInfConfig::default())));
        let b = run(tiny(Method::AdaInf(AdaInfConfig::default())));
        assert_eq!(a.total_requests, b.total_requests);
        assert!((a.mean_accuracy() - b.mean_accuracy()).abs() < 1e-12);
        assert!((a.mean_finish_rate() - b.mean_finish_rate()).abs() < 1e-12);
    }

    #[test]
    fn shed_frames_miss_without_consuming_service_time() {
        // Ekya plans are serial: jam every app's queue far into the
        // future so every frame's queueing delay alone exceeds its SLO,
        // and the whole session must shed.
        let mut sim = Simulation::new(tiny(Method::Ekya));
        sim.open_period(SimTime::ZERO);
        let jammed = SimTime::from_secs(3600);
        for f in sim.serial_free_at.iter_mut() {
            *f = jammed;
        }
        sim.step_session(SimTime::from_millis(5));
        // Shed frames count as missed arrivals...
        assert!(sim.metrics.total_requests > 0);
        assert_eq!(sim.metrics.finish.mean_ratio(), 0.0);
        // ...but occupy no service time: no inference ran and the queue
        // tail did not move.
        assert_eq!(sim.metrics.inference_latency.count(), 0);
        assert!(sim.serial_free_at.iter().all(|&f| f == jammed));
    }

    /// After every boundary of a 3-app, 4-period run no app holds a
    /// retired set, whichever scheduler's hook ran: AdaInf's takes them,
    /// Ekya's and Scrooge's read none and leave them to the harness.
    #[test]
    fn no_app_holds_a_retired_set_after_a_boundary() {
        for method in [
            Method::AdaInf(AdaInfConfig::default()),
            Method::Ekya,
            Method::Scrooge,
        ] {
            let name = method.name();
            let mut sim = Simulation::new(RunConfig {
                num_apps: 3,
                ..tiny(method)
            });
            for period in 0..4u64 {
                if period > 0 {
                    sim.close_period();
                    assert!(sim
                        .apps
                        .iter()
                        .all(|rt| rt.retired.len() == rt.models.len()));
                }
                sim.open_period(SimTime::from_micros(period * PERIOD.as_micros()));
                assert!(
                    sim.apps.iter().all(|rt| rt.retired.is_empty()),
                    "{name} period {period}"
                );
            }
        }
    }

    #[test]
    fn validate_names_each_rejected_field() {
        let field = |edit: fn(&mut RunConfig)| {
            let mut cfg = RunConfig::default();
            edit(&mut cfg);
            cfg.validate().err().map(|e| e.field)
        };
        assert_eq!(field(|_| {}), None);
        assert_eq!(field(|c| c.num_apps = 14), None);
        assert_eq!(field(|c| c.duration = SESSION), None);
        assert_eq!(field(|c| c.num_apps = 0), Some("num_apps"));
        assert_eq!(field(|c| c.num_apps = 15), Some("num_apps"));
        assert_eq!(field(|c| c.num_gpus = 0), Some("num_gpus"));
        assert_eq!(field(|c| c.duration = SimDuration::ZERO), Some("duration"));
        let partial = |c: &mut RunConfig| c.duration = SESSION + SimDuration::from_micros(1);
        assert_eq!(field(partial), Some("duration"));
        for rate in [0.0, -5.0, f64::NAN, f64::INFINITY] {
            let cfg = RunConfig {
                base_rate: rate,
                ..RunConfig::default()
            };
            let e = cfg.validate().unwrap_err();
            assert_eq!(e.field, "base_rate", "rate {rate}");
            assert!(e.to_string().starts_with("invalid `base_rate`: "), "{e}");
        }
        // The factors override `num_gpus`, so their count is free.
        let fleet = |factors: &[f64]| {
            let cfg = RunConfig {
                device_factors: factors.into(),
                ..RunConfig::default()
            };
            cfg.validate().err().map(|e| e.field)
        };
        assert_eq!(fleet(&[1.0, 1.0, 0.5, 0.5, 0.5, 0.5]), None);
        for bad in [0.0, -0.5, f64::NAN, f64::INFINITY] {
            assert_eq!(fleet(&[1.0, bad]), Some("device_factors"), "factor {bad}");
        }
        // AdaInf's ranged fields, set one at a time.
        let adainf = |field: &str, x: f64| {
            let mut c = AdaInfConfig::default();
            *match field {
                "method.a_m" => &mut c.a_m,
                _ => &mut c.s_init,
            } = x;
            let cfg = RunConfig {
                method: Method::AdaInf(c),
                ..RunConfig::default()
            };
            cfg.validate().err().map(|e| e.to_string())
        };
        // The ends the figure sweeps reach: A_m and S up to 1.
        let ends = [("method.a_m", 1.0), ("method.s_init", 1.0)];
        for (field, x) in ends {
            assert_eq!(adainf(field, x), None, "{field} = {x}");
        }
        let (nan, inf) = (f64::NAN, f64::INFINITY);
        let rejected = [
            ("method.a_m", [0.0, 1.5, nan, inf]),
            ("method.s_init", [0.0, -0.03, 1.01, nan]),
        ];
        for (field, values) in rejected {
            for x in values {
                let e = adainf(field, x).expect("rejected");
                assert!(
                    e.starts_with(&format!("invalid `{field}`: ")),
                    "{field} = {x}: {e}"
                );
            }
        }
        // Only AdaInf carries these fields.
        assert_eq!(field(|c| c.method = Method::Ekya), None);
    }

    #[test]
    fn empty_fault_spec_builds_no_chaos_runtime() {
        let mut cfg = tiny(Method::AdaInf(AdaInfConfig::default()));
        cfg.chaos = Some(ChaosConfig::scenario(FaultSpec::none(7)));
        let sim = Simulation::new(cfg);
        assert!(sim.chaos.is_none());
    }

    #[test]
    fn chaos_run_degrades_gracefully_under_full_chaos() {
        let mut cfg = tiny(Method::AdaInf(AdaInfConfig::default()));
        cfg.duration = SimDuration::from_secs(50);
        cfg.chaos = Some(ChaosConfig::scenario(FaultSpec::chaos(7)));
        let m = run(cfg);
        // Faults were seen and the run still served most traffic.
        assert!(m.fault_sessions > 0);
        assert!(m.total_requests > 0);
        assert!(
            m.mean_finish_rate() > 0.2,
            "finish {}",
            m.mean_finish_rate()
        );
    }

    #[test]
    fn adainf_consumes_pool_samples() {
        let m = run(tiny(Method::AdaInf(AdaInfConfig::default())));
        assert!(
            !m.samples_used.is_empty() && m.samples_used.iter().any(|&f| f > 0.05),
            "samples used {:?}",
            m.samples_used
        );
    }
}
