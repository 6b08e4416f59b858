//! The traced driver: `harness::sim`'s session and boundary loop,
//! repeated step for step from outside the program so that each call
//! into a layer can carry a span.
//!
//! [`run`] makes the same public calls as `Simulation::new` and
//! `Simulation::run`, with the same seeds and in the same order, so it
//! consumes every random stream identically and its `RunMetrics` must
//! equal the simulator's bit for bit (`perf trace` checks this and
//! reports it as `trace.faithful`). Only the host wall-clock phase
//! counters of `RunMetrics` (serve/train walls, decision overhead) are
//! left out: spans measure those here.
//!
//! Each call into a layer is a span with a parent: the session, boundary,
//! set-up or finalize span it happened in. A span's self time is its
//! duration minus that of its children; the root spans' self time is the
//! replicated harness bookkeeping (`harness.loop`, `harness.setup`).
//! Aggregates cover every call; per-call self times go into fixed
//! log-bucket histograms. The spans of every boundary and of every 64th
//! session are also kept, for a JSONL dump.
//!
//! This is a stopgap until the program carries its own spans: a change
//! to `harness::sim` must be mirrored here, or `trace.faithful` turns
//! false.

use adainf_apps::{apps_for_count, AppRuntime, AppSpec};
use adainf_baselines::EkyaScheduler;
use adainf_core::degrade::{admit_within_slo, should_shed_retraining, DegradePolicy, ReloadState};
use adainf_core::plan::{BulkRetrain, RetrainSlice, Scheduler, SessionCtx};
use adainf_core::predict::LatencyFeatures;
use adainf_core::profiler::Profiler;
use adainf_core::AdaInfScheduler;
use adainf_driftgen::faultgen::FaultWindow;
use adainf_driftgen::workload::ArrivalConfig;
use adainf_driftgen::{FaultKind, FaultTimeline, Impairments, LabeledSamples};
use adainf_gpusim::memory::AccessIntent;
use adainf_gpusim::{ContentKey, EdgeServer, GpuMemory, GpuSpec, LatencyModel, TaskContext};
use adainf_harness::{Method, RunConfig, RunMetrics};
use adainf_modelzoo::{TrainSliceScratch, TrainableModel};
use adainf_nn::Matrix;
use adainf_simcore::parallel;
use adainf_simcore::time::{PERIOD, SESSION};
use adainf_simcore::walltime::WallTimer;
use adainf_simcore::{Prng, SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io::Write as _;
use std::sync::Arc;

/// A layer of the program, as the spans see it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    AppsNew,
    AppsAccuracy,
    Arrivals,
    AdvancePeriod,
    PoolTake,
    Samples,
    Faults,
    OnPeriodStart,
    OnSession,
    Predict,
    Degrade,
    Latency,
    Memory,
    Train,
    Loop,
    Setup,
}

/// Every layer, in report order.
pub const LAYERS: [Layer; 16] = [
    Layer::AppsNew,
    Layer::AppsAccuracy,
    Layer::Arrivals,
    Layer::AdvancePeriod,
    Layer::PoolTake,
    Layer::Samples,
    Layer::Faults,
    Layer::OnPeriodStart,
    Layer::OnSession,
    Layer::Predict,
    Layer::Degrade,
    Layer::Latency,
    Layer::Memory,
    Layer::Train,
    Layer::Loop,
    Layer::Setup,
];

impl Layer {
    /// The layer's metric prefix. The scheduler hooks are named after
    /// the crate that implements the scheduler: `core` for AdaInf,
    /// `baselines` for Ekya and Scrooge.
    pub fn name(self, sched_crate: &str) -> String {
        match self {
            Layer::AppsNew => "apps.new".into(),
            Layer::AppsAccuracy => "apps.accuracy".into(),
            Layer::Arrivals => "driftgen.arrivals".into(),
            Layer::AdvancePeriod => "driftgen.advance_period".into(),
            Layer::PoolTake => "driftgen.pool_take".into(),
            Layer::Samples => "driftgen.samples".into(),
            Layer::Faults => "driftgen.faults".into(),
            Layer::OnPeriodStart => format!("{sched_crate}.on_period_start"),
            Layer::OnSession => format!("{sched_crate}.on_session"),
            Layer::Predict => "core.predict".into(),
            Layer::Degrade => "core.degrade".into(),
            Layer::Latency => "gpusim.latency".into(),
            Layer::Memory => "gpusim.memory".into(),
            Layer::Train => "modelzoo.train".into(),
            Layer::Loop => "harness.loop".into(),
            Layer::Setup => "harness.setup".into(),
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Log-bucket histogram of nanosecond durations: 8 buckets per octave
/// from 1 ns to about 18 minutes, so a quantile is within 1/16 of the
/// true value and memory stays flat however many calls are recorded.
#[derive(Clone)]
pub struct LogHist {
    buckets: Vec<u64>,
    count: u64,
    max: u64,
}

const SUB: u32 = 8;
const OCTAVES: u32 = 40;

impl Default for LogHist {
    fn default() -> Self {
        LogHist {
            buckets: vec![0; (SUB * OCTAVES) as usize],
            count: 0,
            max: 0,
        }
    }
}

impl LogHist {
    fn bucket(ns: u64) -> usize {
        if ns == 0 {
            return 0;
        }
        let octave = 63 - ns.leading_zeros();
        // The three bits after the leading one pick the sub-bucket.
        let sub = if octave >= 3 {
            (ns >> (octave - 3)) & 7
        } else {
            (ns << (3 - octave)) & 7
        };
        ((octave * SUB) as usize + sub as usize).min((SUB * OCTAVES) as usize - 1)
    }

    fn midpoint(bucket: usize) -> f64 {
        let octave = bucket as u32 / SUB;
        let sub = bucket as u32 % SUB;
        let lo = (1u64 << octave) as f64 * (1.0 + sub as f64 / SUB as f64);
        lo * (1.0 + 0.5 / SUB as f64)
    }

    /// Records one duration.
    pub fn add(&mut self, ns: u64) {
        self.buckets[Self::bucket(ns)] += 1;
        self.count += 1;
        self.max = self.max.max(ns);
    }

    /// Nearest-rank quantile `q` in nanoseconds (0 when empty), as the
    /// bucket midpoint clamped to the largest value seen.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::midpoint(i).min(self.max as f64);
            }
        }
        self.max as f64
    }
}

/// Aggregate of one layer's spans.
#[derive(Clone, Default)]
pub struct LayerStats {
    /// Calls into the layer.
    pub calls: u64,
    /// Summed self time, ns.
    pub self_ns: u64,
    /// Per-call self time.
    pub hist: LogHist,
}

struct Open {
    layer: Layer,
    id: u64,
    parent: u64,
    start: u64,
    child: u64,
}

/// One kept span.
pub struct Span {
    id: u64,
    parent: u64,
    kind: &'static str,
    index: u64,
    layer: Layer,
    start_ns: u64,
    end_ns: u64,
    jobs: u64,
}

/// An open span's handle; [`Tracer::end`] must receive the innermost.
#[must_use]
pub struct Tok(usize);

/// Span recorder.
pub struct Tracer {
    clock: WallTimer,
    stats: Vec<LayerStats>,
    stack: Vec<Open>,
    kept: Vec<Span>,
    keep: bool,
    kind: &'static str,
    index: u64,
    next_id: u64,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            clock: WallTimer::start(),
            stats: vec![LayerStats::default(); LAYERS.len()],
            stack: Vec::new(),
            kept: Vec::new(),
            keep: true,
            kind: "setup",
            index: 0,
            next_id: 1,
        }
    }

    fn now(&self) -> u64 {
        self.clock.elapsed_nanos() as u64
    }

    /// Opens a root span: the set-up, a boundary, a session (`index` is
    /// its session index) or the finalize step.
    fn root(&mut self, kind: &'static str, index: u64, layer: Layer) -> Tok {
        debug_assert!(self.stack.is_empty(), "root span inside another span");
        self.kind = kind;
        self.index = index;
        self.keep = kind != "session" || index.is_multiple_of(64);
        self.begin(layer)
    }

    /// Opens a span of `layer` under the innermost open span.
    pub fn begin(&mut self, layer: Layer) -> Tok {
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.stack.last().map_or(0, |o| o.id);
        self.stack.push(Open {
            layer,
            id,
            parent,
            start: self.now(),
            child: 0,
        });
        Tok(self.stack.len())
    }

    /// Closes the innermost span as one call.
    pub fn end(&mut self, tok: Tok) {
        self.close(tok, None);
    }

    /// Closes a span that ran `job_ns.len()` calls in parallel (the
    /// boundary training fan-out): each job counts as a call and its
    /// own time goes into the histogram, while the span's self time is
    /// its wall time.
    fn end_jobs(&mut self, tok: Tok, job_ns: &[u64]) {
        self.close(tok, Some(job_ns));
    }

    fn close(&mut self, tok: Tok, jobs: Option<&[u64]>) {
        let end = self.now();
        assert_eq!(tok.0, self.stack.len(), "spans must close innermost first");
        let o = self.stack.pop().expect("an open span per token");
        let dur = end.saturating_sub(o.start);
        let self_ns = dur.saturating_sub(o.child);
        let st = &mut self.stats[o.layer.index()];
        st.self_ns += self_ns;
        match jobs {
            Some(js) => {
                st.calls += js.len() as u64;
                js.iter().for_each(|&ns| st.hist.add(ns));
            }
            None => {
                st.calls += 1;
                st.hist.add(self_ns);
            }
        }
        if let Some(p) = self.stack.last_mut() {
            p.child += dur;
        }
        if self.keep {
            self.kept.push(Span {
                id: o.id,
                parent: o.parent,
                kind: self.kind,
                index: self.index,
                layer: o.layer,
                start_ns: o.start,
                end_ns: end,
                jobs: jobs.map_or(0, |j| j.len() as u64),
            });
        }
    }

    /// Aggregates of `layer`.
    pub fn stats(&self, layer: Layer) -> &LayerStats {
        &self.stats[layer.index()]
    }

    /// Writes the kept spans as JSON lines.
    pub fn write_jsonl(&self, path: &std::path::Path, sched_crate: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.kept {
            writeln!(
                f,
                "{{\"id\": {}, \"parent\": {}, \"root\": \"{}\", \"session\": {}, \"layer\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"jobs\": {}}}",
                s.id,
                s.parent,
                s.kind,
                s.index,
                s.layer.name(sched_crate),
                s.start_ns,
                s.end_ns,
                s.jobs
            )?;
        }
        f.flush()
    }
}

/// `span!(tracer, layer, expr)`: evaluates `expr` inside a span.
macro_rules! span {
    ($tr:expr, $layer:expr, $e:expr) => {{
        let tok = $tr.begin($layer);
        let out = $e;
        $tr.end(tok);
        out
    }};
}

/// Work counts taken at the layer boundaries.
#[derive(Clone, Debug, Default)]
pub struct Counters {
    /// Samples handed out by `RetrainPool::take`.
    pub pool_take_samples: u64,
    /// Samples passed to `train_slice` / `train_slice_with`.
    pub train_samples: u64,
    /// Job plans returned by `on_session`.
    pub jobs: u64,
    /// `AppRuntime::accuracy` calls answered from its cache.
    pub acc_hits: u64,
    /// `AppRuntime::accuracy` calls that re-scored.
    pub acc_misses: u64,
    /// Arrivals the loop drew (after fault rate gains).
    pub arrivals: u64,
    /// AdaInf's drift artifact cache `(hits, misses)`.
    pub drift_cache: (u64, u64),
    /// Evictions in the fault memory model.
    pub evictions: u64,
}

/// The schedulers the workloads run. Both score every node through
/// `AppRuntime::accuracy` in their period hook, which the accuracy-cache
/// hit count relies on.
enum Sched {
    AdaInf(Box<AdaInfScheduler>),
    Ekya(Box<EkyaScheduler>),
}

impl Sched {
    fn get(&mut self) -> &mut dyn Scheduler {
        match self {
            Sched::AdaInf(s) => s.as_mut(),
            Sched::Ekya(s) => s.as_mut(),
        }
    }

    fn get_ref(&self) -> &dyn Scheduler {
        match self {
            Sched::AdaInf(s) => s.as_ref(),
            Sched::Ekya(s) => s.as_ref(),
        }
    }
}

/// The crate implementing `method`'s scheduler.
pub fn sched_crate(method: &Method) -> &'static str {
    match method {
        Method::AdaInf(_) => "core",
        _ => "baselines",
    }
}

struct PendingBulk {
    plan: BulkRetrain,
    samples: LabeledSamples,
}

#[derive(Default)]
struct SessionScratch {
    actual: Vec<u32>,
    predicted: Vec<u32>,
    pool_remaining: Vec<Vec<usize>>,
    served: Vec<bool>,
}

struct ChaosRuntime {
    timeline: FaultTimeline,
    degrade: DegradePolicy,
    mem: GpuMemory,
    starve: Vec<FaultWindow>,
    starve_cursor: usize,
    pressure_active: bool,
    reload: Vec<ReloadState>,
    param_keys: Vec<Vec<(ContentKey, u64)>>,
    degraded_penalty: Vec<SimDuration>,
}

/// Mirrors `harness::sim`'s constants of the same names.
const STAGE_THRESHOLD: usize = 64;
const REPLAY_CAP: usize = 1024;

fn empty_samples() -> LabeledSamples {
    LabeledSamples {
        inputs: Matrix::zeros(0, 1),
        labels: Vec::new(),
    }
}

struct Driver {
    config: RunConfig,
    specs: Arc<[AppSpec]>,
    apps: Vec<AppRuntime>,
    server: EdgeServer,
    sched: Sched,
    metrics: RunMetrics,
    profiler: Arc<Profiler>,
    releases: BinaryHeap<Reverse<(u64, u64)>>,
    in_use_milli: u64,
    avg_job_time: SimDuration,
    predicted_ewma: Vec<f64>,
    pending_bulk: Vec<PendingBulk>,
    updated_this_period: Vec<Vec<bool>>,
    scheduled_retrain: Vec<Vec<bool>>,
    stage: Vec<Vec<Vec<LabeledSamples>>>,
    replay: Vec<Vec<LabeledSamples>>,
    rng: Prng,
    serial_free_at: Vec<SimTime>,
    scratch: SessionScratch,
    chaos: Option<ChaosRuntime>,
    train_pool_width: usize,
    tr: Tracer,
    counters: Counters,
    /// Per (app, node): the `(trained_samples / 256, period)` key of
    /// the runtime's accuracy cache, tracked to count cache hits.
    acc_key: Vec<Vec<(u64, u64)>>,
}

/// A finished traced run.
pub struct Traced {
    /// The run's metrics (host wall-clock counters excluded).
    pub metrics: RunMetrics,
    /// Spans and per-layer aggregates.
    pub tracer: Tracer,
    /// Work counts.
    pub counters: Counters,
    /// Traced wall time, set-up included, in seconds.
    pub wall_s: f64,
    /// Crate of the scheduler (`core` or `baselines`).
    pub sched_crate: &'static str,
}

/// Runs `config` through the traced driver.
pub fn run(config: RunConfig) -> Traced {
    let sched_crate = sched_crate(&config.method);
    let mut d = Driver::new(config);
    let sessions = d.config.duration.as_micros() / SESSION.as_micros();
    for si in 0..sessions {
        let t = SimTime::from_micros(si * SESSION.as_micros());
        if t.as_micros().is_multiple_of(PERIOD.as_micros()) {
            let tok = d.tr.root("boundary", si, Layer::Loop);
            d.on_period_boundary(t);
            d.tr.end(tok);
        }
        let tok = d.tr.root("session", si, Layer::Loop);
        d.apply_due_bulk(t);
        d.step_session(t);
        d.tr.end(tok);
    }
    let tok = d.tr.root("finalize", sessions, Layer::Loop);
    d.finalize();
    d.tr.end(tok);
    let wall_s = d.tr.clock.elapsed_secs();
    Traced {
        metrics: d.metrics,
        tracer: d.tr,
        counters: d.counters,
        wall_s,
        sched_crate,
    }
}

impl Driver {
    fn new(config: RunConfig) -> Self {
        let mut tr = Tracer::new();
        let setup = tr.root("setup", 0, Layer::Setup);
        let root = Prng::new(config.seed);
        let specs: Arc<[AppSpec]> = apps_for_count(config.num_apps).into();
        let arrival = ArrivalConfig {
            base_rate: config.base_rate,
            ..ArrivalConfig::default()
        };
        let apps: Vec<AppRuntime> = specs
            .iter()
            .cloned()
            .map(|s| {
                span!(
                    tr,
                    Layer::AppsNew,
                    AppRuntime::new(s, arrival.clone(), config.pool_size, &root)
                )
            })
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
        let sched = match &config.method {
            Method::AdaInf(c) => Sched::AdaInf(Box::new(AdaInfScheduler::new(
                c.clone(),
                Arc::clone(&profiler),
                Arc::clone(&specs),
                config.seed,
            ))),
            Method::Ekya => Sched::Ekya(Box::new(EkyaScheduler::new(
                Arc::clone(&profiler),
                Arc::clone(&specs),
            ))),
            other => panic!(
                "the traced driver runs AdaInf and Ekya, not {}",
                other.name()
            ),
        };
        let node_counts: Vec<usize> = specs.iter().map(|s| s.nodes.len()).collect();
        let metrics = RunMetrics::new(config.method.name(), &node_counts);
        let updated: Vec<Vec<bool>> = node_counts.iter().map(|&n| vec![false; n]).collect();
        let stage = node_counts
            .iter()
            .map(|&n| (0..n).map(|_| Vec::new()).collect())
            .collect();
        let replay = node_counts
            .iter()
            .map(|&n| (0..n).map(|_| empty_samples()).collect())
            .collect();
        let predicted_ewma = vec![config.base_rate * SESSION.as_secs_f64(); specs.len()];
        let server = EdgeServer::new(spec_hw);
        let chaos = config.chaos.and_then(|cc| {
            if cc.faults.is_empty() {
                return None;
            }
            let timeline = span!(
                tr,
                Layer::Faults,
                FaultTimeline::generate(&cc.faults, config.duration, &root)
            );
            let mut mem = span!(
                tr,
                Layer::Memory,
                GpuMemory::new(server.spec().memory_config())
            );
            let pageable = mem.config().pageable_bandwidth;
            let mut param_keys = Vec::with_capacity(specs.len());
            let mut degraded_penalty = Vec::with_capacity(specs.len());
            for spec in specs.iter() {
                let mut keys = Vec::with_capacity(spec.nodes.len());
                let mut total = 0u64;
                for (node, ns) in spec.nodes.iter().enumerate() {
                    let bytes = ns.profile.full_cost().param_bytes as u64;
                    let key = ContentKey::param(spec.id, node as u32, 0);
                    span!(
                        tr,
                        Layer::Memory,
                        mem.access(
                            key,
                            bytes,
                            TaskContext::Inference,
                            0,
                            node as u32,
                            spec.slo.as_millis_f64(),
                            AccessIntent::Produce,
                            SimTime::ZERO,
                        )
                    );
                    keys.push((key, bytes));
                    total += bytes;
                }
                param_keys.push(keys);
                degraded_penalty.push(SimDuration::from_millis_f64(total as f64 / pageable * 1e3));
            }
            let starve = span!(
                tr,
                Layer::Faults,
                timeline.windows_of(FaultKind::PoolStarvation)
            );
            Some(ChaosRuntime {
                timeline,
                degrade: cc.degrade,
                mem,
                starve,
                starve_cursor: 0,
                pressure_active: false,
                reload: vec![ReloadState::default(); specs.len()],
                param_keys,
                degraded_penalty,
            })
        });
        let acc_key = node_counts
            .iter()
            .map(|&n| vec![(u64::MAX, u64::MAX); n])
            .collect();
        let n_apps = specs.len();
        let rng = root.split(0x0051_ACE5);
        tr.end(setup);
        Driver {
            specs,
            apps,
            server,
            sched,
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
            rng,
            serial_free_at: vec![SimTime::ZERO; n_apps],
            scratch: SessionScratch::default(),
            chaos,
            train_pool_width: 0,
            tr,
            counters: Counters::default(),
            acc_key,
            config,
        }
    }

    fn take_from_pool(&mut self, app: usize, node: usize, n: usize) -> LabeledSamples {
        let batch = span!(self.tr, Layer::PoolTake, self.apps[app].pools[node].take(n));
        self.counters.pool_take_samples += batch.len() as u64;
        batch
    }

    /// `AppRuntime::accuracy`, counting whether its cache answered.
    fn accuracy(&mut self, app: usize, node: usize, cut: usize) -> f64 {
        let rt = &self.apps[app];
        let key = (rt.models[node].trained_samples() / 256, rt.period());
        if self.acc_key[app][node] == key {
            self.counters.acc_hits += 1;
        } else {
            self.counters.acc_misses += 1;
            self.acc_key[app][node] = key;
        }
        span!(
            self.tr,
            Layer::AppsAccuracy,
            self.apps[app].accuracy(node, cut)
        )
    }

    fn chaos_pre_session(&mut self, t: SimTime) -> Impairments {
        let Some(chaos) = self.chaos.as_mut() else {
            return Impairments::NEUTRAL;
        };
        let imp = span!(self.tr, Layer::Faults, chaos.timeline.impairments_at(t));
        while chaos.starve_cursor < chaos.starve.len()
            && chaos.starve[chaos.starve_cursor].start <= t
        {
            let w = chaos.starve[chaos.starve_cursor];
            chaos.starve_cursor += 1;
            for rt in &mut self.apps {
                for pool in &mut rt.pools {
                    let drain = (pool.remaining() as f64 * w.magnitude) as usize;
                    if drain > 0 {
                        let lost = span!(self.tr, Layer::PoolTake, pool.take(drain));
                        self.counters.pool_take_samples += lost.len() as u64;
                        self.metrics.starved_samples += lost.len() as u64;
                    }
                }
            }
        }
        let pressure_now = imp.capacity_frac < 1.0;
        if pressure_now {
            if !chaos.pressure_active {
                chaos.pressure_active = true;
                self.metrics.eviction_storms += 1;
            }
            let comm = span!(
                self.tr,
                Layer::Memory,
                chaos.mem.apply_pressure(imp.capacity_frac, t)
            );
            if comm > SimDuration::ZERO {
                self.metrics.fault_comm.add(comm.as_millis_f64());
            }
        } else if chaos.pressure_active {
            chaos.pressure_active = false;
            span!(self.tr, Layer::Memory, chaos.mem.release_pressure());
            for r in chaos.reload.iter_mut() {
                r.reset();
            }
        }
        if imp.impaired {
            self.metrics.fault_sessions += 1;
        }
        imp
    }

    fn on_period_boundary(&mut self, t: SimTime) {
        if t > SimTime::ZERO {
            let mut pending = std::mem::take(&mut self.pending_bulk);
            for p in &mut pending {
                self.apply_bulk(p);
            }
            let mut staged: Vec<(usize, usize, LabeledSamples)> = Vec::new();
            for a in 0..self.apps.len() {
                for node in 0..self.apps[a].spec.nodes.len() {
                    if let Some(shuffled) = self.prepare_flush(a, node) {
                        staged.push((a, node, shuffled));
                    }
                    self.replay[a][node] = empty_samples();
                }
            }
            if !staged.is_empty() {
                self.train_pool_width = self.train_pool_width.max(parallel::resolved_threads(
                    staged.len(),
                    self.config.train_workers,
                ));
                self.counters.train_samples +=
                    staged.iter().map(|(_, _, s)| s.len() as u64).sum::<u64>();
                let mut cursor = staged.into_iter().peekable();
                let mut jobs: Vec<(&mut TrainableModel, LabeledSamples)> = Vec::new();
                for (a, rt) in self.apps.iter_mut().enumerate() {
                    for (node, model) in rt.models.iter_mut().enumerate() {
                        if cursor.peek().is_some_and(|j| j.0 == a && j.1 == node) {
                            let (_, _, shuffled) = cursor.next().expect("peeked job");
                            jobs.push((model, shuffled));
                        }
                    }
                }
                let tok = self.tr.begin(Layer::Train);
                let job_ns = parallel::fan_out_indexed_owned(
                    jobs,
                    self.config.train_workers,
                    TrainSliceScratch::default,
                    |_, (model, shuffled), scratch: &mut TrainSliceScratch| {
                        let w = WallTimer::start();
                        model.train_slice_with(&shuffled, 1, scratch);
                        w.elapsed_nanos() as u64
                    },
                );
                self.tr.end_jobs(tok, &job_ns);
            }
            let mut used = 0.0;
            let mut total = 0.0;
            for rt in &self.apps {
                for pool in &rt.pools {
                    used += pool.used() as f64;
                    total += pool.total() as f64;
                }
            }
            self.metrics
                .samples_used
                .push(if total > 0.0 { used / total } else { 0.0 });
            for rt in &mut self.apps {
                span!(self.tr, Layer::AdvancePeriod, rt.advance_period());
            }
        }
        for (a, rt) in self.apps.iter().enumerate() {
            for node in 0..rt.spec.nodes.len() {
                self.metrics.label_distributions[a][node].push(rt.label_distribution(node));
            }
        }
        for flags in self.updated_this_period.iter_mut() {
            flags.iter_mut().for_each(|f| *f = false);
        }

        let plan = span!(
            self.tr,
            Layer::OnPeriodStart,
            self.sched
                .get()
                .on_period_start(&mut self.apps, self.server.spec(), t)
        );
        // The hook scored every node through `AppRuntime::accuracy`
        // (see `Sched`), which leaves each node's cache at its current key.
        for (a, rt) in self.apps.iter().enumerate() {
            for (node, model) in rt.models.iter().enumerate() {
                self.acc_key[a][node] = (model.trained_samples() / 256, rt.period());
            }
        }
        self.metrics
            .period_overhead
            .add(plan.overhead.as_millis_f64());
        self.metrics.edge_cloud_bytes += plan.edge_cloud_bytes;

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

        for b in plan.bulk {
            let cap = if b.sample_cap == 0 {
                usize::MAX
            } else {
                b.sample_cap as usize
            };
            let samples = self.take_from_pool(b.app, b.node, cap);
            if b.gpu > 0.0 {
                let hold = b.busy_until.since(t);
                self.reserve(b.gpu, b.busy_until);
                self.server.record_busy(t, hold, b.gpu);
                self.metrics
                    .add_retrain_gpu_time(t, hold.as_secs_f64() * b.gpu);
                self.metrics.retrain_latency.add(hold.as_millis_f64());
            } else {
                self.metrics
                    .retrain_latency
                    .add(b.available_at.since(t).as_millis_f64());
            }
            self.pending_bulk.push(PendingBulk { plan: b, samples });
        }
    }

    fn apply_bulk(&mut self, p: &mut PendingBulk) {
        let (app, node) = (p.plan.app, p.plan.node);
        let samples = std::mem::replace(&mut p.samples, empty_samples());
        if !samples.is_empty() {
            self.metrics.retrain_samples[app][node] += samples.len() as u64;
            self.counters.train_samples += samples.len() as u64;
            span!(
                self.tr,
                Layer::Train,
                self.apps[app].models[node].train_slice(&samples, 2)
            );
        }
        self.updated_this_period[app][node] = true;
    }

    fn apply_due_bulk(&mut self, t: SimTime) {
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

    /// The inference latency of `n` requests of a plan, as the serving
    /// loop costs it: on the CPU, or on the GPU (slowed by an active
    /// device stall) times the memory strategy's communication inflation.
    fn inference_latency(
        &mut self,
        cost: &adainf_gpusim::StructureCost,
        n: u32,
        plan: &adainf_core::JobPlan,
        imp: &Impairments,
    ) -> SimDuration {
        let p = &self.profiler;
        span!(self.tr, Layer::Latency, {
            if plan.cpu {
                p.latency.cpu_inference(cost, n)
            } else {
                let inflation = p.comm.inflation(plan.exec, plan.eviction);
                let lat = if imp.latency_inflation > 1.0 {
                    p.latency
                        .with_stall(imp.latency_inflation)
                        .worst_case(cost, n, plan.batch, plan.gpu)
                } else {
                    p.latency.worst_case(cost, n, plan.batch, plan.gpu)
                };
                lat.mul_f64(inflation)
            }
        })
    }

    fn step_session(&mut self, t: SimTime) {
        self.release_due(t);
        let imp = self.chaos_pre_session(t);
        let degrade = match &self.chaos {
            Some(c) => c.degrade,
            None => DegradePolicy::default(),
        };
        let use_pred = self.sched.get_ref().predictor_enabled();
        let quartile = if use_pred {
            let sessions = (self.config.duration.as_micros() / SESSION.as_micros()).max(1);
            let si = t.as_micros() / SESSION.as_micros();
            ((si * 4 / sessions) as usize).min(3)
        } else {
            0
        };

        let mut scratch = std::mem::take(&mut self.scratch);
        let n_apps = self.apps.len();
        scratch.actual.clear();
        scratch.predicted.clear();
        for a in 0..n_apps {
            let n = span!(
                self.tr,
                Layer::Arrivals,
                self.apps[a].requests_in_session(t)
            );
            scratch.actual.push(n);
            scratch
                .predicted
                .push(self.predicted_ewma[a].round() as u32);
        }
        if imp.rate_gain > 1.0 {
            for a in scratch.actual.iter_mut() {
                *a = ((*a as f64) * imp.rate_gain).round() as u32;
            }
        }
        self.counters.arrivals += scratch.actual.iter().map(|&n| n as u64).sum::<u64>();
        scratch.pool_remaining.resize_with(n_apps, Vec::new);
        for (rt, dst) in self.apps.iter().zip(scratch.pool_remaining.iter_mut()) {
            dst.clear();
            dst.extend(rt.pools.iter().map(|p| p.remaining()));
        }
        let actual = &scratch.actual;

        let free = (self.server.spec().total_space() - self.in_use_milli as f64 / 1000.0).max(0.0);
        let ctx = SessionCtx {
            now: t,
            predicted: &scratch.predicted,
            server: self.server.spec(),
            free_gpus: free,
            avg_job_time: self.avg_job_time,
            pool_remaining: &scratch.pool_remaining,
        };
        let plans = span!(self.tr, Layer::OnSession, self.sched.get().on_session(&ctx));
        self.counters.jobs += plans.len() as u64;
        self.metrics.diag_free.add(free);

        scratch.served.clear();
        scratch.served.resize(n_apps, false);
        let served = &mut scratch.served;
        for plan in plans {
            let app = plan.app;
            served[app] = true;
            let n = actual[app];
            if n == 0 {
                continue;
            }

            self.metrics.diag_gpu.add(plan.gpu);
            self.metrics
                .diag_planned
                .add(plan.retrain.iter().map(|s| s.samples as f64).sum());

            let cost = self.specs[app].structure_cost(&plan.cuts);
            let slo = self.specs[app].slo;
            let wait = if plan.serial {
                self.serial_free_at[app].since(t)
            } else {
                SimDuration::ZERO
            };
            let mut inference = self.inference_latency(&cost, n, &plan, &imp);

            let drop_retrain = imp.impaired
                && degrade.inference_only_under_pressure
                && !plan.retrain.is_empty()
                && {
                    let specs = &self.specs;
                    let p = &self.profiler;
                    let planned = span!(
                        self.tr,
                        Layer::Latency,
                        plan.retrain.iter().fold(SimDuration::ZERO, |acc, slice| {
                            let c = specs[app].nodes[slice.node].profile.full_cost();
                            acc + p.latency.training_latency(
                                &c,
                                slice.samples,
                                slice.batch,
                                slice.epochs,
                                plan.gpu,
                            )
                        })
                    );
                    span!(
                        self.tr,
                        Layer::Degrade,
                        should_shed_retraining(wait, planned, inference, slo)
                    )
                };
            if drop_retrain {
                self.metrics.dropped_retrain_slices += plan.retrain.len() as u64;
            }

            let mut retrain_time = SimDuration::ZERO;
            let mut taken_total = 0.0;
            let retrain_slices: &[RetrainSlice] = if drop_retrain { &[] } else { &plan.retrain };
            for slice in retrain_slices {
                let batch = self.take_from_pool(app, slice.node, slice.samples as usize);
                if batch.is_empty() {
                    continue;
                }
                let cost = self.specs[app].nodes[slice.node].profile.full_cost();
                let time = span!(
                    self.tr,
                    Layer::Latency,
                    self.profiler.latency.training_latency(
                        &cost,
                        batch.len() as u32,
                        slice.batch,
                        slice.epochs,
                        plan.gpu,
                    )
                );
                taken_total += batch.len() as f64;
                self.metrics.retrain_samples[app][slice.node] += batch.len() as u64;
                self.stage_train(app, slice.node, batch, slice.epochs.min(2) as usize);
                retrain_time += time;
                self.metrics
                    .add_retrain_gpu_time(t, time.as_secs_f64() * plan.gpu);
                self.metrics.retrain_latency.add(time.as_millis_f64());
                self.updated_this_period[app][slice.node] = true;
            }

            self.metrics.diag_taken.add(taken_total);

            let mut reload_comm = SimDuration::ZERO;
            if let Some(chaos) = self.chaos.as_mut() {
                if chaos.pressure_active && !plan.cpu {
                    if chaos.reload[app].gave_up() {
                        reload_comm = chaos.degraded_penalty[app];
                        self.metrics.degraded_jobs += 1;
                        self.metrics.fault_comm.add(reload_comm.as_millis_f64());
                    } else {
                        let job = t.session_index();
                        let slo_ms = slo.as_millis_f64();
                        let mut comm = SimDuration::ZERO;
                        for (node, &(key, bytes)) in chaos.param_keys[app].iter().enumerate() {
                            comm += span!(
                                self.tr,
                                Layer::Memory,
                                chaos.mem.access(
                                    key,
                                    bytes,
                                    TaskContext::Inference,
                                    job,
                                    node as u32,
                                    slo_ms,
                                    AccessIntent::Fetch,
                                    t,
                                )
                            );
                        }
                        if comm > SimDuration::ZERO {
                            reload_comm = comm;
                            self.metrics.reload_retries += 1;
                            self.metrics.fault_comm.add(comm.as_millis_f64());
                            if !chaos.reload[app].record_failure(chaos.degrade.max_reload_retries) {
                                self.metrics.reload_gave_up += 1;
                            }
                        } else {
                            chaos.reload[app].record_success();
                        }
                    }
                }
            }

            if plan.serial && wait > self.specs[app].slo {
                self.metrics.finish.record(t, 0.0, n as f64);
                self.metrics.total_requests += n as u64;
                continue;
            }

            let structure_flops = cost.flops_per_sample;
            let analytic_pb_us = if use_pred {
                let p = &self.profiler;
                span!(self.tr, Layer::Latency, {
                    if plan.cpu {
                        p.latency.cpu_inference(&cost, plan.batch).as_micros() as f64
                    } else {
                        p.latency
                            .per_batch_inference(&cost, plan.batch, plan.gpu)
                            .mul_f64(p.comm.inflation(plan.exec, plan.eviction))
                            .as_micros() as f64
                    }
                })
            } else {
                0.0
            };

            let mut n_served = n;
            if imp.impaired && degrade.admission_control {
                let n_batches = n.div_ceil(plan.batch.max(1));
                let analytic_per_batch =
                    SimDuration::from_micros(inference.as_micros() / n_batches.max(1) as u64);
                let analytic_fixed = wait + retrain_time + reload_comm;
                let (per_batch, fixed) = if use_pred {
                    let feats = LatencyFeatures::new(
                        n,
                        plan.batch,
                        plan.gpu,
                        structure_flops,
                        taken_total,
                        wait.as_micros() as f64,
                        analytic_pb_us,
                    );
                    match span!(
                        self.tr,
                        Layer::Predict,
                        self.sched.get_ref().predict_latency(app, &feats)
                    ) {
                        Some(p) => (
                            SimDuration::from_micros(p.per_batch_us.round() as u64),
                            SimDuration::from_micros(p.fixed_us.round() as u64),
                        ),
                        None => (analytic_per_batch, analytic_fixed),
                    }
                } else {
                    (analytic_per_batch, analytic_fixed)
                };
                let adm = span!(
                    self.tr,
                    Layer::Degrade,
                    admit_within_slo(n, plan.batch, per_batch, fixed, slo)
                );
                if adm.shed > 0 {
                    self.metrics.shed_requests += adm.shed as u64;
                    self.metrics.finish.record(t, 0.0, adm.shed as f64);
                    n_served = adm.admitted;
                    if n_served == 0 {
                        self.metrics.total_requests += n as u64;
                        continue;
                    }
                    inference = self.inference_latency(&cost, n_served, &plan, &imp);
                }
            }

            let job_latency = wait + retrain_time + reload_comm + inference;
            if plan.serial {
                self.serial_free_at[app] = t + job_latency;
            }

            let n_batches = n_served.div_ceil(plan.batch.max(1));
            let per_batch =
                SimDuration::from_micros(inference.as_micros() / n_batches.max(1) as u64);
            let mut hits = 0u32;
            for i in 0..n_batches {
                let done = wait + retrain_time + reload_comm + per_batch * (i as u64 + 1);
                if done <= slo {
                    let size = if i + 1 == n_batches && !n_served.is_multiple_of(plan.batch) {
                        n_served % plan.batch
                    } else {
                        plan.batch.min(n_served)
                    };
                    hits += size;
                }
            }
            self.metrics.finish.record(t, hits as f64, n_served as f64);
            self.metrics
                .inference_latency
                .add(inference.as_millis_f64());
            self.metrics.per_app_latency[app].add(job_latency.as_millis_f64());

            if use_pred {
                let feats = LatencyFeatures::new(
                    n_served,
                    plan.batch,
                    plan.gpu,
                    structure_flops,
                    taken_total,
                    wait.as_micros() as f64,
                    analytic_pb_us,
                );
                let actual_fixed_us = (wait + retrain_time + reload_comm).as_micros() as f64;
                let actual_per_batch_us = per_batch.as_micros() as f64;
                let actual_total_us = actual_fixed_us + actual_per_batch_us * n_batches as f64;
                let forecast = span!(
                    self.tr,
                    Layer::Predict,
                    self.sched.get_ref().predict_latency(app, &feats)
                );
                if let Some(p) = forecast {
                    let err = (p.total_us(n_batches) - actual_total_us).abs();
                    self.metrics.pred_abs_err_us.add(err);
                    let pb_err = (p.per_batch_us - actual_per_batch_us).abs();
                    self.metrics.pred_rel_err_quartiles[quartile]
                        .add(pb_err / actual_per_batch_us.max(1.0));
                    let slo_us = slo.as_micros() as f64;
                    if p.headroom_us(slo_us, n_batches) >= 0.0 {
                        self.metrics.headroom_predicted_fit += 1;
                        if actual_total_us > slo_us {
                            self.metrics.headroom_violations += 1;
                        }
                    }
                }
                span!(
                    self.tr,
                    Layer::Predict,
                    self.sched.get().observe_latency(
                        app,
                        &feats,
                        actual_per_batch_us,
                        actual_fixed_us
                    )
                );
            }

            let leaves = self.specs[app].leaves();
            let mut acc_sum = 0.0;
            for &leaf in &leaves {
                let acc = self.accuracy(app, leaf, plan.cuts[leaf]);
                acc_sum += acc;
                self.metrics.per_node_accuracy[app][leaf].record(
                    t,
                    acc * n_served as f64,
                    n_served as f64,
                );
            }
            for node in 0..self.specs[app].nodes.len() {
                if !leaves.contains(&node) {
                    let acc = self.accuracy(app, node, plan.cuts[node]);
                    self.metrics.per_node_accuracy[app][node].record(
                        t,
                        acc * n_served as f64,
                        n_served as f64,
                    );
                }
            }
            let acc = acc_sum / leaves.len().max(1) as f64;
            self.metrics
                .accuracy
                .record(t, acc * n_served as f64, n_served as f64);
            self.metrics
                .accuracy_fine
                .record(t, acc * n_served as f64, n_served as f64);
            self.metrics.per_app_accuracy[app].record(t, acc * n_served as f64, n_served as f64);

            let scheduled: Vec<usize> = (0..self.specs[app].nodes.len())
                .filter(|&nd| self.scheduled_retrain[app][nd])
                .collect();
            let frac = if scheduled.is_empty() {
                1.0
            } else {
                scheduled
                    .iter()
                    .filter(|&&nd| self.updated_this_period[app][nd])
                    .count() as f64
                    / scheduled.len() as f64
            };
            self.metrics
                .updated_model
                .record(t, frac * n_served as f64, n_served as f64);

            let service = retrain_time + reload_comm + inference;
            if !plan.cpu {
                self.server.record_busy(t + wait, service, plan.gpu);
                self.reserve(plan.gpu, t + job_latency);
            }
            self.avg_job_time = SimDuration::from_micros(
                (self.avg_job_time.as_micros() as f64 * 0.95 + service.as_micros() as f64 * 0.05)
                    as u64,
            );
            self.metrics.total_requests += n as u64;
        }

        for a in 0..n_apps {
            if !served[a] && actual[a] > 0 {
                self.metrics.finish.record(t, 0.0, actual[a] as f64);
            }
            self.predicted_ewma[a] = self.predicted_ewma[a] * 0.7 + actual[a] as f64 * 0.3;
        }

        self.scratch = scratch;
    }

    fn stage_train(&mut self, app: usize, node: usize, batch: LabeledSamples, epochs: usize) {
        if batch.is_empty() {
            return;
        }
        self.stage[app][node].push(batch);
        let total: usize = self.stage[app][node].iter().map(|b| b.len()).sum();
        if total >= STAGE_THRESHOLD {
            if let Some(shuffled) = self.prepare_flush(app, node) {
                self.counters.train_samples += shuffled.len() as u64;
                span!(
                    self.tr,
                    Layer::Train,
                    self.apps[app].models[node].train_slice(&shuffled, epochs.max(1))
                );
            }
        }
    }

    fn prepare_flush(&mut self, app: usize, node: usize) -> Option<LabeledSamples> {
        if self.stage[app][node].is_empty() {
            return None;
        }
        let parts = std::mem::take(&mut self.stage[app][node]);
        let refs: Vec<&LabeledSamples> = parts.iter().collect();
        let fresh = span!(self.tr, Layer::Samples, LabeledSamples::concat(&refs));
        let reservoir = &self.replay[app][node];
        let mix = if reservoir.is_empty() {
            span!(self.tr, Layer::Samples, fresh.clone())
        } else {
            let draw: Vec<usize> = (0..(fresh.len() / 2).min(reservoir.len()))
                .map(|_| self.rng.index(reservoir.len()))
                .collect();
            span!(
                self.tr,
                Layer::Samples,
                LabeledSamples::concat(&[&fresh, &reservoir.select(&draw)])
            )
        };
        let mut order: Vec<usize> = (0..mix.len()).collect();
        self.rng.shuffle(&mut order);
        let shuffled = span!(self.tr, Layer::Samples, mix.select(&order));
        let mut merged = span!(
            self.tr,
            Layer::Samples,
            LabeledSamples::concat(&[&self.replay[app][node], &fresh])
        );
        if merged.len() > REPLAY_CAP {
            let mut keep: Vec<usize> = (0..merged.len()).collect();
            self.rng.shuffle(&mut keep);
            keep.truncate(REPLAY_CAP);
            merged = span!(self.tr, Layer::Samples, merged.select(&keep));
        }
        self.replay[app][node] = merged;
        Some(shuffled)
    }

    fn finalize(&mut self) {
        let (hits, misses, evictions) = self.sched.get_ref().cache_stats();
        self.metrics.cache_hits = hits;
        self.metrics.cache_misses = misses;
        self.metrics.cache_evictions = evictions;
        if let Sched::AdaInf(s) = &self.sched {
            self.counters.drift_cache = s.drift_cache_stats();
        }
        self.metrics.worker_threads =
            match (self.sched.get_ref().worker_threads(), self.train_pool_width) {
                (None, 0) => None,
                (sched, train) => Some(sched.unwrap_or(0).max(train)),
            };
        if let Some(chaos) = &self.chaos {
            let stats = chaos.mem.stats();
            self.metrics.storm_evictions = stats.pressure_evictions;
            self.counters.evictions = stats.evictions;
        }
        let alloc = self.server.utilization_per_second();
        self.metrics.utilization = alloc
            .iter()
            .map(|&a| if a > 0.005 { 1.0 } else { 0.0 })
            .collect();
        self.metrics.allocation = alloc;
    }
}

/// Every per-layer metric of a traced run: `(name, value, unit)`.
/// `untraced_wall_s` is the same run's set-up plus run wall time with
/// tracing off, for `trace.overhead_ratio`.
pub fn report(
    t: &Traced,
    untraced_wall_s: f64,
    faithful: bool,
) -> Vec<(String, f64, &'static str)> {
    let mut out: Vec<(String, f64, &'static str)> = Vec::new();
    let wall_ns = t.wall_s * 1e9;
    let mut self_sum = 0.0;
    for layer in LAYERS {
        let st = t.tracer.stats(layer);
        let name = layer.name(t.sched_crate);
        self_sum += st.self_ns as f64;
        out.push((format!("{name}.calls"), st.calls as f64, "count"));
        out.push((format!("{name}.self_s"), st.self_ns as f64 / 1e9, "s"));
        out.push((
            format!("{name}.self_share"),
            st.self_ns as f64 / wall_ns,
            "ratio",
        ));
        if st.calls >= 1000 {
            out.push((format!("{name}.p50_us"), st.hist.quantile(0.5) / 1e3, "us"));
            out.push((format!("{name}.p99_us"), st.hist.quantile(0.99) / 1e3, "us"));
        } else if st.calls > 0 {
            out.push((format!("{name}.p50_us"), st.hist.quantile(0.5) / 1e3, "us"));
            out.push((format!("{name}.max_us"), st.hist.max as f64 / 1e3, "us"));
        }
    }
    let c = &t.counters;
    let rate = |h: u64, m: u64| {
        if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64
        }
    };
    let s = t.sched_crate;
    out.extend([
        (
            "driftgen.pool_take.samples".to_string(),
            c.pool_take_samples as f64,
            "count",
        ),
        (
            "modelzoo.train.samples".to_string(),
            c.train_samples as f64,
            "count",
        ),
        (format!("{s}.on_session.jobs"), c.jobs as f64, "count"),
        (
            "apps.accuracy.hit_rate".to_string(),
            rate(c.acc_hits, c.acc_misses),
            "ratio",
        ),
        (
            "core.drift_cache.hit_rate".to_string(),
            rate(c.drift_cache.0, c.drift_cache.1),
            "ratio",
        ),
        (
            "gpusim.memory.evictions".to_string(),
            c.evictions as f64,
            "count",
        ),
        (
            "gpusim.memory.reload_retries".to_string(),
            t.metrics.reload_retries as f64,
            "count",
        ),
        (
            "core.degrade.shed".to_string(),
            t.metrics.shed_requests as f64,
            "count",
        ),
        ("trace.wall_s".to_string(), t.wall_s, "s"),
        ("trace.coverage".to_string(), self_sum / wall_ns, "ratio"),
        (
            "trace.faithful".to_string(),
            if faithful { 1.0 } else { 0.0 },
            "bool",
        ),
        (
            "trace.overhead_ratio".to_string(),
            t.wall_s / untraced_wall_s - 1.0,
            "ratio",
        ),
    ]);
    out
}
