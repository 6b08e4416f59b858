//! The four named workloads and the exact request count of each.
//!
//! Every workload runs 8 applications on 4 GPUs; they differ in method,
//! arrival rate, pool size, faults and horizon so that each one stresses
//! a different layer (see README.md for why each was chosen).

use adainf_apps::apps_for_count;
use adainf_core::AdaInfConfig;
use adainf_driftgen::workload::ArrivalConfig;
use adainf_driftgen::{ArrivalTrace, FaultSpec, FaultTimeline};
use adainf_harness::{ChaosConfig, Method, RunConfig};
use adainf_simcore::time::SESSION;
use adainf_simcore::{Prng, SimDuration, SimTime};

/// One named workload: a function of the seed to a run configuration.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name used on the command line and in every output.
    pub name: &'static str,
    /// One line on what the workload stresses.
    pub why: &'static str,
    /// Simulated horizon in seconds at full size.
    pub horizon_s: u64,
    /// Nominal wall seconds of one measured repeat (two host reference
    /// readings, three builds and the run) on a quiet 2-core x86-64 VM.
    /// `perf bench` turns its `--seconds` into a repeat count with it.
    pub repeat_s: f64,
    build: fn(u64, SimDuration) -> RunConfig,
}

/// All workloads, in report order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "adainf-paper",
        why: "the paper's default AdaInf deployment, balanced across serving, training, drift and decisions",
        horizon_s: 500,
        repeat_s: 6.5,
        build: adainf_paper,
    },
    Workload {
        name: "adainf-bigpool",
        why: "low request rate, 4x pool: per-period drift and pool data-path work dominate, decisions do not",
        horizon_s: 200,
        repeat_s: 6.5,
        build: adainf_bigpool,
    },
    Workload {
        name: "ekya-bulk",
        why: "Ekya's bulk per-period retraining: training-heavy, no drift detection or decision cache",
        horizon_s: 600,
        repeat_s: 5.5,
        build: ekya_bulk,
    },
    Workload {
        name: "adainf-chaos",
        why: "every fault family plus the latency predictor: eviction, admission shedding and RLS paths",
        horizon_s: 400,
        repeat_s: 5.3,
        build: adainf_chaos,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The run configuration at full horizon.
    pub fn config(&self, seed: u64) -> RunConfig {
        self.config_for(seed, SimDuration::from_secs(self.horizon_s))
    }

    /// The run configuration at another horizon (the tests use short
    /// ones; everything else about the workload is unchanged).
    pub fn config_for(&self, seed: u64, horizon: SimDuration) -> RunConfig {
        (self.build)(seed, horizon)
    }

    /// Repeats `perf bench --seconds S` runs: a function of `S` alone,
    /// never of how fast the host runs, so two commits measured at one
    /// seed run exactly the same inputs.
    pub fn bench_repeats(&self, seconds: f64) -> usize {
        ((seconds / self.repeat_s).round() as usize).max(1)
    }
}

/// Worker threads of the simulator's pools (background drift stage and
/// boundary training fan-out). With one, a run has at most two runnable
/// threads, the serving loop and one drift worker, so on a 2-core host
/// the measurement does not include the OS scheduler's arbitration
/// between oversubscribed threads, and it does not change with the
/// host's core count. Results never depend on the width.
const POOL_WORKERS: usize = 1;

fn adainf(config: AdaInfConfig) -> Method {
    Method::AdaInf(AdaInfConfig {
        drift_workers: POOL_WORKERS,
        ..config
    })
}

fn base(seed: u64, duration: SimDuration) -> RunConfig {
    RunConfig {
        seed,
        duration,
        num_gpus: 4,
        num_apps: 8,
        method: adainf(AdaInfConfig::default()),
        train_workers: POOL_WORKERS,
        ..RunConfig::default()
    }
}

fn adainf_paper(seed: u64, duration: SimDuration) -> RunConfig {
    base(seed, duration)
}

fn adainf_bigpool(seed: u64, duration: SimDuration) -> RunConfig {
    RunConfig {
        base_rate: 400.0,
        pool_size: 24_000,
        ..base(seed, duration)
    }
}

fn ekya_bulk(seed: u64, duration: SimDuration) -> RunConfig {
    RunConfig {
        method: Method::Ekya,
        ..base(seed, duration)
    }
}

fn adainf_chaos(seed: u64, duration: SimDuration) -> RunConfig {
    RunConfig {
        method: adainf(AdaInfConfig {
            predicted_latency: true,
            ..AdaInfConfig::default()
        }),
        chaos: Some(ChaosConfig::scenario(FaultSpec::chaos(seed))),
        ..base(seed, duration)
    }
}

/// Sessions in a run of `config`.
pub fn sessions(config: &RunConfig) -> u64 {
    config.duration.as_micros() / SESSION.as_micros()
}

/// Every request that arrives in a run of `config`, counted by replaying
/// each application's arrival trace from the run seed and applying the
/// fault timeline's rate gain exactly as the serving loop does. The
/// count does not depend on any scheduling decision, unlike
/// `RunMetrics::total_requests`, which leaves out arrivals for
/// applications the scheduler did not plan in a session.
pub fn arrived_requests(config: &RunConfig) -> u64 {
    let root = Prng::new(config.seed);
    let arrival = ArrivalConfig {
        base_rate: config.base_rate,
        ..ArrivalConfig::default()
    };
    let timeline = config
        .chaos
        .filter(|c| !c.faults.is_empty())
        .map(|c| FaultTimeline::generate(&c.faults, config.duration, &root));
    let mut traces: Vec<ArrivalTrace> = apps_for_count(config.num_apps)
        .iter()
        .map(|spec| ArrivalTrace::new(arrival.clone(), spec.id as u64, &root))
        .collect();
    let mut total = 0u64;
    for si in 0..sessions(config) {
        let t = SimTime::from_micros(si * SESSION.as_micros());
        let gain = timeline
            .as_ref()
            .map_or(1.0, |tl| tl.impairments_at(t).rate_gain);
        for trace in &mut traces {
            let n = trace.requests_in_session(t);
            total += if gain > 1.0 {
                ((n as f64) * gain).round() as u64
            } else {
                n as u64
            };
        }
    }
    total
}
