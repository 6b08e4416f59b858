//! Deterministic, seeded fault-scenario generation.
//!
//! The serving loop's interesting regimes are the overloaded ones the
//! happy path never reaches: request bursts beyond profiled capacity,
//! GPU memory-pressure spikes that trigger eviction storms, retraining
//! pools drained mid-period, and transient device stalls that inflate
//! every kernel. [`FaultSpec`] describes which of those faults a run
//! injects and how hard; [`FaultTimeline::generate`] expands the spec
//! into a fixed, seed-deterministic schedule of [`FaultWindow`]s before
//! the run starts, so the whole chaos experiment remains a pure function
//! of `(config, seed)` like every other part of the simulator.
//!
//! The harness queries [`FaultTimeline::impairments_at`] once per 5 ms
//! session. Outside every window the result is [`Impairments::NEUTRAL`]
//! — bit-for-bit invisible, which is what lets the golden-metrics tests
//! run with the chaos machinery armed but no faults scheduled.

use adainf_simcore::{Prng, SimDuration, SimTime};

/// The kinds of fault the generator can schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultKind {
    /// Request-rate burst: arrivals multiply by the window's magnitude.
    RateBurst,
    /// GPU memory pressure: enforced capacity collapses to `magnitude`
    /// of the configured bytes, forcing an eviction storm at onset and
    /// reload thrash for as long as the window lasts.
    MemoryPressure,
    /// Retraining-pool starvation: at window start, `magnitude` of every
    /// remaining pool sample is drained (a one-shot event).
    PoolStarvation,
    /// Transient device stall: kernel latency inflates by `magnitude`.
    DeviceStall,
}

impl FaultKind {
    /// Stable RNG-stream label per kind (windows of different kinds are
    /// drawn from independent splits of the fault seed).
    fn stream_tag(self) -> u64 {
        match self {
            FaultKind::RateBurst => 0xFA01_7B57,
            FaultKind::MemoryPressure => 0xFA02_3E30,
            FaultKind::PoolStarvation => 0xFA03_5744,
            FaultKind::DeviceStall => 0xFA04_57A1,
        }
    }

    /// Short display name (chaos reports, scenario tables).
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::RateBurst => "rate-burst",
            FaultKind::MemoryPressure => "memory-pressure",
            FaultKind::PoolStarvation => "pool-starvation",
            FaultKind::DeviceStall => "device-stall",
        }
    }
}

/// Cadence and magnitude of one fault kind: roughly one window per
/// `every`, lasting `duration`, with a kind-specific `magnitude`.
///
/// Windows are jittered-periodic rather than Poisson: window `k` starts
/// at `every·k` plus a seeded jitter in `[0.25·every, 0.75·every)`.
/// That keeps scenario tests deterministic *and* guarantees at least
/// one window in any horizon longer than `every` — a pure Poisson
/// schedule can leave a short run fault-free.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultLaw {
    /// Mean spacing between window starts.
    pub every: SimDuration,
    /// Length of each window.
    pub duration: SimDuration,
    /// Kind-specific magnitude (rate gain, capacity fraction, drained
    /// pool fraction, or latency inflation).
    pub magnitude: f64,
}

/// Which faults a run injects. `Copy` on purpose: it rides inside the
/// harness run configuration, which is rebuilt with functional-update
/// syntax all over the sweep drivers.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FaultSpec {
    /// Seed of the fault schedule (independent of the run seed, so the
    /// same workload can be replayed under different fault draws).
    pub seed: u64,
    /// Request-burst windows, if any.
    pub rate_burst: Option<FaultLaw>,
    /// Memory-pressure windows, if any.
    pub memory_pressure: Option<FaultLaw>,
    /// Pool-starvation events, if any.
    pub pool_starvation: Option<FaultLaw>,
    /// Device-stall windows, if any.
    pub device_stall: Option<FaultLaw>,
}

impl FaultSpec {
    /// No faults at all — arms the chaos machinery with an empty
    /// timeline. Runs configured this way must reproduce the pristine
    /// goldens bit for bit.
    pub fn none(seed: u64) -> FaultSpec {
        FaultSpec {
            seed,
            ..FaultSpec::default()
        }
    }

    /// Arrival bursts: 8 s windows roughly every 20 s during which every
    /// application's request rate multiplies by 6 — far past the
    /// profiled capacity of the default configurations.
    pub fn rate_burst(seed: u64) -> FaultSpec {
        FaultSpec {
            seed,
            rate_burst: Some(FaultLaw {
                every: SimDuration::from_secs(20),
                duration: SimDuration::from_secs(8),
                magnitude: 6.0,
            }),
            ..FaultSpec::default()
        }
    }

    /// Memory-pressure spikes: 10 s windows roughly every 25 s during
    /// which enforced GPU memory collapses to 0.05 % of the configured
    /// capacity (~32 MB of the default 64 GB pool) — below the resident
    /// parameter working set of even two applications, so the onset is
    /// an eviction storm and every session after it thrashes reloads.
    pub fn memory_pressure(seed: u64) -> FaultSpec {
        FaultSpec {
            seed,
            memory_pressure: Some(FaultLaw {
                every: SimDuration::from_secs(25),
                duration: SimDuration::from_secs(10),
                magnitude: 5.0e-4,
            }),
            ..FaultSpec::default()
        }
    }

    /// Pool starvation: roughly every 20 s, 90 % of every remaining
    /// retraining-pool sample vanishes mid-period.
    pub fn pool_starvation(seed: u64) -> FaultSpec {
        FaultSpec {
            seed,
            pool_starvation: Some(FaultLaw {
                every: SimDuration::from_secs(20),
                duration: SimDuration::from_secs(1),
                magnitude: 0.9,
            }),
            ..FaultSpec::default()
        }
    }

    /// Transient device stalls: 5 s windows roughly every 20 s during
    /// which every kernel runs 4× slower.
    pub fn device_stall(seed: u64) -> FaultSpec {
        FaultSpec {
            seed,
            device_stall: Some(FaultLaw {
                every: SimDuration::from_secs(20),
                duration: SimDuration::from_secs(5),
                magnitude: 4.0,
            }),
            ..FaultSpec::default()
        }
    }

    /// Everything at once — the full chaos scenario.
    pub fn chaos(seed: u64) -> FaultSpec {
        FaultSpec {
            seed,
            rate_burst: FaultSpec::rate_burst(seed).rate_burst,
            memory_pressure: FaultSpec::memory_pressure(seed).memory_pressure,
            pool_starvation: FaultSpec::pool_starvation(seed).pool_starvation,
            device_stall: FaultSpec::device_stall(seed).device_stall,
        }
    }

    /// True when no fault kind is configured.
    pub fn is_empty(&self) -> bool {
        self.rate_burst.is_none()
            && self.memory_pressure.is_none()
            && self.pool_starvation.is_none()
            && self.device_stall.is_none()
    }
}

/// One scheduled fault occurrence: `kind` is active on `[start, end)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultWindow {
    /// What happens during the window.
    pub kind: FaultKind,
    /// First session the window covers.
    pub start: SimTime,
    /// Exclusive end of the window.
    pub end: SimTime,
    /// Kind-specific magnitude, copied from the law.
    pub magnitude: f64,
}

impl FaultWindow {
    /// True while `t` falls inside the window.
    pub fn active_at(&self, t: SimTime) -> bool {
        self.start <= t && t < self.end
    }
}

/// The aggregate effect of every window active at one instant. Neutral
/// values (`1.0` everywhere) mean "no fault": the harness skips every
/// chaos code path in that case, which is what keeps an armed-but-empty
/// timeline bit-identical to a run without the chaos machinery.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Impairments {
    /// Multiplier on per-session arrivals (product of active bursts).
    pub rate_gain: f64,
    /// Multiplier on kernel latency (product of active stalls).
    pub latency_inflation: f64,
    /// Enforced GPU-capacity fraction (minimum of active pressures).
    pub capacity_frac: f64,
    /// True when any window (of any kind) is active.
    pub impaired: bool,
}

impl Impairments {
    /// No active fault.
    pub const NEUTRAL: Impairments = Impairments {
        rate_gain: 1.0,
        latency_inflation: 1.0,
        capacity_frac: 1.0,
        impaired: false,
    };
}

/// The pre-generated fault schedule of one run.
#[derive(Clone, Debug, Default)]
pub struct FaultTimeline {
    windows: Vec<FaultWindow>,
}

impl FaultTimeline {
    /// Expands `spec` into the concrete window schedule for a run of
    /// `horizon`. Pure in `(spec, root)`: the generator only *splits*
    /// the root RNG (per fault kind), so generating a timeline never
    /// perturbs any other random stream of the run.
    pub fn generate(spec: &FaultSpec, horizon: SimDuration, root: &Prng) -> FaultTimeline {
        let mut windows = Vec::new();
        let laws = [
            (FaultKind::RateBurst, spec.rate_burst),
            (FaultKind::MemoryPressure, spec.memory_pressure),
            (FaultKind::PoolStarvation, spec.pool_starvation),
            (FaultKind::DeviceStall, spec.device_stall),
        ];
        for (kind, law) in laws {
            let Some(law) = law else { continue };
            if law.every == SimDuration::ZERO {
                continue;
            }
            let mut rng = root.split(kind.stream_tag() ^ spec.seed);
            let every = law.every.as_micros();
            for k in 0..u64::MAX {
                let jitter = (every as f64 * (0.25 + 0.5 * rng.f64())) as u64;
                let start = every.saturating_mul(k).saturating_add(jitter);
                if start >= horizon.as_micros() {
                    break;
                }
                windows.push(FaultWindow {
                    kind,
                    start: SimTime::from_micros(start),
                    end: SimTime::from_micros(start.saturating_add(law.duration.as_micros())),
                    magnitude: law.magnitude,
                });
            }
        }
        windows.sort_by_key(|w| (w.start, w.kind));
        FaultTimeline { windows }
    }

    /// Every scheduled window, sorted by start time.
    pub fn windows(&self) -> &[FaultWindow] {
        &self.windows
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// Windows of one kind, in schedule order (the harness consumes
    /// pool-starvation windows one-shot through a cursor).
    pub fn windows_of(&self, kind: FaultKind) -> Vec<FaultWindow> {
        self.windows
            .iter()
            .filter(|w| w.kind == kind)
            .copied()
            .collect()
    }

    /// Aggregate impairments at `t`. Neutral outside every window.
    pub fn impairments_at(&self, t: SimTime) -> Impairments {
        let mut imp = Impairments::NEUTRAL;
        for w in &self.windows {
            if !w.active_at(t) {
                continue;
            }
            imp.impaired = true;
            match w.kind {
                FaultKind::RateBurst => imp.rate_gain *= w.magnitude,
                FaultKind::DeviceStall => imp.latency_inflation *= w.magnitude,
                FaultKind::MemoryPressure => {
                    imp.capacity_frac = imp.capacity_frac.min(w.magnitude);
                }
                FaultKind::PoolStarvation => {}
            }
        }
        imp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn horizon() -> SimDuration {
        SimDuration::from_secs(60)
    }

    #[test]
    fn empty_spec_generates_empty_timeline() {
        let root = Prng::new(1);
        let tl = FaultTimeline::generate(&FaultSpec::none(7), horizon(), &root);
        assert!(tl.is_empty());
        assert_eq!(
            tl.impairments_at(SimTime::from_secs(10)),
            Impairments::NEUTRAL
        );
    }

    #[test]
    fn generation_is_deterministic_and_seed_sensitive() {
        let root = Prng::new(1);
        let a = FaultTimeline::generate(&FaultSpec::chaos(3), horizon(), &root);
        let b = FaultTimeline::generate(&FaultSpec::chaos(3), horizon(), &root);
        assert_eq!(a.windows(), b.windows());
        let c = FaultTimeline::generate(&FaultSpec::chaos(4), horizon(), &root);
        assert_ne!(
            a.windows(),
            c.windows(),
            "different fault seeds must differ"
        );
    }

    #[test]
    fn jittered_periodic_guarantees_coverage() {
        // Every configured kind schedules at least one window per
        // `every`-sized chunk of the horizon (minus the last partial).
        let root = Prng::new(9);
        for spec in [
            FaultSpec::rate_burst(0),
            FaultSpec::memory_pressure(0),
            FaultSpec::pool_starvation(0),
            FaultSpec::device_stall(0),
        ] {
            let tl = FaultTimeline::generate(&spec, horizon(), &root);
            assert!(
                tl.windows().len() >= 2,
                "{spec:?}: {} windows in 60 s",
                tl.windows().len()
            );
        }
    }

    #[test]
    fn impairments_aggregate_per_kind() {
        let root = Prng::new(5);
        let tl = FaultTimeline::generate(&FaultSpec::chaos(5), horizon(), &root);
        // At each burst window's start the rate gain must be active.
        for w in tl.windows_of(FaultKind::RateBurst) {
            let imp = tl.impairments_at(w.start);
            assert!(imp.impaired);
            assert!(imp.rate_gain >= w.magnitude);
        }
        for w in tl.windows_of(FaultKind::MemoryPressure) {
            let imp = tl.impairments_at(w.start);
            assert!(imp.capacity_frac <= w.magnitude);
        }
        for w in tl.windows_of(FaultKind::DeviceStall) {
            let imp = tl.impairments_at(w.start);
            assert!(imp.latency_inflation >= w.magnitude);
        }
        // Just past the end of the last window everything is neutral.
        let last = tl.windows().iter().map(|w| w.end).max();
        if let Some(end) = last {
            assert_eq!(tl.impairments_at(end + SimDuration::from_secs(30)), {
                Impairments::NEUTRAL
            });
        }
    }

    #[test]
    fn windows_do_not_perturb_the_root_stream() {
        // `generate` only splits the root: drawing from the root before
        // and after generation yields the same sequence.
        let root = Prng::new(11);
        let mut a = root.split(1);
        let before: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();
        let _ = FaultTimeline::generate(&FaultSpec::chaos(0), horizon(), &root);
        let mut b = root.split(1);
        let after: Vec<u64> = (0..4).map(|_| b.next_u64()).collect();
        assert_eq!(before, after);
    }
}
