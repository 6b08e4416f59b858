//! Request-arrival workload.
//!
//! The paper replays the Twitter streaming trace as its inference request
//! rate ("resembles real-world inference workload", §2). We synthesise an
//! equivalent non-stationary rate curve: a base rate modulated by a slow
//! sinusoid (diurnal shape compressed into the run), an
//! Ornstein–Uhlenbeck-style jitter, and occasional bursts. Arrivals within
//! a 5 ms session are Poisson at the instantaneous rate.

use adainf_simcore::time::SESSION;
use adainf_simcore::{Prng, SimTime};

/// Configuration of an arrival trace.
#[derive(Clone, Debug)]
pub struct ArrivalConfig {
    /// Mean request rate (requests per second).
    pub base_rate: f64,
    /// Relative amplitude of the slow sinusoidal modulation in `[0, 1)`.
    pub diurnal_amplitude: f64,
    /// Period of the sinusoid in seconds.
    pub diurnal_period_s: f64,
    /// Std-dev of the multiplicative OU jitter.
    pub jitter: f64,
    /// Expected bursts per 100 s of trace.
    pub bursts_per_100s: f64,
    /// Burst rate multiplier.
    pub burst_gain: f64,
    /// Burst duration in seconds.
    pub burst_len_s: f64,
}

impl Default for ArrivalConfig {
    fn default() -> Self {
        ArrivalConfig {
            base_rate: 3200.0,
            diurnal_amplitude: 0.35,
            diurnal_period_s: 400.0,
            jitter: 0.08,
            bursts_per_100s: 1.5,
            burst_gain: 1.8,
            burst_len_s: 8.0,
        }
    }
}

/// A reproducible request-rate trace with Poisson per-session arrivals.
#[derive(Clone, Debug)]
pub struct ArrivalTrace {
    config: ArrivalConfig,
    rng: Prng,
    /// Current OU jitter state (log-space).
    ou: f64,
    /// Remaining burst time in seconds (0 when not bursting).
    burst_left: f64,
    /// Last second for which state was advanced.
    last_advanced_s: i64,
}

impl ArrivalTrace {
    /// Creates a trace; `seed` distinguishes per-application traces.
    pub fn new(config: ArrivalConfig, seed: u64, root: &Prng) -> Self {
        ArrivalTrace {
            config,
            rng: root.split(seed ^ WORKLOAD_TAG),
            ou: 0.0,
            burst_left: 0.0,
            last_advanced_s: -1,
        }
    }

    /// Instantaneous rate (requests/second) at simulated time `t`,
    /// advancing the stochastic state at 1 s granularity.
    pub fn rate_at(&mut self, t: SimTime) -> f64 {
        let sec = t.as_secs_f64();
        let sec_i = sec.floor() as i64;
        while self.last_advanced_s < sec_i {
            self.last_advanced_s += 1;
            // OU step toward 0 with jitter.
            self.ou = self.ou * 0.9 + self.rng.gauss() * self.config.jitter;
            if self.burst_left > 0.0 {
                self.burst_left -= 1.0;
            } else if self.rng.chance(self.config.bursts_per_100s / 100.0) {
                self.burst_left = self.config.burst_len_s;
            }
        }
        let diurnal = 1.0
            + self.config.diurnal_amplitude
                * (2.0 * std::f64::consts::PI * sec / self.config.diurnal_period_s).sin();
        let burst = if self.burst_left > 0.0 {
            self.config.burst_gain
        } else {
            1.0
        };
        (self.config.base_rate * diurnal * burst * self.ou.exp()).max(0.0)
    }

    /// Number of requests arriving in the 5 ms session starting at `t`.
    pub fn requests_in_session(&mut self, t: SimTime) -> u32 {
        let rate = self.rate_at(t);
        self.rng.poisson(rate * SESSION.as_secs_f64()) as u32
    }
}

/// Tag constant for the RNG split (see `stream::STREAM_TAG`).
const WORKLOAD_TAG: u64 = 0x1BAD_B002_FEED_F00D;

#[cfg(test)]
mod tests {
    use super::*;
    use adainf_simcore::time::SECOND;

    #[test]
    fn mean_arrivals_track_base_rate() {
        let root = Prng::new(10);
        let mut trace = ArrivalTrace::new(ArrivalConfig::default(), 1, &root);
        let mut total = 0u64;
        let sessions = 40_000; // 200 s of sessions.
        for i in 0..sessions {
            let t = SimTime::from_micros(i * 5_000);
            total += trace.requests_in_session(t) as u64;
        }
        let secs = sessions as f64 * 0.005;
        let rate = total as f64 / secs;
        // Diurnal + bursts average out near base_rate; wide tolerance.
        assert!(
            (rate - 3200.0).abs() < 3200.0 * 0.35,
            "observed mean rate {rate}"
        );
    }

    #[test]
    fn rate_is_nonstationary() {
        let root = Prng::new(11);
        let mut trace = ArrivalTrace::new(ArrivalConfig::default(), 2, &root);
        let mut rates = Vec::new();
        for s in 0..400 {
            rates.push(trace.rate_at(SimTime::from_micros(s * SECOND)));
        }
        let min = rates.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = rates.iter().cloned().fold(0.0, f64::max);
        assert!(max / min > 1.3, "rate should vary: {min}..{max}");
    }

    #[test]
    fn traces_deterministic_per_seed_and_distinct_across_seeds() {
        let root = Prng::new(12);
        let mut a = ArrivalTrace::new(ArrivalConfig::default(), 7, &root);
        let mut b = ArrivalTrace::new(ArrivalConfig::default(), 7, &root);
        let mut c = ArrivalTrace::new(ArrivalConfig::default(), 8, &root);
        let mut same = true;
        let mut diff = false;
        for i in 0..1000 {
            let t = SimTime::from_micros(i * 5_000);
            let (ra, rb, rc) = (
                a.requests_in_session(t),
                b.requests_in_session(t),
                c.requests_in_session(t),
            );
            same &= ra == rb;
            diff |= ra != rc;
        }
        assert!(same, "same seed must reproduce");
        assert!(diff, "different seeds must differ");
    }

    #[test]
    fn bursts_raise_the_rate() {
        let root = Prng::new(21);
        let cfg = ArrivalConfig {
            diurnal_amplitude: 0.0,
            jitter: 0.0,
            bursts_per_100s: 100.0, // burst (almost) always active
            burst_gain: 2.0,
            burst_len_s: 5.0,
            ..ArrivalConfig::default()
        };
        let mut bursty = ArrivalTrace::new(cfg.clone(), 1, &root);
        let calm_cfg = ArrivalConfig {
            bursts_per_100s: 0.0,
            ..cfg
        };
        let mut calm = ArrivalTrace::new(calm_cfg, 1, &root);
        let mut hi = 0.0;
        let mut lo = 0.0;
        for s in 1..100 {
            hi += bursty.rate_at(SimTime::from_micros(s * SECOND));
            lo += calm.rate_at(SimTime::from_micros(s * SECOND));
        }
        assert!(hi > lo * 1.5, "bursty {hi} vs calm {lo}");
    }

    #[test]
    fn zero_rate_config_yields_no_arrivals() {
        let root = Prng::new(13);
        let cfg = ArrivalConfig {
            base_rate: 0.0,
            ..ArrivalConfig::default()
        };
        let mut trace = ArrivalTrace::new(cfg, 1, &root);
        for i in 0..100 {
            assert_eq!(
                trace.requests_in_session(SimTime::from_micros(i * 5_000)),
                0
            );
        }
    }
}
