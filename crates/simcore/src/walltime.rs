//! Host wall-clock measurement — the **only** module in the simulation
//! crates allowed to read the real clock.
//!
//! The paper reports scheduler decision *overheads* (Table 1) as
//! measured wall time, so the harness and the schedulers need a
//! stopwatch. But wall-clock readings must never leak into simulated
//! behaviour: a simulation that branches on host timing is not
//! replayable, and every golden test in this workspace would become
//! flaky. Concentrating the capability here makes the boundary
//! auditable — `simlint`'s `no-wall-clock` rule bans `Instant`/
//! `SystemTime` everywhere else (the bench harness and the vendored
//! criterion stub are the only other allowlisted modules), so "who can
//! see the host clock" is a one-line `simlint.toml` entry, not a code
//! review question.
//!
//! By construction a [`WallTimer`] can only produce *elapsed* spans,
//! never absolute times, and nothing in this module converts a reading
//! back into a [`crate::SimTime`] — overhead metrics stay milliseconds
//! of host time, reported next to (never added to) the simulated clock.

use std::time::Instant;

/// A started stopwatch over the host clock.
///
/// ```
/// use adainf_simcore::walltime::WallTimer;
/// let timer = WallTimer::start();
/// let ms = timer.elapsed_ms();
/// assert!(ms >= 0.0);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct WallTimer {
    started: Instant,
}

impl WallTimer {
    /// Starts a stopwatch.
    pub fn start() -> Self {
        WallTimer {
            started: Instant::now(),
        }
    }

    /// Host milliseconds since [`WallTimer::start`]. For overhead
    /// *metrics* only — never feed this into simulated time.
    pub fn elapsed_ms(&self) -> f64 {
        self.started.elapsed().as_secs_f64() * 1e3
    }

    /// Host seconds since [`WallTimer::start`].
    pub fn elapsed_secs(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Host nanoseconds since [`WallTimer::start`], for accumulating
    /// many short spans without float rounding.
    pub fn elapsed_nanos(&self) -> u128 {
        self.started.elapsed().as_nanos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elapsed_is_monotone_and_non_negative() {
        let t = WallTimer::start();
        let a = t.elapsed_ms();
        let b = t.elapsed_ms();
        assert!(a >= 0.0);
        assert!(b >= a);
        assert!((t.elapsed_secs() * 1e3 - t.elapsed_ms()).abs() < 1e3);
    }
}
