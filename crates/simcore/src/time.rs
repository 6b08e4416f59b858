//! Simulated time.
//!
//! All simulated clocks in the workspace use microsecond resolution stored
//! in a `u64`. A microsecond tick is fine enough to express the paper's
//! smallest quantities (0.01 ms content-reuse latencies are stored as 10 µs)
//! while a `u64` lasts ~584 000 years of simulated time, so overflow is not
//! a practical concern.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// One microsecond, the base tick of the simulation.
pub const MICROSECOND: u64 = 1;
/// Microseconds per millisecond.
pub const MILLISECOND: u64 = 1_000;
/// Microseconds per second.
pub const SECOND: u64 = 1_000_000;

/// Length of one retraining period `T` (§3.1): 50 s.
pub const PERIOD: SimDuration = SimDuration::from_secs(50);
/// Length of one scheduling time session (§3.1): 5 ms.
pub const SESSION: SimDuration = SimDuration::from_millis(5);
/// Scheduling lead time (§3.1): at `τ` AdaInf schedules `[τ+2, τ+7) ms`.
pub const SCHED_LEAD: SimDuration = SimDuration::from_millis(2);

/// An instant on the simulated clock (microseconds since simulation start).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time in microseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The simulation epoch, `t = 0`.
    pub const ZERO: SimTime = SimTime(0);

    /// Builds an instant from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * SECOND)
    }

    /// Builds an instant from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * MILLISECOND)
    }

    /// Builds an instant from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Raw microsecond value.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// This instant expressed in (possibly fractional) milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / MILLISECOND as f64
    }

    /// This instant expressed in (possibly fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / SECOND as f64
    }

    /// Duration since an earlier instant; saturates to zero if `earlier`
    /// is actually later (callers treat clock skew as "no time passed").
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Index of the retraining period containing this instant.
    pub fn period_index(self) -> u64 {
        self.0 / PERIOD.0
    }

    /// Index of the scheduling session containing this instant.
    pub fn session_index(self) -> u64 {
        self.0 / SESSION.0
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Builds a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * SECOND)
    }

    /// Builds a duration from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * MILLISECOND)
    }

    /// Builds a duration from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Builds a duration from fractional milliseconds, rounding to the
    /// nearest microsecond. Negative and non-finite inputs clamp to zero.
    pub fn from_millis_f64(ms: f64) -> Self {
        if !ms.is_finite() || ms <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration((ms * MILLISECOND as f64).round() as u64)
    }

    /// Raw microsecond value.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// This duration in (possibly fractional) milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / MILLISECOND as f64
    }

    /// This duration in (possibly fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / SECOND as f64
    }

    /// Subtraction that saturates at zero instead of underflowing; used to
    /// compute "spare time" budgets (`SLO − inference time`) that may be
    /// negative when a job is overloaded.
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// Scales the duration by a non-negative factor, rounding to the
    /// nearest microsecond.
    pub fn mul_f64(self, k: f64) -> SimDuration {
        SimDuration::from_millis_f64(self.as_millis_f64() * k)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.3}ms", self.as_millis_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= SECOND {
            write!(f, "{:.2}s", self.as_secs_f64())
        } else {
            write!(f, "{:.3}ms", self.as_millis_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_match_paper() {
        assert_eq!(PERIOD.as_secs_f64(), 50.0);
        assert_eq!(SESSION.as_millis_f64(), 5.0);
        assert_eq!(SCHED_LEAD.as_millis_f64(), 2.0);
    }

    #[test]
    fn period_and_session_indexing() {
        let t = SimTime::from_secs(125);
        assert_eq!(t.period_index(), 2);
        assert_eq!(SimTime::from_millis(14).session_index(), 2);
        assert_eq!(SimTime::ZERO.session_index(), 0);
    }

    #[test]
    fn arithmetic_saturates() {
        let a = SimDuration::from_millis(2);
        let b = SimDuration::from_millis(5);
        assert_eq!(a.saturating_sub(b), SimDuration::ZERO);
        assert_eq!(b.saturating_sub(a), SimDuration::from_millis(3));
        assert_eq!(SimTime::ZERO - b, SimTime::ZERO);
    }

    #[test]
    fn fractional_conversions_round_trip() {
        let d = SimDuration::from_millis_f64(0.015);
        assert_eq!(d.as_micros(), 15);
        assert!((d.as_millis_f64() - 0.015).abs() < 1e-12);
        assert_eq!(SimDuration::from_millis_f64(-3.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_millis_f64(f64::NAN), SimDuration::ZERO);
    }

    #[test]
    fn display_humanizes() {
        assert_eq!(format!("{}", SimDuration::from_millis(250)), "250.000ms");
        assert_eq!(format!("{}", SimDuration::from_secs(3)), "3.00s");
        assert_eq!(format!("{}", SimDuration::from_millis(1500)), "1.50s");
    }

    #[test]
    fn mul_f64_scales() {
        let d = SimDuration::from_millis(400);
        assert_eq!(d.mul_f64(0.5), SimDuration::from_millis(200));
        assert_eq!(d.mul_f64(0.0), SimDuration::ZERO);
    }
}
