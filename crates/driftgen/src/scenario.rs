//! Named drift scenarios.
//!
//! Observations 2–3 of the paper: in the surveillance application the
//! object-detection task is essentially unaffected by drift (the overall
//! vehicle-vs-person split stays constant) while vehicle-type recognition
//! drifts more than person-activity recognition. [`DriftProfile`] encodes
//! those intensity levels so application catalogues can tag each model's
//! task stream.

/// Qualitative drift intensity of a task stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DriftProfile {
    /// No meaningful drift — the object-detection case in Fig 5a.
    Stable,
    /// Mild drift — small prior shifts, slow appearance change.
    Mild,
    /// Moderate drift — the person-activity case (0–9 % accuracy loss).
    Moderate,
    /// Severe drift — the vehicle-type case (0–15 % accuracy loss).
    Severe,
}

impl DriftProfile {
    /// `(prior_drift, mean_drift)` intensities for
    /// [`TaskStreamConfig`](crate::stream::TaskStreamConfig).
    ///
    /// The magnitudes were calibrated so a frozen model loses roughly the
    /// per-period accuracy the paper reports for each class of task
    /// (see `calibration` tests in `adainf-harness`).
    pub fn intensities(self) -> (f64, f64) {
        match self {
            DriftProfile::Stable => (0.01, 0.0),
            DriftProfile::Mild => (0.10, 0.12),
            DriftProfile::Moderate => (0.28, 0.32),
            DriftProfile::Severe => (0.45, 0.50),
        }
    }

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            DriftProfile::Stable => "stable",
            DriftProfile::Mild => "mild",
            DriftProfile::Moderate => "moderate",
            DriftProfile::Severe => "severe",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{TaskStream, TaskStreamConfig};
    use adainf_nn::metrics::js_divergence;
    use adainf_simcore::Prng;

    fn stream(profile: DriftProfile, seed: u64, root: &Prng) -> TaskStream {
        let (p, m) = profile.intensities();
        TaskStream::new(TaskStreamConfig::new("s", 5, seed).with_drift(p, m), root)
    }

    #[test]
    fn intensities_are_ordered() {
        let profiles = [
            DriftProfile::Stable,
            DriftProfile::Mild,
            DriftProfile::Moderate,
            DriftProfile::Severe,
        ];
        for w in profiles.windows(2) {
            let (p0, m0) = w[0].intensities();
            let (p1, m1) = w[1].intensities();
            assert!(p0 < p1 && m0 <= m1, "{:?} vs {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn severe_drifts_more_than_stable_in_js() {
        let root = Prng::new(33);
        let mut stable = stream(DriftProfile::Stable, 1, &root);
        let mut severe = stream(DriftProfile::Severe, 2, &root);
        let s0 = stable.priors().to_vec();
        let v0 = severe.priors().to_vec();
        let mut js_stable = 0.0f64;
        let mut js_severe = 0.0f64;
        for _ in 0..8 {
            stable.advance_period();
            severe.advance_period();
            js_stable = js_stable.max(js_divergence(&s0, stable.priors()));
            js_severe = js_severe.max(js_divergence(&v0, severe.priors()));
        }
        assert!(
            js_severe > js_stable * 3.0,
            "severe {js_severe} vs stable {js_stable}"
        );
    }
}
