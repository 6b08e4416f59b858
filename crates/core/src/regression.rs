//! The non-linear regression scaling of \[3\].
//!
//! AdaInf (like Ekya) never queries the GPU at schedule time: it scales
//! offline-profiled latencies between GPU fractions with a fitted
//! regression model. We fit a power law `L(g) = L(1) · g^(−θ)` by
//! least squares in log–log space — the classic throughput-scaling form.
//! Because the true simulator law also shifts its batching knee with the
//! fraction, the fit has honest approximation error, exactly like the
//! paper's profiling-based estimates.

/// A fitted power-law latency scaler.
#[derive(Clone, Copy, Debug)]
pub struct PowerLawScaler {
    /// Scaling exponent θ (positive: less space → more latency).
    pub theta: f64,
}

impl PowerLawScaler {
    /// Fits θ from `(fraction, latency)` observations (latency in any
    /// consistent unit). Requires at least two points with positive
    /// values; falls back to θ = 1 (linear scaling) otherwise.
    pub fn fit(points: &[(f64, f64)]) -> Self {
        let logs: Vec<(f64, f64)> = points
            .iter()
            .filter(|(g, l)| *g > 0.0 && *l > 0.0)
            .map(|(g, l)| (g.ln(), l.ln()))
            .collect();
        if logs.len() < 2 {
            return PowerLawScaler { theta: 1.0 };
        }
        let n = logs.len() as f64;
        let mx: f64 = logs.iter().map(|(x, _)| x).sum::<f64>() / n;
        let my: f64 = logs.iter().map(|(_, y)| y).sum::<f64>() / n;
        let mut num = 0.0;
        let mut den = 0.0;
        for (x, y) in &logs {
            num += (x - mx) * (y - my);
            den += (x - mx) * (x - mx);
        }
        if den < 1e-12 {
            return PowerLawScaler { theta: 1.0 };
        }
        // Slope is −θ.
        PowerLawScaler {
            theta: (-(num / den)).max(0.05),
        }
    }

    /// Latency at fraction `g` given the latency at full GPU.
    pub fn scale(&self, latency_full: f64, g: f64) -> f64 {
        latency_full * g.clamp(1e-4, 1.0).powf(-self.theta)
    }

    /// The fraction needed to bring `latency_full` down to `target`
    /// (clamped to `(0, 1]`; returns 1.0 when even a full GPU is too slow
    /// — the caller deals with infeasibility).
    pub fn required_fraction(&self, latency_full: f64, target: f64) -> f64 {
        if target <= 0.0 || latency_full <= 0.0 {
            return 1.0;
        }
        (latency_full / target)
            .powf(1.0 / self.theta)
            .clamp(1e-4, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fits_exact_power_law() {
        let theta = 0.85;
        let points: Vec<(f64, f64)> = [1.0, 0.5, 0.25, 0.125]
            .iter()
            .map(|&g: &f64| (g, 100.0 * g.powf(-theta)))
            .collect();
        let s = PowerLawScaler::fit(&points);
        assert!((s.theta - theta).abs() < 1e-6, "theta {}", s.theta);
        assert!((s.scale(100.0, 0.5) - 100.0 * 0.5f64.powf(-theta)).abs() < 1e-6);
    }

    #[test]
    fn required_fraction_inverts_scale() {
        let s = PowerLawScaler { theta: 0.9 };
        let g = s.required_fraction(50.0, 200.0);
        assert!((s.scale(50.0, g) - 200.0).abs() < 1e-6);
    }

    #[test]
    fn required_fraction_clamps() {
        let s = PowerLawScaler { theta: 1.0 };
        // Needs more than a full GPU → clamp to 1.
        assert_eq!(s.required_fraction(500.0, 100.0), 1.0);
        // Degenerate targets.
        assert_eq!(s.required_fraction(100.0, 0.0), 1.0);
    }

    #[test]
    fn degenerate_fits_fall_back() {
        assert_eq!(PowerLawScaler::fit(&[]).theta, 1.0);
        assert_eq!(PowerLawScaler::fit(&[(1.0, 10.0)]).theta, 1.0);
        assert_eq!(PowerLawScaler::fit(&[(1.0, 10.0), (1.0, 10.0)]).theta, 1.0);
    }
}
