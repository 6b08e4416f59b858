//! Deterministic, splittable pseudo-random numbers.
//!
//! Experiments must be replayable from a single seed, and sub-systems
//! (workload generator, drift generator, per-model initialisation, …) must
//! be able to draw numbers without perturbing each other's streams. We use
//! xoshiro256++ seeded through SplitMix64 — the textbook combination — and
//! expose [`Prng::split`] to derive independent child generators.
//!
//! The distribution samplers implemented here (normal via Box–Muller,
//! Poisson via Knuth/normal approximation, exponential via inversion) keep
//! us from needing `rand_distr` as a dependency.

/// xoshiro256++ PRNG with convenience distribution samplers.
///
/// ```
/// use adainf_simcore::Prng;
/// let mut a = Prng::new(42);
/// let mut b = Prng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());        // reproducible
/// let mut child = a.split(7);                    // independent stream
/// assert_ne!(child.next_u64(), b.next_u64());
/// ```
#[derive(Clone, Debug)]
pub struct Prng {
    s: [u64; 4],
    /// Cached second output of the last Box–Muller transform.
    gauss_spare: Option<f64>,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Prng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Prng { s, gauss_spare: None }
    }

    /// Derives an independent child generator. The child stream is a
    /// deterministic function of the parent state and `label`, so two
    /// subsystems splitting with different labels never correlate, and the
    /// parent stream is not advanced.
    pub fn split(&self, label: u64) -> Prng {
        // Mix the full parent state with the label through SplitMix64.
        let mut acc = label ^ 0xA076_1D64_78BD_642F;
        for w in self.s {
            acc = splitmix64(&mut acc) ^ w.rotate_left(17);
        }
        // simlint: allow(prng-stream-discipline) — split() IS the sanctioned child-derivation the rule points everyone at; the mixed state is seed-derived, not ambient
        Prng::new(acc)
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0]
            .wrapping_add(s[3])
            .rotate_left(23)
            .wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform float in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        // 53 significant bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform float in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.f64()
    }

    /// Uniform integer in `[0, n)`. `n` must be non-zero.
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0, "below(0) is meaningless");
        // Lemire's multiply-shift rejection method.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (n as u128);
        let mut l = m as u64;
        if l < n {
            let t = n.wrapping_neg() % n;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (n as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform usize in `[0, n)`.
    pub fn index(&mut self, n: usize) -> usize {
        self.below(n as u64) as usize
    }

    /// Bernoulli draw with probability `p` of `true`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Standard normal via Box–Muller (with spare caching).
    pub fn gauss(&mut self) -> f64 {
        if let Some(v) = self.gauss_spare.take() {
            return v;
        }
        let (r, theta) = self.box_muller_polar();
        self.gauss_spare = Some(r * theta.sin());
        r * theta.cos()
    }

    /// One Box–Muller transform's radius and angle, from two uniforms.
    fn box_muller_polar(&mut self) -> (f64, f64) {
        // Avoid u == 0 so ln(u) is finite.
        let u = 1.0 - self.f64();
        let v = self.f64();
        ((-2.0 * u.ln()).sqrt(), 2.0 * std::f64::consts::PI * v)
    }

    /// Advances the generator past `n` [`Self::gauss`] calls without
    /// computing their values: it leaves the same state and the same
    /// pending spare as the calls would. A pending spare serves the
    /// first call; each later pair of calls is one transform, two raw
    /// draws. Only a transform whose sine half stays pending is
    /// evaluated, so `ln`, `sqrt` and `sin` run at most once.
    pub fn skip_gauss(&mut self, n: usize) {
        let mut n = n;
        if n > 0 && self.gauss_spare.take().is_some() {
            n -= 1;
        }
        for _ in 0..n / 2 * 2 {
            self.next_u64();
        }
        if n % 2 == 1 {
            let (r, theta) = self.box_muller_polar();
            self.gauss_spare = Some(r * theta.sin());
        }
    }

    /// Normal with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.gauss()
    }

    /// Poisson draw with rate `lambda >= 0`. Uses Knuth's method for small
    /// rates and a normal approximation above 64 (accurate to well under a
    /// percent there, and the workloads only care about aggregate rates).
    pub fn poisson(&mut self, lambda: f64) -> u64 {
        if lambda <= 0.0 {
            return 0;
        }
        if lambda < 64.0 {
            let l = (-lambda).exp();
            let mut k = 0u64;
            let mut p = 1.0;
            loop {
                p *= self.f64();
                if p <= l {
                    return k;
                }
                k += 1;
            }
        } else {
            let x = self.normal(lambda, lambda.sqrt());
            if x < 0.0 {
                0
            } else {
                x.round() as u64
            }
        }
    }

    /// Exponential draw with the given rate (mean `1/rate`).
    pub fn exponential(&mut self, rate: f64) -> f64 {
        debug_assert!(rate > 0.0);
        -(1.0 - self.f64()).ln() / rate
    }

    /// Samples an index from a discrete distribution given by non-negative
    /// weights. Returns `None` when all weights are zero or the slice is
    /// empty.
    pub fn weighted_index(&mut self, weights: &[f64]) -> Option<usize> {
        self.weighted_index_with_total(weights, Self::weight_total(weights))
    }

    /// The sum [`Self::weighted_index`] draws against: the finite
    /// positive weights, added in slice order.
    pub fn weight_total(weights: &[f64]) -> f64 {
        weights.iter().filter(|w| w.is_finite() && **w > 0.0).sum()
    }

    /// [`Self::weighted_index`] with the weight sum hoisted out, for
    /// loops that draw many indices from one fixed weight vector.
    /// `total` must be [`Self::weight_total`]`(weights)`; the call then
    /// takes the same single draw and returns the same index.
    pub fn weighted_index_with_total(&mut self, weights: &[f64], total: f64) -> Option<usize> {
        if total <= 0.0 {
            return None;
        }
        let mut x = self.f64() * total;
        for (i, w) in weights.iter().enumerate() {
            if *w > 0.0 && w.is_finite() {
                if x < *w {
                    return Some(i);
                }
                x -= *w;
            }
        }
        // Floating-point slop: fall back to the last positive weight.
        weights.iter().rposition(|w| *w > 0.0)
    }

    /// Perturbs a probability simplex in place: each component receives
    /// multiplicative log-normal noise of scale `sigma`, then the vector is
    /// re-normalised. This is the drift-step primitive of the data
    /// generator (a cheap stand-in for a Dirichlet random walk).
    pub fn perturb_simplex(&mut self, probs: &mut [f64], sigma: f64) {
        if probs.is_empty() {
            return;
        }
        for p in probs.iter_mut() {
            let noise = (self.gauss() * sigma).exp();
            *p = (*p).max(1e-9) * noise;
        }
        let total: f64 = probs.iter().sum();
        for p in probs.iter_mut() {
            *p /= total;
        }
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = Prng::new(42);
        let mut b = Prng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn split_streams_differ_and_are_stable() {
        let root = Prng::new(7);
        let mut c1 = root.split(1);
        let mut c2 = root.split(2);
        let mut c1b = root.split(1);
        assert_ne!(c1.next_u64(), c2.next_u64());
        let _ = c1b.next_u64();
        assert_eq!(c1.next_u64(), c1b.next_u64());
    }

    #[test]
    fn uniform_in_range() {
        let mut r = Prng::new(1);
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
            let y = r.below(17);
            assert!(y < 17);
        }
    }

    #[test]
    fn gauss_moments() {
        let mut r = Prng::new(3);
        let n = 200_000;
        let (mut sum, mut sq) = (0.0, 0.0);
        for _ in 0..n {
            let x = r.gauss();
            sum += x;
            sq += x * x;
        }
        let mean = sum / n as f64;
        let var = sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    /// Skipping `n` calls leaves the state and the pending spare that
    /// `n` real calls leave, from either entry state, whatever raw
    /// draws come between skips.
    #[test]
    fn skip_gauss_lands_where_the_calls_do() {
        for spare_first in [false, true] {
            for n in [0usize, 1, 2, 3, 16, 17, 1001] {
                let mut real = Prng::new(17);
                if spare_first {
                    real.gauss();
                }
                let mut skipped = real.clone();
                for round in 0..3 {
                    for _ in 0..n {
                        real.gauss();
                    }
                    skipped.skip_gauss(n);
                    assert_eq!(
                        real.gauss_spare.map(f64::to_bits),
                        skipped.gauss_spare.map(f64::to_bits),
                        "spare {spare_first}, n {n}, round {round}"
                    );
                    assert_eq!(real.s, skipped.s, "spare {spare_first}, n {n}");
                    assert_eq!(real.next_u64(), skipped.next_u64());
                }
                assert_eq!(real.gauss().to_bits(), skipped.gauss().to_bits());
            }
        }
    }

    #[test]
    fn poisson_mean_small_and_large() {
        let mut r = Prng::new(4);
        for &lambda in &[0.5, 5.0, 200.0] {
            let n = 20_000;
            let total: u64 = (0..n).map(|_| r.poisson(lambda)).sum();
            let mean = total as f64 / n as f64;
            assert!(
                (mean - lambda).abs() < lambda.max(1.0) * 0.05,
                "lambda {lambda} mean {mean}"
            );
        }
        assert_eq!(r.poisson(0.0), 0);
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut r = Prng::new(5);
        let w = [0.0, 3.0, 1.0];
        let mut counts = [0u32; 3];
        for _ in 0..40_000 {
            counts[r.weighted_index(&w).unwrap()] += 1;
        }
        assert_eq!(counts[0], 0);
        let ratio = counts[1] as f64 / counts[2] as f64;
        assert!((ratio - 3.0).abs() < 0.3, "ratio {ratio}");
        assert_eq!(r.weighted_index(&[]), None);
        assert_eq!(r.weighted_index(&[0.0, 0.0]), None);
        // The hoisted-total form takes the same draw.
        let w = [0.2, f64::NAN, 0.0, 0.5, 0.3];
        let total = Prng::weight_total(&w);
        let mut a = Prng::new(6);
        let mut b = Prng::new(6);
        for _ in 0..1000 {
            assert_eq!(a.weighted_index(&w), b.weighted_index_with_total(&w, total));
        }
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn perturb_simplex_stays_normalised() {
        let mut r = Prng::new(6);
        let mut p = vec![0.25; 4];
        for _ in 0..100 {
            r.perturb_simplex(&mut p, 0.3);
            let total: f64 = p.iter().sum();
            assert!((total - 1.0).abs() < 1e-9);
            assert!(p.iter().all(|x| *x > 0.0));
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = Prng::new(8);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
