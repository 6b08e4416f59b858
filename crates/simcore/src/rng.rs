//! Deterministic, splittable pseudo-random numbers.
//!
//! Experiments must be replayable from a single seed, and sub-systems
//! (workload generator, drift generator, per-model initialisation, …) must
//! be able to draw numbers without perturbing each other's streams. We use
//! xoshiro256++ seeded through SplitMix64 — the textbook combination — and
//! expose [`Prng::split`] to derive independent child generators.
//!
//! The distribution samplers implemented here (normal via Box–Muller,
//! Poisson via Knuth/normal approximation) keep us from needing
//! `rand_distr` as a dependency.
//!
//! Rows of scaled normals rounded to `f32` — the data generator's
//! samples — come from one blocked kernel, [`Prng::scaled_gauss_rows`].
//! It makes a block's raw draws in the order the per-value [`Prng::gauss`]
//! loop makes them (per row one lead draw, then the row's uniform pairs,
//! a count fixed by the row index and the spare pending at entry), then
//! evaluates the block's transforms branch-free in `+ − × ÷ sqrt`:
//! fdlibm's `log`, a two-part Cody–Waite reduction by π/2 and fdlibm's
//! `sin`/`cos` kernels, so that LLVM vectorises them. A value is kept
//! only when its `f64` bits lie more than 2^13 ulps from an `f32`
//! rounding midpoint, it is a normal `f32`, the radius is not 0 and the
//! reduced angle exceeds 1e-9; the fast path and libm each lie within a
//! few ulps of the true value, so both then round to the same `f32`.
//! Every other transform (about 6 in 10⁵), a spare pending at entry and
//! the spare left pending at exit run `gauss()`'s scalar code; the
//! kernel calls libm nowhere else. The output, the generator's state
//! and its spare are bit-identical to the loop's; with the
//! `strict-invariants` feature every kept value is recomputed by the
//! scalar code and checked.

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
        Prng {
            s,
            gauss_spare: None,
        }
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
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
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
        polar(u, v)
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

    /// Fills `out` row by row (rows of `dim`) with standard normals
    /// times `scale`, rounded to `f32`, each row after one uniform
    /// `lead` draw that `row` receives with the finished row. Bit for
    /// bit, and with the same raw draws in the same order, it is
    ///
    /// ```text
    /// for values in out.chunks_mut(dim) {
    ///     let lead = self.f64();
    ///     for x in values.iter_mut() {
    ///         *x = (self.gauss() * scale) as f32;
    ///     }
    ///     row(lead, values);
    /// }
    /// ```
    ///
    /// and it leaves the generator and its pending spare where that
    /// loop does, but it evaluates the transforms a block at a time:
    /// the raw draws of [`GAUSS_BLOCK`] transforms (and of the leads
    /// between them) first, then their values in one branch-free pass
    /// that LLVM vectorises. Every value its guard cannot prove exact,
    /// a spare pending at entry and the spare left pending at exit are
    /// computed by `gauss()`'s scalar code. It allocates nothing.
    ///
    /// # Panics
    /// Panics when `dim` is 0 or `out` is not a whole number of rows.
    pub fn scaled_gauss_rows(
        &mut self,
        out: &mut [f32],
        dim: usize,
        scale: f64,
        mut row: impl FnMut(f64, &mut [f32]),
    ) {
        let len = out.len();
        assert!(
            dim > 0 && len.is_multiple_of(dim),
            "{len} values in rows of {dim}"
        );
        let rows = len / dim;
        if rows == 0 {
            return;
        }
        // Value `first + 2t` is transform t's cosine half and the value
        // after it its sine half; a spare pending at entry is value 0.
        let first = match self.gauss_spare.take() {
            Some(spare) => {
                out[0] = (spare * scale) as f32;
                1
            }
            None => 0,
        };
        let transforms = (len - first).div_ceil(2);
        let (mut us, mut vs) = ([0.0; GAUSS_BLOCK], [0.0; GAUSS_BLOCK]);
        let (mut cs, mut ss) = ([0.0f32; GAUSS_BLOCK], [0.0f32; GAUSS_BLOCK]);
        // Leads of rows `delivered..drawn`, a ring indexed by row.
        let mut leads = [0.0; LEADS];
        let (mut drawn, mut delivered) = (0, 0);
        let mut t0 = 0;
        loop {
            let n = GAUSS_BLOCK.min(transforms - t0);
            for k in 0..n {
                // The leads of the rows up to this transform's row go
                // before its two uniforms.
                while drawn * dim <= first + 2 * (t0 + k) {
                    leads[drawn % LEADS] = self.f64();
                    drawn += 1;
                }
                us[k] = 1.0 - self.f64();
                vs[k] = self.f64();
            }
            let last = t0 + n == transforms;
            if last {
                // At width 1 the last row may hold only a sine half.
                while drawn < rows {
                    leads[drawn % LEADS] = self.f64();
                    drawn += 1;
                }
            }
            box_muller_block(&us[..n], &vs[..n], scale, &mut cs[..n], &mut ss[..n]);
            for k in 0..n {
                let at = first + 2 * (t0 + k);
                out[at] = cs[k];
                if let Some(x) = out.get_mut(at + 1) {
                    *x = ss[k];
                }
            }
            t0 += n;
            if last && first + 2 * transforms > len {
                let (r, theta) = polar(us[n - 1], vs[n - 1]);
                self.gauss_spare = Some(r * theta.sin());
            }
            let done = ((first + 2 * t0).min(len) / dim).min(drawn);
            for r in delivered..done {
                row(leads[r % LEADS], &mut out[r * dim..(r + 1) * dim]);
            }
            delivered = done;
            if last {
                return;
            }
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

    /// Samples an index from a discrete distribution given by non-negative
    /// weights. Returns `None` when all weights are zero or the slice is
    /// empty.
    pub fn weighted_index(&mut self, weights: &[f64]) -> Option<usize> {
        let total = Self::weight_total(weights);
        if total <= 0.0 {
            return None;
        }
        Self::weighted_index_at(self.f64(), weights, total)
    }

    /// The sum [`Self::weighted_index`] draws against: the finite
    /// positive weights, added in slice order.
    pub fn weight_total(weights: &[f64]) -> f64 {
        weights.iter().filter(|w| w.is_finite() && **w > 0.0).sum()
    }

    /// The index [`Self::weighted_index`] returns when its draw is `u`,
    /// with the weight sum `total` = [`Self::weight_total`]`(weights)`
    /// hoisted out: for callers that make the draw themselves and pick
    /// many indices from one weight vector (the row leads of
    /// [`Self::scaled_gauss_rows`]).
    pub fn weighted_index_at(u: f64, weights: &[f64], total: f64) -> Option<usize> {
        if total <= 0.0 {
            return None;
        }
        let mut x = u * total;
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

/// One Box–Muller transform's radius and angle from its two uniforms,
/// `u` in (0, 1] so that `ln(u)` is finite: the scalar path, through
/// libm's `log`, `sin` and `cos`.
fn polar(u: f64, v: f64) -> (f64, f64) {
    ((-2.0 * u.ln()).sqrt(), 2.0 * std::f64::consts::PI * v)
}

/// Box–Muller transforms per block of [`Prng::scaled_gauss_rows`]: a
/// block's uniforms and values (12 KiB) and its row leads live on the
/// stack.
pub const GAUSS_BLOCK: usize = 512;

/// Row leads held at once: a block's transforms start in at most
/// `2 · GAUSS_BLOCK` rows (at width 1), one row may carry over from the
/// block before, and one may follow the last transform.
const LEADS: usize = 2 * GAUSS_BLOCK + 2;

/// Half-width of the guard band around an `f32` rounding midpoint, in
/// units in the last place of the `f64` value: far wider than the few
/// ulps by which the fast path and libm can differ.
const GUARD_ULPS: u64 = 1 << 13;

/// Smallest reduced angle the fast path keeps: below it the two-part
/// reduction's absolute error would no longer be small against the
/// angle.
const MIN_REDUCED_ANGLE: f64 = 1e-9;

/// Evaluates one block of transforms, `(us[k], vs[k])` each: its
/// cosine and sine halves times `scale`, rounded to `f32`, as
/// [`Prng::gauss`] and the cast make them. A branch-free pass computes
/// every value through [`fast_pair`]; each transform whose guard fails
/// is then recomputed by the scalar path. Returns how many were.
fn box_muller_block(us: &[f64], vs: &[f64], scale: f64, cs: &mut [f32], ss: &mut [f32]) -> usize {
    let n = us.len();
    let (vs, cs, ss) = (&vs[..n], &mut cs[..n], &mut ss[..n]);
    let mut exact = [false; GAUSS_BLOCK];
    let exact = &mut exact[..n];
    for k in 0..n {
        (cs[k], ss[k], exact[k]) = fast_pair(us[k], vs[k], scale);
    }
    let mut fallbacks = 0;
    for k in 0..n {
        if exact[k] && !cfg!(feature = "strict-invariants") {
            continue;
        }
        let (r, theta) = polar(us[k], vs[k]);
        let c = (r * theta.cos() * scale) as f32;
        let s = (r * theta.sin() * scale) as f32;
        if exact[k] {
            assert!(
                c.to_bits() == cs[k].to_bits() && s.to_bits() == ss[k].to_bits(),
                "fast Box–Muller values ({}, {}) differ from the scalar path's ({c}, {s}) \
                 at u = {:e}, v = {:e}, scale = {scale:e}",
                cs[k],
                ss[k],
                us[k],
                vs[k],
            );
        } else {
            (cs[k], ss[k]) = (c, s);
            fallbacks += 1;
        }
    }
    fallbacks
}

/// One transform's two values, `((r·cos θ)·scale) as f32` and
/// `((r·sin θ)·scale) as f32`, in plain `+ − × ÷ sqrt` and bit
/// operations, with whether both round as libm's would: fdlibm's `log`
/// of `u`, a two-part Cody–Waite reduction of `θ = 2πv` by π/2,
/// fdlibm's `sin`/`cos` kernels on the reduced angle and the quadrant
/// applied by swapping and sign flips. Each step is within an ulp or
/// two of the true value, as libm's are, so where a value lies more
/// than [`GUARD_ULPS`] from an `f32` rounding midpoint both round
/// alike. The guard also needs a normal `f32`, `r ≠ 0` and a reduced
/// angle above [`MIN_REDUCED_ANGLE`].
#[inline(always)]
fn fast_pair(u: f64, v: f64, scale: f64) -> (f32, f32, bool) {
    let (c, s, reducible) = fast_halves(u, v, scale);
    let (cf, sf) = (c as f32, s as f32);
    let exact = reducible & rounds_clear_of_midpoint(c, cf) & rounds_clear_of_midpoint(s, sf);
    (cf, sf, exact)
}

/// The `f64` values `(r·cos θ)·scale` and `(r·sin θ)·scale` of
/// [`fast_pair`], with whether `r ≠ 0` and the reduced angle exceeds
/// [`MIN_REDUCED_ANGLE`].
#[inline(always)]
fn fast_halves(u: f64, v: f64, scale: f64) -> (f64, f64, bool) {
    let r = (-2.0 * ln_kernel(u)).sqrt();
    let theta = 2.0 * std::f64::consts::PI * v;
    // n = θ·2/π rounded, read from the low bits of the rounded sum.
    let shifted = theta * INV_PIO2 + ROUND_SHIFT;
    let quadrant = shifted.to_bits();
    let n = shifted - ROUND_SHIFT;
    // θ − n·PIO2_1 is exact; y0 + y1 is the reduced angle.
    let head = theta - n * PIO2_1;
    let w = n * PIO2_1T;
    let y0 = head - w;
    let y1 = (head - y0) - w;
    let (sin_y, cos_y) = (sin_kernel(y0, y1), cos_kernel(y0, y1));
    // Quadrant q: cos θ = cos y, −sin y, −cos y, sin y; sin θ = sin y,
    // cos y, −sin y, −cos y.
    let odd = quadrant & 1 == 1;
    let (cos_mag, sin_mag) = if odd { (sin_y, cos_y) } else { (cos_y, sin_y) };
    let cos = f64::from_bits(cos_mag.to_bits() ^ (((quadrant + 1) & 2) << 62));
    let sin = f64::from_bits(sin_mag.to_bits() ^ ((quadrant & 2) << 62));
    let reducible = (r != 0.0) & (y0.abs() > MIN_REDUCED_ANGLE);
    (r * cos * scale, r * sin * scale, reducible)
}

/// Whether `x` rounds to the normal `f32` `rounded` with its low 29
/// mantissa bits — the ones the rounding drops — more than
/// [`GUARD_ULPS`] from the midpoint `2^28`.
#[inline(always)]
fn rounds_clear_of_midpoint(x: f64, rounded: f32) -> bool {
    let bits = x.to_bits();
    let dropped = bits & ((1 << 29) - 1);
    let clear = dropped.wrapping_sub((1 << 28) - GUARD_ULPS) > 2 * GUARD_ULPS;
    // At least f32::MIN_POSITIVE, so the rounding drops exactly 29 bits…
    let at_least_normal = (bits >> 52) & 0x7ff >= 1023 - 126;
    // …and short of infinity.
    let finite = (rounded.to_bits() >> 23) & 0xff != 0xff;
    clear & at_least_normal & finite
}

/// fdlibm's `log` for a normal positive `x`, branch-free: `x = 2^k·(1+f)`
/// with `1+f` in [√2/2, √2), then `k·ln2 + log(1+f)` with
/// `log(1+f) = f − (f²/2 − s·(f²/2 + R(s²)))`, `s = f/(2+f)`. Under 1 ulp.
#[inline(always)]
fn ln_kernel(x: f64) -> f64 {
    let bits = x.to_bits();
    let high = bits >> 32;
    let mantissa = high & 0x000f_ffff;
    // 0x10_0000 when 1.mantissa ≥ √2: then halve into [√2/2, 1).
    let halve = (mantissa + 0x95f64) & 0x10_0000;
    let exponent = (high >> 20) + (halve >> 20);
    let normalised = ((mantissa | (halve ^ 0x3ff0_0000)) << 32) | (bits & 0xffff_ffff);
    let f = f64::from_bits(normalised) - 1.0;
    // k = exponent − 1023, converted exactly through the 2^52 shift.
    let k = f64::from_bits(EXPONENT_SHIFT.to_bits() | exponent) - (EXPONENT_SHIFT + 1023.0);
    let s = f / (2.0 + f);
    let z = s * s;
    let w = z * z;
    let t1 = w * (LG2 + w * (LG4 + w * LG6));
    let t2 = z * (LG1 + w * (LG3 + w * (LG5 + w * LG7)));
    let r = t2 + t1;
    let hfsq = 0.5 * f * f;
    k * LN2_HI - ((hfsq - (s * (hfsq + r) + k * LN2_LO)) - f)
}

/// fdlibm's `__kernel_sin(x, y, 1)`: sin(x + y) for |x| ≤ π/4, `y` the
/// tail of the reduced angle.
#[inline(always)]
fn sin_kernel(x: f64, y: f64) -> f64 {
    let z = x * x;
    let v = z * x;
    let r = S2 + z * (S3 + z * (S4 + z * (S5 + z * S6)));
    x - ((z * (0.5 * y - v * r) - y) - v * S1)
}

/// fdlibm's `__kernel_cos(x, y)`: cos(x + y) for |x| ≤ π/4, with its
/// `qx` split for |x| ≥ 0.3 chosen by selects instead of branches.
#[inline(always)]
fn cos_kernel(x: f64, y: f64) -> f64 {
    let z = x * x;
    let r = z * (C1 + z * (C2 + z * (C3 + z * (C4 + z * (C5 + z * C6)))));
    let high = (x.to_bits() >> 32) & 0x7fff_ffff;
    let quarter = f64::from_bits(high.wrapping_sub(0x0020_0000) << 32);
    let qx = if high < 0x3fd3_3333 {
        0.0
    } else if high > 0x3fe9_0000 {
        0.28125
    } else {
        quarter
    };
    let hz = 0.5 * z - qx;
    let a = 1.0 - qx;
    a - (hz - (z * r - x * y))
}

/// 2^52 + 2^51: adding it rounds a small non-negative `f64` to an
/// integer held in the low mantissa bits.
const ROUND_SHIFT: f64 = 6755399441055744.0;
/// 2^52: an exponent field OR-ed into its mantissa reads as `2^52 + e`.
const EXPONENT_SHIFT: f64 = 4503599627370496.0;
const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);
const LG1: f64 = f64::from_bits(0x3fe5_5555_5555_5593);
const LG2: f64 = f64::from_bits(0x3fd9_9999_9997_fa04);
const LG3: f64 = f64::from_bits(0x3fd2_4924_9422_9359);
const LG4: f64 = f64::from_bits(0x3fcc_71c5_1d8e_78af);
const LG5: f64 = f64::from_bits(0x3fc7_4664_96cb_03de);
const LG6: f64 = f64::from_bits(0x3fc3_9a09_d078_c69f);
const LG7: f64 = f64::from_bits(0x3fc2_f112_df3e_5244);
const INV_PIO2: f64 = f64::from_bits(0x3fe4_5f30_6dc9_c883);
/// The first 33 bits of π/2, so `n · PIO2_1` is exact for small `n`.
const PIO2_1: f64 = f64::from_bits(0x3ff9_21fb_5440_0000);
/// π/2 − `PIO2_1`.
const PIO2_1T: f64 = f64::from_bits(0x3dd0_b461_1a62_6331);
const S1: f64 = f64::from_bits(0xbfc5_5555_5555_5549);
const S2: f64 = f64::from_bits(0x3f81_1111_1110_f8a6);
const S3: f64 = f64::from_bits(0xbf2a_01a0_19c1_61d5);
const S4: f64 = f64::from_bits(0x3ec7_1de3_57b1_fe7d);
const S5: f64 = f64::from_bits(0xbe5a_e5e6_8a2b_9ceb);
const S6: f64 = f64::from_bits(0x3de5_d93a_5acf_d57c);
const C1: f64 = f64::from_bits(0x3fa5_5555_5555_554c);
const C2: f64 = f64::from_bits(0xbf56_c16c_16c1_5177);
const C3: f64 = f64::from_bits(0x3efa_01a0_19cb_1590);
const C4: f64 = f64::from_bits(0xbe92_7e4f_809c_52ad);
const C5: f64 = f64::from_bits(0x3e21_ee9e_bdb4_b1c4);
const C6: f64 = f64::from_bits(0xbda8_fae9_be88_38d4);

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
        // A uniform drawn apart, with the sum hoisted, picks the same.
        let w = [0.2, f64::NAN, 0.0, 0.5, 0.3];
        let total = Prng::weight_total(&w);
        let mut a = Prng::new(6);
        let mut b = Prng::new(6);
        for _ in 0..1000 {
            assert_eq!(
                a.weighted_index(&w),
                Prng::weighted_index_at(b.f64(), &w, total)
            );
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

    /// The per-value loop `scaled_gauss_rows` stands for: each row's
    /// lead and values as the row callback would see them.
    fn gauss_rows_loop(
        rng: &mut Prng,
        out: &mut [f32],
        dim: usize,
        scale: f64,
    ) -> Vec<(f64, Vec<f32>)> {
        let mut rows = Vec::new();
        for values in out.chunks_mut(dim) {
            let lead = rng.f64();
            for x in values.iter_mut() {
                *x = (rng.gauss() * scale) as f32;
            }
            rows.push((lead, values.to_vec()));
        }
        rows
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|x| x.to_bits()).collect()
    }

    /// Draws `rows` rows through the kernel and through the loop from
    /// clones of `rng`, and compares the values, each row's lead and
    /// values as the callback received them, the generator state, the
    /// pending spare and the next raw draw.
    fn assert_rows_match_loop(rng: &Prng, rows: usize, dim: usize, scale: f64, what: &str) {
        let (mut fast, mut slow) = (rng.clone(), rng.clone());
        let mut got = vec![f32::NAN; rows * dim];
        let mut seen = Vec::new();
        fast.scaled_gauss_rows(&mut got, dim, scale, |lead, row| {
            seen.push((lead, row.to_vec()))
        });
        let mut want = vec![0.0; rows * dim];
        let expected = gauss_rows_loop(&mut slow, &mut want, dim, scale);
        assert_eq!(bits(&got), bits(&want), "{what}: values");
        assert_eq!(seen.len(), expected.len(), "{what}: rows handed over");
        for (r, (got, want)) in seen.iter().zip(&expected).enumerate() {
            assert_eq!(got.0.to_bits(), want.0.to_bits(), "{what}: lead of row {r}");
            assert_eq!(
                bits(&got.1),
                bits(&want.1),
                "{what}: row {r} as handed over"
            );
        }
        assert_eq!(fast.s, slow.s, "{what}: generator state");
        assert_eq!(
            fast.gauss_spare.map(f64::to_bits),
            slow.gauss_spare.map(f64::to_bits),
            "{what}: pending spare"
        );
        assert_eq!(fast.next_u64(), slow.next_u64(), "{what}: next raw draw");
    }

    /// Odd widths carry the pending spare across rows and block ends,
    /// and at width 1100 one row spans two blocks. Row counts end one
    /// row short of, on and one row past the first and second block
    /// boundary, from either entry state; scale 0 sends every
    /// transform to the scalar path.
    #[test]
    fn scaled_gauss_rows_bit_match_the_gauss_loop() {
        for dim in [1usize, 2, 3, 5, 16, 17, 1100] {
            for spare in [false, true] {
                let mut rng = Prng::new(90 + dim as u64);
                if spare {
                    rng.gauss();
                }
                let first = usize::from(spare);
                let transforms = |rows: usize| (rows * dim).saturating_sub(first).div_ceil(2);
                let mut counts = vec![0, 1, 2, 7];
                for blocks in [1, 2] {
                    let fill = (1..)
                        .find(|&n| transforms(n) >= blocks * GAUSS_BLOCK)
                        .unwrap();
                    counts.extend([fill - 1, fill, fill + 1]);
                }
                for rows in counts {
                    for scale in [0.55, 1.0, 2.5e-3, 0.0] {
                        let what = format!("dim {dim}, spare {spare}, {rows} rows, scale {scale}");
                        assert_rows_match_loop(&rng, rows, dim, scale, &what);
                    }
                }
            }
        }
    }

    /// Over two million values at the generator's default noise the
    /// kernel writes what the loop writes.
    #[test]
    fn scaled_gauss_rows_bit_match_over_two_million_values() {
        let mut rng = Prng::new(2026);
        for round in 0..21 {
            let what = format!("round {round}");
            assert_rows_match_loop(&rng, 6000, 16, 0.55, &what);
            rng.next_u64();
        }
    }

    /// `gauss()`'s two values from the uniforms `u` and `v`, scaled
    /// and rounded, as bits: `gauss()` runs exactly this on its draws.
    fn scalar_values(u: f64, v: f64, scale: f64) -> (u32, u32) {
        let (r, theta) = polar(u, v);
        let c = (r * theta.cos() * scale) as f32;
        let s = (r * theta.sin() * scale) as f32;
        (c.to_bits(), s.to_bits())
    }

    /// One transform through the block evaluator: its values' bits and
    /// whether it fell back to the scalar path.
    fn block_values(u: f64, v: f64, scale: f64) -> ((u32, u32), bool) {
        let (mut c, mut s) = ([0.0], [0.0]);
        let fallbacks = box_muller_block(&[u], &[v], scale, &mut c, &mut s);
        ((c[0].to_bits(), s[0].to_bits()), fallbacks == 1)
    }

    fn assert_falls_back(u: f64, v: f64, scale: f64, what: &str) {
        let (values, fell_back) = block_values(u, v, scale);
        assert!(fell_back, "{what}: the fast path was kept");
        assert_eq!(values, scalar_values(u, v, scale), "{what}");
    }

    /// 2^-53, the smallest `u` the generator makes.
    const SMALLEST_U: f64 = 1.0 / (1u64 << 53) as f64;

    #[test]
    fn zero_radius_falls_back() {
        for v in [0.0, 0.1, 0.3, 0.6, 0.9] {
            assert_falls_back(1.0, v, 0.55, &format!("u = 1, v = {v}"));
        }
    }

    /// The largest radius: exact on the fast path at generic angles,
    /// scalar at a zero angle.
    #[test]
    fn smallest_u_is_exact_on_both_paths() {
        for v in [0.1, 0.3, 0.6, 0.9] {
            let (values, fell_back) = block_values(SMALLEST_U, v, 0.55);
            assert!(!fell_back, "v = {v}: guard failed");
            assert_eq!(values, scalar_values(SMALLEST_U, v, 0.55), "v = {v}");
        }
        assert_falls_back(SMALLEST_U, 0.0, 0.55, "u = 2^-53, v = 0");
    }

    /// At `v` = 0, ¼, ½ and ¾ the angle is a multiple of π/2 (to the
    /// rounding of 2π·v), so the reduced angle is all but 0 and one
    /// half of the transform is all but 0.
    #[test]
    fn angles_at_multiples_of_a_quarter_turn_fall_back() {
        for u in [SMALLEST_U, 0.25, 0.5, 0.9, 1.0 - SMALLEST_U] {
            for v in [0.0, 0.25, 0.5, 0.75] {
                assert_falls_back(u, v, 0.55, &format!("u = {u:e}, v = {v}"));
            }
        }
    }

    /// Scale 0 makes every value 0, never a normal `f32`.
    #[test]
    fn zero_scale_falls_back_everywhere() {
        let mut rng = Prng::new(12);
        let us: Vec<f64> = (0..GAUSS_BLOCK).map(|_| 1.0 - rng.f64()).collect();
        let vs: Vec<f64> = (0..GAUSS_BLOCK).map(|_| rng.f64()).collect();
        let (mut cs, mut ss) = (vec![1.0; GAUSS_BLOCK], vec![1.0; GAUSS_BLOCK]);
        assert_eq!(
            box_muller_block(&us, &vs, 0.0, &mut cs, &mut ss),
            GAUSS_BLOCK
        );
        for k in 0..GAUSS_BLOCK {
            let want = scalar_values(us[k], vs[k], 0.0);
            assert_eq!((cs[k].to_bits(), ss[k].to_bits()), want, "transform {k}");
        }
    }

    /// A drawn transform whose libm value lies well inside the guard
    /// band, so the fast value, a few ulps off, lies inside it too: the
    /// guard must send it to the scalar path.
    #[test]
    fn value_inside_the_guard_band_falls_back() {
        let inside = |x: f64| {
            let dropped = (x.to_bits() & ((1 << 29) - 1)) as i64;
            (dropped - (1 << 28)).unsigned_abs() < GUARD_ULPS / 2
        };
        let mut rng = Prng::new(13);
        let (u, v) = (0..4_000_000)
            .map(|_| (1.0 - rng.f64(), rng.f64()))
            .find(|&(u, v)| {
                let (r, theta) = polar(u, v);
                inside(r * theta.cos() * 0.55) || inside(r * theta.sin() * 0.55)
            })
            .expect("an input inside the band");
        assert_falls_back(u, v, 0.55, &format!("u = {u:e}, v = {v:e}"));
    }

    /// Distance in units in the last place between two finite values of
    /// one sign.
    fn ulps(a: f64, b: f64) -> u64 {
        assert_eq!(a.is_sign_negative(), b.is_sign_negative(), "{a} vs {b}");
        (a.to_bits() as i64 - b.to_bits() as i64).unsigned_abs()
    }

    /// The margin the guard rests on: wherever the fast path's angle
    /// test passes, its `f64` values lie within a few ulps of libm's,
    /// against a guard band of 2^13 ulps; its `log` is within one.
    #[test]
    fn fast_path_stays_within_a_few_ulps_of_libm() {
        let mut rng = Prng::new(14);
        let quarter_turns = [0.25, 0.5, 0.75, 1.0].map(|q: f64| q - 1e-7);
        let mut inputs: Vec<(f64, f64)> =
            (0..200_000).map(|_| (1.0 - rng.f64(), rng.f64())).collect();
        for u in [
            SMALLEST_U,
            2.0 * SMALLEST_U,
            0.5,
            std::f64::consts::FRAC_1_SQRT_2,
            1.0 - SMALLEST_U,
        ] {
            inputs.extend(quarter_turns.map(|v| (u, v)));
            inputs.push((u, 0.125));
        }
        let (mut worst_ln, mut worst) = (0, 0);
        for (u, v) in inputs {
            worst_ln = worst_ln.max(ulps(ln_kernel(u), u.ln()));
            let (c, s, reducible) = fast_halves(u, v, 0.55);
            if reducible {
                let (r, theta) = polar(u, v);
                worst = worst.max(ulps(c, r * theta.cos() * 0.55));
                worst = worst.max(ulps(s, r * theta.sin() * 0.55));
            }
        }
        assert!(worst_ln <= 1, "log: {worst_ln} ulps");
        assert!(worst <= 8, "values: {worst} ulps");
    }
}
