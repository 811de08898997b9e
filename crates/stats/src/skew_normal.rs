//! The skew-normal distribution — the single-component LVF timing model.
//!
//! LVF lookup tables store the moment triple `θ = (μ, σ, γ)`; the bijection
//! *g* of the paper's Eq. (2) (Azzalini 1999, ref \[11\]) maps it to the
//! direct parameters `Θ = (ξ, ω, α)` used by the density of Eq. (3):
//!
//! ```text
//! f(x) = (2/ω) φ((x−ξ)/ω) Φ(α(x−ξ)/ω)
//! ```

use rand::Rng;

use crate::error::{ensure_finite, ensure_positive};
use crate::fastmath::{fast_exp_core, fast_ln_core};
use crate::kernels::LANES;
use crate::moments::Moments;
use crate::sampling::standard_normal;
use crate::special::{
    log_norm_cdf, log_phi_parts_chunk, log_phi_parts_in, log_phi_regime, norm_cdf, owen_t,
    INV_SQRT_2PI, SQRT_2,
};
use crate::traits::Distribution;
use crate::StatsError;

/// Supremum of the skew-normal's absolute skewness (reached as `α → ±∞`):
/// `γ_max = (4−π)/2 · (2/π)^{3/2} / (1 − 2/π)^{3/2} ≈ 0.99527`.
pub const MAX_ABS_SKEWNESS: f64 = 0.995_271_746_431;

const SQRT_2_OVER_PI: f64 = 0.797_884_560_802_865_4; // √(2/π)

/// A skew-normal distribution `SN(ξ, ω, α)` (Eq. (3) of the paper).
///
/// `ξ` is location, `ω > 0` scale and `α` shape; `α = 0` recovers the normal.
/// This is exactly what an LVF `ocv_*` moment triple defines, and it is the
/// component family of the paper's [`Lvf2`](crate::Lvf2) mixture.
///
/// # Example
///
/// Round-trip through the moment bijection *g*:
///
/// ```
/// use lvf2_stats::{Distribution, Moments, SkewNormal};
///
/// # fn main() -> Result<(), lvf2_stats::StatsError> {
/// let theta = Moments::new(0.12, 0.015, 0.6);
/// let sn = SkewNormal::from_moments(theta)?;
/// let back = sn.moments();
/// assert!((back.mean - 0.12).abs() < 1e-12);
/// assert!((back.sigma - 0.015).abs() < 1e-12);
/// assert!((back.skewness - 0.6).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SkewNormal {
    xi: f64,
    omega: f64,
    alpha: f64,
}

impl SkewNormal {
    /// Creates `SN(xi, omega, alpha)` from direct parameters.
    ///
    /// # Errors
    ///
    /// [`StatsError::NonFinite`] for non-finite inputs,
    /// [`StatsError::NonPositiveScale`] when `omega ≤ 0`.
    pub fn new(xi: f64, omega: f64, alpha: f64) -> Result<Self, StatsError> {
        ensure_finite("xi", xi)?;
        ensure_positive("omega", omega)?;
        ensure_finite("alpha", alpha)?;
        Ok(SkewNormal { xi, omega, alpha })
    }

    /// The bijection *g*: builds the skew-normal whose mean, standard
    /// deviation and skewness equal the LVF moment triple `θ`.
    ///
    /// Skewness values at or beyond the representable supremum
    /// ([`MAX_ABS_SKEWNESS`]) are rejected; callers that fit noisy data should
    /// clamp first (see [`SkewNormal::from_moments_clamped`]).
    ///
    /// # Errors
    ///
    /// [`StatsError::SkewnessOutOfRange`] when `|γ| ≥ MAX_ABS_SKEWNESS`, plus
    /// the usual validation errors.
    pub fn from_moments(m: Moments) -> Result<Self, StatsError> {
        m.validate()?;
        let gamma = m.skewness;
        if gamma.abs() >= MAX_ABS_SKEWNESS {
            return Err(StatsError::SkewnessOutOfRange {
                value: gamma,
                limit: MAX_ABS_SKEWNESS,
            });
        }
        // Invert γ = (4−π)/2 · t³/(1−t²)^{3/2} with t = δ√(2/π):
        let r = (2.0 * gamma.abs() / (4.0 - std::f64::consts::PI)).cbrt();
        let t = gamma.signum() * r / (1.0 + r * r).sqrt();
        let delta = t / SQRT_2_OVER_PI;
        // δ ∈ (−1, 1) is guaranteed because |t| < t_max = √(2/π)·δ_max.
        let alpha = delta / (1.0 - delta * delta).sqrt();
        let omega = m.sigma / (1.0 - t * t).sqrt();
        let xi = m.mean - omega * t;
        SkewNormal::new(xi, omega, alpha)
    }

    /// Like [`from_moments`](Self::from_moments) but clamps `|γ|` to
    /// `MAX_ABS_SKEWNESS − margin` instead of erroring — the behaviour a
    /// characterization flow wants when sample skewness exceeds the family
    /// limit.
    ///
    /// # Errors
    ///
    /// Only the σ/finiteness validation errors remain possible.
    pub fn from_moments_clamped(m: Moments) -> Result<Self, StatsError> {
        let limit = MAX_ABS_SKEWNESS - 1e-6;
        let gamma = m.skewness.clamp(-limit, limit);
        SkewNormal::from_moments(Moments::new(m.mean, m.sigma, gamma))
    }

    /// Location parameter ξ.
    #[inline]
    pub fn xi(&self) -> f64 {
        self.xi
    }

    /// Scale parameter ω.
    #[inline]
    pub fn omega(&self) -> f64 {
        self.omega
    }

    /// Shape parameter α.
    #[inline]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// `δ = α/√(1+α²)`.
    #[inline]
    pub fn delta(&self) -> f64 {
        self.alpha / (1.0 + self.alpha * self.alpha).sqrt()
    }

    /// Standardizes `x` to `z = (x − ξ)/ω`.
    #[inline]
    pub fn standardize(&self, x: f64) -> f64 {
        (x - self.xi) / self.omega
    }

    /// `ln 2 + ln(1/√2π) − ln ω`, the constant term of `ln_pdf`. The scalar
    /// method and the batch both take it from here, so they associate it
    /// the same way.
    #[inline(always)]
    fn ln_c(&self) -> f64 {
        std::f64::consts::LN_2 + INV_SQRT_2PI.ln() - self.omega.ln()
    }

    /// `(2/ω)·(1/√2π)`, the constant factor of `pdf` (`1/ω` is never
    /// substituted for `/ω`).
    #[inline(always)]
    fn pdf_c(&self) -> f64 {
        2.0 / self.omega * INV_SQRT_2PI
    }

    /// The portable build of [`ln_pdf_batch`](Distribution::ln_pdf_batch),
    /// which the dispatcher runs on hosts without AVX2. Public only so the
    /// equivalence tests can pin both builds to the same bits.
    #[doc(hidden)]
    pub fn ln_pdf_batch_portable(&self, xs: &[f64], out: &mut [f64]) {
        ln_pdf_chunks(self, xs, out);
    }

    /// The portable build of [`pdf_batch`](Distribution::pdf_batch), which
    /// the dispatcher runs on hosts without AVX2. Public only so the
    /// equivalence tests can pin both builds to the same bits.
    #[doc(hidden)]
    pub fn pdf_batch_portable(&self, xs: &[f64], out: &mut [f64]) {
        pdf_chunks(self, xs, out);
    }
}

impl Default for SkewNormal {
    /// The standard skew-normal `SN(0, 1, 0)` (i.e. `N(0,1)`).
    fn default() -> Self {
        SkewNormal {
            xi: 0.0,
            omega: 1.0,
            alpha: 0.0,
        }
    }
}

impl std::fmt::Display for SkewNormal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SN(ξ={}, ω={}, α={})", self.xi, self.omega, self.alpha)
    }
}

impl Distribution for SkewNormal {
    /// `(2/ω)·φ(z)·Φ(αz)` as `(2/ω)·(1/√2π)·q·exp(−z²/2 − t²)` over the
    /// `log Φ` parts `(q, t²)`: one `exp` per point, and the same parts as
    /// [`pdf_batch`](Distribution::pdf_batch), so both return the same bits.
    #[inline]
    fn pdf(&self, x: f64) -> f64 {
        pdf_at(self.pdf_c(), self.standardize(x), self.alpha)
    }

    // The batch hoists `ln_c` out of its lane loop and adds the same terms
    // in the same order, so both paths return the same bits (pinned by
    // tests/kernel_equivalence.rs).
    #[inline]
    fn ln_pdf(&self, x: f64) -> f64 {
        ln_pdf_at(self.ln_c(), self.standardize(x), self.alpha)
    }

    /// `F(x) = Φ(z) − 2·T(z, α)` with Owen's T.
    #[inline]
    fn cdf(&self, x: f64) -> f64 {
        let z = self.standardize(x);
        (norm_cdf(z) - 2.0 * owen_t(z, self.alpha)).clamp(0.0, 1.0)
    }

    /// Dispatches to the AVX2 build of the chunk body when the host has
    /// AVX2 ([`avx2_enabled`](crate::kernels::avx2_enabled)), else to the
    /// portable build. Both compile the same source with no FMA and no
    /// reassociation, so they return the same bits.
    fn ln_pdf_batch(&self, xs: &[f64], out: &mut [f64]) {
        #[cfg(target_arch = "x86_64")]
        if crate::kernels::avx2_enabled() {
            // SAFETY: the host supports AVX2 (checked just above), the only
            // target feature `ln_pdf_avx2` enables.
            return unsafe { ln_pdf_avx2(self, xs, out) };
        }
        ln_pdf_chunks(self, xs, out);
    }

    /// Dispatches like [`ln_pdf_batch`](Distribution::ln_pdf_batch): the
    /// AVX2 build of the chunk body when the host has AVX2, else the
    /// portable build; same source, same bits.
    fn pdf_batch(&self, xs: &[f64], out: &mut [f64]) {
        #[cfg(target_arch = "x86_64")]
        if crate::kernels::avx2_enabled() {
            // SAFETY: the host supports AVX2 (checked just above), the only
            // target feature `pdf_avx2` enables.
            return unsafe { pdf_avx2(self, xs, out) };
        }
        pdf_chunks(self, xs, out);
    }

    fn mean(&self) -> f64 {
        self.xi + self.omega * self.delta() * SQRT_2_OVER_PI
    }

    fn variance(&self) -> f64 {
        let d = self.delta();
        self.omega * self.omega * (1.0 - 2.0 * d * d / std::f64::consts::PI)
    }

    fn skewness(&self) -> f64 {
        let t = self.delta() * SQRT_2_OVER_PI;
        (4.0 - std::f64::consts::PI) / 2.0 * t.powi(3) / (1.0 - t * t).powf(1.5)
    }

    fn excess_kurtosis(&self) -> f64 {
        let t = self.delta() * SQRT_2_OVER_PI;
        2.0 * (std::f64::consts::PI - 3.0) * t.powi(4) / (1.0 - t * t).powi(2)
    }

    /// Sampling via the convolution representation:
    /// `Z = δ|U₀| + √(1−δ²)·U₁` with iid standard normals `U₀, U₁`.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let d = self.delta();
        let u0 = standard_normal(rng);
        let u1 = standard_normal(rng);
        let z = d * u0.abs() + (1.0 - d * d).sqrt() * u1;
        self.xi + self.omega * z
    }
}

/// Exponents below this flush the pdf's `exp` to 0: the edge of
/// [`fast_exp_core`]'s domain.
const EXP_FLUSH: f64 = -708.0;

/// `exp(e)` for an exponent `e ≤ 0`: [`fast_exp_core`] on its domain, 0
/// below −708 (and for −∞), NaN for NaN. Branch-free: the core runs on the
/// clamped exponent and selects pick the flush and the NaN.
#[inline(always)]
fn exp_nonpositive(e: f64) -> f64 {
    let inside = e >= EXP_FLUSH;
    let v = fast_exp_core(if inside { e } else { EXP_FLUSH });
    if inside {
        v
    } else if e < EXP_FLUSH {
        0.0
    } else {
        e
    }
}

/// The pdf from the `log Φ(αz)` parts `(q, t²)`:
/// `c·φ(z)·Φ(αz)·√(2π) = c·q·exp(−z²/2 − t²)` with `c = (2/ω)·(1/√2π)`, one
/// `exp` per point and no `erfc` (`q` is a rational or asymptotic term).
#[inline(always)]
fn pdf_from_parts(c: f64, z: f64, q: f64, tt: f64) -> f64 {
    c * q * exp_nonpositive(-0.5 * z * z - tt)
}

/// `ln f` at the standardized point `z`, `ln_c = ln 2 + ln(1/√2π) − ln ω`:
/// the scalar `ln_pdf` and the remainder lanes of `ln_pdf_batch`.
#[inline(always)]
fn ln_pdf_at(ln_c: f64, z: f64, alpha: f64) -> f64 {
    ln_c - 0.5 * z * z + log_norm_cdf(alpha * z)
}

/// The pdf `c·φ(z)·Φ(αz)·√(2π)` at the standardized point `z`,
/// `c = (2/ω)·(1/√2π)`. The scalar `pdf` and the remainder lanes of
/// `pdf_batch` call this, and the chunk body of `pdf_batch` runs the same
/// parts, so every path returns the same bits.
#[inline(always)]
fn pdf_at(c: f64, z: f64, alpha: f64) -> f64 {
    let a = alpha * z;
    let t = -a / SQRT_2;
    let (q, tt) = log_phi_parts_in(log_phi_regime(a, t), a, t);
    pdf_from_parts(c, z, q, tt)
}

/// The `log Φ(αz)` parts of one chunk, shared by both chunk bodies: per
/// lane the standardized `z` and `(q, t²)` with `log Φ(αz) = ln q − t²`.
/// The first lane loop standardizes, computes `t = −αz/√2` once per lane
/// and classifies the lane's `log Φ` regime ([`log_phi_regime`]). On sorted
/// input `αz` is monotone, so nearly every chunk is regime-uniform and runs
/// that regime's formula as one branch-free lane loop
/// ([`log_phi_parts_chunk`]); a mixed chunk evaluates per lane.
#[inline(always)]
fn parts_chunk(sn: &SkewNormal, x8: &[f64]) -> ([f64; LANES], [f64; LANES], [f64; LANES]) {
    let mut z = [0.0_f64; LANES];
    let mut a = [0.0_f64; LANES];
    let mut t = [0.0_f64; LANES];
    let mut code = [0_u8; LANES];
    for i in 0..LANES {
        z[i] = (x8[i] - sn.xi) / sn.omega;
        a[i] = sn.alpha * z[i];
        t[i] = -a[i] / SQRT_2;
        code[i] = log_phi_regime(a[i], t[i]);
    }
    let mut q = [0.0_f64; LANES];
    let mut tt = [0.0_f64; LANES];
    let mixed = code.iter().fold(0_u8, |m, &c| m | (c ^ code[0]));
    if mixed == 0 {
        log_phi_parts_chunk(code[0], &a, &t, &mut q, &mut tt);
    } else {
        for i in 0..LANES {
            (q[i], tt[i]) = log_phi_parts_in(code[i], a[i], t[i]);
        }
    }
    (z, q, tt)
}

/// Chunk body of `ln_pdf_batch`: [`parts_chunk`], then one lane loop. The
/// regime formulas guarantee `q` sits in [`fast_ln_core`]'s positive-normal
/// domain, so that loop is branch-free. Bit-identity with the scalar
/// `ln_pdf` holds because the scalar `log_norm_cdf` is *defined* as
/// `fast_ln(q) − t²` over the same regime formulas, and `fast_ln` ≡
/// `fast_ln_core` on its domain.
#[inline(always)]
fn ln_pdf_chunks(sn: &SkewNormal, xs: &[f64], out: &mut [f64]) {
    assert_eq!(xs.len(), out.len(), "ln_pdf_batch: length mismatch");
    let ln_c = sn.ln_c();
    let mut xc = xs.chunks_exact(LANES);
    let mut oc = out.chunks_exact_mut(LANES);
    for (x8, o8) in xc.by_ref().zip(oc.by_ref()) {
        let (z, q, tt) = parts_chunk(sn, x8);
        for i in 0..LANES {
            o8[i] = ln_c - 0.5 * z[i] * z[i] + (fast_ln_core(q[i]) - tt[i]);
        }
    }
    for (x, o) in xc.remainder().iter().zip(oc.into_remainder()) {
        *o = ln_pdf_at(ln_c, sn.standardize(*x), sn.alpha);
    }
}

/// Chunk body of `pdf_batch`: [`parts_chunk`], then one branch-free `exp`
/// loop ([`pdf_from_parts`]). Bit-identical to the scalar `pdf`, which runs
/// the same parts per point.
#[inline(always)]
fn pdf_chunks(sn: &SkewNormal, xs: &[f64], out: &mut [f64]) {
    assert_eq!(xs.len(), out.len(), "pdf_batch: length mismatch");
    let pdf_c = sn.pdf_c();
    let mut xc = xs.chunks_exact(LANES);
    let mut oc = out.chunks_exact_mut(LANES);
    for (x8, o8) in xc.by_ref().zip(oc.by_ref()) {
        let (z, q, tt) = parts_chunk(sn, x8);
        for i in 0..LANES {
            o8[i] = pdf_from_parts(pdf_c, z[i], q[i], tt[i]);
        }
    }
    for (x, o) in xc.remainder().iter().zip(oc.into_remainder()) {
        *o = pdf_at(pdf_c, sn.standardize(*x), sn.alpha);
    }
}

/// The AVX2 build of [`ln_pdf_chunks`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn ln_pdf_avx2(sn: &SkewNormal, xs: &[f64], out: &mut [f64]) {
    ln_pdf_chunks(sn, xs, out);
}

/// The AVX2 build of [`pdf_chunks`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn pdf_avx2(sn: &SkewNormal, xs: &[f64], out: &mut [f64]) {
    pdf_chunks(sn, xs, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quad::adaptive_simpson;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn alpha_zero_is_normal() {
        let sn = SkewNormal::new(1.0, 2.0, 0.0).unwrap();
        let n = crate::Normal::new(1.0, 2.0).unwrap();
        for &x in &[-3.0, 0.0, 1.0, 4.0] {
            assert!((sn.pdf(x) - n.pdf(x)).abs() < 1e-14);
            assert!((sn.cdf(x) - n.cdf(x)).abs() < 1e-13);
        }
        assert_eq!(sn.skewness(), 0.0);
        assert_eq!(sn.excess_kurtosis(), 0.0);
    }

    #[test]
    fn pdf_integrates_to_one() {
        for &alpha in &[-5.0, -1.0, 0.5, 3.0, 20.0] {
            let sn = SkewNormal::new(0.3, 0.8, alpha).unwrap();
            let mass = adaptive_simpson(|x| sn.pdf(x), -8.0, 8.0, 1e-11);
            assert!((mass - 1.0).abs() < 1e-8, "alpha={alpha} mass={mass}");
        }
    }

    #[test]
    fn cdf_matches_integrated_pdf() {
        let sn = SkewNormal::new(0.0, 1.0, 4.0).unwrap();
        for &x in &[-1.0, 0.0, 0.5, 1.5, 3.0] {
            let want = adaptive_simpson(|t| sn.pdf(t), -9.0, x, 1e-12);
            assert!((sn.cdf(x) - want).abs() < 1e-9, "x={x}");
        }
    }

    #[test]
    fn moment_bijection_roundtrip() {
        for &gamma in &[-0.9, -0.5, -0.1, 0.0, 0.3, 0.7, 0.99] {
            let m = Moments::new(2.0, 0.4, gamma);
            let sn = SkewNormal::from_moments(m).unwrap();
            let got = sn.moments();
            assert!((got.mean - m.mean).abs() < 1e-10, "γ={gamma}");
            assert!((got.sigma - m.sigma).abs() < 1e-10, "γ={gamma}");
            assert!((got.skewness - gamma).abs() < 1e-8, "γ={gamma}");
        }
    }

    #[test]
    fn skewness_limit_enforced() {
        let m = Moments::new(0.0, 1.0, 1.2);
        assert!(matches!(
            SkewNormal::from_moments(m),
            Err(StatsError::SkewnessOutOfRange { .. })
        ));
        // Clamped constructor succeeds and lands near the limit.
        let sn = SkewNormal::from_moments_clamped(m).unwrap();
        assert!(sn.skewness() > 0.9);
    }

    #[test]
    fn analytic_moments_match_quadrature() {
        let sn = SkewNormal::new(1.0, 0.5, -3.0).unwrap();
        let mean = adaptive_simpson(|x| x * sn.pdf(x), -5.0, 5.0, 1e-12);
        assert!((mean - sn.mean()).abs() < 1e-8);
        let var = adaptive_simpson(|x| (x - mean).powi(2) * sn.pdf(x), -5.0, 5.0, 1e-12);
        assert!((var - sn.variance()).abs() < 1e-8);
        let m3 = adaptive_simpson(|x| (x - mean).powi(3) * sn.pdf(x), -5.0, 5.0, 1e-12);
        assert!((m3 / var.powf(1.5) - sn.skewness()).abs() < 1e-6);
        let m4 = adaptive_simpson(|x| (x - mean).powi(4) * sn.pdf(x), -5.0, 5.0, 1e-12);
        assert!((m4 / (var * var) - 3.0 - sn.excess_kurtosis()).abs() < 1e-5);
    }

    #[test]
    fn sampling_matches_analytic_moments() {
        let sn = SkewNormal::new(0.0, 1.0, 5.0).unwrap();
        let mut rng = StdRng::seed_from_u64(123);
        let xs = sn.sample_n(&mut rng, 200_000);
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!(
            (mean - sn.mean()).abs() < 0.01,
            "mean {mean} vs {}",
            sn.mean()
        );
        assert!(
            (var - sn.variance()).abs() < 0.01,
            "var {var} vs {}",
            sn.variance()
        );
    }

    /// The one-`exp` pdf against its libm form `(2/ω)·φ(z)·Φ(αz)` on ±12ω.
    /// Known limit: below `αz = −8` the shared asymptotic `log Φ` series
    /// (truncated after its `x⁻⁸` term) carries ~8e-7 relative error, so
    /// there only the absolute bound applies — `Φ(αz) < 7e-16` makes that
    /// error invisible next to the peak.
    #[test]
    fn pdf_matches_the_libm_form() {
        use crate::special::{norm_cdf, norm_pdf};
        for alpha in [0.0, 0.5, -1.0, 3.0, -5.0, 20.0, 200.0, 2027.0, -2027.0] {
            let sn = SkewNormal::new(0.3, 0.7, alpha).unwrap();
            let reference = |x: f64| {
                let z = sn.standardize(x);
                2.0 / sn.omega() * norm_pdf(z) * norm_cdf(alpha * z)
            };
            let n = 24_001;
            let xs: Vec<f64> = (0..n)
                .map(|i| sn.xi() + sn.omega() * (-12.0 + 24.0 * i as f64 / (n - 1) as f64))
                .collect();
            let peak = xs.iter().map(|&x| reference(x)).fold(0.0, f64::max);
            for &x in &xs {
                let (got, want) = (sn.pdf(x), reference(x));
                let abs = (got - want).abs() / peak;
                assert!(abs <= 1e-15, "α={alpha} x={x}: {got} vs {want}");
                if alpha * sn.standardize(x) > -8.0 {
                    let rel = (got - want).abs() / want;
                    assert!(rel <= 1e-14, "α={alpha} x={x}: {got} vs {want}, rel {rel}");
                }
            }
        }
    }

    #[test]
    fn ln_pdf_stable_in_deep_tail() {
        let sn = SkewNormal::new(0.0, 1.0, 10.0).unwrap();
        // Far left tail: pdf underflows but ln_pdf must stay finite.
        let lp = sn.ln_pdf(-8.0);
        assert!(lp.is_finite() && lp < -100.0, "lp={lp}");
        // Consistency where both are representable.
        for &x in &[-2.0, 0.0, 2.0] {
            assert!((sn.ln_pdf(x) - sn.pdf(x).ln()).abs() < 1e-9);
        }
    }

    #[test]
    fn quantile_inverts_cdf() {
        let sn = SkewNormal::from_moments(Moments::new(0.1, 0.02, 0.8)).unwrap();
        for &p in &[0.001, 0.13, 0.5, 0.87, 0.999] {
            let q = sn.quantile(p);
            assert!((sn.cdf(q) - p).abs() < 1e-9, "p={p}");
        }
    }

    #[test]
    fn max_abs_skewness_is_consistent() {
        // γ at δ = 1 equals the constant.
        let t = SQRT_2_OVER_PI;
        let g = (4.0 - std::f64::consts::PI) / 2.0 * t.powi(3) / (1.0 - t * t).powf(1.5);
        assert!((g - MAX_ABS_SKEWNESS).abs() < 1e-8, "γ_max={g}");
    }
}
