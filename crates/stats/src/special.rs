#![allow(clippy::excessive_precision)]
//! Special functions: error function, standard normal pdf/cdf/quantile,
//! `log Φ` with tail asymptotics, and Owen's T function.
//!
//! Everything here is hand-rolled (no external special-function crates) with
//! absolute accuracy around 1e-15 for `erf` and ~1e-14 for Owen's T, which is
//! far below the statistical noise of the 50k-sample Monte Carlo experiments
//! this library targets.

use crate::fastmath::{fast_exp_core, fast_ln};
use crate::quad::gauss_legendre_32;

/// √(2π).
pub const SQRT_2PI: f64 = 2.506_628_274_631_000_5;
/// 1/√(2π).
pub const INV_SQRT_2PI: f64 = 0.398_942_280_401_432_7;
/// √2.
pub const SQRT_2: f64 = std::f64::consts::SQRT_2;

/// Error function `erf(x)`, accurate to ~1e-15.
///
/// Uses the rational Chebyshev approximations of W. J. Cody (1969) in three
/// regimes, the same scheme used by most libm implementations.
///
/// # Example
///
/// ```
/// let e = lvf2_stats::special::erf(1.0);
/// assert!((e - 0.8427007929497149).abs() < 1e-14);
/// ```
#[inline]
pub fn erf(x: f64) -> f64 {
    if x.is_nan() {
        return f64::NAN;
    }
    let ax = x.abs();
    if ax <= 0.46875 {
        erf_small(x)
    } else {
        let e = erfc_abs(ax);
        if x >= 0.0 {
            1.0 - e
        } else {
            e - 1.0
        }
    }
}

/// Cody's rational `erf(x) = x·P(x²)/Q(x²)` for `|x| ≤ 0.46875`: the
/// small-argument branch of [`erf`] and the body regime of `log Φ`.
#[inline(always)]
fn erf_small(x: f64) -> f64 {
    const P: [f64; 5] = [
        3.209377589138469472562e3,
        3.774852376853020208137e2,
        1.138641541510501556495e2,
        3.161123743870565596947e0,
        1.857777061846031526730e-1,
    ];
    const Q: [f64; 5] = [
        2.844236833439170622273e3,
        1.282616526077372275645e3,
        2.440246379344441733056e2,
        2.360129095234412093499e1,
        1.0,
    ];
    let z = x * x;
    let num = ((((P[4] * z + P[3]) * z + P[2]) * z + P[1]) * z) + P[0];
    let den = ((((Q[4] * z + Q[3]) * z + Q[2]) * z + Q[1]) * z) + Q[0];
    x * num / den
}

/// Complementary error function `erfc(x) = 1 − erf(x)`, accurate in both tails.
///
/// # Example
///
/// ```
/// // erfc stays meaningful deep in the tail where 1 − erf underflows.
/// let tail = lvf2_stats::special::erfc(6.0);
/// assert!(tail > 0.0 && tail < 3e-17);
/// ```
#[inline]
pub fn erfc(x: f64) -> f64 {
    if x.is_nan() {
        return f64::NAN;
    }
    if x < -0.46875 {
        2.0 - erfc_abs(-x)
    } else if x <= 0.46875 {
        1.0 - erf(x)
    } else {
        erfc_abs(x)
    }
}

/// Cody's erfc for x > 0.46875.
#[inline]
fn erfc_abs(ax: f64) -> f64 {
    debug_assert!(ax > 0.46875);
    if ax > 26.0 {
        return 0.0;
    }
    if ax <= 4.0 {
        (-ax * ax).exp() * erfc_r_mid(ax)
    } else {
        // erfc(x) ≈ exp(−x²)/x · (1/√π + z·R(z)) for large x (Cody region 3).
        ((-ax * ax).exp() / ax) * erfc_r_far(ax)
    }
}

/// Rational factor of Cody's erfc on `0.46875 < x ≤ 4`:
/// `erfc(x) = exp(−x²) · R(x)` with `R` = this function.
#[inline(always)]
fn erfc_r_mid(ax: f64) -> f64 {
    const P: [f64; 9] = [
        1.23033935479799725272e3,
        2.05107837782607146532e3,
        1.71204761263407058314e3,
        8.81952221241769090411e2,
        2.98635138197400131132e2,
        6.61191906371416294775e1,
        8.88314979438837594118e0,
        5.64188496988670089180e-1,
        2.15311535474403846343e-8,
    ];
    const Q: [f64; 9] = [
        1.23033935480374942043e3,
        3.43936767414372163696e3,
        4.36261909014324715820e3,
        3.29079923573345962678e3,
        1.62138957456669018874e3,
        5.37181101862009857509e2,
        1.17693950891312499305e2,
        1.57449261107098347253e1,
        1.0,
    ];
    let mut num = P[8] * ax;
    let mut den = ax;
    for i in (1..8).rev() {
        num = (num + P[i]) * ax;
        den = (den + Q[i]) * ax;
    }
    (num + P[0]) / (den + Q[0])
}

/// Scaled far-tail factor of Cody's erfc for `x > 4`:
/// `erfc(x) = exp(−x²)/x · S(x)` with `S` = this function.
#[inline(always)]
fn erfc_r_far(ax: f64) -> f64 {
    const P: [f64; 6] = [
        -6.58749161529837803157e-4,
        -1.60837851487422766278e-2,
        -1.25781726111229246204e-1,
        -3.60344899949804439429e-1,
        -3.05326634961232344035e-1,
        -1.63153871373020978498e-2,
    ];
    const Q: [f64; 6] = [
        2.33520497626869185443e-3,
        6.05183413124413191178e-2,
        5.27905102951428412248e-1,
        1.87295284992346047209e0,
        2.56852019228982242072e0,
        1.0,
    ];
    let z = 1.0 / (ax * ax);
    let mut num = P[5] * z;
    let mut den = z;
    for i in (1..5).rev() {
        num = (num + P[i]) * z;
        den = (den + Q[i]) * z;
    }
    // The P coefficients here are negated relative to CALERF, hence `+ r`.
    const FRAC_1_SQRT_PI: f64 = 0.564_189_583_547_756_3;
    let r = z * (num + P[0]) / (den + Q[0]);
    FRAC_1_SQRT_PI + r
}

/// Scaled complementary error function `erfcx(x) = exp(x²)·erfc(x)`.
///
/// Unlike `erfc`, this stays representable arbitrarily deep into the right
/// tail (where it decays like `1/(x√π)`); it is the building block that lets
/// [`log_norm_cdf`] skip the underflowing `exp(−x²)`/`ln` round-trip. For
/// `x ≲ −26.6` the result overflows to `+∞`.
///
/// # Example
///
/// ```
/// use lvf2_stats::special::{erfc, erfcx};
/// // Agrees with the definition where the unscaled erfc is representable…
/// assert!((erfcx(2.0) - (4.0_f64).exp() * erfc(2.0)).abs() < 1e-13);
/// // …and follows the 1/(x√π) asymptote deep in the tail.
/// assert!((erfcx(100.0) * 100.0 * std::f64::consts::PI.sqrt() - 1.0).abs() < 1e-4);
/// ```
#[inline]
pub fn erfcx(x: f64) -> f64 {
    if x.is_nan() {
        return f64::NAN;
    }
    if x > 0.46875 {
        erfc_abs_scaled(x)
    } else {
        (x * x).exp() * erfc(x)
    }
}

/// `exp(ax²)·erfc(ax)` for `ax > 0.46875`, evaluated without the `exp(−ax²)`
/// factor (the two Cody rational regimes minus their exponential prefactor).
#[inline]
fn erfc_abs_scaled(ax: f64) -> f64 {
    debug_assert!(ax > 0.46875);
    if ax <= 4.0 {
        erfc_r_mid(ax)
    } else {
        erfc_r_far(ax) / ax
    }
}

/// Standard normal probability density `φ(x)`.
///
/// # Example
///
/// ```
/// let p = lvf2_stats::special::norm_pdf(0.0);
/// assert!((p - 0.3989422804014327).abs() < 1e-15);
/// ```
#[inline]
pub fn norm_pdf(x: f64) -> f64 {
    INV_SQRT_2PI * (-0.5 * x * x).exp()
}

/// Standard normal cumulative distribution `Φ(x)`.
///
/// # Example
///
/// ```
/// use lvf2_stats::special::norm_cdf;
/// assert!((norm_cdf(0.0) - 0.5).abs() < 1e-15);
/// assert!((norm_cdf(1.959963984540054) - 0.975).abs() < 1e-12);
/// ```
#[inline]
pub fn norm_cdf(x: f64) -> f64 {
    0.5 * erfc(-x / SQRT_2)
}

/// Natural log of the standard normal CDF, `log Φ(x)`, stable in the left tail.
///
/// Defined as `fast_ln(q) − t²` over a per-regime decomposition
/// `log Φ(x) = ln q − t²`: `q` is a rational term in `[~0.04, 1]` (exactly 1
/// in the asymptotic regime `x ≤ −8`) and `t²` is carried apart, so the far
/// left tail never passes through a subnormal `Φ`. Every transcendental
/// inside is a vendored [`fastmath`](crate::fastmath) kernel (≤ 2 ulp from
/// libm), so the function is deterministic across platforms and cheap enough
/// to sit in the EM fitter's innermost loop.
///
/// # Example
///
/// ```
/// let l = lvf2_stats::special::log_norm_cdf(-20.0);
/// assert!((l - (-203.917)).abs() < 0.01);
/// ```
#[inline]
pub fn log_norm_cdf(x: f64) -> f64 {
    let (q, tt) = log_norm_cdf_parts(x);
    fast_ln(q) - tt
}

/// Decomposes `log Φ(x)` into `(q, t²)` with `log Φ(x) = ln(q) − t²`.
///
/// The split exists so batched callers can run this (polynomial) part per
/// lane and then take all the logarithms in one branch-free,
/// auto-vectorizable loop over `fast_ln_core` — `q` is guaranteed to be a
/// positive normal f64 in `[~0.04, 1]` for every input, including NaN and
/// ±∞ (specials are folded into the `t²` term).
///
/// The function is [`log_phi_regime`] followed by that regime's formula
/// ([`log_phi_parts_in`]); the batched kernels call the same two pieces, so
/// each formula is written once. Regimes, with `t = −x/√2`:
///
/// - `x > 0.663` (`t < −0.46875`): `q = Φ(x) = 1 − ½·erfc(−t)`, Cody's
///   reflected erfc with [`fast_exp_core`], `t² = 0` — split at `−t = 4`
///   (mid/far rationals) and `−t = 26` (beyond which `erfc` is 0 and
///   `q = 1`);
/// - `|x| ≤ 0.663`: `q = Φ(x) = ½·erfc(t)` — the erf rational, no `exp` at
///   all; `t² = 0`;
/// - `−8 < x < −0.663`: the *fused* regime `q = ½·erfcx(t)`, `t²` carried
///   separately — algebraically `Φ(x) = ½·exp(−t²)·erfcx(t)` but skipping
///   the `exp`/`ln` round-trip through a subnormal-bound intermediate; split
///   at `t = 4` (mid/far rationals); this is the hot region for the EM
///   fitter's `SkewNormal::ln_pdf`;
/// - `x ≤ −8` (and NaN): the asymptotic expansion
///   `log Φ(x) ≈ −x²/2 − log(−x√(2π)) + log(1 − 1/x² + 3/x⁴ − 15/x⁶ + …)`,
///   precomputed in full and returned as `(1, −value)` (exact because
///   `ln 1 = 0` and `0 − (−v) = v`).
#[inline]
pub(crate) fn log_norm_cdf_parts(x: f64) -> (f64, f64) {
    let t = -x / SQRT_2;
    log_phi_parts_in(log_phi_regime(x, t), x, t)
}

// ---------------------------------------------------------------------------
// log Φ by regime
// ---------------------------------------------------------------------------

/// `log Φ` regime codes, as returned by [`log_phi_regime`]: ordered by
/// ascending `t = −x/√2` (descending `x`), with the asymptotic series last.
pub(crate) mod regime {
    /// `t < −26`: `erfc(−t)` is 0, `q = 1`.
    pub const REFLECTED_ONE: u8 = 0;
    /// `−26 ≤ t < −4`: reflected far-tail erfc.
    pub const REFLECTED_FAR: u8 = 1;
    /// `−4 ≤ t < −0.46875`: reflected mid-range erfc.
    pub const REFLECTED_MID: u8 = 2;
    /// `|t| ≤ 0.46875`: the erf rational.
    pub const BODY: u8 = 3;
    /// `0.46875 < t ≤ 4` (and `x > −8`): fused erfcx, mid-range rational.
    pub const FUSED_MID: u8 = 4;
    /// `t > 4` (and `x > −8`): fused erfcx, far-tail rational.
    pub const FUSED_FAR: u8 = 5;
    /// `x ≤ −8` or NaN: the asymptotic series.
    pub const ASYMPTOTIC: u8 = 6;
}

/// Classifies `x` (with `t = −x/√2` precomputed by the caller) into its
/// [`regime`] code. Branch-free: the code below the asymptotic cut is the
/// number of `t` thresholds passed, so a lane loop over it vectorizes.
#[inline(always)]
pub(crate) fn log_phi_regime(x: f64, t: f64) -> u8 {
    let code = (t >= -26.0) as u8
        + (t >= -4.0) as u8
        + (t >= -0.46875) as u8
        + (t > 0.46875) as u8
        + (t > 4.0) as u8;
    // NaN fails the `x > −8` compare and takes the series, whose arithmetic
    // propagates it into the t² slot.
    if x > -8.0 {
        code
    } else {
        regime::ASYMPTOTIC
    }
}

/// `(q, t²)` for `x` in regime `code` (`t = −x/√2`); the scalar form of
/// [`log_norm_cdf_parts`] with the classification already done.
#[inline(always)]
pub(crate) fn log_phi_parts_in(code: u8, x: f64, t: f64) -> (f64, f64) {
    match code {
        regime::REFLECTED_ONE => (1.0, 0.0),
        regime::REFLECTED_FAR => log_phi_reflected_far(t),
        regime::REFLECTED_MID => log_phi_reflected_mid(t),
        regime::BODY => log_phi_body(t),
        regime::FUSED_MID => log_phi_fused_mid(t),
        regime::FUSED_FAR => log_phi_fused_far(t),
        _ => log_phi_asymptotic(x),
    }
}

/// [`log_phi_parts_in`] over a whole chunk whose lanes all sit in regime
/// `code`: one branch-free lane loop of that regime's formula, which the
/// compiler vectorizes. Bit-identical to the per-lane form.
#[inline(always)]
pub(crate) fn log_phi_parts_chunk(
    code: u8,
    x: &[f64; LANES],
    t: &[f64; LANES],
    q: &mut [f64; LANES],
    tt: &mut [f64; LANES],
) {
    #[inline(always)]
    fn lanes(
        v: &[f64; LANES],
        q: &mut [f64; LANES],
        tt: &mut [f64; LANES],
        f: impl Fn(f64) -> (f64, f64),
    ) {
        for i in 0..LANES {
            (q[i], tt[i]) = f(v[i]);
        }
    }
    match code {
        regime::REFLECTED_ONE => {
            *q = [1.0; LANES];
            *tt = [0.0; LANES];
        }
        regime::REFLECTED_FAR => lanes(t, q, tt, log_phi_reflected_far),
        regime::REFLECTED_MID => lanes(t, q, tt, log_phi_reflected_mid),
        regime::BODY => lanes(t, q, tt, log_phi_body),
        regime::FUSED_MID => lanes(t, q, tt, log_phi_fused_mid),
        regime::FUSED_FAR => lanes(t, q, tt, log_phi_fused_far),
        _ => lanes(x, q, tt, log_phi_asymptotic),
    }
}

/// Reflected far tail, `−26 ≤ t < −4`: `q = 1 − ½·erfc(−t)`. The
/// exponent `−t² ≥ −676` is inside [`fast_exp_core`]'s domain.
#[inline(always)]
fn log_phi_reflected_far(t: f64) -> (f64, f64) {
    let ax = -t;
    (
        0.5 * (2.0 - (fast_exp_core(-ax * ax) / ax) * erfc_r_far(ax)),
        0.0,
    )
}

/// Reflected mid range, `−4 ≤ t < −0.46875`: `q = 1 − ½·erfc(−t)`.
#[inline(always)]
fn log_phi_reflected_mid(t: f64) -> (f64, f64) {
    let ax = -t;
    (0.5 * (2.0 - fast_exp_core(-ax * ax) * erfc_r_mid(ax)), 0.0)
}

/// Body, `|t| ≤ 0.46875`: `q = ½·(1 − erf(t))`.
#[inline(always)]
fn log_phi_body(t: f64) -> (f64, f64) {
    (0.5 * (1.0 - erf_small(t)), 0.0)
}

/// Fused mid range, `0.46875 < t ≤ 4`: `q = ½·erfcx(t)`, `t²` separate.
#[inline(always)]
fn log_phi_fused_mid(t: f64) -> (f64, f64) {
    (0.5 * erfc_r_mid(t), t * t)
}

/// Fused far tail, `t > 4` (so `t < 8/√2`): `q = ½·erfcx(t)`, `t²`
/// separate.
#[inline(always)]
fn log_phi_fused_far(t: f64) -> (f64, f64) {
    (0.5 * (erfc_r_far(t) / t), t * t)
}

/// Asymptotic series for `x ≤ −8` (and NaN, ±∞ via [`fast_ln`]'s guards),
/// returned as `(1, −log Φ(x))`.
#[inline(always)]
fn log_phi_asymptotic(x: f64) -> (f64, f64) {
    let x2 = x * x;
    let x4 = x2 * x2;
    let series = 1.0 - 1.0 / x2 + 3.0 / x4 - 15.0 / (x4 * x2) + 105.0 / (x4 * x4);
    let v = -0.5 * x2 - fast_ln(-x * SQRT_2PI) + fast_ln(series);
    (1.0, -v)
}

/// Chunk width of the batched lane loops: the `log Φ` regime chunks behind
/// the skew-normal `ln_pdf_batch`/`pdf_batch`, and the EM E-step.
///
/// Eight f64 lanes fill two AVX2 registers (or one AVX-512 register); the
/// fixed-width inner loops carry no cross-iteration dependency, so the
/// compiler is free to unroll, interleave and auto-vectorize them.
pub const LANES: usize = 8;

/// Standard normal quantile `Φ⁻¹(p)` (Acklam's algorithm + one Halley step).
///
/// Accuracy is ~1e-15 over `p ∈ (0, 1)` after refinement.
///
/// # Panics
///
/// Does not panic; returns `±∞` for `p ∈ {0, 1}` and NaN outside `[0, 1]`.
///
/// # Example
///
/// ```
/// use lvf2_stats::special::{norm_cdf, norm_quantile};
/// let z = norm_quantile(0.975);
/// assert!((norm_cdf(z) - 0.975).abs() < 1e-14);
/// ```
pub fn norm_quantile(p: f64) -> f64 {
    if !(0.0..=1.0).contains(&p) {
        return f64::NAN;
    }
    if p == 0.0 {
        return f64::NEG_INFINITY;
    }
    if p == 1.0 {
        return f64::INFINITY;
    }
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383577518672690e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };
    // One Halley refinement step.
    let e = norm_cdf(x) - p;
    let u = e * SQRT_2PI * (0.5 * x * x).exp();
    x - u / (1.0 + 0.5 * x * u)
}

/// Minimum resolvable tail probability for an `n`-draw estimator.
///
/// An estimator that observed **zero** hits in `n` draws must not report an
/// exact `0.0`: downstream yield math works in log space, and `ln 0`
/// poisons every quantity it touches. The rule of three says zero hits in
/// `n` draws bounds the true probability below `3/n` at 95% confidence;
/// this floor reports one third of the midpoint-style bound,
/// `1 / (3·(n + 1))` — a conservative point estimate that decays with the
/// sample budget and stays strictly positive.
///
/// # Example
///
/// ```
/// let p = lvf2_stats::special::min_tail_probability(999);
/// assert!((p - 1.0 / 3000.0).abs() < 1e-18);
/// assert!(lvf2_stats::special::min_tail_probability(0) > 0.0);
/// ```
pub fn min_tail_probability(n: usize) -> f64 {
    1.0 / (3.0 * (n as f64 + 1.0))
}

/// Owen's T function `T(h, a)`.
///
/// ```text
/// T(h, a) = (1/2π) ∫₀ᵃ exp(−h²(1+x²)/2) / (1+x²) dx
/// ```
///
/// Needed by the skew-normal CDF: `F_SN(z; α) = Φ(z) − 2·T(z, α)`.
/// Uses the symmetry `T(h, a) = T(−h, a) = −T(h, −a)` and, for `|a| > 1`,
/// the reduction `T(h, a) = ½[Φ(h) + Φ(ah)] − Φ(h)Φ(ah) − T(ah, 1/a)`,
/// then 32-point Gauss–Legendre on `[0, a≤1]` (integrand is smooth there).
///
/// # Example
///
/// ```
/// use lvf2_stats::special::owen_t;
/// // T(h, 1) = ½ Φ(h) Φ(−h)  (exact identity)
/// let h = 0.7;
/// let exact = 0.5 * lvf2_stats::special::norm_cdf(h) * lvf2_stats::special::norm_cdf(-h);
/// assert!((owen_t(h, 1.0) - exact).abs() < 1e-13);
/// ```
pub fn owen_t(h: f64, a: f64) -> f64 {
    if a == 0.0 || h.is_infinite() {
        return 0.0;
    }
    if a.is_nan() || h.is_nan() {
        return f64::NAN;
    }
    let h = h.abs();
    let (sign, a) = if a < 0.0 { (-1.0, -a) } else { (1.0, a) };
    let t = if a <= 1.0 {
        owen_t_core(h, a)
    } else if a.is_infinite() {
        // T(h, ∞) = ½ Φ(−|h|)
        0.5 * norm_cdf(-h)
    } else {
        let ah = a * h;
        let phi_h = norm_cdf(h);
        let phi_ah = norm_cdf(ah);
        0.5 * (phi_h + phi_ah) - phi_h * phi_ah - owen_t_core(ah, 1.0 / a)
    };
    sign * t
}

/// Gauss–Legendre evaluation of the defining integral for `0 ≤ a ≤ 1`, `h ≥ 0`.
fn owen_t_core(h: f64, a: f64) -> f64 {
    debug_assert!((0.0..=1.0).contains(&a) && h >= 0.0);
    if a == 0.0 {
        return 0.0;
    }
    let h2 = h * h;
    let f = |x: f64| {
        let d = 1.0 + x * x;
        (-0.5 * h2 * d).exp() / d
    };
    gauss_legendre_32(f, 0.0, a) / (2.0 * std::f64::consts::PI)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erf_reference_values() {
        // Reference values from Abramowitz & Stegun / mpmath.
        let cases = [
            (0.0, 0.0),
            (0.1, 0.1124629160182849),
            (0.5, 0.5204998778130465),
            (1.0, 0.8427007929497149),
            (2.0, 0.9953222650189527),
            (3.0, 0.9999779095030014),
            (-1.0, -0.8427007929497149),
        ];
        for (x, want) in cases {
            assert!((erf(x) - want).abs() < 1e-14, "erf({x})");
        }
    }

    #[test]
    fn erfc_tail_values() {
        // mpmath: erfc(4) = 1.541725790028002e-8, erfc(6) = 2.1519736712498913e-17
        assert!((erfc(4.0) - 1.541725790028002e-8).abs() / 1.5e-8 < 1e-12);
        assert!((erfc(6.0) - 2.1519736712498913e-17).abs() / 2.15e-17 < 1e-10);
        assert!((erfc(-2.0) - (2.0 - erfc(2.0))).abs() < 1e-15);
    }

    #[test]
    fn erf_erfc_complementarity() {
        for i in 0..200 {
            let x = -5.0 + i as f64 * 0.05;
            assert!((erf(x) + erfc(x) - 1.0).abs() < 1e-13, "x={x}");
        }
    }

    #[test]
    fn norm_cdf_symmetry_and_known_points() {
        assert!((norm_cdf(0.0) - 0.5).abs() < 1e-15);
        assert!((norm_cdf(1.0) - 0.8413447460685429).abs() < 1e-14);
        assert!((norm_cdf(-3.0) - 0.0013498980316300933).abs() < 1e-15);
        for i in 0..100 {
            let x = -4.0 + i as f64 * 0.08;
            assert!((norm_cdf(x) + norm_cdf(-x) - 1.0).abs() < 1e-13);
        }
    }

    #[test]
    fn quantile_roundtrip() {
        for i in 1..999 {
            let p = i as f64 / 1000.0;
            let z = norm_quantile(p);
            assert!((norm_cdf(z) - p).abs() < 1e-13, "p={p}");
        }
        // Deep tails
        for &p in &[1e-10, 1e-8, 1e-5, 1.0 - 1e-10] {
            let z = norm_quantile(p);
            assert!((norm_cdf(z) - p).abs() / p.min(1.0 - p) < 1e-8, "p={p}");
        }
        assert!(norm_quantile(0.0).is_infinite());
        assert!(norm_quantile(1.5).is_nan());
    }

    #[test]
    fn log_norm_cdf_matches_direct_and_tail() {
        for i in 0..100 {
            let x = -7.9 + i as f64 * 0.1;
            assert!((log_norm_cdf(x) - norm_cdf(x).ln()).abs() < 1e-10, "x={x}");
        }
        // Tail: compare against asymptotic reference from mpmath: log Φ(-10) ≈ -53.23128515051247
        assert!((log_norm_cdf(-10.0) - (-53.23128515051247)).abs() < 1e-6);
        // Agreement of the asymptotic branch with the (still accurate) direct
        // computation just past the switch point.
        for &x in &[-8.5, -10.0, -14.0] {
            let direct = norm_cdf(x).ln();
            assert!((log_norm_cdf(x) - direct).abs() < 1e-5, "x={x}");
        }
    }

    #[test]
    fn log_norm_cdf_parts_decomposition_is_exact() {
        // The scalar function is *defined* as fast_ln(q) − t² over the parts;
        // pin that down bitwise (the batched kernels rely on it), and check
        // that q stays inside fast_ln_core's positive-normal domain for every
        // regime and for specials.
        let mut xs: Vec<f64> = (-1300..=1300).map(|i| i as f64 * 0.01).collect();
        xs.extend([f64::INFINITY, f64::NEG_INFINITY, f64::NAN, 1e6, -1e6]);
        for &x in &xs {
            let (q, tt) = log_norm_cdf_parts(x);
            assert!(
                (f64::MIN_POSITIVE..=1.0).contains(&q),
                "q out of fast_ln_core domain: x={x} q={q}"
            );
            let recomposed = fast_ln(q) - tt;
            let direct = log_norm_cdf(x);
            assert_eq!(
                recomposed.to_bits(),
                direct.to_bits(),
                "x={x}: {recomposed} vs {direct}"
            );
        }
        // Specials behave like the mathematical limit.
        assert_eq!(log_norm_cdf(f64::INFINITY), 0.0);
        assert_eq!(log_norm_cdf(f64::NEG_INFINITY), f64::NEG_INFINITY);
        assert!(log_norm_cdf(f64::NAN).is_nan());
    }

    #[test]
    fn log_norm_cdf_body_positive_matches_direct() {
        // x > 0.663 now goes through fast_exp/fast_ln instead of libm; the
        // result must still track norm_cdf(x).ln() to well below the EM
        // fitter's tolerance.
        for i in 0..2000 {
            let x = 0.664 + i as f64 * 0.01;
            let direct = norm_cdf(x).ln();
            assert!(
                (log_norm_cdf(x) - direct).abs() < 1e-14,
                "x={x}: {} vs {direct}",
                log_norm_cdf(x)
            );
        }
    }

    #[test]
    fn erfcx_matches_scaled_erfc() {
        // Mid range: compare against the definition where exp(x²) is exact
        // enough; deep range: asymptotic erfcx(x) ~ 1/(x√π).
        for i in 0..200 {
            let x = -2.0 + i as f64 * 0.05;
            let want = (x * x).exp() * erfc(x);
            let got = erfcx(x);
            assert!((got - want).abs() / want.abs().max(1.0) < 1e-12, "x={x}");
        }
        let x = 50.0;
        let asym = 1.0 / (x * std::f64::consts::PI.sqrt());
        assert!((erfcx(x) - asym).abs() / asym < 1e-3);
        assert!(erfcx(f64::NAN).is_nan());
    }

    #[test]
    fn log_norm_cdf_fused_region_matches_direct() {
        // The fused branch covers −8 < x ≤ −0.46875·√2; the direct form is
        // still exactly representable there, so agreement must be ~1e-13.
        for i in 0..1000 {
            let x = -7.99 + i as f64 * 0.0073;
            let direct = norm_cdf(x).ln();
            assert!((log_norm_cdf(x) - direct).abs() < 1e-11, "x={x}");
        }
    }

    #[test]
    fn owen_t_identities() {
        // T(0, a) = atan(a)/(2π)
        for &a in &[0.1_f64, 0.5, 1.0, 2.0, 10.0] {
            let want = a.atan() / (2.0 * std::f64::consts::PI);
            assert!((owen_t(0.0, a) - want).abs() < 1e-13, "a={a}");
        }
        // T(h, 1) = ½Φ(h)Φ(−h)
        for &h in &[0.0, 0.3, 1.0, 2.5, 5.0] {
            let want = 0.5 * norm_cdf(h) * norm_cdf(-h);
            assert!((owen_t(h, 1.0) - want).abs() < 1e-13, "h={h}");
        }
        // Antisymmetry in a, symmetry in h.
        assert!((owen_t(1.2, -0.7) + owen_t(1.2, 0.7)).abs() < 1e-15);
        assert!((owen_t(-1.2, 0.7) - owen_t(1.2, 0.7)).abs() < 1e-15);
        // T(h, ∞) = ½Φ(−|h|)
        assert!((owen_t(1.0, f64::INFINITY) - 0.5 * norm_cdf(-1.0)).abs() < 1e-13);
    }

    #[test]
    fn owen_t_literature_value() {
        // Owen (1956) / Patefield & Tandy test value.
        let got = owen_t(0.0625, 0.25);
        assert!((got - 3.8911930234701366e-2).abs() < 1e-13, "got {got}");
    }

    #[test]
    fn owen_t_matches_adaptive_quadrature() {
        use crate::quad::adaptive_simpson;
        for &(h, a) in &[
            (0.5, 0.5),
            (1.0, 2.0),
            (2.0, 0.5),
            (4.0, 1.0),
            (0.3, 7.0),
            (3.0, 0.05),
        ] {
            let want = adaptive_simpson(
                |x| (-0.5 * h * h * (1.0 + x * x)).exp() / (1.0 + x * x),
                0.0,
                a,
                1e-14,
            ) / (2.0 * std::f64::consts::PI);
            let got = owen_t(h, a);
            assert!(
                (got - want).abs() < 1e-12,
                "T({h},{a}) got {got} want {want}"
            );
        }
    }
}
