//! Vendored transcendental kernels: `ln` and `exp` as pure f64 arithmetic.
//!
//! The EM fitter's M-step objective evaluates `SkewNormal::ln_pdf` hundreds
//! of thousands of times per fit, and after the `erfcx` fusion in
//! [`special`](crate::special) every one of those evaluations bottoms out in
//! a single logarithm (plus, for positive skew arguments, one exponential).
//! Calling libm there has two costs: the call itself, and — because the
//! compiler cannot see through it — a hard barrier against vectorizing the
//! surrounding loop.
//!
//! This module vendors the classic fdlibm `log` and Cephes `exp` algorithms
//! as inlineable Rust:
//!
//! - [`fast_ln`] / [`fast_ln_core`]: fdlibm/musl `log` — argument reduction
//!   into `[√½, √2)` by integer bit manipulation, then the standard
//!   `s = f/(2+f)` polynomial. Relative error ≤ 1 ulp over the normal range.
//!   The `_core` variant assumes a positive, finite, *normal* argument and
//!   contains **no branches at all**, so an 8-lane loop over it
//!   auto-vectorizes; `fast_ln` is the total function (one cold guard).
//! - [`fast_exp`] / [`fast_exp_core`]: Cephes `exp` — reduction
//!   `x = k·ln2 + r` with a two-part `ln 2`, a degree-(2,3) rational for
//!   `exp(r)`, and a bit-twiddled `2^k` scale. Relative error ≈ 2 ulp;
//!   results below `exp(−708)` flush to zero (no gradual underflow). The
//!   `_core` variant assumes `|x| ≤ 708` and is branch-free; `fast_exp` adds
//!   the range guard.
//!
//! # Determinism
//!
//! Both functions are pure IEEE-754 double arithmetic plus integer bit ops —
//! no tables, no FMA contraction (Rust never contracts implicitly), no
//! platform intrinsics — so results are bit-identical across platforms and
//! optimization levels, which the whole pipeline's determinism contract
//! (batch fitting, CI fingerprints) relies on.
//!
//! They are *not* drop-in replacements for `f64::ln`/`f64::exp`: values
//! differ from libm in the last ulp or two. They are used only where the
//! caller owns the full numeric contract: the fused `log Φ` path in
//! [`special`](crate::special), and the EM E-step's log-sum-exp in
//! `lvf2-fit` (`exp(−d)` of the gap between two component log-joints, `ln`
//! of their normalizer), and Owen's T in [`special`](crate::special), whose
//! 32-node Gauss–Legendre sum runs on `exp_nonpositive` so the skew-normal
//! CDF batch can vectorize it. `erf`/`erfc`/`norm_cdf` keep libm so their
//! 1e-14-level golden tests are untouched.

// The coefficient digits below are the exact published fdlibm/Cephes
// values; clippy's excessive-precision lint would silently round them.
#![allow(clippy::excessive_precision)]

/// fdlibm `log` polynomial coefficients for `ln(1+f)` on `[√½−1, √2−1]`.
const LG1: f64 = 6.666666666666735130e-1;
const LG2: f64 = 3.999999999940941908e-1;
const LG3: f64 = 2.857142874366239149e-1;
const LG4: f64 = 2.222219843214978396e-1;
const LG5: f64 = 1.818357216161805012e-1;
const LG6: f64 = 1.531383769920937332e-1;
const LG7: f64 = 1.479819860511658591e-1;
/// `ln 2` split into a 20-significant-bit head and its tail.
const LN2_HI: f64 = 6.93147180369123816490e-1;
const LN2_LO: f64 = 1.90821492927058770002e-10;

/// Natural logarithm of a **positive, finite, normal** `x`; branch-free.
///
/// The contract is deliberately narrow so the body can omit every guard: for
/// `x ≤ 0`, NaN, infinity, or subnormal inputs the result is unspecified
/// (finite garbage, never UB). Use [`fast_ln`] unless the call site proves
/// the domain — as the `log Φ` kernels do, where the argument is a
/// probability in `[~1e-3, 1]`.
///
/// For in-domain inputs, `fast_ln_core(x)` is bit-identical to
/// [`fast_ln`]`(x)` (the latter simply adds the domain guard).
#[inline(always)]
pub fn fast_ln_core(x: f64) -> f64 {
    debug_assert!(
        (f64::MIN_POSITIVE..f64::INFINITY).contains(&x),
        "fast_ln_core domain: positive normal finite, got {x}"
    );
    // Shift the mantissa split point from 1.0 to √2/2 ≈ 0x3FE6A09E…, so the
    // reduced mantissa lands in [√½, √2) and f = m − 1 stays small on both
    // sides: bias the bits, pull the exponent, then rebuild the mantissa
    // around the same split constant (fdlibm's high-word trick, widened to
    // the full 64-bit payload so the low mantissa bits survive).
    const SPLIT: u64 = 0x3FE6_A09E_0000_0000;
    const BIAS_SHIFT: u64 = 0x3FF0_0000_0000_0000 - SPLIT;
    let b = x.to_bits().wrapping_add(BIAS_SHIFT);
    let k = ((b >> 52) as i64 - 1023) as f64;
    let m = f64::from_bits((b & 0x000F_FFFF_FFFF_FFFF).wrapping_add(SPLIT));

    let f = m - 1.0;
    let hfsq = 0.5 * f * f;
    let s = f / (2.0 + f);
    let z = s * s;
    let w = z * z;
    let t1 = w * (LG2 + w * (LG4 + w * LG6));
    let t2 = z * (LG1 + w * (LG3 + w * (LG5 + w * LG7)));
    let r = t2 + t1;
    k * LN2_HI - ((hfsq - (s * (hfsq + r) + k * LN2_LO)) - f)
}

/// Natural logarithm, total over all f64 inputs.
///
/// Matches [`fast_ln_core`] bit-for-bit on its domain (positive normal
/// finite); elsewhere follows the `f64::ln` conventions: `ln(0) = −∞`,
/// `ln(x<0) = NaN`, `ln(∞) = ∞`, subnormals are rescaled by `2⁵⁴` first.
/// Accuracy ≤ 1 ulp (pinned against libm in the unit tests).
///
/// # Example
///
/// ```
/// use lvf2_stats::fastmath::fast_ln;
/// assert_eq!(fast_ln(1.0), 0.0);
/// assert!((fast_ln(10.0) - std::f64::consts::LN_10).abs() < 1e-15);
/// assert!(fast_ln(0.0).is_infinite() && fast_ln(0.0) < 0.0);
/// assert!(fast_ln(-1.0).is_nan());
/// ```
#[inline]
pub fn fast_ln(x: f64) -> f64 {
    // One range check covers every special: bits < MIN_POSITIVE (zero and
    // subnormal), the whole negative/NaN half-plane (sign bit ⇒ huge u64),
    // and ≥ +∞.
    let b = x.to_bits();
    if b.wrapping_sub(0x0010_0000_0000_0000) >= 0x7FE0_0000_0000_0000 {
        return fast_ln_cold(x);
    }
    fast_ln_core(x)
}

#[cold]
fn fast_ln_cold(x: f64) -> f64 {
    if x == 0.0 {
        f64::NEG_INFINITY
    } else if x < 0.0 || x.is_nan() {
        f64::NAN
    } else if x == f64::INFINITY {
        f64::INFINITY
    } else {
        // Subnormal: rescale into the normal range.
        const TWO54: f64 = 1.8014398509481984e16; // 2^54
        fast_ln_core(x * TWO54) - 54.0 * std::f64::consts::LN_2
    }
}

/// Cephes `exp` rational coefficients for `exp(r)` on `|r| ≤ ½·ln 2`.
const EXP_P: [f64; 3] = [
    1.26177193074810590878e-4,
    3.02994407707441961300e-2,
    9.99999999999999999910e-1,
];
const EXP_Q: [f64; 4] = [
    3.00198505138664455042e-6,
    2.52448340349684104192e-3,
    2.27265548208155028766e-1,
    2.00000000000000000005e0,
];
/// `ln 2` split for the reduction `r = x − k·C1 − k·C2`.
const EXP_C1: f64 = 6.93145751953125e-1;
const EXP_C2: f64 = 1.42860682030941723212e-6;
const LOG2_E: f64 = std::f64::consts::LOG2_E;

/// Exponential of `x` with `|x| ≤ 708`; branch-free.
///
/// Cephes-style: `x = k·ln2 + r`, rational `exp(r)`, exact `2^k` scaling via
/// exponent bits. `k` is chosen by round-to-nearest-even (magic-number
/// rounding), and the scale is built from the same rounded value's bits, so
/// the body is straight-line float and integer arithmetic that an
/// [`LANES`](crate::special::LANES)-wide loop can vectorize. Outside
/// `|x| ≤ 708` the result is unspecified (finite garbage, never UB); the
/// E-step's log-sum-exp calls it on `[−708, 0]` and flushes larger gaps to
/// zero itself.
///
/// For in-domain inputs, `fast_exp_core(x)` is bit-identical to
/// [`fast_exp`]`(x)` (the latter simply adds the range guard).
#[inline(always)]
pub fn fast_exp_core(x: f64) -> f64 {
    debug_assert!(
        x.abs() <= 708.0,
        "fast_exp_core domain: |x| <= 708, got {x}"
    );
    // Round k = x/ln2 to the nearest integer without a libm call: adding
    // 1.5·2⁵² forces round-to-nearest-even at integer precision and leaves k
    // in the low mantissa bits of `t`.
    const MAGIC: f64 = 6_755_399_441_055_744.0; // 1.5 * 2^52
    let t = LOG2_E * x + MAGIC;
    let kf = t - MAGIC;
    let r = (x - kf * EXP_C1) - kf * EXP_C2;
    let xx = r * r;
    let px = r * ((EXP_P[0] * xx + EXP_P[1]) * xx + EXP_P[2]);
    let q = ((EXP_Q[0] * xx + EXP_Q[1]) * xx + EXP_Q[2]) * xx + EXP_Q[3];
    let e = 1.0 + 2.0 * px / (q - px);
    // 2^k via exponent bits: the low 12 bits of `t`'s payload plus the bias
    // are `k + 1023` (|x| ≤ 708 keeps it in [2, 2045]); the shift drops the
    // rest. No float-to-integer conversion, so the lane loop stays packed.
    let scale = f64::from_bits(t.to_bits().wrapping_add(1023) << 52);
    e * scale
}

/// Exponential function, total over all f64 inputs.
///
/// [`fast_exp_core`] behind one range guard. Accuracy ≈ 2 ulp for
/// `|x| ≤ 708`. Overflows to `+∞` above 708; flushes to `0` below −708 (no
/// subnormal tail).
///
/// # Example
///
/// ```
/// use lvf2_stats::fastmath::fast_exp;
/// assert_eq!(fast_exp(0.0), 1.0);
/// assert!((fast_exp(1.0) - std::f64::consts::E).abs() < 1e-15);
/// assert_eq!(fast_exp(-1000.0), 0.0);
/// assert_eq!(fast_exp(1000.0), f64::INFINITY);
/// ```
#[inline]
pub fn fast_exp(x: f64) -> f64 {
    if !(x.abs() <= 708.0) {
        return fast_exp_cold(x);
    }
    fast_exp_core(x)
}

#[cold]
fn fast_exp_cold(x: f64) -> f64 {
    if x.is_nan() {
        f64::NAN
    } else if x > 0.0 {
        f64::INFINITY
    } else {
        0.0
    }
}

/// Exponents below this flush [`exp_nonpositive`] to 0: the edge of
/// [`fast_exp_core`]'s domain.
const EXP_FLUSH: f64 = -708.0;

/// `exp(e)` for an exponent `e ≤ 0`: [`fast_exp_core`] on its domain, 0
/// below −708 (and for −∞), NaN for NaN. Branch-free: the core runs on the
/// clamped exponent and selects pick the flush and the NaN, so a lane loop
/// over it vectorizes. The skew-normal pdf and Owen's T both call it.
#[inline(always)]
pub(crate) fn exp_nonpositive(e: f64) -> f64 {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn ulp_diff(a: f64, b: f64) -> u64 {
        if a == b {
            return 0;
        }
        (a.to_bits() as i64 - b.to_bits() as i64).unsigned_abs()
    }

    #[test]
    fn fast_ln_matches_libm_within_1_ulp() {
        // Dense sweep over the magnitudes the log Φ kernels actually see
        // (probabilities down to ~1e-40) plus wide outliers.
        let mut worst = 0;
        for i in 0..40_000 {
            let x = 10f64.powf(-40.0 + 80.0 * (i as f64) / 39_999.0);
            let d = ulp_diff(fast_ln(x), x.ln());
            worst = worst.max(d);
            assert!(d <= 1, "x={x:e}: fast {} vs libm {}", fast_ln(x), x.ln());
        }
        assert!(worst <= 1);
    }

    #[test]
    fn fast_ln_near_one_is_exact_enough() {
        // The body regime of log Φ feeds arguments in [0.25, 1]; near 1 the
        // result is tiny and relative error matters most.
        for i in 0..10_000 {
            let x = 0.25 + 0.75 * (i as f64) / 9_999.0;
            assert!(ulp_diff(fast_ln(x), x.ln()) <= 1, "x={x}");
        }
        assert_eq!(fast_ln(1.0), 0.0);
    }

    #[test]
    fn fast_ln_specials() {
        assert_eq!(fast_ln(0.0), f64::NEG_INFINITY);
        assert_eq!(fast_ln(-0.0), f64::NEG_INFINITY);
        assert!(fast_ln(-3.0).is_nan());
        assert!(fast_ln(f64::NAN).is_nan());
        assert_eq!(fast_ln(f64::INFINITY), f64::INFINITY);
        // Subnormal path.
        let sub = 1e-310;
        assert!((fast_ln(sub) - sub.ln()).abs() < 1e-12);
        // MIN_POSITIVE boundary stays on the fast path.
        assert!(ulp_diff(fast_ln(f64::MIN_POSITIVE), f64::MIN_POSITIVE.ln()) <= 1);
    }

    #[test]
    fn fast_ln_core_agrees_with_total_function_on_domain() {
        for i in 0..1_000 {
            let x = 10f64.powf(-300.0 + 600.0 * (i as f64) / 999.0);
            assert_eq!(fast_ln_core(x).to_bits(), fast_ln(x).to_bits(), "x={x:e}");
        }
    }

    #[test]
    fn fast_exp_matches_libm_within_2_ulp() {
        for i in 0..40_000 {
            let x = -700.0 + 1400.0 * (i as f64) / 39_999.0;
            let d = ulp_diff(fast_exp(x), x.exp());
            assert!(d <= 2, "x={x}: fast {} vs libm {}", fast_exp(x), x.exp());
        }
    }

    #[test]
    fn fast_exp_core_agrees_with_total_function_on_domain() {
        for i in 0..20_000 {
            let x = -708.0 * (i as f64) / 19_999.0;
            assert_eq!(fast_exp_core(x).to_bits(), fast_exp(x).to_bits(), "x={x}");
        }
        for x in [-708.0, -0.0, 0.0, -1e-300, 708.0] {
            assert_eq!(fast_exp_core(x).to_bits(), fast_exp(x).to_bits(), "x={x}");
        }
        assert_eq!(fast_exp_core(0.0), 1.0);
    }

    #[test]
    fn fast_exp_core_matches_libm_within_2_ulp() {
        // The E-step's gap domain: exp(−d) for d ∈ [0, 708].
        for i in 0..40_000 {
            let x = -708.0 * (i as f64) / 39_999.0;
            let d = ulp_diff(fast_exp_core(x), x.exp());
            assert!(
                d <= 2,
                "x={x}: core {} vs libm {}",
                fast_exp_core(x),
                x.exp()
            );
        }
    }

    #[test]
    fn fast_exp_hot_range_for_log_phi() {
        // erfc's exp(−ax²) arguments: ax ∈ (0.46875, 26) ⇒ x ∈ (−676, −0.21).
        for i in 0..20_000 {
            let x = -676.0 + 675.8 * (i as f64) / 19_999.0;
            assert!(ulp_diff(fast_exp(x), x.exp()) <= 2, "x={x}");
        }
    }

    #[test]
    fn fast_exp_specials() {
        assert_eq!(fast_exp(0.0), 1.0);
        assert!(fast_exp(f64::NAN).is_nan());
        assert_eq!(fast_exp(f64::INFINITY), f64::INFINITY);
        assert_eq!(fast_exp(f64::NEG_INFINITY), 0.0);
        assert_eq!(fast_exp(800.0), f64::INFINITY);
        assert_eq!(fast_exp(-800.0), 0.0);
    }

    #[test]
    fn round_trip_consistency() {
        // fast_ln ∘ fast_exp ≈ identity to ~1e-15 relative — the level the
        // EM log-likelihoods care about.
        for i in 0..1_000 {
            let x = -40.0 + 80.0 * (i as f64) / 999.0;
            let rt = fast_ln(fast_exp(x));
            assert!((rt - x).abs() <= 1e-13 * x.abs().max(1.0), "x={x} rt={rt}");
        }
    }
}
