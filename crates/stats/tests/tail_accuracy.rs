//! Deep-tail accuracy of [`Distribution::sf`].
//!
//! `1 − cdf(x)` loses every digit once the tail drops below the CDF's
//! rounding: it reads 0 past about 8σ on a Gaussian, and rounding noise
//! from 4σ on a strongly left-skewed skew-normal. `sf` must instead stay
//! within 1e-9 relative of an independent reference at μ + kσ for k from
//! 0.5 to 8, on every family the flow fits:
//!
//! - Normal and Norm²: `erfc`, which keeps its relative accuracy in the
//!   tail;
//! - skew-normal, LVF² and LESN: composite Simpson on the pdf, on segments
//!   of doubling width laid from the threshold upward.

use lvf2_stats::special::erfc;
use lvf2_stats::{Distribution, Lesn, Lvf2, Moments, Norm2, Normal, SkewNormal};

const DEPTHS: [f64; 5] = [0.5, 1.0, 3.0, 5.0, 8.0];
const TOL: f64 = 1e-9;

fn sn(mean: f64, sigma: f64, skew: f64) -> SkewNormal {
    SkewNormal::from_moments(Moments::new(mean, sigma, skew)).unwrap()
}

fn normal_sf(n: &Normal, x: f64) -> f64 {
    0.5 * erfc((x - n.mean()) / (n.std_dev() * std::f64::consts::SQRT_2))
}

/// Composite Simpson rule with `n` (even) intervals on `[a, b]`.
fn simpson(f: &impl Fn(f64) -> f64, a: f64, b: f64, n: usize) -> f64 {
    let h = (b - a) / n as f64;
    let mut sum = f(a) + f(b);
    for i in 1..n {
        let w = if i % 2 == 1 { 4.0 } else { 2.0 };
        sum += w * f(a + i as f64 * h);
    }
    sum * h / 3.0
}

/// `∫ₐ^∞ pdf` by Simpson on segments of width σ/16, σ/8, σ/4, … (2000
/// intervals each), until a segment adds less than 1e-20 of the sum.
fn simpson_tail(d: &impl Distribution, a: f64) -> f64 {
    let sigma = d.std_dev();
    let pdf = |t: f64| d.pdf(t);
    let (mut lo, mut width, mut sum) = (a, sigma / 16.0, 0.0);
    while width < 1e4 * sigma {
        let seg = simpson(&pdf, lo, lo + width, 2000);
        sum += seg;
        if sum > 0.0 && seg <= 1e-20 * sum {
            break;
        }
        lo += width;
        width *= 2.0;
    }
    sum
}

/// Checks `d.sf` at μ + kσ for every depth against `reference`.
fn check(name: &str, d: &impl Distribution, reference: impl Fn(f64) -> f64) {
    let (m, s) = (d.mean(), d.std_dev());
    for k in DEPTHS {
        let x = m + k * s;
        let want = reference(x);
        let got = d.sf(x);
        assert!(want > 0.0, "{name} at {k}σ: reference {want}");
        let rel = (got / want - 1.0).abs();
        assert!(
            rel <= TOL,
            "{name} at {k}σ: sf {got:e} vs reference {want:e} (rel {rel:.2e})"
        );
    }
    assert_eq!(d.sf(f64::INFINITY), 0.0, "{name} at +∞");
    assert_eq!(d.sf(f64::NEG_INFINITY), 1.0, "{name} at −∞");
}

#[test]
fn gaussian_families_match_erfc() {
    let n = Normal::new(0.12, 0.006).unwrap();
    check("Normal", &n, |x| normal_sf(&n, x));

    let (a, b) = (
        Normal::new(0.10, 0.005).unwrap(),
        Normal::new(0.13, 0.008).unwrap(),
    );
    let norm2 = Norm2::new(0.3, a, b).unwrap();
    check("Norm2", &norm2, |x| {
        0.7 * normal_sf(&a, x) + 0.3 * normal_sf(&b, x)
    });
}

#[test]
fn skew_normal_tails_match_simpson() {
    for skew in [0.9, -0.9] {
        let d = sn(0.12, 0.006, skew);
        check(&format!("SN(γ = {skew})"), &d, |x| simpson_tail(&d, x));
    }
}

#[test]
fn lvf2_tails_match_simpson() {
    let d = Lvf2::new(0.3, sn(0.10, 0.005, 0.4), sn(0.13, 0.008, -0.2)).unwrap();
    check("LVF2", &d, |x| simpson_tail(&d, x));
    let d = Lvf2::new(0.4, sn(0.10, 0.005, -0.6), sn(0.12, 0.007, -0.6)).unwrap();
    check("LVF2(γ = −0.6)", &d, |x| simpson_tail(&d, x));
}

#[test]
fn lesn_tails_match_simpson() {
    for (xi, omega, alpha, tau) in [(-2.0, 0.2, 1.5, -0.5), (-2.0, 0.1, -2.0, 0.3)] {
        let d = Lesn::from_log_params(xi, omega, alpha, tau).unwrap();
        check(&format!("LESN({xi}, {omega}, {alpha}, {tau})"), &d, |x| {
            simpson_tail(&d, x)
        });
    }
}
