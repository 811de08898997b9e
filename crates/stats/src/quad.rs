//! Numerical quadrature: fixed-order Gauss–Legendre rules and adaptive Simpson.
//!
//! These are the only integration tools the rest of the workspace uses; they
//! back Owen's T (its node table in [`special`](crate::special) is built
//! from the same 32-point rule, `GL32`, so the skew-normal CDF batch can
//! sum it across points), the extended-skew-normal CDF, the statistical
//! max of `lvf2-ssta` (through [`gl32`]'s spectral integration matrix), and
//! the moment integrals used in tests.

/// 32-point Gauss–Legendre nodes on `[0, 1]` (positive half of the 64 symmetric
/// nodes on `[-1, 1]`, shifted). Stored as (node, weight) on `[-1, 1]`.
pub(crate) const GL32: [(f64, f64); 16] = [
    (0.048_307_665_687_738_32, 0.0965400885147278),
    (0.144_471_961_582_796_5, 0.0956387200792749),
    (0.239_287_362_252_137_06, 0.0938443990808046),
    (0.331_868_602_282_127_67, 0.0911738786957639),
    (0.421_351_276_130_635_33, 0.0876520930044038),
    (0.506_899_908_932_229_4, 0.0833119242269467),
    (0.587_715_757_240_762_3, 0.0781938957870703),
    (0.663_044_266_930_215_2, 0.0723457941088485),
    (0.732_182_118_740_289_7, 0.0658222227763618),
    (0.794_483_795_967_942_4, 0.0586840934785355),
    (0.849_367_613_732_57, 0.0509980592623762),
    (0.896_321_155_766_052_1, 0.0428358980222267),
    (0.934_906_075_937_739_7, 0.0342738629130214),
    (0.964_762_255_587_506_4, 0.0253920653092621),
    (0.985_611_511_545_268_4, 0.0162743947309057),
    (0.997_263_861_849_481_6, 0.0070186100094701),
];

/// Integrates `f` over `[a, b]` with a 32-point Gauss–Legendre rule.
///
/// Exact for polynomials up to degree 63; excellent for smooth integrands.
///
/// # Example
///
/// ```
/// use lvf2_stats::quad::gauss_legendre_32;
/// let val = gauss_legendre_32(|x| x * x, 0.0, 1.0);
/// assert!((val - 1.0 / 3.0).abs() < 1e-15);
/// ```
pub fn gauss_legendre_32<F: Fn(f64) -> f64>(f: F, a: f64, b: f64) -> f64 {
    let c = 0.5 * (b + a);
    let h = 0.5 * (b - a);
    let mut sum = 0.0;
    for &(x, w) in &GL32 {
        sum += w * (f(c + h * x) + f(c - h * x));
    }
    sum * h
}

/// The 32-point Gauss–Legendre rule on `[-1, 1]` in ascending node order,
/// with its spectral integration matrix.
///
/// The matrix is `S[i][j] = ∫₋₁^{xᵢ} ℓⱼ(x) dx`, where `ℓⱼ` is the Lagrange
/// basis polynomial of node `j`. For samples `fⱼ = f(xⱼ)`, `Σⱼ S[i][j]·fⱼ` is
/// the integral from `-1` to node `i` of the degree-31 interpolant of `f`:
/// exact for polynomials up to degree 31, spectrally accurate for smooth `f`.
/// It is stored by column (`cumulative[j][i] = S[i][j]`), so applying it is
/// 32 contiguous multiply-adds of length 32. The full-panel integral is
/// `Σⱼ weights[j]·fⱼ`.
///
/// Only [`gl32`] builds one, so the fields always agree with each other.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct Gl32 {
    /// Nodes on `[-1, 1]`, ascending.
    pub nodes: [f64; 32],
    /// Quadrature weights (they sum to 2).
    pub weights: [f64; 32],
    /// The spectral integration matrix `S`, by column.
    pub cumulative: [[f64; 32]; 32],
    /// Rows mapping node samples to the interpolant's two highest Legendre
    /// coefficients: `cₙ = Σⱼ legendre_tail[n − 30][j]·fⱼ`, `n = 30, 31`.
    /// When they are not negligible the interpolant has not resolved `f`.
    pub legendre_tail: [[f64; 32]; 2],
}

/// The shared [`Gl32`] rule, built once.
///
/// The matrix comes from the discrete Legendre expansion of the
/// interpolant, `ℓⱼ(x) = wⱼ Σₙ (n + ½) Pₙ(xⱼ) Pₙ(x)` for `n < 32`, and the
/// antiderivatives `∫₋₁ˣ P₀ = x + 1`, `∫₋₁ˣ Pₙ = (Pₙ₊₁ − Pₙ₋₁)/(2n + 1)`.
///
/// # Example
///
/// ```
/// use lvf2_stats::quad::gl32;
/// let r = gl32();
/// // ∫₋₁^{xᵢ} 3x² dx = xᵢ³ + 1, exactly for a low-degree polynomial.
/// let f: Vec<f64> = r.nodes.iter().map(|x| 3.0 * x * x).collect();
/// let mut got = [0.0; 32];
/// for (col, fj) in r.cumulative.iter().zip(&f) {
///     for (g, s) in got.iter_mut().zip(col) {
///         *g += s * fj;
///     }
/// }
/// for (g, x) in got.iter().zip(&r.nodes) {
///     assert!((g - (x.powi(3) + 1.0)).abs() < 1e-14);
/// }
/// ```
pub fn gl32() -> &'static Gl32 {
    static RULE: std::sync::OnceLock<Gl32> = std::sync::OnceLock::new();
    RULE.get_or_init(|| {
        let mut nodes = [0.0; 32];
        let mut weights = [0.0; 32];
        for (k, &(x, w)) in GL32.iter().enumerate() {
            (nodes[15 - k], weights[15 - k]) = (-x, w);
            (nodes[16 + k], weights[16 + k]) = (x, w);
        }
        // legendre[n] = Pₙ at every node, n = 0..=32.
        let mut legendre = [[0.0; 32]; 33];
        legendre[0] = [1.0; 32];
        legendre[1] = nodes;
        for n in 1..32 {
            for i in 0..32 {
                let nf = n as f64;
                legendre[n + 1][i] = ((2.0 * nf + 1.0) * nodes[i] * legendre[n][i]
                    - nf * legendre[n - 1][i])
                    / (nf + 1.0);
            }
        }
        let mut cumulative = [[0.0; 32]; 32];
        for (j, col) in cumulative.iter_mut().enumerate() {
            for (i, s) in col.iter_mut().enumerate() {
                // (n + ½)/(2n + 1) = ½ for every n ≥ 1.
                let mut acc = 0.5 * (nodes[i] + 1.0);
                for n in 1..32 {
                    acc += 0.5 * legendre[n][j] * (legendre[n + 1][i] - legendre[n - 1][i]);
                }
                *s = weights[j] * acc;
            }
        }
        let legendre_tail = [30, 31]
            .map(|n| std::array::from_fn(|j| (n as f64 + 0.5) * weights[j] * legendre[n][j]));
        Gl32 {
            nodes,
            weights,
            cumulative,
            legendre_tail,
        }
    })
}

/// Integrates `f` over `[a, b]` by adaptive Simpson to absolute tolerance `tol`.
///
/// Splits recursively until the Richardson error estimate falls under the
/// per-interval budget; depth is capped at 50 so pathological integrands
/// terminate (returning the best available estimate).
///
/// # Example
///
/// ```
/// use lvf2_stats::quad::adaptive_simpson;
/// let val = adaptive_simpson(|x: f64| x.sin(), 0.0, std::f64::consts::PI, 1e-12);
/// assert!((val - 2.0).abs() < 1e-10);
/// ```
pub fn adaptive_simpson<F: Fn(f64) -> f64>(f: F, a: f64, b: f64, tol: f64) -> f64 {
    // Pre-subdivide into 16 panels so narrow features (sharp mixture peaks)
    // cannot hide between the three initial Simpson nodes.
    const PANELS: usize = 16;
    let h = (b - a) / PANELS as f64;
    let panel_tol = tol / PANELS as f64;
    let mut total = 0.0;
    for i in 0..PANELS {
        let pa = a + i as f64 * h;
        let pb = if i == PANELS - 1 { b } else { pa + h };
        let fa = f(pa);
        let fb = f(pb);
        let m = 0.5 * (pa + pb);
        let fm = f(m);
        let whole = simpson(pa, pb, fa, fm, fb);
        total += simpson_rec(&f, pa, pb, fa, fm, fb, whole, panel_tol, 48);
    }
    total
}

#[inline]
fn simpson(a: f64, b: f64, fa: f64, fm: f64, fb: f64) -> f64 {
    (b - a) / 6.0 * (fa + 4.0 * fm + fb)
}

#[allow(clippy::too_many_arguments)]
fn simpson_rec<F: Fn(f64) -> f64>(
    f: &F,
    a: f64,
    b: f64,
    fa: f64,
    fm: f64,
    fb: f64,
    whole: f64,
    tol: f64,
    depth: u32,
) -> f64 {
    let m = 0.5 * (a + b);
    let lm = 0.5 * (a + m);
    let rm = 0.5 * (m + b);
    let flm = f(lm);
    let frm = f(rm);
    let left = simpson(a, m, fa, flm, fm);
    let right = simpson(m, b, fm, frm, fb);
    let delta = left + right - whole;
    if depth == 0 || delta.abs() <= 15.0 * tol {
        left + right + delta / 15.0
    } else {
        simpson_rec(f, a, m, fa, flm, fm, left, 0.5 * tol, depth - 1)
            + simpson_rec(f, m, b, fm, frm, fb, right, 0.5 * tol, depth - 1)
    }
}

/// Integrates a density-like function over the whole real line by mapping
/// through `x = t/(1−t²)` onto `(−1, 1)`.
///
/// Intended for smooth, rapidly decaying integrands (PDF moments).
///
/// # Example
///
/// ```
/// use lvf2_stats::quad::integrate_real_line;
/// use lvf2_stats::special::norm_pdf;
/// let mass = integrate_real_line(|x| norm_pdf(x), 1e-12);
/// assert!((mass - 1.0).abs() < 1e-9);
/// ```
pub fn integrate_real_line<F: Fn(f64) -> f64>(f: F, tol: f64) -> f64 {
    let g = |t: f64| {
        let d = 1.0 - t * t;
        let x = t / d;
        let jac = (1.0 + t * t) / (d * d);
        let v = f(x);
        if v == 0.0 {
            0.0
        } else {
            v * jac
        }
    };
    adaptive_simpson(g, -1.0 + 1e-12, 1.0 - 1e-12, tol)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::special::norm_pdf;

    #[test]
    fn gl32_exact_for_polynomials() {
        // Degree-10 polynomial integrated exactly.
        let f = |x: f64| 3.0 * x.powi(10) - 2.0 * x.powi(5) + x;
        let want = 3.0 / 11.0 * (2f64.powi(11) - 1.0) - 2.0 / 6.0 * (2f64.powi(6) - 1.0)
            + 0.5 * (4.0 - 1.0);
        let got = gauss_legendre_32(f, 1.0, 2.0);
        assert!((got - want).abs() < 1e-11, "got {got} want {want}");
    }

    #[test]
    fn gl32_gaussian_mass() {
        let got = gauss_legendre_32(norm_pdf, -8.0, 8.0);
        assert!((got - 1.0).abs() < 1e-10);
    }

    #[test]
    fn adaptive_simpson_handles_peaky_integrand() {
        // Narrow Gaussian that a fixed rule would miss.
        let f = |x: f64| norm_pdf((x - 0.3) / 1e-3) / 1e-3;
        let got = adaptive_simpson(f, 0.0, 1.0, 1e-10);
        assert!((got - 1.0).abs() < 1e-7, "got {got}");
    }

    #[test]
    fn real_line_moments_of_normal() {
        let mean = integrate_real_line(|x| x * norm_pdf((x - 2.0) / 0.5) / 0.5, 1e-11);
        assert!((mean - 2.0).abs() < 1e-7);
        let var = integrate_real_line(
            |x| (x - 2.0) * (x - 2.0) * norm_pdf((x - 2.0) / 0.5) / 0.5,
            1e-11,
        );
        assert!((var - 0.25).abs() < 1e-7);
    }

    #[test]
    fn gl32_rule_is_ascending_and_matches_gauss_legendre_32() {
        let r = gl32();
        assert!(r.nodes.windows(2).all(|p| p[0] < p[1]));
        assert!((r.weights.iter().sum::<f64>() - 2.0).abs() < 1e-14);
        let f = |x: f64| (3.0 * x).cos();
        let full: f64 = r.nodes.iter().zip(&r.weights).map(|(x, w)| w * f(*x)).sum();
        assert!((full - gauss_legendre_32(f, -1.0, 1.0)).abs() < 1e-15);
    }

    #[test]
    fn spectral_integration_matches_the_antiderivative() {
        let r = gl32();
        let check = |f: &dyn Fn(f64) -> f64, anti: &dyn Fn(f64) -> f64, tol: f64| {
            for (i, &x) in r.nodes.iter().enumerate() {
                let got: f64 = (0..32).map(|j| r.cumulative[j][i] * f(r.nodes[j])).sum();
                let want = anti(x) - anti(-1.0);
                assert!((got - want).abs() < tol, "node {i}: {got} vs {want}");
            }
        };
        // Exact through degree 31.
        check(
            &|x| 31.0 * x.powi(30) - 4.0 * x,
            &|x| x.powi(31) - 2.0 * x * x,
            1e-12,
        );
        // Spectral for a smooth density: a Gaussian whose ±10σ span covers
        // five panels, the narrowest the statistical max integrates this way.
        let s = 0.5;
        check(
            &|x| norm_pdf((x - 0.2) / s) / s,
            &|x| crate::special::norm_cdf((x - 0.2) / s),
            2e-15,
        );
    }

    #[test]
    fn legendre_tail_flags_unresolved_samples() {
        let r = gl32();
        let tail = |f: &dyn Fn(f64) -> f64| -> f64 {
            r.legendre_tail
                .iter()
                .map(|row| {
                    row.iter()
                        .zip(&r.nodes)
                        .map(|(c, &x)| c * f(x))
                        .sum::<f64>()
                        .abs()
                })
                .sum()
        };
        // Degree ≤ 29: no tail. P₃₁ itself: coefficient 1.
        assert!(tail(&|x| x.powi(29) - x) < 1e-14);
        let p31 = |x: f64| {
            let (mut p0, mut p1) = (1.0, x);
            for n in 1..31 {
                let nf = n as f64;
                (p0, p1) = (p1, ((2.0 * nf + 1.0) * x * p1 - nf * p0) / (nf + 1.0));
            }
            p1
        };
        assert!((tail(&p31) - 1.0).abs() < 1e-12);
        // A smooth bump is resolved, a step edge is not.
        assert!(tail(&|x| norm_pdf(x / 0.5)) < 1e-15);
        assert!(tail(&|x| if x > 0.1 { 1.0 } else { 0.0 }) > 1e-3);
    }

    #[test]
    fn reversed_interval_is_negated() {
        let a = gauss_legendre_32(|x| x, 0.0, 1.0);
        let b = gauss_legendre_32(|x| x, 1.0, 0.0);
        assert!((a + b).abs() < 1e-15);
    }
}
