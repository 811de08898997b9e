//! Moments of the statistical `max` operator.
//!
//! For independent X, Y the maximum has CDF `F_X·F_Y`, hence density
//! `f_X·F_Y + F_X·f_Y`. [`max_moments`] returns the first four central
//! moments of `max(Aᵢ, Bⱼ)` for every pair of components of two operands
//! (1×1 for LVF and LESN, 2×2 for LVF²); the caller matches them back into
//! the model family, componentwise for mixtures — the skewness-aware
//! analogue of Clark's max. One call is one operator:
//!
//! - a pair whose ±10σ ranges do not overlap is *dominated* and returns the
//!   larger component's exact moments;
//! - the remaining pairs share one 48-panel Gauss–Legendre (GL32) grid over
//!   the union of their ranges;
//! - each live component's pdf is evaluated once on that grid, and its CDF
//!   on the same nodes is the running integral of that pdf — the spectral
//!   integration matrix of [`gl32`], seeded by one exact `cdf` at the grid's
//!   left end — so no skew-normal CDF (Owen's T) is evaluated per node;
//! - a panel on which some component's pdf is not resolved by its degree-31
//!   interpolant (the two highest Legendre coefficients are not negligible:
//!   the near-vertical edge of a skew-normal at the skewness limit) is
//!   bisected until it is, or, at the bisection limit, takes exact
//!   `cdf_batch` values for that component and re-anchors its running CDF;
//! - a component whose ±10σ range spans fewer than five panels has that
//!   range cut into panels of its own, so a near-delta operand (a clock
//!   edge, the virtual source) is resolved rather than missed.
//!
//! The moments are accumulated panel by panel, about the grid's midpoint, so
//! the scratch is a few 32-node arrays per component. Gaussian operands need
//! none of this: [`clark_max_correlated`] at `ρ = 0` is exact for them.

use lvf2_stats::quad::{gl32, Gl32};
use lvf2_stats::Distribution;

/// `(mean, variance, third central, fourth central)` moments.
pub type CentralMoments = (f64, f64, f64, f64);

/// Half-width, in standard deviations, of a component's integration range.
const SPAN_SIGMAS: f64 = 10.0;
/// Uniform panels over the union of the live pairs' ranges.
const PANELS: usize = 48;
/// A component whose range spans fewer uniform panels gets panels of its
/// own. At five panels (σ = h/4) a Gaussian's spectral CDF is exact to a few
/// ulps; at 1.5 panels it is off by ~1e-6.
const NARROW_SPAN_PANELS: f64 = 5.0;
/// Panels a narrow component's own range is cut into (σ = 5/4 of each).
const NARROW_PANELS: usize = 4;
/// Largest `hw·(|c₃₀| + |c₃₁|)` — the CDF error scale of truncating the
/// pdf's Legendre series on a panel — at which the panel is resolved.
const UNRESOLVED: f64 = 1e-13;
/// Times an unresolved panel is halved before its unresolved components
/// fall back to exact CDFs (the panel is then `h/4096` wide).
const MAX_BISECTIONS: u32 = 12;

/// Central moments of `max(Aᵢ, Bⱼ)` for independent `Aᵢ ~ a[i]`,
/// `Bⱼ ~ b[j]`, for every pair `(i, j)`.
///
/// Accuracy: against an exact-CDF quadrature on the same range the mean is
/// within ~1e-12 σ and the variance within ~1e-10 relative (the moments are
/// truncated to the ±10σ ranges, as every grid in this crate is).
///
/// # Example
///
/// ```
/// use lvf2_ssta::ops::max_moments;
/// use lvf2_stats::SkewNormal;
///
/// // iid N(0, 1) (a skew-normal with α = 0): E[max] = 1/√π.
/// let n = SkewNormal::new(0.0, 1.0, 0.0).unwrap();
/// let [[(mean, var, _, _)]] = max_moments([&n], [&n]);
/// assert!((mean - 1.0 / std::f64::consts::PI.sqrt()).abs() < 1e-12);
/// assert!((var - (1.0 - 1.0 / std::f64::consts::PI)).abs() < 1e-12);
/// ```
///
/// Runs the AVX2 build of the panel loop when the host has AVX2
/// ([`lvf2_stats::kernels::avx2_enabled`]), else the portable build; both
/// compile the same source with no FMA and no reassociation, so they
/// return the same bits.
pub fn max_moments<D: Distribution, const NA: usize, const NB: usize>(
    a: [&D; NA],
    b: [&D; NB],
) -> [[CentralMoments; NB]; NA] {
    #[cfg(target_arch = "x86_64")]
    if lvf2_stats::kernels::avx2_enabled() {
        // SAFETY: the host supports AVX2 (checked just above), the only
        // target feature `max_moments_avx2` enables.
        return unsafe { max_moments_avx2(a, b) };
    }
    max_moments_body(a, b)
}

/// The AVX2 build of [`max_moments`]' body.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn max_moments_avx2<D: Distribution, const NA: usize, const NB: usize>(
    a: [&D; NA],
    b: [&D; NB],
) -> [[CentralMoments; NB]; NA] {
    max_moments_body(a, b)
}

/// The one body of both builds of [`max_moments`]. Everything it runs per
/// node — [`Sweep::sample`]'s tail dot products, [`Sweep::integrate`]'s
/// spectral mat-vec and the moment accumulation — is inlined into it, so
/// the AVX2 build vectorizes all of it; the pdf itself is the
/// distribution's `pdf_batch`, which dispatches on its own.
#[inline(always)]
fn max_moments_body<D: Distribution, const NA: usize, const NB: usize>(
    a: [&D; NA],
    b: [&D; NB],
) -> [[CentralMoments; NB]; NA] {
    let ra = a.map(span);
    let rb = b.map(span);
    let mut out = [[(0.0, 0.0, 0.0, 0.0); NB]; NA];
    let mut live = [[false; NB]; NA];
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for i in 0..NA {
        for j in 0..NB {
            if ra[i].0 > rb[j].1 {
                out[i][j] = exact_moments(a[i]);
            } else if rb[j].0 > ra[i].1 {
                out[i][j] = exact_moments(b[j]);
            } else {
                live[i][j] = true;
                lo = lo.min(ra[i].0).min(rb[j].0);
                hi = hi.max(ra[i].1).max(rb[j].1);
            }
        }
    }
    if !(lo < hi) {
        return out; // every pair dominated
    }
    let h = (hi - lo) / PANELS as f64;
    let mut sa: [Sweep; NA] =
        std::array::from_fn(|i| Sweep::new(a[i], live[i].contains(&true), lo));
    let mut sb: [Sweep; NB] =
        std::array::from_fn(|j| Sweep::new(b[j], live.iter().any(|r| r[j]), lo));

    let mut breaks: Vec<f64> = (0..=PANELS).map(|p| lo + p as f64 * h).collect();
    for (s, r) in sa.iter().zip(&ra).chain(sb.iter().zip(&rb)) {
        if s.live && r.1 - r.0 < NARROW_SPAN_PANELS * h {
            let step = (r.1 - r.0) / NARROW_PANELS as f64;
            breaks.extend((0..=NARROW_PANELS).map(|k| r.0 + k as f64 * step));
        }
    }
    breaks.sort_by(f64::total_cmp);
    // Panels still to integrate, leftmost on top: (start, end, bisections).
    let mut todo: Vec<(f64, f64, u32)> = breaks.windows(2).rev().map(|p| (p[0], p[1], 0)).collect();

    let rule = gl32();
    let center = 0.5 * (lo + hi);
    // Raw moments of `max − center`, per pair.
    let mut raw = [[[0.0f64; 4]; NB]; NA];
    while let Some((start, end, depth)) = todo.pop() {
        let hw = 0.5 * (end - start);
        if !(hw > 0.0) {
            continue;
        }
        let c = 0.5 * (end + start);
        let t: [f64; 32] = std::array::from_fn(|k| c + hw * rule.nodes[k]);
        let mut resolved = true;
        for (s, d) in sa.iter_mut().zip(a) {
            resolved &= s.sample(d, &t, hw, rule);
        }
        for (s, d) in sb.iter_mut().zip(b) {
            resolved &= s.sample(d, &t, hw, rule);
        }
        if !resolved && depth < MAX_BISECTIONS {
            todo.push((c, end, depth + 1));
            todo.push((start, c, depth + 1));
            continue;
        }
        for (s, d) in sa.iter_mut().zip(a) {
            s.integrate(d, &t, end, hw, rule);
        }
        for (s, d) in sb.iter_mut().zip(b) {
            s.integrate(d, &t, end, hw, rule);
        }
        for i in 0..NA {
            for j in 0..NB {
                if !live[i][j] {
                    continue;
                }
                let (x, y) = (&sa[i], &sb[j]);
                let m = &mut raw[i][j];
                for (k, (&tk, &w)) in t.iter().zip(&rule.weights).enumerate() {
                    let g = x.pdf[k] * y.cdf[k] + x.cdf[k] * y.pdf[k];
                    let u = tk - center;
                    let wg = w * hw * g;
                    let (u2, wgu) = (u * u, wg * u);
                    m[0] += wgu;
                    m[1] += wgu * u;
                    m[2] += wgu * u2;
                    m[3] += wg * u2 * u2;
                }
            }
        }
    }
    for i in 0..NA {
        for j in 0..NB {
            if live[i][j] {
                let (mean, var, m3, m4) = raw_to_central(raw[i][j]);
                out[i][j] = (center + mean, var, m3, m4);
            }
        }
    }
    out
}

/// A component's integration range, `mean ± 10σ`.
fn span<D: Distribution>(d: &D) -> (f64, f64) {
    let (m, s) = (d.mean(), d.std_dev());
    (m - SPAN_SIGMAS * s, m + SPAN_SIGMAS * s)
}

/// A dominated pair's moments: the larger component's own, in closed form.
fn exact_moments<D: Distribution>(d: &D) -> CentralMoments {
    let var = d.variance();
    (
        d.mean(),
        var,
        d.skewness() * var * var.sqrt(),
        (d.excess_kurtosis() + 3.0) * var * var,
    )
}

/// One component's pdf and CDF on the current panel's nodes.
struct Sweep {
    /// Part of at least one live pair.
    live: bool,
    /// The pdf's degree-31 interpolant on the current panel is accurate.
    resolved: bool,
    /// The CDF at the current panel's left end.
    left: f64,
    pdf: [f64; 32],
    cdf: [f64; 32],
}

impl Sweep {
    fn new<D: Distribution>(d: &D, live: bool, lo: f64) -> Sweep {
        Sweep {
            live,
            resolved: true,
            left: if live { d.cdf(lo) } else { 0.0 },
            pdf: [0.0; 32],
            cdf: [0.0; 32],
        }
    }

    /// Evaluates the pdf at the nodes `t` of a panel of half-width `hw`;
    /// returns whether its interpolant resolves it there.
    #[inline(always)]
    fn sample<D: Distribution>(&mut self, d: &D, t: &[f64; 32], hw: f64, rule: &Gl32) -> bool {
        if !self.live {
            return true;
        }
        d.pdf_batch(t, &mut self.pdf);
        let [c30, c31] = rule.legendre_tail.each_ref().map(|row| dot(row, &self.pdf));
        let tail = c30.abs() + c31.abs();
        // NaN counts as resolved: bisection cannot help a broken pdf.
        self.resolved = !(hw * tail > UNRESOLVED);
        self.resolved
    }

    /// Fills `cdf` at the nodes of the panel just sampled, which ends at
    /// `end`. Resolved: `F(tᵢ) = F(left) + hw·Σⱼ S[i][j]·f(tⱼ)`, and `left`
    /// moves on by the panel's GL32 mass `hw·Σⱼ wⱼ·f(tⱼ)`. Unresolved (at
    /// the bisection limit): exact CDFs, and `left` is re-anchored at `end`.
    #[inline(always)]
    fn integrate<D: Distribution>(&mut self, d: &D, t: &[f64; 32], end: f64, hw: f64, rule: &Gl32) {
        if !self.live {
            return;
        }
        if !self.resolved {
            d.cdf_batch(t, &mut self.cdf);
            self.left = d.cdf(end);
            return;
        }
        let hf: [f64; 32] = std::array::from_fn(|j| hw * self.pdf[j]);
        // All 32 rows at once: 32 independent running sums (eight AVX2
        // registers), each summed over the columns in order.
        let mut acc = [self.left; 32];
        for (col, &f) in rule.cumulative.iter().zip(&hf) {
            for (a, &s) in acc.iter_mut().zip(col) {
                *a += s * f;
            }
        }
        self.cdf = acc;
        self.left += dot(&rule.weights, &hf);
    }
}

/// `Σᵢ aᵢ·bᵢ` in eight interleaved partial sums, not one serial chain.
#[inline(always)]
fn dot(a: &[f64; 32], b: &[f64; 32]) -> f64 {
    let mut acc = [0.0; 8];
    for (x, y) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
        for ((s, x), y) in acc.iter_mut().zip(x).zip(y) {
            *s += x * y;
        }
    }
    acc.iter().sum()
}

/// Converts raw moments to `(mean, variance, third central, fourth central)`.
pub fn raw_to_central(m: [f64; 4]) -> CentralMoments {
    let mu = m[0];
    let var = m[1] - mu * mu;
    let m3 = m[2] - 3.0 * mu * m[1] + 2.0 * mu.powi(3);
    let m4 = m[3] - 4.0 * mu * m[2] + 6.0 * mu * mu * m[1] - 3.0 * mu.powi(4);
    (mu, var, m3, m4)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lvf2_stats::quad::gauss_legendre_32;
    use lvf2_stats::{Normal, SkewNormal};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The exact-CDF reference: central moments of `max(X, Y)` by GL32 with
    /// the operands' own `pdf`/`cdf` at every node, on `panels` uniform
    /// panels of the pair's ±10σ hull plus panels between the `extra` break
    /// points, accumulated about the hull's midpoint. At 48 panels and no
    /// extras it is a fixed per-pair grid of the kernel's own resolution.
    fn exact_cdf_moments<A: Distribution, B: Distribution>(
        a: &A,
        b: &B,
        panels: usize,
        extra: &[f64],
    ) -> CentralMoments {
        let ((la, ha), (lb, hb)) = (span(a), span(b));
        let (lo, hi) = (la.min(lb), ha.max(hb));
        let h = (hi - lo) / panels as f64;
        let mut edges: Vec<f64> = (0..=panels).map(|p| lo + p as f64 * h).collect();
        edges.extend_from_slice(extra);
        edges.sort_by(f64::total_cmp);
        let center = 0.5 * (lo + hi);
        let g = |t: f64| a.pdf(t) * b.cdf(t) + a.cdf(t) * b.pdf(t);
        let mut m = [0.0f64; 4];
        for e in edges.windows(2) {
            for (k, mk) in m.iter_mut().enumerate() {
                *mk += gauss_legendre_32(|t| (t - center).powi(k as i32 + 1) * g(t), e[0], e[1]);
            }
        }
        let (mean, var, m3, m4) = raw_to_central(m);
        (center + mean, var, m3, m4)
    }

    fn close(got: CentralMoments, want: CentralMoments, sd: f64) {
        assert!(
            (got.0 - want.0).abs() < 1e-11 * sd,
            "mean {got:?} vs {want:?}"
        );
        assert!(
            (got.1 - want.1).abs() < 1e-9 * want.1,
            "var {got:?} vs {want:?}"
        );
        assert!(
            (got.2 - want.2).abs() < 1e-8 * sd.powi(3),
            "m3 {got:?} vs {want:?}"
        );
    }

    #[test]
    fn kernel_matches_the_exact_cdf_reference() {
        let s1 = SkewNormal::new(1.0, 0.2, 3.0).unwrap();
        let s2 = SkewNormal::new(1.1, 0.15, -2.0).unwrap();
        let s3 = SkewNormal::new(1.4, 0.3, 0.5).unwrap();
        let got = max_moments([&s1, &s3], [&s2, &s3]);
        for (i, x) in [&s1, &s3].into_iter().enumerate() {
            for (j, y) in [&s2, &s3].into_iter().enumerate() {
                let want = exact_cdf_moments(x, y, PANELS, &[]);
                close(got[i][j], want, want.1.sqrt());
            }
        }
    }

    #[test]
    fn max_of_identical_normals_matches_closed_form() {
        // E[max(X,Y)] = μ + σ/√π for iid N(μ, σ²).
        let n = Normal::new(2.0, 0.5).unwrap();
        let [[(mean, var, _, _)]] = max_moments([&n], [&n]);
        let want_mean = 2.0 + 0.5 / std::f64::consts::PI.sqrt();
        assert!(
            (mean - want_mean).abs() < 1e-12,
            "mean {mean} want {want_mean}"
        );
        // Var(max) = σ²(1 − 1/π) for iid normals.
        let want_var = 0.25 * (1.0 - 1.0 / std::f64::consts::PI);
        assert!((var - want_var).abs() < 1e-12, "var {var} want {want_var}");
    }

    #[test]
    fn dominated_max_is_the_bigger_operand() {
        let a = Normal::new(0.0, 0.1).unwrap();
        let b = Normal::new(10.0, 0.1).unwrap();
        let [[ab]] = max_moments([&a], [&b]);
        let [[ba]] = max_moments([&b], [&a]);
        assert_eq!(ab, (10.0, b.variance(), 0.0, 3.0 * b.variance().powi(2)));
        assert_eq!(ab, ba);
    }

    #[test]
    fn narrow_component_gets_panels_of_its_own() {
        // σ ratio 1:100 — the narrow component spans a fraction of a panel.
        let wide = SkewNormal::new(1.0, 0.2, 2.0).unwrap();
        let narrow = SkewNormal::new(1.1, 0.002, -1.0).unwrap();
        let [[got]] = max_moments([&wide], [&narrow]);
        let (nlo, nhi) = span(&narrow);
        let band: Vec<f64> = (0..=64)
            .map(|p| nlo + p as f64 * (nhi - nlo) / 64.0)
            .collect();
        let want = exact_cdf_moments(&wide, &narrow, 400, &band);
        close(got, want, want.1.sqrt());
    }

    #[test]
    fn skewness_limit_edge_is_bisected() {
        // α ≈ 2027 is where fitted skew-normals clamp: the pdf jumps from 0
        // to its peak within ω/α ≈ 6e-6 of ξ, 1/700 of a grid panel.
        let x = SkewNormal::new(0.0217, 0.00425, 3.26).unwrap();
        let y = SkewNormal::new(0.0184, 0.0123, 2027.0).unwrap();
        let [[got]] = max_moments([&x], [&y]);
        let w = y.omega() / y.alpha();
        let band: Vec<f64> = (-100..=100).map(|k| y.xi() + 2.0 * k as f64 * w).collect();
        let want = exact_cdf_moments(&x, &y, 400, &band);
        let sd = want.1.sqrt();
        close(got, want, sd);
        // The fixed grid of the exact-CDF reference misses the edge.
        let old = exact_cdf_moments(&x, &y, PANELS, &[]);
        assert!((old.0 - want.0).abs() > 1e-7 * sd, "{old:?} vs {want:?}");
    }

    /// The dispatched [`max_moments`] (the AVX2 build on an AVX2 host) and
    /// the portable body agree bit for bit: on a 2×2 live grid, across the
    /// bisected skewness-limit edge, with a narrow component's own panels
    /// and with dominated pairs mixed in.
    #[test]
    fn builds_return_the_same_bits() {
        fn same<const NA: usize, const NB: usize>(a: [&SkewNormal; NA], b: [&SkewNormal; NB]) {
            let bits = |m: [[CentralMoments; NB]; NA]| {
                m.map(|row| row.map(|(x, y, z, w)| [x, y, z, w].map(f64::to_bits)))
            };
            assert_eq!(bits(max_moments(a, b)), bits(max_moments_body(a, b)));
        }
        let s1 = SkewNormal::new(1.0, 0.2, 3.0).unwrap();
        let s2 = SkewNormal::new(1.1, 0.15, -2.0).unwrap();
        let s3 = SkewNormal::new(1.4, 0.3, 0.5).unwrap();
        let far = SkewNormal::new(9.0, 0.1, 1.0).unwrap();
        let edge_x = SkewNormal::new(0.0217, 0.00425, 3.26).unwrap();
        let edge_y = SkewNormal::new(0.0184, 0.0123, 2027.0).unwrap();
        let narrow = SkewNormal::new(1.1, 0.002, -1.0).unwrap();
        same([&s1, &s3], [&s2, &s3]);
        same([&s1, &far], [&s2, &s3]);
        same([&edge_x], [&edge_y]);
        same([&s1], [&narrow]);
    }

    #[test]
    fn max_moments_match_monte_carlo_for_skew_normals() {
        let a = SkewNormal::new(1.0, 0.2, 3.0).unwrap();
        let b = SkewNormal::new(1.1, 0.15, -2.0).unwrap();
        let [[(mean, var, m3, _)]] = max_moments([&a], [&b]);
        let mut rng = StdRng::seed_from_u64(44);
        let n = 200_000;
        let mut xs = Vec::with_capacity(n);
        for _ in 0..n {
            xs.push(a.sample(&mut rng).max(b.sample(&mut rng)));
        }
        let mc_mean = lvf2_stats::sample_mean(&xs);
        let mc_var = lvf2_stats::sample_std(&xs).powi(2);
        let mc_skew = lvf2_stats::sample_skewness(&xs);
        assert!((mean - mc_mean).abs() < 2e-3, "mean {mean} vs {mc_mean}");
        assert!(
            (var - mc_var).abs() / mc_var < 0.02,
            "var {var} vs {mc_var}"
        );
        assert!((m3 / var.powf(1.5) - mc_skew).abs() < 0.05, "skew");
    }
}

/// Clark's closed-form first two moments of `max(X, Y)` for **correlated**
/// Gaussians `X ~ N(μa, σa²)`, `Y ~ N(μb, σb²)`, `corr(X, Y) = ρ`.
///
/// Block-based SSTA assumes independence at reconvergence; this is the
/// classic correction for shared path history (Clark 1961). Returns
/// `(mean, variance)` of the max.
///
/// # Panics
///
/// Panics if `rho` is outside `[-1, 1]` or a σ is not positive.
pub fn clark_max_correlated(
    mu_a: f64,
    sigma_a: f64,
    mu_b: f64,
    sigma_b: f64,
    rho: f64,
) -> (f64, f64) {
    assert!(
        (-1.0..=1.0).contains(&rho),
        "correlation must be in [-1, 1]"
    );
    assert!(sigma_a > 0.0 && sigma_b > 0.0, "sigmas must be positive");
    use lvf2_stats::special::{norm_cdf, norm_pdf};
    let nu2 = sigma_a * sigma_a + sigma_b * sigma_b - 2.0 * rho * sigma_a * sigma_b;
    if nu2 <= 1e-300 {
        // Fully correlated with equal σ: max is whichever mean is larger.
        return if mu_a >= mu_b {
            (mu_a, sigma_a * sigma_a)
        } else {
            (mu_b, sigma_b * sigma_b)
        };
    }
    let nu = nu2.sqrt();
    let alpha = (mu_a - mu_b) / nu;
    let (phi, cap) = (norm_pdf(alpha), norm_cdf(alpha));
    let mean = mu_a * cap + mu_b * (1.0 - cap) + nu * phi;
    let raw2 = (mu_a * mu_a + sigma_a * sigma_a) * cap
        + (mu_b * mu_b + sigma_b * sigma_b) * (1.0 - cap)
        + (mu_a + mu_b) * nu * phi;
    (mean, (raw2 - mean * mean).max(0.0))
}

#[cfg(test)]
mod clark_tests {
    use super::*;
    use lvf2_stats::sampling::standard_normal;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mc_max(mu_a: f64, sa: f64, mu_b: f64, sb: f64, rho: f64, n: usize) -> (f64, f64) {
        let mut rng = StdRng::seed_from_u64(55);
        let mut xs = Vec::with_capacity(n);
        for _ in 0..n {
            let z1 = standard_normal(&mut rng);
            let z2 = rho * z1 + (1.0 - rho * rho).sqrt() * standard_normal(&mut rng);
            xs.push((mu_a + sa * z1).max(mu_b + sb * z2));
        }
        let mean = lvf2_stats::sample_mean(&xs);
        (mean, lvf2_stats::sample_std(&xs).powi(2))
    }

    #[test]
    fn matches_monte_carlo_across_correlations() {
        for &rho in &[-0.8, 0.0, 0.5, 0.9] {
            let (m, v) = clark_max_correlated(1.0, 0.1, 1.05, 0.12, rho);
            let (mm, mv) = mc_max(1.0, 0.1, 1.05, 0.12, rho, 400_000);
            assert!((m - mm).abs() < 1e-3, "ρ={rho}: mean {m} vs MC {mm}");
            assert!((v - mv).abs() / mv < 0.02, "ρ={rho}: var {v} vs MC {mv}");
        }
    }

    #[test]
    fn independent_case_agrees_with_kernel_on_symmetric_skew_normals() {
        // A skew-normal with α = 0 is Gaussian, so Clark is exact for it.
        use lvf2_stats::SkewNormal;
        let a = SkewNormal::new(2.0, 0.5, 0.0).unwrap();
        let b = SkewNormal::new(2.2, 0.4, 0.0).unwrap();
        let [[(mean_k, var_k, _, _)]] = max_moments([&a], [&b]);
        let (mean_c, var_c) = clark_max_correlated(2.0, 0.5, 2.2, 0.4, 0.0);
        assert!((mean_k - mean_c).abs() < 1e-12, "{mean_k} vs {mean_c}");
        assert!((var_k - var_c).abs() < 1e-12, "{var_k} vs {var_c}");
    }

    #[test]
    fn fully_correlated_equal_sigma_picks_the_larger_mean() {
        let (m, v) = clark_max_correlated(1.0, 0.1, 1.3, 0.1, 1.0);
        assert!((m - 1.3).abs() < 1e-12);
        assert!((v - 0.01).abs() < 1e-12);
    }

    #[test]
    fn positive_correlation_shrinks_the_max_shift() {
        // With ρ → 1 the "max bonus" νφ(α) vanishes.
        let (m_ind, _) = clark_max_correlated(1.0, 0.1, 1.0, 0.1, 0.0);
        let (m_cor, _) = clark_max_correlated(1.0, 0.1, 1.0, 0.1, 0.95);
        assert!(m_cor < m_ind, "{m_cor} should be below {m_ind}");
    }

    #[test]
    #[should_panic(expected = "correlation")]
    fn rejects_out_of_range_rho() {
        clark_max_correlated(0.0, 1.0, 0.0, 1.0, 1.5);
    }
}
