//! [`TimingDist`]: a stage/arc delay under any model family, with the
//! block-based `sum` and `max` operators.
//!
//! `max` takes one of two exact-moment routes per family:
//!
//! - `Normal` and `Norm2` component pairs use Clark's closed form at ρ = 0
//!   ([`clark_max_correlated`]), exact for independent Gaussians; `Norm2`
//!   keeps only each pair's weight, mean and variance.
//! - `LVF`, `LESN` (one component each) and `LVF2` (2×2 component pairs)
//!   go through one [`max_moments`] call per operator: a shared quadrature
//!   grid with spectrally integrated CDFs (see [`crate::ops`]).

use lvf2_fit::{fit_lesn_moments, FitConfig};
use lvf2_stats::moments::FourMoments;
use lvf2_stats::{Distribution, Lesn, Lvf2, Moments, Norm2, Normal, SkewNormal, StatsError};
use rand::Rng;

use crate::error::SstaError;
use crate::ops::{clark_max_correlated, max_moments};
use crate::reduce::{reduce_components, MomentComponent, ReductionStrategy};

/// A timing distribution tagged with its model family.
///
/// All four families the paper compares are supported, plus a plain
/// Gaussian. `sum` and `max` stay within the family (as an SSTA engine
/// would), returning [`SstaError::FamilyMismatch`] otherwise.
///
/// # Example
///
/// ```
/// use lvf2_ssta::TimingDist;
/// use lvf2_stats::{Distribution, Moments, SkewNormal};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let stage = TimingDist::Lvf(SkewNormal::from_moments(Moments::new(0.1, 0.01, 0.4))?);
/// let two = stage.sum(&stage)?;
/// assert!((two.mean() - 0.2).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum TimingDist {
    /// Single skew-normal (the LVF industry standard).
    Lvf(SkewNormal),
    /// Two-Gaussian mixture (ref \[10\]).
    Norm2(Norm2),
    /// Two-skew-normal mixture (the paper's model).
    Lvf2(Lvf2),
    /// Log-extended-skew-normal (ref \[7\]).
    Lesn(Lesn),
    /// Plain Gaussian (pre-LVF baseline).
    Normal(Normal),
}

impl TimingDist {
    /// The family name, for diagnostics.
    pub fn family(&self) -> &'static str {
        match self {
            TimingDist::Lvf(_) => "LVF",
            TimingDist::Norm2(_) => "Norm2",
            TimingDist::Lvf2(_) => "LVF2",
            TimingDist::Lesn(_) => "LESN",
            TimingDist::Normal(_) => "Normal",
        }
    }

    /// Statistical sum of two independent stage delays, staying in-family.
    ///
    /// - `Normal`: exact.
    /// - `LVF`: first three central moments are additive; refit the SN.
    /// - `LESN`: all four cumulants are additive; refit by moment matching.
    /// - `Norm2`/`LVF2`: the pairwise component sums form a 4-component
    ///   mixture (component sums matched within the component family), then
    ///   [`reduce`](crate::reduce) collapses back to 2 components.
    ///
    /// # Errors
    ///
    /// [`SstaError::FamilyMismatch`] for cross-family sums; fit/validation
    /// errors if the propagated moments are degenerate.
    pub fn sum(&self, other: &TimingDist) -> Result<TimingDist, SstaError> {
        self.sum_with(other, ReductionStrategy::default())
    }

    /// [`sum`](Self::sum) with an explicit mixture-reduction strategy: the
    /// one route to [`ReductionStrategy::TopKByWeight`], which only the
    /// reduction ablation uses. The graph engines and [`max`](Self::max)
    /// always reduce moment-preservingly.
    ///
    /// # Errors
    ///
    /// Same contract as [`sum`](Self::sum).
    pub fn sum_with(
        &self,
        other: &TimingDist,
        strategy: ReductionStrategy,
    ) -> Result<TimingDist, SstaError> {
        match (self, other) {
            (TimingDist::Normal(a), TimingDist::Normal(b)) => Ok(TimingDist::Normal(Normal::new(
                a.mean() + b.mean(),
                (a.variance() + b.variance()).sqrt(),
            )?)),
            (TimingDist::Lvf(a), TimingDist::Lvf(b)) => {
                let c = sum_component(&sn_component(a, 1.0), &sn_component(b, 1.0));
                Ok(TimingDist::Lvf(component_to_sn(&c)?))
            }
            (TimingDist::Lesn(a), TimingDist::Lesn(b)) => {
                let m = add_four_moments(&a.four_moments(), &b.four_moments());
                let fitted = fit_lesn_moments(m, None, &lesn_config())?;
                Ok(TimingDist::Lesn(fitted.model))
            }
            (TimingDist::Norm2(a), TimingDist::Norm2(b)) => {
                let comps = pairwise_sums(&norm2_components(a), &norm2_components(b));
                let red = reduce_components(comps, 2, strategy);
                Ok(TimingDist::Norm2(components_to_norm2(&red)?))
            }
            (TimingDist::Lvf2(a), TimingDist::Lvf2(b)) => {
                let comps = pairwise_sums(&lvf2_components(a), &lvf2_components(b));
                let red = reduce_components(comps, 2, strategy);
                Ok(TimingDist::Lvf2(components_to_lvf2(&red)?))
            }
            _ => Err(SstaError::FamilyMismatch {
                left: self.family(),
                right: other.family(),
            }),
        }
    }

    /// Statistical max of two independent arrivals, staying in-family.
    ///
    /// Moments of `max(X, Y)` are exact (Clark's closed form for Gaussian
    /// components, quadrature for the skewed families; see the module docs)
    /// and are matched back into the family. The mixture families do this
    /// componentwise and reduce: Clark's approach upgraded with component
    /// skewness (ref \[3\]'s concern).
    ///
    /// # Errors
    ///
    /// [`SstaError::FamilyMismatch`] for cross-family maxes, plus fit errors.
    pub fn max(&self, other: &TimingDist) -> Result<TimingDist, SstaError> {
        match (self, other) {
            (TimingDist::Normal(a), TimingDist::Normal(b)) => {
                let c = clark_component(a, b, 1.0);
                Ok(TimingDist::Normal(Normal::new(c.mean, c.var.sqrt())?))
            }
            (TimingDist::Lvf(a), TimingDist::Lvf(b)) => {
                let [[(mean, var, m3, _)]] = max_moments([a], [b]);
                Ok(TimingDist::Lvf(component_to_sn(&MomentComponent {
                    w: 1.0,
                    mean,
                    var,
                    m3,
                })?))
            }
            (TimingDist::Lesn(a), TimingDist::Lesn(b)) => {
                let [[(mean, var, m3, m4)]] = max_moments([a], [b]);
                let sd = var.sqrt();
                let m = FourMoments::new(mean, sd, m3 / (var * sd), m4 / (var * var) - 3.0);
                let fitted = fit_lesn_moments(m, None, &lesn_config())?;
                Ok(TimingDist::Lesn(fitted.model))
            }
            (TimingDist::Norm2(a), TimingDist::Norm2(b)) => {
                let comps = norm2_max_components(a, b);
                let red = reduce_components(comps, 2, ReductionStrategy::default());
                Ok(TimingDist::Norm2(components_to_norm2(&red)?))
            }
            (TimingDist::Lvf2(a), TimingDist::Lvf2(b)) => {
                let comps = lvf2_max_components(a, b);
                let red = reduce_components(comps, 2, ReductionStrategy::default());
                Ok(TimingDist::Lvf2(components_to_lvf2(&red)?))
            }
            _ => Err(SstaError::FamilyMismatch {
                left: self.family(),
                right: other.family(),
            }),
        }
    }
}

impl Distribution for TimingDist {
    fn pdf(&self, x: f64) -> f64 {
        match self {
            TimingDist::Lvf(d) => d.pdf(x),
            TimingDist::Norm2(d) => d.pdf(x),
            TimingDist::Lvf2(d) => d.pdf(x),
            TimingDist::Lesn(d) => d.pdf(x),
            TimingDist::Normal(d) => d.pdf(x),
        }
    }

    fn cdf(&self, x: f64) -> f64 {
        match self {
            TimingDist::Lvf(d) => d.cdf(x),
            TimingDist::Norm2(d) => d.cdf(x),
            TimingDist::Lvf2(d) => d.cdf(x),
            TimingDist::Lesn(d) => d.cdf(x),
            TimingDist::Normal(d) => d.cdf(x),
        }
    }

    fn ln_pdf(&self, x: f64) -> f64 {
        match self {
            TimingDist::Lvf(d) => d.ln_pdf(x),
            TimingDist::Norm2(d) => d.ln_pdf(x),
            TimingDist::Lvf2(d) => d.ln_pdf(x),
            TimingDist::Lesn(d) => d.ln_pdf(x),
            TimingDist::Normal(d) => d.ln_pdf(x),
        }
    }

    // Batched evaluation dispatches the enum once per *slice*, so numeric
    // reductions over a quadrature grid hit the inner family's chunked
    // kernels instead of re-matching per point. Results stay bit-identical
    // to the scalar methods above (the kernels' contract).

    fn pdf_batch(&self, xs: &[f64], out: &mut [f64]) {
        match self {
            TimingDist::Lvf(d) => d.pdf_batch(xs, out),
            TimingDist::Norm2(d) => d.pdf_batch(xs, out),
            TimingDist::Lvf2(d) => d.pdf_batch(xs, out),
            TimingDist::Lesn(d) => d.pdf_batch(xs, out),
            TimingDist::Normal(d) => d.pdf_batch(xs, out),
        }
    }

    fn ln_pdf_batch(&self, xs: &[f64], out: &mut [f64]) {
        match self {
            TimingDist::Lvf(d) => d.ln_pdf_batch(xs, out),
            TimingDist::Norm2(d) => d.ln_pdf_batch(xs, out),
            TimingDist::Lvf2(d) => d.ln_pdf_batch(xs, out),
            TimingDist::Lesn(d) => d.ln_pdf_batch(xs, out),
            TimingDist::Normal(d) => d.ln_pdf_batch(xs, out),
        }
    }

    fn cdf_batch(&self, xs: &[f64], out: &mut [f64]) {
        match self {
            TimingDist::Lvf(d) => d.cdf_batch(xs, out),
            TimingDist::Norm2(d) => d.cdf_batch(xs, out),
            TimingDist::Lvf2(d) => d.cdf_batch(xs, out),
            TimingDist::Lesn(d) => d.cdf_batch(xs, out),
            TimingDist::Normal(d) => d.cdf_batch(xs, out),
        }
    }

    fn mean(&self) -> f64 {
        match self {
            TimingDist::Lvf(d) => d.mean(),
            TimingDist::Norm2(d) => d.mean(),
            TimingDist::Lvf2(d) => d.mean(),
            TimingDist::Lesn(d) => d.mean(),
            TimingDist::Normal(d) => d.mean(),
        }
    }

    fn variance(&self) -> f64 {
        match self {
            TimingDist::Lvf(d) => d.variance(),
            TimingDist::Norm2(d) => d.variance(),
            TimingDist::Lvf2(d) => d.variance(),
            TimingDist::Lesn(d) => d.variance(),
            TimingDist::Normal(d) => d.variance(),
        }
    }

    fn skewness(&self) -> f64 {
        match self {
            TimingDist::Lvf(d) => d.skewness(),
            TimingDist::Norm2(d) => d.skewness(),
            TimingDist::Lvf2(d) => d.skewness(),
            TimingDist::Lesn(d) => d.skewness(),
            TimingDist::Normal(d) => d.skewness(),
        }
    }

    fn excess_kurtosis(&self) -> f64 {
        match self {
            TimingDist::Lvf(d) => d.excess_kurtosis(),
            TimingDist::Norm2(d) => d.excess_kurtosis(),
            TimingDist::Lvf2(d) => d.excess_kurtosis(),
            TimingDist::Lesn(d) => d.excess_kurtosis(),
            TimingDist::Normal(d) => d.excess_kurtosis(),
        }
    }

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match self {
            TimingDist::Lvf(d) => d.sample(rng),
            TimingDist::Norm2(d) => d.sample(rng),
            TimingDist::Lvf2(d) => d.sample(rng),
            TimingDist::Lesn(d) => d.sample(rng),
            TimingDist::Normal(d) => d.sample(rng),
        }
    }
}

/// Fit configuration for in-propagation LESN refits: the objective is
/// closed-form moments, so a generous budget is still cheap.
fn lesn_config() -> FitConfig {
    FitConfig::default().with_inner_evals(300)
}

fn sn_component(sn: &SkewNormal, w: f64) -> MomentComponent {
    let var = sn.variance();
    MomentComponent {
        w,
        mean: sn.mean(),
        var,
        m3: sn.skewness() * var.powf(1.5),
    }
}

fn normal_component(n: &Normal, w: f64) -> MomentComponent {
    MomentComponent {
        w,
        mean: n.mean(),
        var: n.variance(),
        m3: 0.0,
    }
}

fn sum_component(a: &MomentComponent, b: &MomentComponent) -> MomentComponent {
    MomentComponent {
        w: a.w * b.w,
        mean: a.mean + b.mean,
        var: a.var + b.var,
        m3: a.m3 + b.m3,
    }
}

fn add_four_moments(a: &FourMoments, b: &FourMoments) -> FourMoments {
    // Cumulants κ1..κ4 are additive for independent variables.
    let k2 = a.sigma * a.sigma + b.sigma * b.sigma;
    let k3 = a.skewness * a.sigma.powi(3) + b.skewness * b.sigma.powi(3);
    let k4 = a.excess_kurtosis * a.sigma.powi(4) + b.excess_kurtosis * b.sigma.powi(4);
    FourMoments::new(
        a.mean + b.mean,
        k2.sqrt(),
        k3 / k2.powf(1.5),
        k4 / (k2 * k2),
    )
}

fn norm2_components(m: &Norm2) -> [MomentComponent; 2] {
    [
        normal_component(m.first(), 1.0 - m.lambda()),
        normal_component(m.second(), m.lambda()),
    ]
}

fn lvf2_components(m: &Lvf2) -> [MomentComponent; 2] {
    [
        sn_component(m.first(), 1.0 - m.lambda()),
        sn_component(m.second(), m.lambda()),
    ]
}

fn pairwise_sums(a: &[MomentComponent; 2], b: &[MomentComponent; 2]) -> Vec<MomentComponent> {
    let mut out = Vec::with_capacity(4);
    for ca in a {
        for cb in b {
            out.push(sum_component(ca, cb));
        }
    }
    out
}

/// `max` of two independent Gaussians by Clark's formula at ρ = 0 (exact
/// mean and variance). The third moment is left at zero: every consumer of
/// a Gaussian-family max reads only weight, mean and variance.
fn clark_component(a: &Normal, b: &Normal, w: f64) -> MomentComponent {
    let (mean, var) = clark_max_correlated(a.mean(), a.std_dev(), b.mean(), b.std_dev(), 0.0);
    MomentComponent {
        w,
        mean,
        var,
        m3: 0.0,
    }
}

fn norm2_max_components(a: &Norm2, b: &Norm2) -> Vec<MomentComponent> {
    let ca = [(1.0 - a.lambda(), a.first()), (a.lambda(), a.second())];
    let cb = [(1.0 - b.lambda(), b.first()), (b.lambda(), b.second())];
    let mut out = Vec::with_capacity(4);
    for (wa, da) in ca {
        for (wb, db) in cb {
            out.push(clark_component(da, db, wa * wb));
        }
    }
    out
}

/// The four component-pair maxes of two LVF² mixtures, from one
/// [`max_moments`] call.
fn lvf2_max_components(a: &Lvf2, b: &Lvf2) -> Vec<MomentComponent> {
    let wa = [1.0 - a.lambda(), a.lambda()];
    let wb = [1.0 - b.lambda(), b.lambda()];
    let moments = max_moments([a.first(), a.second()], [b.first(), b.second()]);
    let mut out = Vec::with_capacity(4);
    for (row, wa) in moments.iter().zip(wa) {
        for (&(mean, var, m3, _), wb) in row.iter().zip(wb) {
            out.push(MomentComponent {
                w: wa * wb,
                mean,
                var,
                m3,
            });
        }
    }
    out
}

fn component_to_sn(c: &MomentComponent) -> Result<SkewNormal, SstaError> {
    let sd = c.var.sqrt();
    let skew = if c.var > 0.0 {
        c.m3 / (c.var * sd)
    } else {
        0.0
    };
    Ok(SkewNormal::from_moments_clamped(Moments::new(
        c.mean, sd, skew,
    ))?)
}

/// The two reduced components in ascending mean order. A non-finite mean
/// (the moments of an overflowed sum or max) is an error: it has no order.
fn by_mean(comps: &[MomentComponent]) -> Result<[&MomentComponent; 2], SstaError> {
    let [a, b] = comps else {
        unreachable!("mixtures reduce to two components")
    };
    for c in [a, b] {
        if !c.mean.is_finite() {
            return Err(StatsError::NonFinite {
                name: "component mean",
                value: c.mean,
            }
            .into());
        }
    }
    Ok(if b.mean < a.mean { [b, a] } else { [a, b] })
}

fn components_to_norm2(comps: &[MomentComponent]) -> Result<Norm2, SstaError> {
    let comps = by_mean(comps)?;
    let total = comps[0].w + comps[1].w;
    let first = Normal::new(comps[0].mean, comps[0].var.sqrt())?;
    let second = Normal::new(comps[1].mean, comps[1].var.sqrt())?;
    Ok(Norm2::new(comps[1].w / total, first, second)?)
}

fn components_to_lvf2(comps: &[MomentComponent]) -> Result<Lvf2, SstaError> {
    let comps = by_mean(comps)?;
    let total = comps[0].w + comps[1].w;
    let first = component_to_sn(comps[0])?;
    let second = component_to_sn(comps[1])?;
    Ok(Lvf2::new(comps[1].w / total, first, second)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn lvf2_stage() -> Lvf2 {
        Lvf2::new(
            0.4,
            SkewNormal::from_moments(Moments::new(0.10, 0.008, 0.5)).unwrap(),
            SkewNormal::from_moments(Moments::new(0.13, 0.010, -0.2)).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn normal_sum_is_exact() {
        let a = TimingDist::Normal(Normal::new(1.0, 0.3).unwrap());
        let b = TimingDist::Normal(Normal::new(2.0, 0.4).unwrap());
        let s = a.sum(&b).unwrap();
        assert!((s.mean() - 3.0).abs() < 1e-12);
        assert!((s.variance() - 0.25).abs() < 1e-12);
    }

    /// Operands the constructors accept whose max overflows: the kernel's
    /// moments come back non-finite, and the refit reports that instead of
    /// panicking while it orders the components by mean.
    #[test]
    fn non_finite_max_moments_are_a_typed_error() {
        let non_finite = |r: Result<TimingDist, SstaError>| {
            assert!(
                matches!(r, Err(SstaError::Stats(StatsError::NonFinite { .. }))),
                "{r:?}"
            );
        };
        let lvf2 = |lambda, a, b| TimingDist::Lvf2(Lvf2::new(lambda, a, b).unwrap());
        let big = SkewNormal::new(1e307, 1e306, 1.0).unwrap();
        let bigger = SkewNormal::new(9e306, 1e306, -1.0).unwrap();
        let pair = lvf2(0.5, big, bigger);
        non_finite(pair.max(&pair));
        let tiny = lvf2(0.5, SkewNormal::new(1.0, 1e-310, 1.0).unwrap(), big);
        non_finite(tiny.max(&tiny));
        // Clark's max of two Gaussians ±1e308 apart: ν overflows and the
        // mean is NaN.
        let wide = TimingDist::Norm2(
            Norm2::new(
                0.5,
                Normal::new(-1e308, 1e307).unwrap(),
                Normal::new(1e308, 1e307).unwrap(),
            )
            .unwrap(),
        );
        non_finite(wide.max(&wide));
    }

    #[test]
    fn family_mismatch_is_an_error() {
        let a = TimingDist::Normal(Normal::standard());
        let b = TimingDist::Lvf(SkewNormal::default());
        assert!(matches!(a.sum(&b), Err(SstaError::FamilyMismatch { .. })));
        assert!(matches!(a.max(&b), Err(SstaError::FamilyMismatch { .. })));
    }

    #[test]
    fn lvf_sum_matches_monte_carlo() {
        let a = SkewNormal::from_moments(Moments::new(0.1, 0.01, 0.6)).unwrap();
        let b = SkewNormal::from_moments(Moments::new(0.2, 0.02, -0.4)).unwrap();
        let s = TimingDist::Lvf(a).sum(&TimingDist::Lvf(b)).unwrap();
        assert!((s.mean() - 0.3).abs() < 1e-10);
        assert!((s.variance() - (0.0001 + 0.0004)).abs() < 1e-12);
        // Third central moment is additive.
        let want_m3 = 0.6 * 0.01f64.powi(3) + (-0.4) * 0.02f64.powi(3);
        let got_m3 = s.skewness() * s.variance().powf(1.5);
        assert!((got_m3 - want_m3).abs() < 1e-12);
    }

    #[test]
    fn lvf2_sum_matches_sampled_sum() {
        let stage = lvf2_stage();
        let s = TimingDist::Lvf2(stage)
            .sum(&TimingDist::Lvf2(stage))
            .unwrap();
        // Monte-Carlo reference: sum of independent draws.
        let mut rng = StdRng::seed_from_u64(5);
        let n = 100_000;
        let xs: Vec<f64> = (0..n)
            .map(|_| stage.sample(&mut rng) + stage.sample(&mut rng))
            .collect();
        assert!((s.mean() - lvf2_stats::sample_mean(&xs)).abs() < 5e-4);
        let mc_sd = lvf2_stats::sample_std(&xs);
        assert!((s.std_dev() - mc_sd).abs() / mc_sd < 0.02);
        // CDF agreement at several quantiles.
        let ecdf = lvf2_stats::Ecdf::new(xs).unwrap();
        for &p in &[0.1, 0.5, 0.9] {
            let q = ecdf.quantile(p);
            assert!((s.cdf(q) - p).abs() < 0.02, "p={p}");
        }
    }

    #[test]
    fn lesn_sum_preserves_cumulants() {
        let a = Lesn::from_log_params(-2.0, 0.15, 2.0, -0.5).unwrap();
        let s = TimingDist::Lesn(a).sum(&TimingDist::Lesn(a)).unwrap();
        assert!((s.mean() - 2.0 * a.mean()).abs() / a.mean() < 1e-3);
        assert!((s.variance() - 2.0 * a.variance()).abs() / a.variance() < 0.05);
        // Skewness of a sum of two iid: γ/√2.
        let want = a.skewness() / 2f64.sqrt();
        assert!(
            (s.skewness() - want).abs() < 0.08,
            "{} vs {want}",
            s.skewness()
        );
    }

    #[test]
    fn norm2_sum_reduces_to_two_components() {
        let m = Norm2::new(
            0.5,
            Normal::new(1.0, 0.05).unwrap(),
            Normal::new(1.5, 0.08).unwrap(),
        )
        .unwrap();
        let s = TimingDist::Norm2(m).sum(&TimingDist::Norm2(m)).unwrap();
        let TimingDist::Norm2(sum) = &s else {
            panic!("family changed")
        };
        // Mean/variance preserved exactly by moment-preserving reduction.
        assert!((sum.mean() - 2.0 * m.mean()).abs() < 1e-10);
        assert!((sum.variance() - 2.0 * m.variance()).abs() < 1e-10);
    }

    #[test]
    fn lvf_max_shifts_right_of_both() {
        let a = TimingDist::Lvf(SkewNormal::from_moments(Moments::new(0.1, 0.01, 0.3)).unwrap());
        let m = a.max(&a).unwrap();
        assert!(m.mean() > 0.1);
        assert!(m.variance() < 0.0001); // max of iid has smaller variance
    }

    #[test]
    fn lvf2_max_matches_monte_carlo() {
        let stage = lvf2_stage();
        let m = TimingDist::Lvf2(stage)
            .max(&TimingDist::Lvf2(stage))
            .unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let xs: Vec<f64> = (0..100_000)
            .map(|_| stage.sample(&mut rng).max(stage.sample(&mut rng)))
            .collect();
        assert!((m.mean() - lvf2_stats::sample_mean(&xs)).abs() < 1e-3);
        let mc_sd = lvf2_stats::sample_std(&xs);
        assert!((m.std_dev() - mc_sd).abs() / mc_sd < 0.05);
    }

    #[test]
    fn sum_with_truncation_strategy_also_works() {
        let stage = lvf2_stage();
        let s = TimingDist::Lvf2(stage)
            .sum_with(&TimingDist::Lvf2(stage), ReductionStrategy::TopKByWeight)
            .unwrap();
        assert!(s.mean().is_finite());
    }
}

impl TimingDist {
    /// The distribution of `−X`. Gaussian-domain families are closed under
    /// negation (a skew-normal flips its location and shape signs); the
    /// log-domain LESN is not (its support would become negative).
    ///
    /// # Errors
    ///
    /// [`SstaError::FamilyMismatch`] for `Lesn` (no negative-support LESN).
    pub fn negate(&self) -> Result<TimingDist, SstaError> {
        match self {
            TimingDist::Normal(d) => Ok(TimingDist::Normal(Normal::new(-d.mean(), d.std_dev())?)),
            TimingDist::Lvf(d) => Ok(TimingDist::Lvf(SkewNormal::new(
                -d.xi(),
                d.omega(),
                -d.alpha(),
            )?)),
            TimingDist::Norm2(d) => {
                // Negate components; re-order so the first has the smaller mean.
                let a = Normal::new(-d.second().mean(), d.second().std_dev())?;
                let b = Normal::new(-d.first().mean(), d.first().std_dev())?;
                Ok(TimingDist::Norm2(Norm2::new(1.0 - d.lambda(), a, b)?))
            }
            TimingDist::Lvf2(d) => {
                let neg = |sn: &SkewNormal| SkewNormal::new(-sn.xi(), sn.omega(), -sn.alpha());
                let a = neg(d.second())?;
                let b = neg(d.first())?;
                Ok(TimingDist::Lvf2(Lvf2::new(1.0 - d.lambda(), a, b)?))
            }
            TimingDist::Lesn(_) => Err(SstaError::FamilyMismatch {
                left: "LESN",
                right: "negation",
            }),
        }
    }

    /// The distribution of `X − Y` for independent operands (used by
    /// statistical slack: `slack = required − arrival`).
    ///
    /// # Errors
    ///
    /// Propagates [`negate`](Self::negate) and [`sum`](Self::sum) errors.
    pub fn sub(&self, other: &TimingDist) -> Result<TimingDist, SstaError> {
        self.sum(&other.negate()?)
    }

    /// Statistical min of two independent arrivals:
    /// `min(X, Y) = −max(−X, −Y)`.
    ///
    /// # Errors
    ///
    /// Propagates [`negate`](Self::negate) and [`max`](Self::max) errors.
    pub fn min(&self, other: &TimingDist) -> Result<TimingDist, SstaError> {
        self.negate()?.max(&other.negate()?)?.negate()
    }

    /// A (numerically) deterministic value as a distribution in this family —
    /// the representation of a clock-edge constraint.
    ///
    /// # Errors
    ///
    /// Construction errors only (never for finite `value`).
    pub fn constant_like(&self, value: f64) -> Result<TimingDist, SstaError> {
        const EPS: f64 = 1e-9;
        Ok(match self {
            TimingDist::Normal(_) => TimingDist::Normal(Normal::new(value, EPS)?),
            TimingDist::Lvf(_) => TimingDist::Lvf(SkewNormal::new(value, EPS, 0.0)?),
            TimingDist::Norm2(_) => {
                let n = Normal::new(value, EPS)?;
                TimingDist::Norm2(Norm2::new(0.0, n, n)?)
            }
            TimingDist::Lvf2(_) => {
                let sn = SkewNormal::new(value, EPS, 0.0)?;
                TimingDist::Lvf2(Lvf2::from_lvf(sn))
            }
            TimingDist::Lesn(_) => {
                return Err(SstaError::FamilyMismatch {
                    left: "LESN",
                    right: "constant",
                })
            }
        })
    }
}

#[cfg(test)]
mod negate_tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn negation_mirrors_the_distribution() {
        let sn = SkewNormal::from_moments(Moments::new(0.2, 0.03, 0.6)).unwrap();
        let d = TimingDist::Lvf(sn);
        let n = d.negate().unwrap();
        assert!((n.mean() + d.mean()).abs() < 1e-12);
        assert!((n.variance() - d.variance()).abs() < 1e-15);
        assert!((n.skewness() + d.skewness()).abs() < 1e-12);
        for &x in &[0.15, 0.2, 0.25] {
            assert!((n.cdf(-x) - (1.0 - d.cdf(x))).abs() < 1e-9, "x={x}");
        }
        // Double negation is the identity.
        let back = n.negate().unwrap();
        assert!((back.mean() - d.mean()).abs() < 1e-12);
    }

    #[test]
    fn lvf2_negation_swaps_and_mirrors_components() {
        let m = Lvf2::new(
            0.3,
            SkewNormal::from_moments(Moments::new(0.1, 0.01, 0.4)).unwrap(),
            SkewNormal::from_moments(Moments::new(0.14, 0.012, -0.2)).unwrap(),
        )
        .unwrap();
        let d = TimingDist::Lvf2(m);
        let n = d.negate().unwrap();
        assert!((n.mean() + m.mean()).abs() < 1e-12);
        assert!((n.skewness() + m.skewness()).abs() < 1e-10);
    }

    #[test]
    fn lesn_cannot_be_negated() {
        let d = TimingDist::Lesn(Lesn::from_log_params(-2.0, 0.1, 1.0, 0.0).unwrap());
        assert!(d.negate().is_err());
        assert!(d.constant_like(1.0).is_err());
    }

    #[test]
    fn sub_gives_slack_like_distributions() {
        let arrival =
            TimingDist::Lvf(SkewNormal::from_moments(Moments::new(0.5, 0.05, 0.3)).unwrap());
        let required = arrival.constant_like(0.6).unwrap();
        let slack = required.sub(&arrival).unwrap();
        assert!((slack.mean() - 0.1).abs() < 1e-6);
        // P(slack < 0) = P(arrival > 0.6).
        let p_viol = slack.cdf(0.0);
        let want = 1.0 - arrival.cdf(0.6);
        assert!((p_viol - want).abs() < 1e-6, "{p_viol} vs {want}");
    }

    #[test]
    fn min_matches_monte_carlo() {
        let a = TimingDist::Lvf(SkewNormal::from_moments(Moments::new(0.5, 0.05, 0.4)).unwrap());
        let b = TimingDist::Lvf(SkewNormal::from_moments(Moments::new(0.55, 0.04, -0.3)).unwrap());
        let m = a.min(&b).unwrap();
        let mut rng = StdRng::seed_from_u64(66);
        let xs: Vec<f64> = (0..200_000)
            .map(|_| a.sample(&mut rng).min(b.sample(&mut rng)))
            .collect();
        let mc_mean = lvf2_stats::sample_mean(&xs);
        assert!(
            (m.mean() - mc_mean).abs() < 1e-3,
            "mean {} vs MC {mc_mean}",
            m.mean()
        );
        assert!(m.mean() < a.mean() && m.mean() < b.mean());
    }
}
