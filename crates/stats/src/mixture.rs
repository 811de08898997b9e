//! Finite mixtures: the generic [`Mixture`], the two-Gaussian [`Norm2`]
//! baseline (ref \[10\]) and the paper's two-skew-normal [`Lvf2`] model (Eq. 4).

use rand::Rng;

use crate::error::ensure_finite;
use crate::moments::Moments;
use crate::normal::Normal;
use crate::skew_normal::SkewNormal;
use crate::traits::Distribution;
use crate::StatsError;

/// A finite mixture of `K` components of one distribution family.
///
/// The paper's LVF² uses `K = 2` skew-normal components, but §3.3 notes the
/// Liberty encoding extends naturally to more components; the SSTA engine
/// also forms transient 4-component mixtures before order reduction. This
/// generic type serves all of those.
///
/// # Example
///
/// ```
/// use lvf2_stats::{Distribution, Mixture, Normal};
///
/// # fn main() -> Result<(), lvf2_stats::StatsError> {
/// let mix = Mixture::new(
///     vec![Normal::new(0.0, 1.0)?, Normal::new(4.0, 0.5)?],
///     vec![0.75, 0.25],
/// )?;
/// assert!((mix.mean() - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Mixture<D> {
    components: Vec<D>,
    weights: Vec<f64>,
}

impl<D: Distribution> Mixture<D> {
    /// Creates a mixture from components and matching weights.
    ///
    /// # Errors
    ///
    /// - [`StatsError::EmptyMixture`] when no components are given;
    /// - [`StatsError::WeightOutOfRange`] for weights outside `[0, 1]`;
    /// - [`StatsError::WeightsNotNormalized`] when weights do not sum to 1
    ///   within `1e-6` (they are renormalized exactly afterwards).
    pub fn new(components: Vec<D>, weights: Vec<f64>) -> Result<Self, StatsError> {
        if components.is_empty() || components.len() != weights.len() {
            return Err(StatsError::EmptyMixture);
        }
        for &w in &weights {
            ensure_finite("weight", w)?;
            if !(0.0..=1.0).contains(&w) {
                return Err(StatsError::WeightOutOfRange { value: w });
            }
        }
        let sum: f64 = weights.iter().sum();
        if (sum - 1.0).abs() > 1e-6 {
            return Err(StatsError::WeightsNotNormalized { sum });
        }
        let weights = weights.iter().map(|w| w / sum).collect();
        Ok(Mixture {
            components,
            weights,
        })
    }

    /// The component distributions.
    pub fn components(&self) -> &[D] {
        &self.components
    }

    /// The mixture weights (normalized; same order as components).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Number of components `K`.
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// `true` when the mixture has zero components (never, post-construction).
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }

    /// Iterates `(weight, component)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (f64, &D)> {
        self.weights.iter().copied().zip(self.components.iter())
    }

    /// Decomposes into `(components, weights)`.
    pub fn into_parts(self) -> (Vec<D>, Vec<f64>) {
        (self.components, self.weights)
    }

    /// Central moments (μ, μ₂, μ₃, μ₄) from component moments.
    fn central_moments(&self) -> (f64, f64, f64, f64) {
        let mean: f64 = self.iter().map(|(w, c)| w * c.mean()).sum();
        let mut m2 = 0.0;
        let mut m3 = 0.0;
        let mut m4 = 0.0;
        for (w, c) in self.iter() {
            let (a2, a3, a4) = central_moment_terms(mean, c);
            m2 += w * a2;
            m3 += w * a3;
            m4 += w * a4;
        }
        (mean, m2, m3, m4)
    }
}

/// The per-component contributions `(μ₂, μ₃, μ₄)` entering a mixture's
/// central moments, shared by [`Mixture::central_moments`] and the
/// allocation-free two-component delegation below.
#[inline]
fn central_moment_terms<D: Distribution>(mean: f64, c: &D) -> (f64, f64, f64) {
    let d = c.mean() - mean;
    let v = c.variance();
    let s = v.sqrt();
    let c3 = c.skewness() * s * s * s;
    let c4 = (c.excess_kurtosis() + 3.0) * v * v;
    (
        v + d * d,
        c3 + 3.0 * d * v + d * d * d,
        c4 + 4.0 * d * c3 + 6.0 * d * d * v + d * d * d * d,
    )
}

/// Central moments of the two-component mixture `w₁·c₁ + w₂·c₂` with the
/// same accumulation order as [`Mixture::central_moments`], but without
/// allocating the intermediate [`Mixture`] that `to_mixture()` builds.
fn two_component_central_moments<D: Distribution>(
    w1: f64,
    c1: &D,
    w2: f64,
    c2: &D,
) -> (f64, f64, f64, f64) {
    let mean = w1 * c1.mean() + w2 * c2.mean();
    let mut m2 = 0.0;
    let mut m3 = 0.0;
    let mut m4 = 0.0;
    for (w, c) in [(w1, c1), (w2, c2)] {
        let (a2, a3, a4) = central_moment_terms(mean, c);
        m2 += w * a2;
        m3 += w * a3;
        m4 += w * a4;
    }
    (mean, m2, m3, m4)
}

impl<D: Distribution> Distribution for Mixture<D> {
    fn pdf(&self, x: f64) -> f64 {
        self.iter().map(|(w, c)| w * c.pdf(x)).sum()
    }

    fn cdf(&self, x: f64) -> f64 {
        self.iter().map(|(w, c)| w * c.cdf(x)).sum()
    }

    fn mean(&self) -> f64 {
        self.iter().map(|(w, c)| w * c.mean()).sum()
    }

    fn variance(&self) -> f64 {
        self.central_moments().1
    }

    fn skewness(&self) -> f64 {
        let (_, m2, m3, _) = self.central_moments();
        m3 / m2.powf(1.5)
    }

    fn excess_kurtosis(&self) -> f64 {
        let (_, m2, _, m4) = self.central_moments();
        m4 / (m2 * m2) - 3.0
    }

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.gen();
        let mut acc = 0.0;
        for (w, c) in self.iter() {
            acc += w;
            if u <= acc {
                return c.sample(rng);
            }
        }
        // Floating-point slack: fall back to the last component.
        self.components
            .last()
            .expect("mixture is non-empty")
            .sample(rng)
    }
}

/// The Norm² baseline (ref \[10\]): a two-component *Gaussian* mixture
/// `(1−λ)·N(μ₁,σ₁²) + λ·N(μ₂,σ₂²)` — LVF² without component skewness.
///
/// # Example
///
/// ```
/// use lvf2_stats::{Distribution, Norm2, Normal};
///
/// # fn main() -> Result<(), lvf2_stats::StatsError> {
/// let m = Norm2::new(0.4, Normal::new(1.0, 0.1)?, Normal::new(1.5, 0.2)?)?;
/// assert!((m.lambda() - 0.4).abs() < 1e-15);
/// assert!((m.mean() - (0.6 * 1.0 + 0.4 * 1.5)).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Norm2 {
    lambda: f64,
    first: Normal,
    second: Normal,
}

/// The paper's LVF² model (Eq. 4): a two-component *skew-normal* mixture
/// `(1−λ)·SN(θ₁) + λ·SN(θ₂)`.
///
/// Backward compatibility (Eq. 10): [`Lvf2::from_lvf`] embeds a plain LVF
/// skew-normal as the first component with `λ = 0`, so every LVF library is
/// a valid LVF² model.
///
/// # Example
///
/// ```
/// use lvf2_stats::{Distribution, Lvf2, Moments, SkewNormal};
///
/// # fn main() -> Result<(), lvf2_stats::StatsError> {
/// let sn = SkewNormal::from_moments(Moments::new(0.1, 0.01, 0.3))?;
/// let compat = Lvf2::from_lvf(sn);
/// assert_eq!(compat.lambda(), 0.0);
/// assert!((compat.pdf(0.1) - sn.pdf(0.1)).abs() < 1e-14); // Eq. (10)
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lvf2 {
    lambda: f64,
    first: SkewNormal,
    second: SkewNormal,
}

macro_rules! two_component_impl {
    ($ty:ident, $comp:ty, $name:literal) => {
        impl $ty {
            /// Creates the two-component mixture with second-component weight
            /// `lambda` (the paper's λ).
            ///
            /// # Errors
            ///
            /// [`StatsError::WeightOutOfRange`] when `lambda ∉ [0, 1]`.
            pub fn new(lambda: f64, first: $comp, second: $comp) -> Result<Self, StatsError> {
                ensure_finite("lambda", lambda)?;
                if !(0.0..=1.0).contains(&lambda) {
                    return Err(StatsError::WeightOutOfRange { value: lambda });
                }
                Ok($ty {
                    lambda,
                    first,
                    second,
                })
            }

            /// Weight λ of the second component.
            pub fn lambda(&self) -> f64 {
                self.lambda
            }

            /// First component (weight `1 − λ`).
            pub fn first(&self) -> &$comp {
                &self.first
            }

            /// Second component (weight `λ`).
            pub fn second(&self) -> &$comp {
                &self.second
            }

            /// Converts to the generic [`Mixture`] form.
            pub fn to_mixture(&self) -> Mixture<$comp> {
                Mixture::new(
                    vec![self.first, self.second],
                    vec![1.0 - self.lambda, self.lambda],
                )
                .expect("two-component weights are valid by construction")
            }

            /// Posterior probability that `x` belongs to the *first*
            /// component (the E-step responsibility `z` of Eq. 6).
            pub fn responsibility_first(&self, x: f64) -> f64 {
                let a = (1.0 - self.lambda) * self.first.pdf(x);
                let b = self.lambda * self.second.pdf(x);
                if a + b == 0.0 {
                    0.5
                } else {
                    a / (a + b)
                }
            }
        }

        impl $ty {
            /// Central moments via the allocation-free two-component path
            /// (same accumulation order as `to_mixture().central_moments()`).
            #[inline]
            fn central_moments(&self) -> (f64, f64, f64, f64) {
                two_component_central_moments(
                    1.0 - self.lambda,
                    &self.first,
                    self.lambda,
                    &self.second,
                )
            }
        }

        impl Distribution for $ty {
            #[inline]
            fn pdf(&self, x: f64) -> f64 {
                (1.0 - self.lambda) * self.first.pdf(x) + self.lambda * self.second.pdf(x)
            }

            #[inline]
            fn cdf(&self, x: f64) -> f64 {
                (1.0 - self.lambda) * self.first.cdf(x) + self.lambda * self.second.cdf(x)
            }

            fn mean(&self) -> f64 {
                self.central_moments().0
            }

            fn variance(&self) -> f64 {
                self.central_moments().1
            }

            fn skewness(&self) -> f64 {
                let (_, m2, m3, _) = self.central_moments();
                m3 / m2.powf(1.5)
            }

            fn excess_kurtosis(&self) -> f64 {
                let (_, m2, _, m4) = self.central_moments();
                m4 / (m2 * m2) - 3.0
            }

            fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
                if rng.gen::<f64>() < self.lambda {
                    self.second.sample(rng)
                } else {
                    self.first.sample(rng)
                }
            }
        }

        impl std::fmt::Display for $ty {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(
                    f,
                    "{}(λ={}, first={}, second={})",
                    $name, self.lambda, self.first, self.second
                )
            }
        }
    };
}

two_component_impl!(Norm2, Normal, "Norm2");
two_component_impl!(Lvf2, SkewNormal, "LVF2");

impl Lvf2 {
    /// Embeds a plain LVF skew-normal as an LVF² with `λ = 0` (Eq. 10).
    pub fn from_lvf(sn: SkewNormal) -> Self {
        Lvf2 {
            lambda: 0.0,
            first: sn,
            second: sn,
        }
    }

    /// Builds both components from LVF moment triples plus a weight.
    ///
    /// # Errors
    ///
    /// Propagates [`SkewNormal::from_moments`] and weight validation.
    pub fn from_moment_triples(
        lambda: f64,
        theta1: Moments,
        theta2: Moments,
    ) -> Result<Self, StatsError> {
        Lvf2::new(
            lambda,
            SkewNormal::from_moments(theta1)?,
            SkewNormal::from_moments(theta2)?,
        )
    }

    /// `true` when this model degenerates to plain LVF (λ = 0 or identical
    /// components).
    pub fn is_lvf(&self) -> bool {
        self.lambda == 0.0 || self.first == self.second
    }
}

impl From<SkewNormal> for Lvf2 {
    fn from(sn: SkewNormal) -> Self {
        Lvf2::from_lvf(sn)
    }
}

impl Norm2 {
    /// Embeds a single Gaussian as a Norm² with `λ = 0`.
    pub fn from_normal(n: Normal) -> Self {
        Norm2 {
            lambda: 0.0,
            first: n,
            second: n,
        }
    }
}

impl From<Normal> for Norm2 {
    fn from(n: Normal) -> Self {
        Norm2::from_normal(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quad::adaptive_simpson;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn bimodal() -> Lvf2 {
        Lvf2::new(
            0.35,
            SkewNormal::from_moments(Moments::new(1.0, 0.06, 0.5)).unwrap(),
            SkewNormal::from_moments(Moments::new(1.4, 0.09, -0.3)).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn mixture_validation() {
        let n = Normal::standard();
        assert!(matches!(
            Mixture::<Normal>::new(vec![], vec![]),
            Err(StatsError::EmptyMixture)
        ));
        assert!(Mixture::new(vec![n, n], vec![0.5, 0.6]).is_err());
        assert!(Mixture::new(vec![n, n], vec![-0.1, 1.1]).is_err());
        assert!(Mixture::new(vec![n, n], vec![0.5, 0.5]).is_ok());
    }

    #[test]
    fn lvf2_pdf_integrates_to_one() {
        let m = bimodal();
        let mass = adaptive_simpson(|x| m.pdf(x), 0.0, 3.0, 1e-11);
        assert!((mass - 1.0).abs() < 1e-8, "mass={mass}");
    }

    #[test]
    fn lvf2_cdf_matches_integrated_pdf() {
        let m = bimodal();
        for &x in &[0.9, 1.1, 1.3, 1.6] {
            let want = adaptive_simpson(|t| m.pdf(t), 0.0, x, 1e-12);
            assert!((m.cdf(x) - want).abs() < 1e-8, "x={x}");
        }
    }

    #[test]
    fn mixture_moments_match_quadrature() {
        let m = bimodal();
        let mean = adaptive_simpson(|x| x * m.pdf(x), 0.0, 3.0, 1e-12);
        assert!((mean - m.mean()).abs() < 1e-8);
        let var = adaptive_simpson(|x| (x - mean).powi(2) * m.pdf(x), 0.0, 3.0, 1e-12);
        assert!((var - m.variance()).abs() < 1e-8);
        let m3 = adaptive_simpson(|x| (x - mean).powi(3) * m.pdf(x), 0.0, 3.0, 1e-12);
        assert!((m3 / var.powf(1.5) - m.skewness()).abs() < 1e-6);
        let m4 = adaptive_simpson(|x| (x - mean).powi(4) * m.pdf(x), 0.0, 3.0, 1e-13);
        assert!((m4 / (var * var) - 3.0 - m.excess_kurtosis()).abs() < 1e-5);
    }

    #[test]
    fn backward_compatibility_eq_10() {
        let sn = SkewNormal::from_moments(Moments::new(0.2, 0.03, 0.6)).unwrap();
        let compat = Lvf2::from_lvf(sn);
        assert!(compat.is_lvf());
        for &x in &[0.1, 0.2, 0.25, 0.3] {
            assert!((compat.pdf(x) - sn.pdf(x)).abs() < 1e-15);
            assert!((compat.cdf(x) - sn.cdf(x)).abs() < 1e-15);
        }
        assert!((compat.mean() - sn.mean()).abs() < 1e-14);
        assert!((compat.skewness() - sn.skewness()).abs() < 1e-12);
    }

    #[test]
    fn responsibilities_sum_to_one_and_track_proximity() {
        let m = bimodal();
        let z_near_first = m.responsibility_first(1.0);
        let z_near_second = m.responsibility_first(1.45);
        assert!(z_near_first > 0.9, "z={z_near_first}");
        assert!(z_near_second < 0.2, "z={z_near_second}");
        for &x in &[0.8, 1.0, 1.2, 1.5] {
            let z = m.responsibility_first(x);
            assert!((0.0..=1.0).contains(&z));
        }
    }

    #[test]
    fn sampling_matches_mixture_moments() {
        let m = bimodal();
        let mut rng = StdRng::seed_from_u64(11);
        let xs = m.sample_n(&mut rng, 200_000);
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!(
            (mean - m.mean()).abs() < 0.005,
            "mean {mean} want {}",
            m.mean()
        );
        assert!((var - m.variance()).abs() / m.variance() < 0.03);
    }

    #[test]
    fn k_component_mixture_sampling_covers_all_components() {
        let comps = vec![
            Normal::new(0.0, 0.1).unwrap(),
            Normal::new(5.0, 0.1).unwrap(),
            Normal::new(10.0, 0.1).unwrap(),
        ];
        let mix = Mixture::new(comps, vec![0.2, 0.3, 0.5]).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let xs = mix.sample_n(&mut rng, 30_000);
        let near = |c: f64| xs.iter().filter(|&&x| (x - c).abs() < 1.0).count() as f64 / 30_000.0;
        assert!((near(0.0) - 0.2).abs() < 0.02);
        assert!((near(5.0) - 0.3).abs() < 0.02);
        assert!((near(10.0) - 0.5).abs() < 0.02);
    }

    #[test]
    fn lambda_out_of_range_rejected() {
        let sn = SkewNormal::default();
        assert!(Lvf2::new(1.5, sn, sn).is_err());
        assert!(Lvf2::new(-0.1, sn, sn).is_err());
        assert!(Lvf2::new(f64::NAN, sn, sn).is_err());
    }
}
