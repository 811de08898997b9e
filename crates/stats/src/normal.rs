//! The Gaussian distribution — the original pre-LVF cell-delay model (ref \[2\]).

use rand::Rng;

use crate::error::{ensure_finite, ensure_positive};
use crate::moments::Moments;
use crate::sampling::standard_normal;
use crate::special::{norm_cdf, norm_pdf, norm_quantile, INV_SQRT_2PI};
use crate::traits::Distribution;
use crate::StatsError;

/// A normal (Gaussian) distribution `N(μ, σ²)`.
///
/// This is the single-Gaussian timing model that LVF generalizes; it is also
/// the component family of the [`Norm2`](crate::Norm2) baseline (ref \[10\]).
///
/// # Example
///
/// ```
/// use lvf2_stats::{Distribution, Normal};
///
/// # fn main() -> Result<(), lvf2_stats::StatsError> {
/// let n = Normal::new(1.0, 0.1)?;
/// assert!((n.cdf(1.0) - 0.5).abs() < 1e-15);
/// assert_eq!(n.skewness(), 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    sigma: f64,
}

impl Normal {
    /// Creates `N(mean, sigma²)`.
    ///
    /// # Errors
    ///
    /// [`StatsError::NonFinite`] for non-finite inputs,
    /// [`StatsError::NonPositiveScale`] when `sigma ≤ 0`.
    pub fn new(mean: f64, sigma: f64) -> Result<Self, StatsError> {
        ensure_finite("mean", mean)?;
        ensure_positive("sigma", sigma)?;
        Ok(Normal { mean, sigma })
    }

    /// The standard normal `N(0, 1)`.
    pub fn standard() -> Self {
        Normal {
            mean: 0.0,
            sigma: 1.0,
        }
    }

    /// Builds the normal matching a moment triple (skewness is ignored — a
    /// Gaussian cannot represent it).
    ///
    /// # Errors
    ///
    /// Propagates validation errors from [`Moments::validate`].
    pub fn from_moments(m: Moments) -> Result<Self, StatsError> {
        m.validate()?;
        Normal::new(m.mean, m.sigma)
    }

    /// Location parameter μ.
    pub fn mu(&self) -> f64 {
        self.mean
    }

    /// Scale parameter σ.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Standardizes `x` to `(x − μ)/σ`.
    #[inline]
    pub fn standardize(&self, x: f64) -> f64 {
        (x - self.mean) / self.sigma
    }
}

impl Default for Normal {
    fn default() -> Self {
        Normal::standard()
    }
}

impl std::fmt::Display for Normal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "N(μ={}, σ={})", self.mean, self.sigma)
    }
}

impl Distribution for Normal {
    #[inline]
    fn pdf(&self, x: f64) -> f64 {
        norm_pdf(self.standardize(x)) / self.sigma
    }

    #[inline]
    fn ln_pdf(&self, x: f64) -> f64 {
        let z = self.standardize(x);
        INV_SQRT_2PI.ln() - self.sigma.ln() - 0.5 * z * z
    }

    #[inline]
    fn cdf(&self, x: f64) -> f64 {
        norm_cdf(self.standardize(x))
    }

    fn mean(&self) -> f64 {
        self.mean
    }

    fn variance(&self) -> f64 {
        self.sigma * self.sigma
    }

    fn skewness(&self) -> f64 {
        0.0
    }

    fn excess_kurtosis(&self) -> f64 {
        0.0
    }

    fn quantile(&self, p: f64) -> f64 {
        self.mean + self.sigma * norm_quantile(p)
    }

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.mean + self.sigma * standard_normal(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn construction_validates() {
        assert!(Normal::new(0.0, 0.0).is_err());
        assert!(Normal::new(f64::INFINITY, 1.0).is_err());
        assert!(Normal::new(5.0, 2.0).is_ok());
    }

    #[test]
    fn pdf_integrates_to_cdf() {
        let n = Normal::new(2.0, 0.7).unwrap();
        let integral = crate::quad::adaptive_simpson(|x| n.pdf(x), -5.0, 3.5, 1e-12);
        assert!((integral - n.cdf(3.5)).abs() < 1e-9);
    }

    #[test]
    fn ln_pdf_matches_pdf() {
        let n = Normal::new(-1.0, 0.3).unwrap();
        for &x in &[-2.0, -1.0, 0.0, 1.0] {
            assert!((n.ln_pdf(x) - n.pdf(x).ln()).abs() < 1e-12);
        }
    }

    #[test]
    fn quantile_is_exact_inverse() {
        let n = Normal::new(10.0, 4.0).unwrap();
        for i in 1..100 {
            let p = i as f64 / 100.0;
            assert!((n.cdf(n.quantile(p)) - p).abs() < 1e-13);
        }
    }

    #[test]
    fn sampling_matches_moments() {
        let n = Normal::new(3.0, 0.5).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let xs = n.sample_n(&mut rng, 100_000);
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((mean - 3.0).abs() < 0.01);
    }

    #[test]
    fn display_mentions_parameters() {
        let n = Normal::new(1.5, 0.25).unwrap();
        let s = n.to_string();
        assert!(s.contains("1.5") && s.contains("0.25"));
    }
}
