//! Log-domain distribution families: log-normal (ref \[5\]) and
//! log-skew-normal (ref \[6\], `LogDomain<SkewNormal>`), built from a
//! generic [`LogDomain`] wrapper.
//!
//! If `Y` has a finite moment generating function, then `X = exp(Y)` has raw
//! moments `E[Xᵏ] = M_Y(k)`, from which the four standardized moments follow.
//! That turns every Gaussian-domain family in this crate into a heavy-tailed
//! positive-support timing model for near/sub-threshold delay distributions.

use rand::Rng;

use crate::error::ensure_positive;
use crate::esn::ExtendedSkewNormal;
use crate::normal::Normal;
use crate::skew_normal::SkewNormal;
use crate::special::log_norm_cdf;
use crate::traits::Distribution;
use crate::StatsError;

/// Gaussian-domain distributions with a finite, closed-form MGF.
///
/// This is the only requirement for wrapping a family in [`LogDomain`].
/// The trait is sealed: downstream crates use the provided families.
pub trait MgfDistribution: Distribution + sealed::Sealed {
    /// `log E[exp(tY)]`, finite for all real `t`.
    fn log_mgf(&self, t: f64) -> f64;
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for super::Normal {}
    impl Sealed for super::SkewNormal {}
    impl Sealed for super::ExtendedSkewNormal {}
}

impl MgfDistribution for Normal {
    fn log_mgf(&self, t: f64) -> f64 {
        self.mu() * t + 0.5 * self.sigma() * self.sigma() * t * t
    }
}

impl MgfDistribution for SkewNormal {
    fn log_mgf(&self, t: f64) -> f64 {
        std::f64::consts::LN_2
            + self.xi() * t
            + 0.5 * self.omega() * self.omega() * t * t
            + log_norm_cdf(self.delta() * self.omega() * t)
    }
}

impl MgfDistribution for ExtendedSkewNormal {
    fn log_mgf(&self, t: f64) -> f64 {
        ExtendedSkewNormal::log_mgf(self, t)
    }
}

/// `X = exp(Y)` for a Gaussian-domain `Y` — the log-domain wrapper shared by
/// [`LogNormal`], the log-skew-normal `LogDomain<SkewNormal>` (ref \[6\])
/// and [`Lesn`](crate::Lesn).
///
/// # Example
///
/// ```
/// use lvf2_stats::{Distribution, LogNormal, Normal};
///
/// # fn main() -> Result<(), lvf2_stats::StatsError> {
/// let ln = LogNormal::new(Normal::new(0.0, 0.25)?);
/// // Median of a log-normal is exp(μ).
/// assert!((ln.quantile(0.5) - 1.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogDomain<D> {
    inner: D,
}

/// Log-normal distribution: `exp(N(μ, σ²))`.
pub type LogNormal = LogDomain<Normal>;

impl<D: MgfDistribution> LogDomain<D> {
    /// Wraps a Gaussian-domain distribution: the result is `exp(Y)`.
    pub fn new(inner: D) -> Self {
        LogDomain { inner }
    }

    /// The underlying Gaussian-domain distribution `Y`.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// Unwraps back to the Gaussian-domain distribution.
    pub fn into_inner(self) -> D {
        self.inner
    }

    /// Raw moment `E[Xᵏ] = M_Y(k)`.
    pub fn raw_moment(&self, k: u32) -> f64 {
        self.inner.log_mgf(k as f64).exp()
    }
}

impl LogNormal {
    /// Builds the log-normal whose *log-domain* parameters are `(mu, sigma)`.
    ///
    /// # Errors
    ///
    /// Propagates [`Normal::new`] validation.
    pub fn from_log_params(mu: f64, sigma: f64) -> Result<Self, StatsError> {
        Ok(LogDomain::new(Normal::new(mu, sigma)?))
    }

    /// Builds the log-normal matching a positive mean and standard deviation
    /// in the *data* domain (exact two-moment match).
    ///
    /// # Errors
    ///
    /// [`StatsError::NonPositiveScale`] if either argument is not positive.
    pub fn from_mean_std(mean: f64, std: f64) -> Result<Self, StatsError> {
        ensure_positive("mean", mean)?;
        ensure_positive("std", std)?;
        let v = (1.0 + (std / mean).powi(2)).ln();
        let mu = mean.ln() - 0.5 * v;
        LogNormal::from_log_params(mu, v.sqrt())
    }
}

impl<D: MgfDistribution> Distribution for LogDomain<D> {
    fn pdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            self.inner.pdf(x.ln()) / x
        }
    }

    fn ln_pdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            f64::NEG_INFINITY
        } else {
            self.inner.ln_pdf(x.ln()) - x.ln()
        }
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            self.inner.cdf(x.ln())
        }
    }

    fn mean(&self) -> f64 {
        self.raw_moment(1)
    }

    fn variance(&self) -> f64 {
        let m1 = self.raw_moment(1);
        self.raw_moment(2) - m1 * m1
    }

    fn skewness(&self) -> f64 {
        let m1 = self.raw_moment(1);
        let m2 = self.raw_moment(2);
        let m3 = self.raw_moment(3);
        let var = m2 - m1 * m1;
        (m3 - 3.0 * m1 * m2 + 2.0 * m1.powi(3)) / var.powf(1.5)
    }

    fn excess_kurtosis(&self) -> f64 {
        let m1 = self.raw_moment(1);
        let m2 = self.raw_moment(2);
        let m3 = self.raw_moment(3);
        let m4 = self.raw_moment(4);
        let var = m2 - m1 * m1;
        let mu4 = m4 - 4.0 * m1 * m3 + 6.0 * m1 * m1 * m2 - 3.0 * m1.powi(4);
        mu4 / (var * var) - 3.0
    }

    fn quantile(&self, p: f64) -> f64 {
        self.inner.quantile(p).exp()
    }

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.inner.sample(rng).exp()
    }
}

impl<D: MgfDistribution + std::fmt::Display> std::fmt::Display for LogDomain<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "exp({})", self.inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quad::adaptive_simpson;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn lognormal_closed_forms() {
        let ln = LogNormal::from_log_params(0.5, 0.3).unwrap();
        // Textbook log-normal moments.
        let want_mean = (0.5_f64 + 0.5 * 0.09).exp();
        let want_var = ((0.09_f64).exp() - 1.0) * (2.0 * 0.5 + 0.09_f64).exp();
        assert!((ln.mean() - want_mean).abs() < 1e-12);
        assert!((ln.variance() - want_var).abs() < 1e-12);
        let want_skew = ((0.09_f64).exp() + 2.0) * ((0.09_f64).exp() - 1.0).sqrt();
        assert!((ln.skewness() - want_skew).abs() < 1e-10);
    }

    #[test]
    fn from_mean_std_matches_request() {
        let ln = LogNormal::from_mean_std(0.2, 0.05).unwrap();
        assert!((ln.mean() - 0.2).abs() < 1e-12);
        assert!((ln.std_dev() - 0.05).abs() < 1e-12);
        assert!(LogNormal::from_mean_std(-1.0, 0.1).is_err());
    }

    #[test]
    fn log_skew_normal_mass_and_moments() {
        let lsn = LogDomain::new(SkewNormal::new(-1.0, 0.4, 3.0).unwrap());
        let mass = adaptive_simpson(|x| lsn.pdf(x), 1e-9, 5.0, 1e-11);
        assert!((mass - 1.0).abs() < 1e-6, "mass={mass}");
        let mean = adaptive_simpson(|x| x * lsn.pdf(x), 1e-9, 5.0, 1e-12);
        assert!(
            (mean - lsn.mean()).abs() < 1e-6,
            "mean {mean} want {}",
            lsn.mean()
        );
    }

    #[test]
    fn support_is_positive() {
        let ln = LogNormal::from_log_params(0.0, 1.0).unwrap();
        assert_eq!(ln.pdf(-1.0), 0.0);
        assert_eq!(ln.cdf(0.0), 0.0);
        assert_eq!(ln.ln_pdf(-1.0), f64::NEG_INFINITY);
    }

    #[test]
    fn sampling_agrees_with_mean() {
        let lsn = LogDomain::new(SkewNormal::new(-2.0, 0.3, -2.0).unwrap());
        let mut rng = StdRng::seed_from_u64(3);
        let xs = lsn.sample_n(&mut rng, 100_000);
        assert!(xs.iter().all(|&x| x > 0.0));
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((mean - lsn.mean()).abs() / lsn.mean() < 0.01);
    }

    #[test]
    fn quantile_inverts_cdf() {
        let ln = LogNormal::from_log_params(0.2, 0.6).unwrap();
        for &p in &[0.01, 0.3, 0.5, 0.9, 0.999] {
            assert!((ln.cdf(ln.quantile(p)) - p).abs() < 1e-10, "p={p}");
        }
    }
}
