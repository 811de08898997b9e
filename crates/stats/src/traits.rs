//! The [`Distribution`] trait implemented by every model family.

use rand::Rng;

use crate::moments::{FourMoments, Moments};

/// A univariate continuous distribution with the operations the LVF² flow
/// needs: density, log-density, CDF, quantile, analytic moments and sampling.
///
/// The default [`quantile`](Distribution::quantile) inverts the CDF by
/// bracketed bisection seeded from the mean and standard deviation, so
/// implementors only *must* provide `pdf`, `cdf`, the four moments and
/// `sample`.
///
/// # Example
///
/// ```
/// use lvf2_stats::{Distribution, Normal};
///
/// # fn main() -> Result<(), lvf2_stats::StatsError> {
/// let n = Normal::new(1.0, 0.2)?;
/// let p = n.cdf(n.quantile(0.9));
/// assert!((p - 0.9).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
pub trait Distribution {
    /// Probability density at `x`.
    fn pdf(&self, x: f64) -> f64;

    /// Natural log of the density at `x`. The default takes `pdf(x).ln()`;
    /// implementors should override when a stable form exists.
    fn ln_pdf(&self, x: f64) -> f64 {
        self.pdf(x).ln()
    }

    /// Cumulative distribution `P(X ≤ x)`.
    fn cdf(&self, x: f64) -> f64;

    /// Batched [`ln_pdf`](Self::ln_pdf): `out[i] = ln f(xs[i])`.
    ///
    /// The default loops over the scalar method. An implementation that
    /// overrides this (in this crate only [`SkewNormal`](crate::SkewNormal),
    /// with a vectorized chunk body) **must** keep every `out[i]`
    /// bit-identical to the scalar call — batching is a pure layout/constant
    /// hoisting optimization, never a numerical one.
    ///
    /// # Panics
    ///
    /// Panics when `xs.len() != out.len()`.
    fn ln_pdf_batch(&self, xs: &[f64], out: &mut [f64]) {
        assert_eq!(xs.len(), out.len(), "ln_pdf_batch: length mismatch");
        for (x, o) in xs.iter().zip(out.iter_mut()) {
            *o = self.ln_pdf(*x);
        }
    }

    /// Batched [`pdf`](Self::pdf): `out[i] = f(xs[i])`, bit-identical to the
    /// scalar method (see [`ln_pdf_batch`](Self::ln_pdf_batch)).
    ///
    /// # Panics
    ///
    /// Panics when `xs.len() != out.len()`.
    fn pdf_batch(&self, xs: &[f64], out: &mut [f64]) {
        assert_eq!(xs.len(), out.len(), "pdf_batch: length mismatch");
        for (x, o) in xs.iter().zip(out.iter_mut()) {
            *o = self.pdf(*x);
        }
    }

    /// Batched [`cdf`](Self::cdf): `out[i] = F(xs[i])`, bit-identical to the
    /// scalar method (see [`ln_pdf_batch`](Self::ln_pdf_batch)).
    ///
    /// # Panics
    ///
    /// Panics when `xs.len() != out.len()`.
    fn cdf_batch(&self, xs: &[f64], out: &mut [f64]) {
        assert_eq!(xs.len(), out.len(), "cdf_batch: length mismatch");
        for (x, o) in xs.iter().zip(out.iter_mut()) {
            *o = self.cdf(*x);
        }
    }

    /// Mean of the distribution.
    fn mean(&self) -> f64;

    /// Variance of the distribution.
    fn variance(&self) -> f64;

    /// Skewness (third standardized moment).
    fn skewness(&self) -> f64;

    /// Excess kurtosis (fourth standardized moment − 3).
    fn excess_kurtosis(&self) -> f64;

    /// Draws one sample.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64;

    /// Standard deviation, `variance().sqrt()`.
    fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// The LVF moment triple (μ, σ, γ).
    fn moments(&self) -> Moments {
        Moments::new(self.mean(), self.std_dev(), self.skewness())
    }

    /// The four-moment record (μ, σ, γ, excess kurtosis).
    fn four_moments(&self) -> FourMoments {
        FourMoments::new(
            self.mean(),
            self.std_dev(),
            self.skewness(),
            self.excess_kurtosis(),
        )
    }

    /// Quantile `F⁻¹(p)`: the default bisects the CDF on a bracket expanded
    /// from `mean ± k·σ`.
    ///
    /// Returns NaN for `p` outside `[0, 1]`, and `±∞` at the endpoints for
    /// distributions with unbounded support.
    fn quantile(&self, p: f64) -> f64 {
        if !(0.0..=1.0).contains(&p) {
            return f64::NAN;
        }
        if p == 0.0 {
            return if self.cdf(f64::MIN_POSITIVE) <= 0.0 {
                0.0
            } else {
                f64::NEG_INFINITY
            };
        }
        if p == 1.0 {
            return f64::INFINITY;
        }
        let m = self.mean();
        let s = self.std_dev().max(f64::MIN_POSITIVE);
        // Expand a bracket [lo, hi] with cdf(lo) < p < cdf(hi).
        let mut lo = m - 4.0 * s;
        let mut hi = m + 4.0 * s;
        let mut k = 8.0;
        while self.cdf(lo) > p && k < 1e9 {
            lo = m - k * s;
            k *= 2.0;
        }
        k = 8.0;
        while self.cdf(hi) < p && k < 1e9 {
            hi = m + k * s;
            k *= 2.0;
        }
        // Bisection: 100 iterations gives ~2^-100 of the bracket width.
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if mid <= lo || mid >= hi {
                break;
            }
            if self.cdf(mid) < p {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }

    /// Draws `n` samples into a fresh vector.
    fn sample_n<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.sample(rng)).collect()
    }

    /// Survival function `P(X > x) = 1 − cdf(x)`.
    fn sf(&self, x: f64) -> f64 {
        1.0 - self.cdf(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Normal;

    #[test]
    fn default_quantile_converges_on_normal() {
        let n = Normal::new(-3.0, 2.5).unwrap();
        for &p in &[0.001, 0.1, 0.5, 0.9, 0.999] {
            let q = n.quantile(p);
            assert!((n.cdf(q) - p).abs() < 1e-10, "p={p}");
        }
        assert!(n.quantile(-0.1).is_nan());
        assert!(n.quantile(1.0).is_infinite());
    }

    #[test]
    fn sf_complements_cdf() {
        let n = Normal::new(0.0, 1.0).unwrap();
        assert!((n.sf(1.3) + n.cdf(1.3) - 1.0).abs() < 1e-15);
    }
}
