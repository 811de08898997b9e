//! The [`Distribution`] trait implemented by every model family.

use rand::Rng;

use crate::moments::{FourMoments, Moments};

/// A univariate continuous distribution with the operations the LVF² flow
/// needs: density, log-density, CDF, quantile, analytic moments and sampling.
///
/// The default [`quantile`](Distribution::quantile) inverts the CDF by
/// safeguarded Newton seeded from the mean and standard deviation, so
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
    /// overrides a batch **must** keep every `out[i]` bit-identical to the
    /// scalar call — batching is a pure layout/constant hoisting
    /// optimization, never a numerical one. In this crate
    /// [`SkewNormal`](crate::SkewNormal) overrides all three batches with a
    /// vectorized chunk body, and the two-component mixtures
    /// ([`Lvf2`](crate::Lvf2), [`Norm2`](crate::Norm2)) override
    /// [`cdf_batch`](Self::cdf_batch) to run their components' batches.
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

    /// Quantile `F⁻¹(p)`: the default runs safeguarded Newton on the CDF,
    /// stepping by the pdf from `mean + σ·Φ⁻¹(p)` inside a bracket expanded
    /// from `mean ± k·σ`.
    ///
    /// A Newton step that leaves the bracket, or that shrinks the step less
    /// than half as fast as the one before, is replaced by bisection, so
    /// the search converges for any pdf (a few steps when the pdf is the
    /// CDF's derivative). It stops once a step is below `1e-12·σ` — Newton
    /// converges quadratically, so the point it returns is as close to the
    /// root as the CDF's own rounding resolves — when the CDF hits `p`
    /// exactly or the Newton step rounds away, or when the bracket cannot be
    /// split further.
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
        let mut x = m + s * crate::special::norm_quantile(p);
        if !(x > lo && x < hi) {
            x = 0.5 * (lo + hi);
        }
        let mut last_step = hi - lo;
        for _ in 0..200 {
            let f = self.cdf(x) - p;
            if f == 0.0 {
                return x;
            } else if f < 0.0 {
                lo = x;
            } else {
                hi = x;
            }
            let d = self.pdf(x);
            let newton = x - f / d;
            if newton == x {
                // The step is below x's resolution: x is the root.
                return x;
            }
            let next = if newton > lo && newton < hi && (2.0 * f).abs() <= (last_step * d).abs() {
                newton
            } else {
                0.5 * (lo + hi)
            };
            last_step = (next - x).abs();
            if last_step <= 1e-12 * s || next <= lo || next >= hi {
                return next;
            }
            x = next;
        }
        x
    }

    /// Draws `n` samples into a fresh vector.
    fn sample_n<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.sample(rng)).collect()
    }

    /// Survival function `P(X > x)`, with relative accuracy in the deep
    /// tail.
    ///
    /// While `1 − cdf(x) ≥ 1e-3` it returns `1 − cdf(x)`, which keeps about
    /// 13 digits there. Beyond that the subtraction cancels (it reads 0 past
    /// about 8σ on a Gaussian), so it returns the pdf's upper-tail integral
    /// instead: [`gauss_legendre_32`](crate::quad::gauss_legendre_32) panels
    /// laid from `x` upward, each as wide as the local decay length
    /// `1/|d ln f/dx|` allows, capped at σ. It stops when a panel adds less
    /// than `1e-17` of the running sum, or after a fixed number of panels.
    ///
    /// # Example
    ///
    /// ```
    /// use lvf2_stats::{Distribution, Normal};
    ///
    /// # fn main() -> Result<(), lvf2_stats::StatsError> {
    /// let n = Normal::new(0.0, 1.0)?;
    /// // P(Z > 9) = 1.1285884059538e-19, where 1 − Φ(9) rounds to 0.
    /// assert_eq!(1.0 - n.cdf(9.0), 0.0);
    /// assert!((n.sf(9.0) / 1.1285884059538e-19 - 1.0).abs() < 1e-10);
    /// # Ok(())
    /// # }
    /// ```
    fn sf(&self, x: f64) -> f64 {
        let upper = 1.0 - self.cdf(x);
        if upper >= SF_DIRECT_MIN || x == f64::INFINITY {
            return upper;
        }
        let sigma = self.std_dev();
        let probe = SF_SLOPE_PROBE * sigma;
        let mut a = x;
        let mut sum = 0.0;
        for _ in 0..SF_MAX_PANELS {
            let decay = probe / (self.ln_pdf(a) - self.ln_pdf(a + probe)).abs();
            let h = if decay > 0.0 { decay.min(sigma) } else { sigma };
            let panel = crate::quad::gauss_legendre_32(|t| self.pdf(t), a, a + h);
            sum += panel;
            a += h;
            if !(panel > SF_STOP * sum) {
                break;
            }
        }
        sum
    }
}

/// Below this value of `1 − cdf`, [`Distribution::sf`] integrates the pdf
/// instead of subtracting.
const SF_DIRECT_MIN: f64 = 1e-3;

/// Step, in σ, of the finite difference that estimates the slope of
/// `ln pdf` at the start of each tail panel.
const SF_SLOPE_PROBE: f64 = 1e-3;

/// A tail panel that adds less than this share of the running sum ends the
/// integral.
const SF_STOP: f64 = 1e-17;

/// Panel budget of the tail integral.
const SF_MAX_PANELS: usize = 200;

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
    fn default_quantile_inverts_a_bimodal_mixture() {
        // Two well-separated peaks: the Newton start `mean + σ·Φ⁻¹(p)` sits
        // in the valley between them for central p, where the pdf is small
        // and the safeguard has to bisect.
        use crate::{Lvf2, Moments, SkewNormal};
        let d = Lvf2::new(
            0.4,
            SkewNormal::from_moments(Moments::new(1.0, 0.03, 0.6)).unwrap(),
            SkewNormal::from_moments(Moments::new(1.5, 0.05, -0.4)).unwrap(),
        )
        .unwrap();
        let mut prev = f64::NEG_INFINITY;
        for p in [
            1e-12,
            1e-6,
            0.01,
            0.3,
            0.55,
            0.6,
            0.61,
            0.9,
            0.99865,
            1.0 - 1e-9,
        ] {
            let q = d.quantile(p);
            assert!(q > prev, "p={p}: {q} not above {prev}");
            assert!(
                (d.cdf(q) - p).abs() <= 1e-13 * p.max(1e-3),
                "p={p}: F(q)={}",
                d.cdf(q)
            );
            prev = q;
        }
    }

    #[test]
    fn sf_complements_cdf() {
        let n = Normal::new(0.0, 1.0).unwrap();
        assert!((n.sf(1.3) + n.cdf(1.3) - 1.0).abs() < 1e-15);
    }
}
