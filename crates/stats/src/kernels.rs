//! Run-time build selection for the batched hot loops.
//!
//! The skew-normal [`ln_pdf_batch`](crate::Distribution::ln_pdf_batch),
//! [`pdf_batch`](crate::Distribution::pdf_batch) and
//! [`cdf_batch`](crate::Distribution::cdf_batch), the EM E-step's
//! log-sum-exp in `lvf2-fit` and the statistical max's panel loop in
//! `lvf2-ssta` each compile one chunk body twice: a portable build and an
//! AVX2 build, picked per call by [`avx2_enabled`]. Neither build uses FMA
//! or reassociates, so both return the same bits.

pub use crate::special::LANES;

/// Whether this host runs the AVX2 builds of the batched loops. Detected
/// once per process on x86_64; always `false` elsewhere. Informational
/// only: both builds give the same bits.
#[inline]
pub fn avx2_enabled() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

#[cfg(test)]
mod tests {
    use crate::{Distribution, Moments, SkewNormal};

    fn sn(mean: f64, sigma: f64, gamma: f64) -> SkewNormal {
        SkewNormal::from_moments(Moments::new(mean, sigma, gamma)).unwrap()
    }

    /// The skew-normal batches, in the build this host dispatches to, on a
    /// grid that is not a multiple of [`super::LANES`] and spans every
    /// `log Φ` regime and the deep tails.
    #[test]
    fn skew_normal_kernel_bit_identical_to_scalar() {
        let xs: Vec<f64> = (0..97).map(|i| -12.0 + i as f64 * 0.25).collect();
        let mut out = vec![0.0; xs.len()];
        for g in [-0.8, -0.2, 0.0, 0.5, 0.95] {
            let d = sn(1.1, 0.2, g);
            d.ln_pdf_batch(&xs, &mut out);
            for (x, o) in xs.iter().zip(&out) {
                assert_eq!(o.to_bits(), d.ln_pdf(*x).to_bits(), "γ={g} x={x}");
            }
            d.pdf_batch(&xs, &mut out);
            for (x, o) in xs.iter().zip(&out) {
                assert_eq!(o.to_bits(), d.pdf(*x).to_bits(), "γ={g} x={x}");
            }
            d.cdf_batch(&xs, &mut out);
            for (x, o) in xs.iter().zip(&out) {
                assert_eq!(o.to_bits(), d.cdf(*x).to_bits(), "γ={g} x={x}");
            }
        }
    }

    #[test]
    fn empty_slices_are_fine() {
        let d = sn(0.0, 1.0, 0.3);
        let mut out: Vec<f64> = vec![];
        d.ln_pdf_batch(&[], &mut out);
        d.pdf_batch(&[], &mut out);
        assert!(out.is_empty());
    }
}
