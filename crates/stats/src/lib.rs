// `!(x > 0.0)`-style guards are deliberate: they reject NaN along with
// non-positive values, which `x <= 0.0` would not.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
// Every `unsafe` block (the runtime-dispatched AVX2 kernel calls) states
// why it is sound.
#![deny(clippy::undocumented_unsafe_blocks)]
//! Distributions and special functions for the LVF² statistical timing model.
//!
//! This crate is the mathematical substrate of the [LVF² DAC 2024
//! reproduction](https://doi.org/10.1145/3649329.3655670). It provides:
//!
//! - special functions: [`special::erf`], the standard normal
//!   pdf/cdf/quantile, a numerically careful `log Φ`, and
//!   [Owen's T function](special::owen_t) used by the skew-normal CDF;
//! - the distribution families compared in the paper:
//!   [`Normal`], [`SkewNormal`] (the single-component LVF model, with the
//!   moment ↔ parameter bijection *g* of Eq. (2)),
//!   [`ExtendedSkewNormal`], [`LogNormal`], the log-skew-normal
//!   [`LogDomain`](lognormal::LogDomain)`<SkewNormal>`,
//!   [`Lesn`] (log-extended-skew-normal, ref \[7\]), and the mixtures
//!   [`Norm2`] (ref \[10\]) and [`Lvf2`] (the paper's contribution, Eq. (4));
//! - empirical tools: sample moments, [`Ecdf`], histogram and quantiles;
//! - quadrature: fixed-order Gauss–Legendre and adaptive Simpson;
//! - one density API, [`Distribution`]: its `*_batch` methods are
//!   bit-identical to the scalar ones. [`SkewNormal`] — the component the EM,
//!   the SSTA max and the binning scores evaluate — overrides
//!   `ln_pdf_batch`/`pdf_batch`/`cdf_batch` with a vectorized chunk body, in
//!   a portable and an AVX2 build picked at run time
//!   ([`kernels::avx2_enabled`]); [`Lvf2`] and [`Norm2`] run `cdf_batch` on
//!   their components' batches.
//!
//! # Example
//!
//! Fit-free usage — build the paper's Figure 1 mixture by hand and query it:
//!
//! ```
//! use lvf2_stats::{Distribution, Lvf2, Moments, SkewNormal};
//!
//! # fn main() -> Result<(), lvf2_stats::StatsError> {
//! let fast = SkewNormal::from_moments(Moments::new(0.95, 0.05, 0.4))?;
//! let slow = SkewNormal::from_moments(Moments::new(1.20, 0.08, -0.2))?;
//! let model = Lvf2::new(0.3, fast, slow)?; // λ = 0.3 weights the slow peak
//!
//! // Two peaks ⇒ the PDF dips between the component means.
//! assert!(model.pdf(1.05) < model.pdf(0.95));
//! assert!((model.cdf(f64::INFINITY) - 1.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

pub mod empirical;
pub mod error;
pub mod esn;
pub mod fastmath;
pub mod kernels;
pub mod lesn;
pub mod lognormal;
pub mod mixture;
pub mod moments;
pub mod normal;
pub mod quad;
pub mod sampling;
pub mod skew_normal;
pub mod special;
pub mod traits;

pub use empirical::{
    ks_distance, sample_kurtosis, sample_mean, sample_skewness, sample_std, sample_std_about,
    sort_total, Ecdf, Histogram, SampleMoments,
};
pub use error::StatsError;
pub use esn::ExtendedSkewNormal;
pub use lesn::Lesn;
pub use lognormal::LogNormal;
pub use mixture::{Lvf2, Mixture, Norm2};
pub use moments::Moments;
pub use normal::Normal;
pub use skew_normal::SkewNormal;
pub use traits::Distribution;
