// `!(x > 0.0)`-style guards are deliberate: they reject NaN along with
// non-positive values, which `x <= 0.0` would not.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
//! Speed binning, yield estimation and the paper's error metrics.
//!
//! Implements §2.1 and the evaluation machinery of §4:
//!
//! - [`BinSet`]: speed-bin boundaries (the experiments use μ±3σ, μ±2σ, μ±σ
//!   and μ → eight bins) and bin probabilities from any CDF (Eq. 1);
//! - [`metrics`]: binning error, 3σ-yield error, CDF RMSE, and the
//!   error-reduction normalization of Eq. 12;
//! - [`score`]: one-call scoring of a fitted model against golden samples;
//! - [`pricing`]: the Figure 2 price-profile economics (expected revenue per
//!   die, usable-window yield).
//!
//! # Example
//!
//! ```
//! use lvf2_binning::BinSet;
//! use lvf2_stats::{Distribution, Normal};
//!
//! # fn main() -> Result<(), lvf2_stats::StatsError> {
//! let golden = Normal::new(1.0, 0.1)?;
//! let bins = BinSet::sigma_bins(1.0, 0.1);
//! let p = bins.probabilities(|x| golden.cdf(x));
//! assert_eq!(p.len(), 8);
//! assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

pub mod bins;
pub mod metrics;
pub mod pricing;
pub mod score;

pub use bins::BinSet;
pub use metrics::{
    binning_error, cdf_rmse, error_reduction, three_sigma_quantile_error, yield_3sigma_error,
};
pub use pricing::PriceProfile;
pub use score::{score_model, GoldenReference, ModelScore};
