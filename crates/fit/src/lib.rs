// `!(x > 0.0)`-style guards are deliberate: they reject NaN along with
// non-positive values, which `x <= 0.0` would not.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
// Every `unsafe` block (the runtime-dispatched AVX2 kernel calls) states
// why it is sound.
#![deny(clippy::undocumented_unsafe_blocks)]
//! Fitting algorithms for the LVF² statistical timing models.
//!
//! This crate turns Monte-Carlo timing samples into fitted models:
//!
//! - [`lvf::fit_lvf`] — single skew-normal by the industry-standard method of
//!   moments (this *is* LVF characterization);
//! - [`norm2::fit_norm2`] — two-Gaussian mixture by classic EM (the Norm²
//!   baseline of ref \[10\]);
//! - [`lvf2::fit_lvf2`] — the paper's model: two-skew-normal mixture by the
//!   EM scheme of §3.2 (k-means + method-of-moments initialisation, E-step
//!   responsibilities of Eq. 6, numerical weighted-MLE M-step);
//! - [`lesn::fit_lesn`] — log-extended-skew-normal by four-moment matching
//!   (ref \[7\]'s kurtosis-matching approach).
//!
//! All fitters take a [`FitConfig`] and return the model together with a
//! [`FitReport`] (log-likelihood, iteration count, convergence flag).
//!
//! # Example
//!
//! ```
//! use lvf2_fit::{fit_lvf2, FitConfig};
//! use lvf2_stats::{Distribution, Lvf2, Moments, SkewNormal};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), lvf2_fit::FitError> {
//! // Generate a bimodal ground truth and recover it.
//! let truth = Lvf2::new(
//!     0.4,
//!     SkewNormal::from_moments(Moments::new(1.0, 0.05, 0.3))?,
//!     SkewNormal::from_moments(Moments::new(1.4, 0.08, -0.2))?,
//! )?;
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let samples = truth.sample_n(&mut rng, 4000);
//!
//! let fit = fit_lvf2(&samples, &FitConfig::default())?;
//! assert!((fit.model.mean() - truth.mean()).abs() < 0.02);
//! # Ok(())
//! # }
//! ```

pub mod batch;
pub mod config;
mod em;
pub mod error;
mod estep;
pub mod kmeans;
pub mod lesn;
pub mod lvf;
pub mod lvf2;
pub mod mixture_em;
pub mod nelder_mead;
pub mod norm2;
pub mod report;
pub mod select;
pub mod weighted;
pub mod workspace;

pub use batch::fit_lvf2_batch;
pub use config::{FitConfig, InitStrategy, MStep, KMEANS_ITERATIONS, MIN_SIGMA_RATIO, MIN_WEIGHT};
pub use error::FitError;
pub use kmeans::{kmeans1d, kmeans1d_with, KMeansResult};
pub use lesn::{fit_lesn, fit_lesn_moments};
pub use lvf::fit_lvf;
pub use lvf2::{fit_lvf2, fit_lvf2_with};
pub use lvf2_parallel::Parallelism;
pub use mixture_em::{fit_sn_mixture, fit_sn_mixture_with};
pub use nelder_mead::{nelder_mead, nelder_mead_with, NelderMeadOptions, NelderMeadResult};
pub use norm2::fit_norm2;
pub use report::{FitReport, Fitted};
pub use select::{select_order, Criterion, OrderSelection};
pub use workspace::{FitWorkspace, KMeansScratch, NmScratch};
