//! One-call scoring of a fitted model against a golden Monte-Carlo sample
//! set — the inner loop of every experiment.

use lvf2_stats::{Distribution, Ecdf, StatsError};

use crate::bins::BinSet;
use crate::metrics::{binning_error, rmse_grid, rmse_on_grid, three_sigma_quantile_error};

/// Pre-computed golden quantities shared across the four models scored on
/// the same distribution (ECDF, bins, empirical bin probabilities, and the
/// moments the 3σ yield point and the RMSE grid are placed by).
#[derive(Debug, Clone, PartialEq)]
pub struct GoldenReference {
    ecdf: Ecdf,
    bins: BinSet,
    golden_probs: Vec<f64>,
    /// Mean of the samples summed in sorted order, as
    /// [`yield_3sigma_error`](crate::yield_3sigma_error) sums it.
    sorted_mean: f64,
    /// σ of the samples summed in sorted order, as
    /// [`yield_3sigma_error`](crate::yield_3sigma_error) and
    /// [`cdf_rmse`](crate::cdf_rmse) sum it.
    sorted_sigma: f64,
}

impl GoldenReference {
    /// Builds the golden reference from Monte-Carlo samples, with the
    /// paper's eight σ-bins anchored at the sample moments.
    ///
    /// The bins take the moments summed in sample order, the 3σ yield point
    /// and the RMSE grid the moments summed in sorted order, as the
    /// free-standing metrics do; each sum is taken once and kept.
    ///
    /// # Errors
    ///
    /// Propagates [`StatsError`] for empty/NaN/zero-variance samples.
    pub fn from_samples(samples: &[f64]) -> Result<Self, StatsError> {
        let mean = lvf2_stats::sample_mean(samples);
        let sd = lvf2_stats::sample_std_about(samples, mean);
        if !(sd > 0.0) {
            return Err(StatsError::NotEnoughSamples {
                got: samples.len(),
                need: 2,
            });
        }
        let ecdf = Ecdf::new(samples.to_vec())?;
        let bins = BinSet::sigma_bins(mean, sd);
        let sorted = ecdf.samples();
        let golden_probs = bins.probabilities_from_sorted(sorted);
        let sorted_mean = lvf2_stats::sample_mean(sorted);
        let sorted_sigma = lvf2_stats::sample_std_about(sorted, sorted_mean);
        Ok(GoldenReference {
            ecdf,
            bins,
            golden_probs,
            sorted_mean,
            sorted_sigma,
        })
    }

    /// The golden empirical CDF.
    pub fn ecdf(&self) -> &Ecdf {
        &self.ecdf
    }

    /// The σ-bin set.
    pub fn bins(&self) -> &BinSet {
        &self.bins
    }

    /// Golden bin probabilities.
    pub fn golden_probs(&self) -> &[f64] {
        &self.golden_probs
    }
}

/// A model's scores on the paper's three metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelScore {
    /// Mean absolute bin-probability error.
    pub binning_error: f64,
    /// |yield error| at μ+3σ.
    pub yield_3sigma_error: f64,
    /// RMSE of the CDF over the sample range.
    pub cdf_rmse: f64,
    /// |Q_model(Φ(3)) − Q_golden(Φ(3))| — the +3σ corner error in time units.
    pub three_sigma_q_error: f64,
}

impl ModelScore {
    /// Element-wise error-reduction multiples of `self` relative to a
    /// baseline score (Eq. 12): `(binning×, yield×, rmse×)`.
    pub fn reduction_vs(&self, baseline: &ModelScore) -> (f64, f64, f64) {
        (
            crate::metrics::error_reduction(baseline.binning_error, self.binning_error),
            crate::metrics::error_reduction(baseline.yield_3sigma_error, self.yield_3sigma_error),
            crate::metrics::error_reduction(baseline.cdf_rmse, self.cdf_rmse),
        )
    }
}

/// Number of grid points used for the CDF RMSE.
const RMSE_POINTS: usize = 256;

/// Bin edges of a golden reference: the seven of [`BinSet::sigma_bins`].
const SIGMA_EDGES: usize = 7;

/// Scores a fitted distribution against a golden reference.
///
/// # Example
///
/// ```
/// use lvf2_binning::{score_model, GoldenReference};
/// use lvf2_stats::{Distribution, Normal};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), lvf2_stats::StatsError> {
/// let truth = Normal::new(1.0, 0.1)?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let xs = truth.sample_n(&mut rng, 20_000);
/// let golden = GoldenReference::from_samples(&xs)?;
/// let score = score_model(&truth, &golden);
/// assert!(score.binning_error < 0.01);
/// # Ok(())
/// # }
/// ```
pub fn score_model<D: Distribution>(model: &D, golden: &GoldenReference) -> ModelScore {
    // The bin edges and the 3σ point in one batch, then the RMSE grid in
    // another; both grids are ascending, as the batches are fastest on.
    let t3 = golden.sorted_mean + 3.0 * golden.sorted_sigma;
    let mut points = [0.0; SIGMA_EDGES + 1];
    points[..SIGMA_EDGES].copy_from_slice(golden.bins.boundaries());
    points[SIGMA_EDGES] = t3;
    let mut at = [0.0; SIGMA_EDGES + 1];
    model.cdf_batch(&points, &mut at);
    let model_probs = golden.bins.probabilities_at(&at[..SIGMA_EDGES]);

    let mut grid = [0.0; RMSE_POINTS];
    let mut model_cdf = [0.0; RMSE_POINTS];
    rmse_grid(&golden.ecdf, golden.sorted_sigma, &mut grid);
    model.cdf_batch(&grid, &mut model_cdf);

    ModelScore {
        binning_error: binning_error(&model_probs, &golden.golden_probs),
        yield_3sigma_error: (at[SIGMA_EDGES] - golden.ecdf.cdf(t3)).abs(),
        cdf_rmse: rmse_on_grid(&golden.ecdf, &grid, &model_cdf),
        three_sigma_q_error: three_sigma_quantile_error(model, &golden.ecdf),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lvf2_stats::{Moments, Normal, SkewNormal};
    use rand::SeedableRng;

    #[test]
    fn better_model_scores_better() {
        let truth = SkewNormal::from_moments(Moments::new(1.0, 0.1, 0.7)).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let xs = truth.sample_n(&mut rng, 50_000);
        let golden = GoldenReference::from_samples(&xs).unwrap();

        let right = score_model(&truth, &golden);
        let wrong = score_model(&Normal::new(1.0, 0.1).unwrap(), &golden);
        assert!(right.binning_error < wrong.binning_error);
        assert!(right.cdf_rmse < wrong.cdf_rmse);

        let (bx, _, rx) = right.reduction_vs(&wrong);
        assert!(bx > 1.0 && rx > 1.0);
    }

    #[test]
    fn golden_reference_rejects_degenerate_samples() {
        assert!(GoldenReference::from_samples(&[]).is_err());
        assert!(GoldenReference::from_samples(&[1.0; 10]).is_err());
    }

    #[test]
    fn scores_are_finite_and_bounded() {
        let truth = Normal::new(0.5, 0.05).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let xs = truth.sample_n(&mut rng, 5000);
        let golden = GoldenReference::from_samples(&xs).unwrap();
        let s = score_model(&truth, &golden);
        assert!(s.binning_error >= 0.0 && s.binning_error <= 1.0);
        assert!(s.yield_3sigma_error >= 0.0 && s.yield_3sigma_error <= 1.0);
        assert!(s.cdf_rmse >= 0.0 && s.cdf_rmse <= 1.0);
    }
}
