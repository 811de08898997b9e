//! The paper's three evaluation metrics (§4) and the error-reduction
//! normalization (Eq. 12).

use lvf2_stats::Ecdf;

/// Binning error: mean absolute difference between model and golden bin
/// probabilities.
///
/// # Panics
///
/// Panics when the two vectors have different lengths or are empty.
///
/// # Example
///
/// ```
/// let e = lvf2_binning::binning_error(&[0.5, 0.5], &[0.4, 0.6]);
/// assert!((e - 0.1).abs() < 1e-15);
/// ```
pub fn binning_error(model: &[f64], golden: &[f64]) -> f64 {
    assert_eq!(model.len(), golden.len(), "bin vectors must align");
    assert!(!model.is_empty(), "bin vectors must be non-empty");
    model
        .iter()
        .zip(golden)
        .map(|(m, g)| (m - g).abs())
        .sum::<f64>()
        / model.len() as f64
}

/// 3σ-yield error: `|F_model(μ + 3σ) − F_golden(μ + 3σ)|`, where μ and σ are
/// the golden distribution's moments. This is the error in predicted yield at
/// the 3σ timing target.
pub fn yield_3sigma_error<F: Fn(f64) -> f64>(model_cdf: F, golden: &Ecdf) -> f64 {
    let samples = golden.samples();
    let mean = lvf2_stats::sample_mean(samples);
    let t = mean + 3.0 * lvf2_stats::sample_std_about(samples, mean);
    (model_cdf(t) - golden.cdf(t)).abs()
}

/// RMSE between a model CDF and the golden ECDF, evaluated on an equally
/// spaced grid spanning the golden sample range (plus half a σ on each side).
pub fn cdf_rmse<F: Fn(f64) -> f64>(model_cdf: F, golden: &Ecdf, points: usize) -> f64 {
    assert!(points >= 2, "need at least 2 grid points");
    let mut grid = vec![0.0; points];
    rmse_grid(golden, lvf2_stats::sample_std(golden.samples()), &mut grid);
    let model: Vec<f64> = grid.iter().map(|&x| model_cdf(x)).collect();
    rmse_on_grid(golden, &grid, &model)
}

/// Fills `grid` with the RMSE grid of [`cdf_rmse`]: equally spaced from
/// half a σ below the golden minimum to half a σ above its maximum,
/// ascending.
pub(crate) fn rmse_grid(golden: &Ecdf, sigma: f64, grid: &mut [f64]) {
    let lo = golden.min() - 0.5 * sigma;
    let hi = golden.max() + 0.5 * sigma;
    let last = (grid.len() - 1) as f64;
    for (k, x) in grid.iter_mut().enumerate() {
        *x = lo + (hi - lo) * k as f64 / last;
    }
}

/// RMSE of `model[k] − F_golden(grid[k])` over an ascending `grid`. The
/// ECDF is read with one index that moves up the sorted samples along the
/// grid, giving the counts of [`Ecdf::cdf`] without a search per point.
pub(crate) fn rmse_on_grid(golden: &Ecdf, grid: &[f64], model: &[f64]) -> f64 {
    debug_assert!(grid.windows(2).all(|w| !(w[0] > w[1])), "ascending grid");
    let sorted = golden.samples();
    let n = sorted.len() as f64;
    let mut below = 0;
    let mut sum = 0.0;
    for (&x, &f) in grid.iter().zip(model) {
        while below < sorted.len() && sorted[below] <= x {
            below += 1;
        }
        let d = f - below as f64 / n;
        sum += d * d;
    }
    (sum / grid.len() as f64).sqrt()
}

/// Error reduction (Eq. 12): `|baseline − golden| / |result − golden|`,
/// expressed directly on error magnitudes: `baseline_error / model_error`.
///
/// A value above 1 means the model beats the LVF baseline by that multiple.
/// When the model error is (numerically) zero the reduction saturates at
/// `1e6`; when both are zero it is 1 (no change).
pub fn error_reduction(baseline_error: f64, model_error: f64) -> f64 {
    const CAP: f64 = 1e6;
    if model_error <= 0.0 {
        return if baseline_error <= 0.0 { 1.0 } else { CAP };
    }
    (baseline_error / model_error).min(CAP)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bins::BinSet;
    use lvf2_stats::{Distribution, Normal};
    use rand::SeedableRng;

    #[test]
    fn binning_error_zero_for_identical() {
        let p = [0.1, 0.2, 0.7];
        assert_eq!(binning_error(&p, &p), 0.0);
    }

    #[test]
    fn perfect_model_has_tiny_errors() {
        let n = Normal::new(1.0, 0.2).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let xs = n.sample_n(&mut rng, 200_000);
        let golden = Ecdf::new(xs.clone()).unwrap();
        let bins = BinSet::sigma_bins(1.0, 0.2);
        let be = binning_error(
            &bins.probabilities(|x| n.cdf(x)),
            &bins.probabilities_from_samples(&xs),
        );
        assert!(be < 0.002, "binning error {be}");
        assert!(yield_3sigma_error(|x| n.cdf(x), &golden) < 0.002);
        assert!(cdf_rmse(|x| n.cdf(x), &golden, 200) < 0.005);
    }

    #[test]
    fn wrong_model_has_large_errors() {
        let truth = Normal::new(1.0, 0.2).unwrap();
        let wrong = Normal::new(1.3, 0.1).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let xs = truth.sample_n(&mut rng, 50_000);
        let golden = Ecdf::new(xs).unwrap();
        assert!(cdf_rmse(|x| wrong.cdf(x), &golden, 200) > 0.2);
    }

    #[test]
    fn error_reduction_behaviour() {
        assert!((error_reduction(0.4, 0.1) - 4.0).abs() < 1e-12);
        assert_eq!(error_reduction(0.0, 0.0), 1.0);
        assert_eq!(error_reduction(0.5, 0.0), 1e6); // saturates
        assert!(error_reduction(0.1, 0.4) < 1.0); // model can be worse
    }

    #[test]
    #[should_panic(expected = "must align")]
    fn binning_error_rejects_mismatched_lengths() {
        binning_error(&[0.5], &[0.5, 0.5]);
    }
}

/// 3σ *quantile-point* error in time units: `|Q_model(p₃) − Q_golden(p₃)|`
/// with `p₃ = Φ(3) ≈ 0.99865` — the "+3σ delay" accuracy that refs \[5\]–\[7\]
/// report (how far off the timing sign-off corner lands, in ns).
pub fn three_sigma_quantile_error<D: lvf2_stats::Distribution>(model: &D, golden: &Ecdf) -> f64 {
    let p3 = lvf2_stats::special::norm_cdf(3.0);
    (model.quantile(p3) - golden.quantile(p3)).abs()
}

#[cfg(test)]
mod q3_tests {
    use super::*;
    use lvf2_stats::{Distribution, Normal};
    use rand::SeedableRng;

    #[test]
    fn correct_model_lands_on_the_corner() {
        let truth = Normal::new(1.0, 0.1).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let xs = truth.sample_n(&mut rng, 100_000);
        let golden = Ecdf::new(xs).unwrap();
        let e = three_sigma_quantile_error(&truth, &golden);
        assert!(e < 0.01, "q3 error {e}");
        // A model with half the σ misses the corner by ~0.15 ns.
        let wrong = Normal::new(1.0, 0.05).unwrap();
        let e_wrong = three_sigma_quantile_error(&wrong, &golden);
        assert!(e_wrong > 0.1, "q3 error {e_wrong}");
    }
}
