//! K-component skew-normal mixture EM — the §3.3 extension beyond two
//! components ("one can easily extend the library to support more
//! components").
//!
//! This is the general-K version of [`fit_lvf2`](crate::fit_lvf2): k-means
//! initialization into K clusters, then the same EM loop (`em`), which at
//! k ≠ 2 takes K-way log-space responsibilities. Like `fit_lvf2`, it runs on
//! a sorted copy of the samples, so the fit does not depend on their order,
//! and under the moments M-step from 512 samples on its k-means and EM run
//! on pair means of that copy, with the result scored on every sample.

use lvf2_obs::Obs;
use lvf2_stats::{Mixture, Moments, SampleMoments, SkewNormal};

use crate::config::{FitConfig, KMEANS_ITERATIONS, MIN_SIGMA_RATIO, MIN_WEIGHT};
use crate::em::{
    cluster_skew_normal, gather_cluster, normalize, run_em, sample_log_likelihood, Restarts,
};
use crate::kmeans::kmeans1d_with;
use crate::report::Fitted;
use crate::workspace::{EmPoints, FitWorkspace};
use crate::FitError;

/// Fits a K-component skew-normal mixture by EM.
///
/// `k = 1` degenerates to the LVF method-of-moments fit refined by MLE;
/// `k = 2` is the LVF² model, fitted by the same two-component EM as
/// [`fit_lvf2`](crate::fit_lvf2) but from the k-means initialization only
/// (`fit_lvf2` adds a second candidate); larger `k` captures distributions
/// like the Multi-Peaks scenario exactly.
///
/// # Errors
///
/// [`FitError::DegenerateData`] when there are fewer than `4k` samples or
/// the variance is zero.
///
/// # Example
///
/// ```
/// use lvf2_fit::{fit_sn_mixture, FitConfig};
/// use lvf2_stats::Distribution;
///
/// # fn main() -> Result<(), lvf2_fit::FitError> {
/// let xs = lvf2_cells_free_sample();
/// let fit = fit_sn_mixture(&xs, 3, &FitConfig::fast())?;
/// assert_eq!(fit.model.len(), 3);
/// # Ok(())
/// # }
/// # fn lvf2_cells_free_sample() -> Vec<f64> {
/// #     use lvf2_stats::{Distribution, Moments, SkewNormal};
/// #     use rand::SeedableRng;
/// #     let sn = SkewNormal::from_moments(Moments::new(1.0, 0.1, 0.2)).unwrap();
/// #     let mut rng = rand::rngs::StdRng::seed_from_u64(5);
/// #     sn.sample_n(&mut rng, 500)
/// # }
/// ```
pub fn fit_sn_mixture(
    samples: &[f64],
    k: usize,
    config: &FitConfig,
) -> Result<Fitted<Mixture<SkewNormal>>, FitError> {
    fit_sn_mixture_with(samples, k, config, &mut FitWorkspace::new())
}

/// [`fit_sn_mixture`] with caller-provided scratch memory; see
/// [`crate::fit_lvf2_with`] for the reuse contract. Results are bit-identical
/// whether the workspace is fresh or recycled.
///
/// # Errors
///
/// As [`fit_sn_mixture`].
pub fn fit_sn_mixture_with(
    samples: &[f64],
    k: usize,
    config: &FitConfig,
    ws: &mut FitWorkspace,
) -> Result<Fitted<Mixture<SkewNormal>>, FitError> {
    let obs = Obs::current();
    let _span = obs.span("fit.em");
    let result = ws.with_points(samples, config, |samples, points, ws| {
        fit_sn_mixture_impl(samples, points, k, config, &obs, ws)
    });
    if let Err(e) = &result {
        obs.fit_error("sn_mixture.em", e);
    }
    result
}

/// The fit proper, on `samples` sorted ascending (counts of 1) and the
/// `points` EM runs on.
fn fit_sn_mixture_impl(
    samples: EmPoints<'_>,
    points: EmPoints<'_>,
    k: usize,
    config: &FitConfig,
    obs: &Obs,
    ws: &mut FitWorkspace,
) -> Result<Fitted<Mixture<SkewNormal>>, FitError> {
    if k == 0 {
        return Err(FitError::DegenerateData {
            why: "mixture order must be at least 1",
        });
    }
    let global = SampleMoments::from_samples(samples.xs)?;
    if global.variance <= 0.0 {
        return Err(FitError::DegenerateData {
            why: "zero sample variance",
        });
    }
    if samples.xs.len() < 4 * k {
        return Err(FitError::DegenerateData {
            why: "need at least 4k samples for a k-mixture",
        });
    }
    let n = points.xs.len();
    let sigma_floor = MIN_SIGMA_RATIO * global.std_dev();

    // --- Initialization: k-means + per-cluster method of moments -----------
    let mut comps: Vec<SkewNormal> = Vec::with_capacity(k);
    let mut weights: Vec<f64> = Vec::with_capacity(k);
    let mut degenerate_components = 0usize;
    kmeans1d_with(points.xs, k, KMEANS_ITERATIONS, &mut ws.kmeans)?;
    for j in 0..k {
        gather_cluster(&mut ws.cluster, points.xs, ws.kmeans.assignments(), j);
        let comp = if ws.cluster.len() >= 4 {
            cluster_skew_normal(&ws.cluster, sigma_floor)?
        } else {
            // Empty-ish cluster: seed from the global fit near its center.
            degenerate_components += 1;
            let centers = ws.kmeans.centers();
            SkewNormal::from_moments_clamped(Moments::new(
                centers[j.min(centers.len() - 1)],
                global.std_dev(),
                global.skewness,
            ))?
        };
        comps.push(comp);
        let size = ws.cluster.len();
        weights.push((size.max(1) as f64 / n as f64).max(MIN_WEIGHT));
    }
    normalize(&mut weights);

    // One run, so nothing to abandon.
    let run = run_em(
        points,
        &mut comps,
        &mut weights,
        sigma_floor,
        config,
        obs.debug_data_enabled(),
        f64::NEG_INFINITY,
        ws,
    );
    let mut runs = Restarts::new();
    runs.offer(Mixture::new(comps, weights)?, run);
    // A fit on pair means reports its model's log-likelihood on every sample.
    if points.xs.len() < samples.xs.len() {
        runs.rescore_best(|m| sample_log_likelihood(samples, m.components(), m.weights(), ws));
    }
    Ok(runs.finish(obs, "sn_mixture.em", degenerate_components))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lvf2_stats::Distribution;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn three_peak_truth() -> Mixture<SkewNormal> {
        let sn = |m: f64, s: f64, g: f64| SkewNormal::from_moments(Moments::new(m, s, g)).unwrap();
        Mixture::new(
            vec![sn(1.0, 0.04, 0.5), sn(1.3, 0.05, 0.3), sn(1.6, 0.06, -0.2)],
            vec![0.45, 0.35, 0.20],
        )
        .unwrap()
    }

    #[test]
    fn recovers_three_components() {
        let truth = three_peak_truth();
        let mut rng = StdRng::seed_from_u64(41);
        let xs = truth.sample_n(&mut rng, 15_000);
        let fit = fit_sn_mixture(&xs, 3, &FitConfig::default()).unwrap();
        assert_eq!(fit.model.len(), 3);
        let means: Vec<f64> = fit.model.components().iter().map(|c| c.mean()).collect();
        assert!((means[0] - 1.0).abs() < 0.03, "μ1 {}", means[0]);
        assert!((means[1] - 1.3).abs() < 0.04, "μ2 {}", means[1]);
        assert!((means[2] - 1.6).abs() < 0.05, "μ3 {}", means[2]);
        assert!((fit.model.weights()[0] - 0.45).abs() < 0.06);
        assert!((fit.model.mean() - truth.mean()).abs() < 0.01);
    }

    #[test]
    fn k3_beats_k2_on_three_peak_data() {
        let truth = three_peak_truth();
        let mut rng = StdRng::seed_from_u64(42);
        let xs = truth.sample_n(&mut rng, 10_000);
        let k2 = fit_sn_mixture(&xs, 2, &FitConfig::default()).unwrap();
        let k3 = fit_sn_mixture(&xs, 3, &FitConfig::default()).unwrap();
        assert!(
            k3.report.log_likelihood > k2.report.log_likelihood,
            "k=3 ll {} vs k=2 ll {}",
            k3.report.log_likelihood,
            k2.report.log_likelihood
        );
    }

    #[test]
    fn k1_matches_single_component_shape() {
        let sn = SkewNormal::from_moments(Moments::new(2.0, 0.2, 0.4)).unwrap();
        let mut rng = StdRng::seed_from_u64(43);
        let xs = sn.sample_n(&mut rng, 6000);
        let fit = fit_sn_mixture(&xs, 1, &FitConfig::default()).unwrap();
        assert_eq!(fit.model.len(), 1);
        assert!((fit.model.mean() - 2.0).abs() < 0.02);
        assert!((fit.model.std_dev() - 0.2).abs() < 0.02);
    }

    #[test]
    fn rejects_bad_orders_and_tiny_data() {
        assert!(fit_sn_mixture(&[1.0; 100], 0, &FitConfig::default()).is_err());
        assert!(fit_sn_mixture(&[1.0, 2.0, 3.0], 2, &FitConfig::default()).is_err());
    }

    #[test]
    fn workspace_reuse_matches_fresh_fits() {
        let truth = three_peak_truth();
        let mut rng = StdRng::seed_from_u64(46);
        let cfg = FitConfig::fast();
        let mut ws = FitWorkspace::new();
        for (k, n) in [(2usize, 800usize), (3, 1200), (2, 500)] {
            let xs = truth.sample_n(&mut rng, n);
            let fresh = fit_sn_mixture(&xs, k, &cfg).unwrap();
            let reused = fit_sn_mixture_with(&xs, k, &cfg, &mut ws).unwrap();
            assert_eq!(fresh.model, reused.model, "k={k} n={n}");
            assert_eq!(fresh.report, reused.report, "k={k} n={n}");
        }
    }

    #[test]
    fn weights_stay_normalized_and_ordered_by_mean() {
        let truth = three_peak_truth();
        let mut rng = StdRng::seed_from_u64(44);
        let xs = truth.sample_n(&mut rng, 5000);
        let fit = fit_sn_mixture(&xs, 4, &FitConfig::fast()).unwrap();
        let wsum: f64 = fit.model.weights().iter().sum();
        assert!((wsum - 1.0).abs() < 1e-9);
        let means: Vec<f64> = fit.model.components().iter().map(|c| c.mean()).collect();
        assert!(means.windows(2).all(|w| w[0] <= w[1]));
    }
}
