//! Norm² fitting: two-Gaussian mixture by classic EM (ref \[10\]).
//!
//! The M-step is closed form (weighted means/variances), so this is the
//! textbook Gaussian-mixture EM with k-means initialization.

use lvf2_stats::{Distribution, Norm2, Normal, SampleMoments};

use crate::config::{FitConfig, KMEANS_ITERATIONS, MIN_SIGMA_RATIO, MIN_WEIGHT};
use crate::kmeans::kmeans1d;
use crate::report::{FitReport, Fitted};
use crate::FitError;

/// Fits a two-Gaussian mixture to samples by EM.
///
/// Initialization: k-means into two clusters, Gaussian per cluster, weight
/// from cluster sizes; when a cluster has fewer than 2 samples, both
/// components start from the global Gaussian shifted ∓σ/2. During EM, λ is
/// clamped into `[MIN_WEIGHT, 1 − MIN_WEIGHT]` ([`MIN_WEIGHT`]) and each σ
/// is floored at [`MIN_SIGMA_RATIO`] times the data σ; no component is
/// re-seeded. The reported log-likelihood scores the returned model.
///
/// # Errors
///
/// [`FitError::Stats`] for degenerate inputs (fewer than 4 samples),
/// [`FitError::DegenerateData`] when the data have zero variance.
///
/// # Example
///
/// ```
/// use lvf2_fit::{fit_norm2, FitConfig};
/// use lvf2_stats::{Distribution, Norm2, Normal};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), lvf2_fit::FitError> {
/// let truth = Norm2::new(0.5, Normal::new(0.0, 0.3)?, Normal::new(3.0, 0.3)?)?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(5);
/// let xs = truth.sample_n(&mut rng, 3000);
/// let fit = fit_norm2(&xs, &FitConfig::default())?;
/// assert!((fit.model.mean() - truth.mean()).abs() < 0.05);
/// # Ok(())
/// # }
/// ```
pub fn fit_norm2(samples: &[f64], config: &FitConfig) -> Result<Fitted<Norm2>, FitError> {
    let global = SampleMoments::from_samples(samples)?;
    if global.variance <= 0.0 {
        return Err(FitError::DegenerateData {
            why: "zero sample variance",
        });
    }
    if samples.len() < 4 {
        return Err(FitError::DegenerateData {
            why: "need at least 4 samples for a mixture",
        });
    }
    let n = samples.len();
    let sigma_floor = MIN_SIGMA_RATIO * global.std_dev();

    // --- Initialization: k-means + per-cluster Gaussians -------------------
    let km = kmeans1d(samples, 2, KMEANS_ITERATIONS)?;
    let sizes = km.sizes();
    let (mut mu, mut sg, mut lambda);
    if sizes[0] < 2 || sizes[1] < 2 {
        // Clusters collapsed: split the global Gaussian symmetrically.
        mu = [
            global.mean - 0.5 * global.std_dev(),
            global.mean + 0.5 * global.std_dev(),
        ];
        sg = [global.std_dev(), global.std_dev()];
        lambda = 0.5;
    } else {
        let c0 = km.cluster(samples, 0);
        let c1 = km.cluster(samples, 1);
        let m0 = SampleMoments::from_samples(&c0)?;
        let m1 = SampleMoments::from_samples(&c1)?;
        mu = [m0.mean, m1.mean];
        sg = [m0.std_dev().max(sigma_floor), m1.std_dev().max(sigma_floor)];
        lambda = sizes[1] as f64 / n as f64;
    }
    lambda = lambda.clamp(MIN_WEIGHT, 1.0 - MIN_WEIGHT);

    // --- EM loop ------------------------------------------------------------
    let mut resp1 = vec![0.0f64; n]; // responsibility of the FIRST component
    let mut prev_ll = f64::NEG_INFINITY;
    let mut iterations = 0;
    let mut converged = false;
    for it in 0..config.max_iterations {
        iterations = it + 1;
        let d1 = Normal::new(mu[0], sg[0])?;
        let d2 = Normal::new(mu[1], sg[1])?;

        // E-step (Eq. 6) + incomplete-data log-likelihood.
        let mut ll = 0.0;
        for (i, &x) in samples.iter().enumerate() {
            let a = (1.0 - lambda) * d1.pdf(x);
            let b = lambda * d2.pdf(x);
            let tot = a + b;
            resp1[i] = if tot > 0.0 { a / tot } else { 0.5 };
            ll += tot.max(f64::MIN_POSITIVE).ln();
        }

        // M-step: closed form.
        let w1: f64 = resp1.iter().sum();
        let w2 = n as f64 - w1;
        lambda = (w2 / n as f64).clamp(MIN_WEIGHT, 1.0 - MIN_WEIGHT);
        let mut new_mu = [0.0f64; 2];
        for (i, &x) in samples.iter().enumerate() {
            new_mu[0] += resp1[i] * x;
            new_mu[1] += (1.0 - resp1[i]) * x;
        }
        new_mu[0] /= w1.max(1e-12);
        new_mu[1] /= w2.max(1e-12);
        let mut var = [0.0f64; 2];
        for (i, &x) in samples.iter().enumerate() {
            var[0] += resp1[i] * (x - new_mu[0]).powi(2);
            var[1] += (1.0 - resp1[i]) * (x - new_mu[1]).powi(2);
        }
        var[0] /= w1.max(1e-12);
        var[1] /= w2.max(1e-12);
        mu = new_mu;
        sg = [
            var[0].sqrt().max(sigma_floor),
            var[1].sqrt().max(sigma_floor),
        ];

        if (ll - prev_ll).abs() / (n as f64) < config.tolerance {
            converged = true;
            break;
        }
        prev_ll = ll;
    }

    let model = Norm2::new(
        lambda,
        Normal::new(mu[0], sg[0])?,
        Normal::new(mu[1], sg[1])?,
    )?;
    // One more E-step pass scores the returned model: the loop's last `ll`
    // belongs to the iterate that entered the last M-step.
    let ll = samples
        .iter()
        .map(|&x| model.pdf(x).max(f64::MIN_POSITIVE).ln())
        .sum();
    Ok(Fitted::new(
        model,
        FitReport {
            log_likelihood: ll,
            iterations,
            converged,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sorted_components(m: &Norm2) -> [(f64, f64, f64); 2] {
        let mut comps = [
            (m.first().mu(), m.first().sigma(), 1.0 - m.lambda()),
            (m.second().mu(), m.second().sigma(), m.lambda()),
        ];
        if comps[0].0 > comps[1].0 {
            comps.swap(0, 1);
        }
        comps
    }

    #[test]
    fn recovers_well_separated_mixture() {
        let truth = Norm2::new(
            0.3,
            Normal::new(1.0, 0.1).unwrap(),
            Normal::new(2.0, 0.15).unwrap(),
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let xs = truth.sample_n(&mut rng, 20_000);
        let fit = fit_norm2(&xs, &FitConfig::default()).unwrap();
        let [c1, c2] = sorted_components(&fit.model);
        assert!((c1.0 - 1.0).abs() < 0.01, "μ1 {}", c1.0);
        assert!((c2.0 - 2.0).abs() < 0.01, "μ2 {}", c2.0);
        assert!((c1.1 - 0.1).abs() < 0.01);
        assert!((c2.1 - 0.15).abs() < 0.01);
        assert!((c2.2 - 0.3).abs() < 0.02, "λ {}", c2.2);
    }

    #[test]
    fn single_gaussian_data_stays_sane() {
        let truth = Normal::new(5.0, 0.5).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let xs = truth.sample_n(&mut rng, 5000);
        let fit = fit_norm2(&xs, &FitConfig::default()).unwrap();
        // Mixture of two nearly identical Gaussians ≈ the single Gaussian.
        assert!((fit.model.mean() - 5.0).abs() < 0.03);
        assert!((fit.model.std_dev() - 0.5).abs() < 0.03);
    }

    #[test]
    fn log_likelihood_is_monotone_improving() {
        let truth = Norm2::new(
            0.5,
            Normal::new(0.0, 0.2).unwrap(),
            Normal::new(1.5, 0.3).unwrap(),
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let xs = truth.sample_n(&mut rng, 4000);
        // Run with increasing iteration budgets; ll must be non-decreasing.
        let mut last = f64::NEG_INFINITY;
        for iters in [1, 3, 10, 40] {
            let fit = fit_norm2(&xs, &FitConfig::default().with_max_iterations(iters)).unwrap();
            assert!(
                fit.report.log_likelihood >= last - 1e-6,
                "ll decreased at budget {iters}: {} < {last}",
                fit.report.log_likelihood
            );
            last = fit.report.log_likelihood;
        }
    }

    #[test]
    fn rejects_degenerate_inputs() {
        assert!(fit_norm2(&[], &FitConfig::default()).is_err());
        assert!(fit_norm2(&[1.0, 1.0, 1.0, 1.0], &FitConfig::default()).is_err());
        assert!(fit_norm2(&[1.0, 2.0], &FitConfig::default()).is_err());
    }
}
