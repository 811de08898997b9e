//! K-component skew-normal mixture EM — the §3.3 extension beyond two
//! components ("one can easily extend the library to support more
//! components").
//!
//! This is the general-K version of [`fit_lvf2`](crate::fit_lvf2): k-means
//! initialization into K clusters, K-way log-space responsibilities (the same
//! libm-free log-sum-exp as the two-component E-step), and the same
//! per-component M-step (weighted MLE or weighted moments). Like `fit_lvf2`,
//! it runs on a sorted copy of the samples, so the fit does not depend on
//! their order.

use lvf2_obs::{FitEvent, Obs};
use lvf2_stats::{Distribution, Mixture, Moments, SampleMoments, SkewNormal};

use crate::config::FitConfig;
use crate::estep::lse_row;
use crate::kmeans::kmeans1d_with;
use crate::lvf2::{gather_cluster, m_step_component};
use crate::report::{FitReport, Fitted};
use crate::workspace::{reset, FitWorkspace};
use crate::FitError;

/// Fits a K-component skew-normal mixture by EM.
///
/// `k = 1` degenerates to the LVF method-of-moments fit refined by MLE;
/// `k = 2` is the LVF² model (see [`fit_lvf2`](crate::fit_lvf2), which adds
/// a second initialization candidate); larger `k` captures distributions
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
    let result = ws.with_sorted(samples, |sorted, ws| {
        fit_sn_mixture_impl(sorted, k, config, &obs, ws)
    });
    if let Err(e) = &result {
        obs.fit_error("sn_mixture.em", e);
    }
    result
}

/// The fit proper, on `samples` sorted ascending.
fn fit_sn_mixture_impl(
    samples: &[f64],
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
    let global = SampleMoments::from_samples(samples)?;
    if global.variance <= 0.0 {
        return Err(FitError::DegenerateData {
            why: "zero sample variance",
        });
    }
    if samples.len() < 4 * k {
        return Err(FitError::DegenerateData {
            why: "need at least 4k samples for a k-mixture",
        });
    }
    let n = samples.len();
    let sigma_floor = config.min_sigma_ratio * global.std_dev();

    // --- Initialization: k-means + per-cluster method of moments -----------
    let mut comps: Vec<SkewNormal> = Vec::with_capacity(k);
    let mut weights: Vec<f64> = Vec::with_capacity(k);
    let mut degenerate_components = 0usize;
    kmeans1d_with(samples, k, config.kmeans_iterations, &mut ws.kmeans)?;
    for j in 0..k {
        gather_cluster(&mut ws.cluster, samples, ws.kmeans.assignments(), j);
        let comp = if ws.cluster.len() >= 4 {
            let m = SampleMoments::from_samples(&ws.cluster)?;
            SkewNormal::from_moments_clamped(Moments::new(
                m.mean,
                m.std_dev().max(sigma_floor),
                m.skewness,
            ))?
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
        weights.push((size.max(1) as f64 / n as f64).max(config.min_weight));
    }
    normalize(&mut weights);

    // --- EM loop -------------------------------------------------------------
    let collect_trajectory = obs.debug_data_enabled();
    let (ll, iterations, converged, trajectory) = em_loop(
        samples,
        &mut comps,
        &mut weights,
        sigma_floor,
        config,
        collect_trajectory,
        ws,
    );

    // Canonical order by component mean.
    let mut order: Vec<usize> = (0..k).collect();
    order.sort_by(|&a, &b| {
        comps[a]
            .mean()
            .partial_cmp(&comps[b].mean())
            .expect("finite")
    });
    let comps: Vec<SkewNormal> = order.iter().map(|&j| comps[j]).collect();
    let weights: Vec<f64> = order.iter().map(|&j| weights[j]).collect();

    let model = Mixture::new(comps, weights)?;
    obs.fit_event(&FitEvent {
        fitter: "sn_mixture.em",
        iterations,
        iterations_all: iterations,
        converged,
        restarts: 1,
        restarts_abandoned: 0,
        log_likelihood: ll,
        trajectory: &trajectory,
        degenerate_components,
    });
    Ok(Fitted::new(
        model,
        FitReport {
            log_likelihood: ll,
            iterations,
            converged,
        },
    ))
}

/// The K-way EM loop: per-component densities come from one
/// [`Distribution::ln_pdf_batch`] sweep each, the responsibility matrix is
/// one flat row-major buffer, and all scratch lives in the [`FitWorkspace`] —
/// steady-state iterations allocate nothing.
fn em_loop(
    samples: &[f64],
    comps: &mut [SkewNormal],
    weights: &mut [f64],
    sigma_floor: f64,
    config: &FitConfig,
    collect_trajectory: bool,
    ws: &mut FitWorkspace,
) -> (f64, usize, bool, Vec<f64>) {
    let n = samples.len();
    let k = comps.len();
    let FitWorkspace {
        resp_flat,
        dens,
        logw,
        wj,
        mstep,
        ..
    } = ws;
    reset(resp_flat, n * k);
    reset(dens, n * k);
    reset(logw, k);
    reset(wj, n);

    let mut prev_ll = f64::NEG_INFINITY;
    let mut ll = f64::NEG_INFINITY;
    let mut iterations = 0;
    let mut converged = false;
    let mut trajectory = Vec::new();
    for it in 0..config.max_iterations {
        iterations = it + 1;

        // Component log-densities, one chunked sweep per component.
        for (j, comp) in comps.iter().enumerate() {
            comp.ln_pdf_batch(samples, &mut dens[j * n..(j + 1) * n]);
        }

        // E-step (K-way, log space). Each row of `resp_flat` holds the
        // per-component log-joint transiently, then the responsibilities.
        ll = 0.0;
        for (lw, w) in logw.iter_mut().zip(weights.iter()) {
            *lw = w.ln();
        }
        for i in 0..n {
            let row = &mut resp_flat[i * k..(i + 1) * k];
            for (j, slot) in row.iter_mut().enumerate() {
                *slot = logw[j] + dens[j * n + i];
            }
            let log_tot = lse_row(row);
            if log_tot.is_finite() {
                ll += log_tot;
            } else {
                for r in row.iter_mut() {
                    *r = 1.0 / k as f64;
                }
                ll += -745.0;
            }
        }

        // Weight update + per-component M-step (gather buffer reused).
        for j in 0..k {
            for (slot, row) in wj.iter_mut().zip(resp_flat.chunks_exact(k)) {
                *slot = row[j];
            }
            let total: f64 = wj.iter().sum();
            weights[j] = (total / n as f64).max(config.min_weight);
            comps[j] = m_step_component(samples, wj, comps[j], sigma_floor, config, it > 0, mstep);
        }
        normalize(weights);

        if collect_trajectory {
            trajectory.push(ll);
        }
        if (ll - prev_ll).abs() / (n as f64) < config.tolerance {
            converged = true;
            break;
        }
        prev_ll = ll;
    }
    (ll, iterations, converged, trajectory)
}

fn normalize(weights: &mut [f64]) {
    let total: f64 = weights.iter().sum();
    for w in weights.iter_mut() {
        *w /= total;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
