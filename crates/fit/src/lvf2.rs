//! LVF² fitting — the paper's §3.2 EM algorithm for a two-skew-normal
//! mixture.
//!
//! - **Initialization**: k-means into two clusters (ref \[13\]) + method of
//!   moments per cluster (ref \[14\]); λ from cluster sizes. By default EM
//!   also runs from a same-center narrow/wide split and the fit keeps the
//!   higher likelihood ([`InitStrategy`]).
//! - **EM**: the shared skew-normal mixture loop of `em` at k = 2. The
//!   E-step computes the responsibilities `zᵢ` of Eq. (6) in log space with
//!   the branch-free log-sum-exp of `estep` (no libm calls per sample).
//!   Eq. (9) has no closed form for skew-normal components, so the M-step
//!   maximizes each component's responsibility-weighted log-likelihood with
//!   a bounded Nelder–Mead over `(ξ, ln ω, α)` (an ECM step). The faster
//!   [`MStep::WeightedMoments`](crate::MStep::WeightedMoments) variant
//!   replaces MLE with weighted method of moments.
//! - **Termination**: the mean incomplete-data log-likelihood moves by
//!   less than `tolerance` between iterations, or three iterations in a row
//!   fail to beat the best so far, or the iteration cap. Each iteration
//!   scores the iterate that enters it; on the first and third stops the
//!   output of the last M-step is scored too. The fit returns the best
//!   iterate it scored, with that iterate's own log-likelihood. The
//!   weighted-MLE M-step does not lower the likelihood, so its runs end on
//!   the first clause or the cap and return their last M-step's output;
//!   weighted-moments runs mostly end on the second.
//!
//! - **Pair sweep**: under the moments M-step (`FitConfig::fast()`, which
//!   library characterization and the daemon run) from 512 samples on,
//!   k-means, the k-means cluster inits and EM run on the means of adjacent
//!   pairs of the sorted samples, each weighted by its count (2, or 1 for
//!   the odd last sample): half the points in every density sweep, E-step
//!   and moment sum. The global moments, so `sigma_floor` and the
//!   scale-split init, come from every sample, and so does the `|Δll|/n`
//!   of the tolerance. The winning run's model is then scored once on
//!   every sample, so the reported log-likelihood is the model's exact
//!   one; the per-iteration trajectory telemetry is that of the pair
//!   means. Smaller inputs and the weighted-MLE M-step keep one point per
//!   sample and give the same bits as a per-sample loop.
//!
//! Every stage runs on a sorted copy of the samples, so a fit depends only on
//! the multiset of its samples, and within each density sweep the skew
//! argument `αz` is monotone, so nearly every 8-lane chunk of
//! [`SkewNormal::ln_pdf_batch`](lvf2_stats::Distribution::ln_pdf_batch) sits
//! in a single `log Φ` regime and takes its vectorized path. Every buffer
//! lives in a reusable [`FitWorkspace`] (zero steady-state allocations).
//! `tests/golden_fits.rs` pins the exact fits.

use lvf2_obs::Obs;
use lvf2_stats::{Lvf2, Moments, SampleMoments, SkewNormal};

use crate::config::{FitConfig, InitStrategy, KMEANS_ITERATIONS, MIN_SIGMA_RATIO};
use crate::em::{cluster_skew_normal, gather_cluster, run_em, sample_log_likelihood, Restarts};
use crate::kmeans::kmeans1d_with;
use crate::report::Fitted;
use crate::workspace::{EmPoints, FitWorkspace};
use crate::FitError;

/// Fits the LVF² model (Eq. 4) to samples with the EM algorithm of §3.2.
///
/// The fit is deterministic for a given `(samples, config)` pair and does not
/// depend on the order of `samples`: any permutation gives a bit-identical
/// fit. The returned λ is always in `[MIN_WEIGHT, 1 − MIN_WEIGHT]`
/// ([`MIN_WEIGHT`](crate::MIN_WEIGHT)); exact-LVF models (λ = 0) are
/// produced by [`lvf2_stats::Lvf2::from_lvf`], not by this fitter.
///
/// # Errors
///
/// [`FitError::Stats`] / [`FitError::DegenerateData`] for inputs that cannot
/// support a two-component fit (fewer than 8 samples, zero variance).
///
/// # Example
///
/// ```
/// use lvf2_fit::{fit_lvf2, FitConfig};
/// use lvf2_stats::{Distribution, Lvf2, Moments, SkewNormal};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), lvf2_fit::FitError> {
/// let truth = Lvf2::new(
///     0.3,
///     SkewNormal::from_moments(Moments::new(0.10, 0.008, 0.5))?,
///     SkewNormal::from_moments(Moments::new(0.14, 0.010, -0.2))?,
/// )?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(9);
/// let xs = truth.sample_n(&mut rng, 5000);
/// let fit = fit_lvf2(&xs, &FitConfig::default())?;
/// assert!((fit.model.mean() - truth.mean()).abs() < 1e-3);
/// # Ok(())
/// # }
/// ```
pub fn fit_lvf2(samples: &[f64], config: &FitConfig) -> Result<Fitted<Lvf2>, FitError> {
    // `FitWorkspace::new` is free (buffers are lazy); per-arc reuse goes
    // through `fit_lvf2_with`.
    fit_lvf2_with(samples, config, &mut FitWorkspace::new())
}

/// [`fit_lvf2`] with caller-provided scratch memory.
///
/// Reusing one [`FitWorkspace`] across fits removes all steady-state heap
/// allocations from the EM hot path — `tests/no_alloc.rs` pins this.
/// Results are bit-identical to [`fit_lvf2`] whether the workspace is fresh
/// or recycled.
///
/// # Errors
///
/// As [`fit_lvf2`].
pub fn fit_lvf2_with(
    samples: &[f64],
    config: &FitConfig,
    ws: &mut FitWorkspace,
) -> Result<Fitted<Lvf2>, FitError> {
    let obs = Obs::current();
    let _span = obs.span("fit.em");
    let result = ws.with_points(samples, config, |samples, points, ws| {
        fit_lvf2_impl(samples, points, config, &obs, ws)
    });
    if let Err(e) = &result {
        obs.fit_error("lvf2.em", e);
    }
    result
}

/// The fit proper, on `samples` sorted ascending (counts of 1) and the
/// `points` EM runs on.
fn fit_lvf2_impl(
    samples: EmPoints<'_>,
    points: EmPoints<'_>,
    config: &FitConfig,
    obs: &Obs,
    ws: &mut FitWorkspace,
) -> Result<Fitted<Lvf2>, FitError> {
    let global = SampleMoments::from_samples(samples.xs)?;
    if global.variance <= 0.0 {
        return Err(FitError::DegenerateData {
            why: "zero sample variance",
        });
    }
    if samples.xs.len() < 8 {
        return Err(FitError::DegenerateData {
            why: "need at least 8 samples for LVF2",
        });
    }
    let sigma_floor = MIN_SIGMA_RATIO * global.std_dev();

    // --- Initialization candidates, each run by EM in turn ------------------
    // (a) k-means + method of moments (§3.2) — finds separated peaks;
    // (b) a same-center narrow/wide split — finds kurtosis-style mixtures
    //     that a location-based clustering cannot see.
    let collect_trajectory = obs.debug_data_enabled();
    let mut runs = Restarts::new();
    let mut run_from = |mut comps: [SkewNormal; 2], lambda0: f64, ws: &mut FitWorkspace| {
        // A later restart is abandoned once it provably trails the best
        // finished restart (see the check inside `run_em`).
        let mut weights = [1.0 - lambda0, lambda0];
        let run = run_em(
            points,
            &mut comps,
            &mut weights,
            sigma_floor,
            config,
            collect_trajectory,
            runs.bar(),
            ws,
        );
        runs.offer(Lvf2::new(weights[1], comps[0], comps[1])?, run);
        Ok::<(), FitError>(())
    };
    let m = global.to_moments();
    let global_sn = |mean: f64, sigma: f64| {
        SkewNormal::from_moments_clamped(Moments::new(mean, sigma, m.skewness))
    };
    let want_kmeans = matches!(
        config.init,
        InitStrategy::Best | InitStrategy::KMeansMoments
    );
    let want_scale = matches!(config.init, InitStrategy::Best | InitStrategy::ScaleSplit);
    let mut degenerate_components = 0usize;
    kmeans1d_with(points.xs, 2, KMEANS_ITERATIONS, &mut ws.kmeans)?;
    let mut sizes = [0usize; 2];
    ws.kmeans.sizes_into(&mut sizes);
    if want_kmeans && sizes[0] >= 4 && sizes[1] >= 4 {
        gather_cluster(&mut ws.cluster, points.xs, ws.kmeans.assignments(), 0);
        let c1 = cluster_skew_normal(&ws.cluster, sigma_floor)?;
        gather_cluster(&mut ws.cluster, points.xs, ws.kmeans.assignments(), 1);
        let c2 = cluster_skew_normal(&ws.cluster, sigma_floor)?;
        run_from([c1, c2], sizes[1] as f64 / points.xs.len() as f64, ws)?;
    } else if want_kmeans {
        // Degenerate split: seed two copies of the global fit, offset ±σ/2.
        degenerate_components = 2;
        let c1 = global_sn(m.mean - 0.5 * m.sigma, m.sigma)?;
        let c2 = global_sn(m.mean + 0.5 * m.sigma, m.sigma)?;
        run_from([c1, c2], 0.5, ws)?;
    }
    if want_scale {
        let c1 = global_sn(m.mean, 0.55 * m.sigma)?;
        let c2 = global_sn(m.mean, 1.6 * m.sigma)?;
        run_from([c1, c2], 0.35, ws)?;
    }
    // A fit on pair means reports its model's log-likelihood on every sample.
    if points.xs.len() < samples.xs.len() {
        runs.rescore_best(|m| {
            let comps = [*m.first(), *m.second()];
            sample_log_likelihood(samples, &comps, &[1.0 - m.lambda(), m.lambda()], ws)
        });
    }
    Ok(runs.finish(obs, "lvf2.em", degenerate_components))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MStep;
    use lvf2_stats::Distribution;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn bimodal_truth() -> Lvf2 {
        Lvf2::new(
            0.35,
            SkewNormal::from_moments(Moments::new(1.0, 0.05, 0.45)).unwrap(),
            SkewNormal::from_moments(Moments::new(1.35, 0.08, -0.25)).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn recovers_bimodal_mixture() {
        let truth = bimodal_truth();
        let mut rng = StdRng::seed_from_u64(10);
        let xs = truth.sample_n(&mut rng, 10_000);
        let fit = fit_lvf2(&xs, &FitConfig::default()).unwrap();
        let m = &fit.model;
        assert!((m.lambda() - 0.35).abs() < 0.05, "λ {}", m.lambda());
        assert!(
            (m.first().mean() - 1.0).abs() < 0.02,
            "μ1 {}",
            m.first().mean()
        );
        assert!(
            (m.second().mean() - 1.35).abs() < 0.03,
            "μ2 {}",
            m.second().mean()
        );
        assert!((m.mean() - truth.mean()).abs() < 0.01);
        assert!((m.std_dev() - truth.std_dev()).abs() < 0.01);
    }

    #[test]
    fn weighted_moments_mstep_also_recovers() {
        let truth = bimodal_truth();
        let mut rng = StdRng::seed_from_u64(11);
        let xs = truth.sample_n(&mut rng, 10_000);
        let cfg = FitConfig::default().with_m_step(MStep::WeightedMoments);
        let fit = fit_lvf2(&xs, &cfg).unwrap();
        assert!((fit.model.mean() - truth.mean()).abs() < 0.01);
        assert!((fit.model.lambda() - 0.35).abs() < 0.08);
    }

    #[test]
    fn mle_mstep_beats_or_matches_moments_mstep_in_likelihood() {
        let truth = bimodal_truth();
        let mut rng = StdRng::seed_from_u64(12);
        let xs = truth.sample_n(&mut rng, 4000);
        let mle = fit_lvf2(&xs, &FitConfig::default()).unwrap();
        let mom = fit_lvf2(
            &xs,
            &FitConfig::default().with_m_step(MStep::WeightedMoments),
        )
        .unwrap();
        assert!(
            mle.report.log_likelihood >= mom.report.log_likelihood - 1.0,
            "MLE ll {} < moments ll {}",
            mle.report.log_likelihood,
            mom.report.log_likelihood
        );
    }

    #[test]
    fn unimodal_data_degrades_gracefully() {
        let truth = SkewNormal::from_moments(Moments::new(2.0, 0.2, 0.5)).unwrap();
        let mut rng = StdRng::seed_from_u64(13);
        let xs = truth.sample_n(&mut rng, 5000);
        let fit = fit_lvf2(&xs, &FitConfig::default()).unwrap();
        // The mixture should still match the overall shape.
        assert!((fit.model.mean() - truth.mean()).abs() < 0.01);
        assert!((fit.model.std_dev() - truth.std_dev()).abs() < 0.01);
    }

    #[test]
    fn components_sorted_by_mean() {
        let truth = bimodal_truth();
        let mut rng = StdRng::seed_from_u64(14);
        let xs = truth.sample_n(&mut rng, 3000);
        let fit = fit_lvf2(&xs, &FitConfig::default()).unwrap();
        assert!(fit.model.first().mean() <= fit.model.second().mean());
    }

    #[test]
    fn deterministic_for_same_input() {
        let truth = bimodal_truth();
        let mut rng = StdRng::seed_from_u64(15);
        let xs = truth.sample_n(&mut rng, 2000);
        let a = fit_lvf2(&xs, &FitConfig::default()).unwrap();
        let b = fit_lvf2(&xs, &FitConfig::default()).unwrap();
        assert_eq!(a.model.lambda(), b.model.lambda());
        assert_eq!(a.model.first(), b.model.first());
    }

    #[test]
    fn rejects_tiny_or_constant_input() {
        assert!(fit_lvf2(&[1.0, 2.0, 3.0], &FitConfig::default()).is_err());
        assert!(fit_lvf2(&[5.0; 100], &FitConfig::default()).is_err());
    }

    #[test]
    fn workspace_reuse_does_not_change_results() {
        let truth = bimodal_truth();
        let mut rng = StdRng::seed_from_u64(18);
        let cfg = FitConfig::default();
        let mut ws = FitWorkspace::new();
        // Different sizes exercise buffer growth and shrink-free reuse.
        for n in [900, 400, 1200] {
            let xs = truth.sample_n(&mut rng, n);
            let fresh = fit_lvf2(&xs, &cfg).unwrap();
            let reused = fit_lvf2_with(&xs, &cfg, &mut ws).unwrap();
            assert_eq!(fresh.model, reused.model, "n={n}");
            assert_eq!(fresh.report, reused.report, "n={n}");
        }
    }

    #[test]
    fn log_likelihood_improves_with_iterations() {
        let truth = bimodal_truth();
        let mut rng = StdRng::seed_from_u64(16);
        let xs = truth.sample_n(&mut rng, 3000);
        let short = fit_lvf2(&xs, &FitConfig::default().with_max_iterations(2)).unwrap();
        let long = fit_lvf2(&xs, &FitConfig::default().with_max_iterations(50)).unwrap();
        assert!(long.report.log_likelihood >= short.report.log_likelihood - 1e-6);
    }
}
