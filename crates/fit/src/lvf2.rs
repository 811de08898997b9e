//! LVF² fitting — the paper's §3.2 EM algorithm for a two-skew-normal
//! mixture.
//!
//! - **Initialization**: k-means into two clusters (ref \[13\]) + method of
//!   moments per cluster (ref \[14\]); λ from cluster sizes.
//! - **E-step**: responsibilities `zᵢ` of Eq. (6), computed in log space by
//!   the branch-free log-sum-exp of `estep` (no libm calls per sample).
//! - **M-step**: Eq. (9) has no closed form for skew-normal components, so
//!   each component maximizes its responsibility-weighted log-likelihood with
//!   a bounded Nelder–Mead over `(ξ, ln ω, α)` (an ECM step). The faster
//!   [`MStep::WeightedMoments`] variant replaces MLE with weighted method of
//!   moments.
//! - **Termination**: mean incomplete-data log-likelihood improvement below
//!   `tolerance`, or the iteration cap.
//!
//! Every stage runs on a sorted copy of the samples, so a fit depends only on
//! the multiset of its samples, and within each density sweep the skew
//! argument `αz` is monotone, so nearly every 8-lane chunk of
//! [`SkewNormal::ln_pdf_batch`](Distribution::ln_pdf_batch) sits in a single
//! `log Φ` regime and takes its vectorized path. Every buffer lives in a
//! reusable [`FitWorkspace`] (zero steady-state allocations).
//! `tests/golden_fits.rs` pins the exact fits.

use lvf2_obs::{FitEvent, Obs};
use lvf2_stats::{Distribution, Lvf2, Moments, SampleMoments, SkewNormal};

use crate::config::{FitConfig, InitStrategy, MStep};
use crate::estep::lse2;
use crate::kmeans::kmeans1d_with;
use crate::nelder_mead::{nelder_mead_with, NelderMeadOptions};
use crate::report::{FitReport, Fitted};
use crate::weighted::weighted_moments;
use crate::workspace::{reset, FitWorkspace, MStepScratch};
use crate::FitError;

/// Largest |α| the M-step will consider; beyond this the skew-normal shape is
/// numerically indistinguishable from the half-normal limit.
const ALPHA_BOUND: f64 = 60.0;

/// Fits the LVF² model (Eq. 4) to samples with the EM algorithm of §3.2.
///
/// The fit is deterministic for a given `(samples, config)` pair and does not
/// depend on the order of `samples`: any permutation gives a bit-identical
/// fit. The returned λ is always in `[min_weight, 1 − min_weight]`;
/// exact-LVF models (λ = 0) are produced by [`lvf2_stats::Lvf2::from_lvf`],
/// not by this fitter.
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
    let result = ws.with_sorted(samples, |sorted, ws| {
        fit_lvf2_impl(sorted, config, &obs, ws)
    });
    if let Err(e) = &result {
        obs.fit_error("lvf2.em", e);
    }
    result
}

/// The fit proper, on `samples` sorted ascending.
fn fit_lvf2_impl(
    samples: &[f64],
    config: &FitConfig,
    obs: &Obs,
    ws: &mut FitWorkspace,
) -> Result<Fitted<Lvf2>, FitError> {
    let global = SampleMoments::from_samples(samples)?;
    if global.variance <= 0.0 {
        return Err(FitError::DegenerateData {
            why: "zero sample variance",
        });
    }
    if samples.len() < 8 {
        return Err(FitError::DegenerateData {
            why: "need at least 8 samples for LVF2",
        });
    }
    let sigma_floor = config.min_sigma_ratio * global.std_dev();

    // --- Initialization candidates ------------------------------------------
    // (a) k-means + method of moments (§3.2) — finds separated peaks;
    // (b) a same-center narrow/wide split — finds kurtosis-style mixtures
    //     that a location-based clustering cannot see.
    // Fixed-size candidate storage: at most two, no heap.
    let mut inits: [Option<(SkewNormal, SkewNormal, f64)>; 2] = [None, None];
    let mut n_inits = 0usize;
    let mut degenerate_components = 0usize;
    let n = samples.len();
    let m = global.to_moments();
    let want_kmeans = matches!(
        config.init,
        InitStrategy::Best | InitStrategy::KMeansMoments
    );
    let want_scale = matches!(config.init, InitStrategy::Best | InitStrategy::ScaleSplit);
    kmeans1d_with(samples, 2, config.kmeans_iterations, &mut ws.kmeans)?;
    let mut sizes = [0usize; 2];
    ws.kmeans.sizes_into(&mut sizes);
    if want_kmeans && sizes[0] >= 4 && sizes[1] >= 4 {
        gather_cluster(&mut ws.cluster, samples, ws.kmeans.assignments(), 0);
        let c1 = cluster_skew_normal(&ws.cluster, sigma_floor)?;
        gather_cluster(&mut ws.cluster, samples, ws.kmeans.assignments(), 1);
        let c2 = cluster_skew_normal(&ws.cluster, sigma_floor)?;
        inits[n_inits] = Some((c1, c2, sizes[1] as f64 / n as f64));
        n_inits += 1;
    } else if want_kmeans {
        // Degenerate split: seed two copies of the global fit, offset ±σ/2.
        degenerate_components = 2;
        inits[n_inits] = Some((
            SkewNormal::from_moments_clamped(Moments::new(
                m.mean - 0.5 * m.sigma,
                m.sigma,
                m.skewness,
            ))?,
            SkewNormal::from_moments_clamped(Moments::new(
                m.mean + 0.5 * m.sigma,
                m.sigma,
                m.skewness,
            ))?,
            0.5,
        ));
        n_inits += 1;
    }
    if want_scale {
        inits[n_inits] = Some((
            SkewNormal::from_moments_clamped(Moments::new(m.mean, 0.55 * m.sigma, m.skewness))?,
            SkewNormal::from_moments_clamped(Moments::new(m.mean, 1.6 * m.sigma, m.skewness))?,
            0.35,
        ));
        n_inits += 1;
    }

    let restarts = n_inits;
    let collect_trajectory = obs.debug_data_enabled();
    let mut best: Option<(Lvf2, FitReport, Vec<f64>)> = None;
    let mut iterations_all = 0;
    let mut restarts_abandoned = 0;
    for slot in inits.iter().take(n_inits) {
        let (c1, c2, l0) = slot.expect("init slot filled");
        // A later restart is abandoned once it provably trails the best
        // finished restart (see the check inside `run_em`).
        let bar = best
            .as_ref()
            .map(|(_, b, _)| b.log_likelihood)
            .unwrap_or(f64::NEG_INFINITY);
        let (model, report, traj, abandoned) = run_em(
            samples,
            c1,
            c2,
            l0,
            sigma_floor,
            config,
            collect_trajectory,
            bar,
            ws,
        )?;
        iterations_all += report.iterations;
        restarts_abandoned += usize::from(abandoned);
        let better = match &best {
            None => true,
            Some((_, b, _)) => report.log_likelihood > b.log_likelihood,
        };
        if better {
            best = Some((model, report, traj));
        }
    }
    let (model, report, trajectory) = best.expect("at least one initialization ran");
    obs.fit_event(&FitEvent {
        fitter: "lvf2.em",
        iterations: report.iterations,
        iterations_all,
        converged: report.converged,
        restarts,
        restarts_abandoned,
        log_likelihood: report.log_likelihood,
        trajectory: &trajectory,
        degenerate_components,
    });
    Ok(Fitted::new(model, report))
}

/// One EM run from a fixed initialization. Component densities come from one
/// [`Distribution::ln_pdf_batch`] sweep per component and every buffer lives
/// in the [`FitWorkspace`] — steady-state iterations allocate nothing.
/// `collect_trajectory` additionally returns the per-iteration
/// log-likelihood (for debug telemetry). The last element of the result is
/// `true` when the run was abandoned as trailing `abandon_below`.
#[allow(clippy::too_many_arguments)]
fn run_em(
    samples: &[f64],
    mut comp1: SkewNormal,
    mut comp2: SkewNormal,
    lambda0: f64,
    sigma_floor: f64,
    config: &FitConfig,
    collect_trajectory: bool,
    abandon_below: f64,
    ws: &mut FitWorkspace,
) -> Result<(Lvf2, FitReport, Vec<f64>, bool), FitError> {
    let n = samples.len();
    let mut lambda = lambda0.clamp(config.min_weight, 1.0 - config.min_weight);

    let FitWorkspace {
        resp1,
        resp2,
        logs1,
        logs2,
        mstep,
        ..
    } = ws;
    reset(resp1, n);
    reset(resp2, n);
    reset(logs1, n);
    reset(logs2, n);

    // --- EM loop -------------------------------------------------------------
    let mut prev_ll = f64::NEG_INFINITY;
    let mut ll = f64::NEG_INFINITY;
    let mut iterations = 0;
    let mut converged = false;
    let mut abandoned = false;
    let mut trajectory = Vec::new();
    for it in 0..config.max_iterations {
        iterations = it + 1;

        // Component log-densities for the whole sample vector, one chunked
        // sweep per component.
        comp1.ln_pdf_batch(samples, logs1);
        comp2.ln_pdf_batch(samples, logs2);

        // E-step (Eq. 6): the chunked log-sum-exp writes z₁ to `resp1` and
        // each sample's log-normalizer to `resp2`. One pass in sample order
        // then accumulates the incomplete-data log-likelihood and Σz₁, and
        // overwrites `resp2` with the complement weights 1 − z₁.
        lse2((1.0 - lambda).ln(), lambda.ln(), logs1, logs2, resp1, resp2);
        ll = 0.0;
        let mut w1 = 0.0;
        for (z1, z2) in resp1.iter_mut().zip(resp2.iter_mut()) {
            let log_tot = *z2;
            if log_tot.is_finite() {
                ll += log_tot;
            } else {
                *z1 = 0.5;
                ll += -745.0; // both densities underflowed; cap the penalty
            }
            w1 += *z1;
            *z2 = 1.0 - *z1;
        }

        // λ update: λ = Σ(1 − zᵢ)/n.
        lambda = ((n as f64 - w1) / n as f64).clamp(config.min_weight, 1.0 - config.min_weight);

        // M-step per component.
        comp1 = m_step_component(samples, resp1, comp1, sigma_floor, config, it > 0, mstep);
        comp2 = m_step_component(samples, resp2, comp2, sigma_floor, config, it > 0, mstep);

        if collect_trajectory {
            trajectory.push(ll);
        }
        if (ll - prev_ll).abs() / (n as f64) < config.tolerance {
            converged = true;
            break;
        }
        // Restart pruning: a later restart is abandoned once even
        // `remaining × last_gain` cannot close the gap to a restart that
        // already finished better. Under the weighted-MLE M-step each
        // iteration is an ECM step: the log-likelihood never drops and (in
        // practice) its gains shrink, so the pruned restart would not have
        // been selected. `MStep::WeightedMoments` is not an EM step — its
        // log-likelihood can fall and later rise — so there the rule is a
        // heuristic that may drop a restart which would have finished
        // higher. On the first iteration `last_gain` is +∞ (prev_ll = −∞),
        // which disables the check.
        let remaining = (config.max_iterations - iterations) as f64;
        let last_gain = (ll - prev_ll).max(0.0);
        if ll + remaining * last_gain < abandon_below {
            abandoned = true;
            break;
        }
        prev_ll = ll;
    }

    // Canonical order: component 1 has the smaller mean (stable reporting).
    if comp1.mean() > comp2.mean() {
        std::mem::swap(&mut comp1, &mut comp2);
        lambda = 1.0 - lambda;
    }

    let model = Lvf2::new(lambda, comp1, comp2)?;
    Ok((
        model,
        FitReport {
            log_likelihood: ll,
            iterations,
            converged,
        },
        trajectory,
        abandoned,
    ))
}

/// Collects the samples assigned to cluster `j` into `out`, in input order —
/// the allocation-free form of [`crate::KMeansResult::cluster`].
pub(crate) fn gather_cluster(out: &mut Vec<f64>, xs: &[f64], assignments: &[usize], j: usize) {
    out.clear();
    out.extend(
        xs.iter()
            .zip(assignments)
            .filter(|(_, &a)| a == j)
            .map(|(&x, _)| x),
    );
}

/// Skew-normal for one k-means cluster by (clamped) method of moments.
fn cluster_skew_normal(cluster: &[f64], sigma_floor: f64) -> Result<SkewNormal, FitError> {
    let m = SampleMoments::from_samples(cluster)?;
    let sigma = m.std_dev().max(sigma_floor);
    Ok(SkewNormal::from_moments_clamped(Moments::new(
        m.mean, sigma, m.skewness,
    ))?)
}

/// Inner Nelder–Mead objective tolerance for the weighted-MLE M-step.
///
/// The objective is a weighted *total* negative log-likelihood (magnitude
/// `O(n)`), so this absolute spread is effectively "run until the simplex
/// plateaus or the budget is spent". Loosening it to a value relative to
/// the outer EM criterion looked attractive, but empirically the early-
/// terminated M-steps steer EM into visibly worse basins (the
/// `mle_mstep_beats_or_matches_moments_mstep_in_likelihood` regression
/// test catches this), so the inner solve stays tight; wall time is won
/// through warm starts and dominated-restart pruning instead.
const INNER_F_TOLERANCE: f64 = 1e-8;

/// Initial Nelder–Mead simplex spread for the M-step.
///
/// On the first EM iteration the component comes from a method-of-moments
/// initializer and may sit well away from its weighted-MLE optimum, so the
/// simplex needs room (0.05 per unit scale). Later iterations re-optimize
/// from the previous M-step's own optimum, which EM moves only slightly —
/// a 5×-smaller simplex converges in a fraction of the evaluations without
/// changing where it converges to.
#[inline]
fn warm_initial_step(warm: bool) -> f64 {
    if warm {
        0.01
    } else {
        0.05
    }
}

/// One M-step for a single component under `weights` (shared with the
/// K-component generalization in `mixture_em`).
///
/// The weighted-MLE step compacts the support (`w > 1e-12`) once — the
/// weights are fixed during the inner optimization, and the compacted
/// samples keep the (sorted) order of `xs` — and evaluates the
/// weighted negative log-likelihood with one
/// [`Distribution::ln_pdf_batch`] sweep per objective call, inside the
/// caller's scratch.
///
/// `warm` marks every EM iteration after the first: `current` is then the
/// previous M-step's own optimum, so the Nelder–Mead simplex starts at a
/// fifth of the cold-start spread instead of re-exploring the whole
/// neighbourhood ([`warm_initial_step`]).
pub(crate) fn m_step_component(
    xs: &[f64],
    weights: &[f64],
    current: SkewNormal,
    sigma_floor: f64,
    config: &FitConfig,
    warm: bool,
    scratch: &mut MStepScratch,
) -> SkewNormal {
    match config.m_step {
        MStep::WeightedMoments => match weighted_moments(xs, weights) {
            // Moment matching must see the *full* weight vector — dropping
            // sub-1e-12 weights would perturb the sums at the ulp level.
            Some(m) => {
                let m = Moments::new(m.mean, m.sigma.max(sigma_floor), m.skewness);
                SkewNormal::from_moments_clamped(m).unwrap_or(current)
            }
            None => current,
        },
        MStep::WeightedMle => {
            let MStepScratch {
                active_xs,
                active_ws,
                obj,
                nm,
            } = scratch;
            active_xs.clear();
            active_ws.clear();
            for (&x, &w) in xs.iter().zip(weights) {
                if w > 1e-12 {
                    active_xs.push(x);
                    active_ws.push(w);
                }
            }
            reset(obj, active_xs.len());
            // Maximize Σ wᵢ ln f_SN(xᵢ; ξ, e^{lw}, α) with Nelder–Mead.
            let objective = |p: &[f64]| -> f64 {
                let (xi, lw, alpha) = (p[0], p[1], p[2]);
                if !xi.is_finite() || !lw.is_finite() || alpha.abs() > ALPHA_BOUND {
                    return f64::INFINITY;
                }
                let omega = lw.exp();
                if omega < sigma_floor * 0.1 || !omega.is_finite() {
                    return f64::INFINITY;
                }
                let Ok(sn) = SkewNormal::new(xi, omega, alpha) else {
                    return f64::INFINITY;
                };
                sn.ln_pdf_batch(active_xs, obj);
                let mut nll = 0.0;
                for (&w, &l) in active_ws.iter().zip(obj.iter()) {
                    nll -= w * l;
                }
                if nll.is_finite() {
                    nll
                } else {
                    f64::INFINITY
                }
            };
            let x0 = [current.xi(), current.omega().ln(), current.alpha()];
            let opts = NelderMeadOptions {
                max_evals: config.inner_evals,
                f_tolerance: INNER_F_TOLERANCE,
                x_tolerance: 1e-8,
                initial_step: warm_initial_step(warm),
            };
            let mut best = [0.0f64; 3];
            let (fx, _evals, _converged) = nelder_mead_with(objective, &x0, &opts, nm, &mut best);
            if fx.is_finite() {
                SkewNormal::new(best[0], best[1].exp(), best[2]).unwrap_or(current)
            } else {
                current
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
