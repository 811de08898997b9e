//! The EM iteration shared by every skew-normal mixture fitter — the
//! paper's §3.2 loop, which [`fit_lvf2`](crate::fit_lvf2) runs at k = 2 and
//! [`fit_sn_mixture`](crate::fit_sn_mixture) at any k (§3.3).
//!
//! EM runs on the fit's [`EmPoints`]: the sorted samples, or, under the
//! moments M-step from 512 samples on, the means of adjacent pairs of them,
//! each point carrying the number of samples it stands for (its count `cᵢ`;
//! 1 for every sample of an ungrouped fit). One iteration sweeps each
//! component's log-density over the points into the component-major `dens`
//! buffer (`dens[j*m + i]`, m points), turns them into count-weighted
//! responsibilities `resp[j*m + i] = cᵢ·zᵢⱼ` and new weights (E-step,
//! Eq. 6), then re-fits each component to its responsibilities (M-step,
//! Eq. 9). The E-step depends on the component count:
//!
//! - at k = 2 the state is λ, the second component's weight: the chunked
//!   [`lse2`] kernel gives `z₁`, the second responsibility is `1 − z₁`, and
//!   λ = Σcᵢ(1 − z₁ᵢ)/n over the n samples is clamped into
//!   `[min_weight, 1 − min_weight]`;
//! - at any other k each point's row goes through [`lse_row`], and each
//!   weight is floored at `min_weight` and then all are renormalized.
//!
//! Each iteration's log-likelihood, Σcᵢ ln f(xᵢ) over the points, scores
//! the iterate that enters it, and the run returns the best iterate it
//! scored. It stops when the log-likelihood settles or stops improving (see
//! [`run_em`]). Counts of 1 multiply exactly, so an ungrouped fit computes
//! what a per-sample loop would, bit for bit. On pair means the
//! log-likelihood, and the per-iteration `trajectory` telemetry, are those
//! of the pair means; the fitter then scores the winning model once on
//! every sample ([`sample_log_likelihood`]), so the reported
//! log-likelihood is always the model's exact one.
//!
//! Every buffer lives in the [`FitWorkspace`], so steady-state iterations
//! allocate nothing.

use lvf2_obs::{FitEvent, Obs};
use lvf2_stats::{Distribution, Moments, SampleMoments, SkewNormal};

use crate::config::{FitConfig, MStep};
use crate::estep::{lse2, lse_row};
use crate::nelder_mead::{nelder_mead_with, NelderMeadOptions};
use crate::report::{FitReport, Fitted};
use crate::weighted::weighted_moments;
use crate::workspace::{reset, EmPoints, FitWorkspace, MStepScratch};
use crate::FitError;

/// Largest |α| the M-step will consider; beyond this the skew-normal shape is
/// numerically indistinguishable from the half-normal limit.
const ALPHA_BOUND: f64 = 60.0;

/// Consecutive iterations that fail to beat the run's best log-likelihood
/// before [`run_em`] stops. Under [`MStep::WeightedMoments`] the
/// log-likelihood does not rise on every step. On the 1536 entries of the
/// twelve perfbench `libchar` reference arcs (`FitConfig::fast()`), a stop
/// after 1, 2, 3 or 5 such iterations gave 26, 29, 32 and 37 EM iterations
/// per fit and mean binning errors of 0.00399, 0.00377, 0.00364 and
/// 0.00354; with no such stop, 55 iterations and 0.00334. Three keeps most
/// of that quality at well under its cost. The median CDF-RMSE is the
/// exception: every count leaves it above the no-stop run's 0.00282
/// (0.00317, 0.00309, 0.00302, 0.00298). The weighted-MLE M-step is an ECM
/// step, whose log-likelihood does not fall, so this clause does not fire
/// there.
const STALE_ITERATIONS: usize = 3;

/// One finished EM run.
pub(crate) struct EmRun {
    /// The returned iterate's log-likelihood, iterations run and the
    /// convergence flag.
    pub(crate) report: FitReport,
    /// Per-iteration log-likelihood of the points (empty unless requested).
    pub(crate) trajectory: Vec<f64>,
    /// `true` when the run was cut short as trailing `abandon_below`.
    pub(crate) abandoned: bool,
}

/// Runs EM on `points` from the initialization in `comps` and `weights`,
/// and leaves in them the iterate with the highest measured
/// log-likelihood, in canonical order: ascending component mean, ties in
/// place. At k = 2 only `weights[1]` (λ) is read; on return
/// `weights` is `[1 − λ, λ]`.
///
/// Iteration t measures the log-likelihood of the components that enter it
/// under the weights before its E-step; the report carries the returned
/// iterate's own log-likelihood. The run stops (converged) when
/// [`STALE_ITERATIONS`] iterations in a row fail to beat the best, or when
/// the mean log-likelihood moves by less than `tolerance` between
/// iterations; otherwise at the iteration cap. The first clause stops
/// before the M-step, since the run has stopped improving. The other two
/// run the last M-step and score its output with one more density sweep
/// and E-step, not counted as an iteration, so a weighted-MLE run, whose
/// log-likelihood does not fall, returns the output of its last M-step.
/// The tolerance divides by the sample count, grouped or not.
///
/// `collect_trajectory` records the per-iteration log-likelihood.
/// `abandon_below` is the log-likelihood of the best finished restart: a run
/// is abandoned once even `best + remaining × last_gain` cannot reach it.
/// Pass `f64::NEG_INFINITY` to never abandon.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_em(
    points: EmPoints<'_>,
    comps: &mut [SkewNormal],
    weights: &mut [f64],
    sigma_floor: f64,
    config: &FitConfig,
    collect_trajectory: bool,
    abandon_below: f64,
    ws: &mut FitWorkspace,
) -> EmRun {
    let n = points.xs.len();
    let counts = points.counts;
    let n_samples: f64 = counts.iter().sum();
    let min_weight = config.min_weight;
    let k = comps.len();
    assert_eq!(weights.len(), k, "one weight per component");
    let FitWorkspace {
        dens,
        resp,
        logw,
        row,
        entry_weights,
        best_weights,
        best_comps,
        mstep,
        ..
    } = ws;
    reset(dens, k * n);
    reset(resp, k * n);
    reset(logw, k);
    reset(row, k);
    reset(entry_weights, k);
    if k == 2 {
        set_lambda(weights, weights[1], min_weight);
    }
    // The initialization stands as the best iterate until one is scored.
    best_comps.clear();
    best_comps.extend_from_slice(comps);
    best_weights.clear();
    best_weights.extend_from_slice(weights);

    let mut prev_ll = f64::NEG_INFINITY;
    let mut best_ll = f64::NEG_INFINITY;
    let mut stale = 0;
    let mut iterations = 0;
    let mut converged = false;
    let mut abandoned = false;
    // Set once the last M-step has run: one more pass scores its output.
    let mut scoring_last = config.max_iterations == 0;
    let mut trajectory = Vec::new();
    for it in 0..=config.max_iterations {
        // Component log-densities, one chunked sweep per component.
        for (comp, d) in comps.iter().zip(dens.chunks_exact_mut(n)) {
            comp.ln_pdf_batch(points.xs, d);
        }
        entry_weights.copy_from_slice(weights);
        let ll = if k == 2 {
            e_step2(weights, dens, resp, counts, n_samples, min_weight)
        } else {
            e_step(
                weights, dens, resp, logw, row, counts, n_samples, min_weight,
            )
        };
        // `ll` scores `comps` (not yet re-fitted) under `entry_weights`.
        if ll > best_ll {
            best_ll = ll;
            best_comps.copy_from_slice(comps);
            best_weights.copy_from_slice(entry_weights);
            stale = 0;
        } else {
            stale += 1;
        }
        if scoring_last {
            break;
        }
        iterations = it + 1;

        if collect_trajectory {
            trajectory.push(ll);
        }
        if stale >= STALE_ITERATIONS {
            converged = true;
            break;
        }
        converged = (ll - prev_ll).abs() / n_samples < config.tolerance;
        // Restart pruning: a later restart is abandoned once even
        // `best + remaining × last_gain` cannot close the gap to the best of
        // a restart that already finished better. Under the weighted-MLE
        // M-step each iteration is an ECM step: the log-likelihood never
        // drops and (in practice) its gains shrink, so the pruned restart
        // would not have been selected. Under `MStep::WeightedMoments` the
        // log-likelihood can fall and later rise past its best, so there the
        // rule is a heuristic that may drop a restart which would have
        // finished higher. On the first iteration `last_gain` is +∞
        // (prev_ll = −∞), which disables the check.
        let remaining = (config.max_iterations - iterations) as f64;
        let last_gain = (ll - prev_ll).max(0.0);
        if !converged && best_ll + remaining * last_gain < abandon_below {
            abandoned = true;
            break;
        }
        for (comp, r) in comps.iter_mut().zip(resp.chunks_exact(n)) {
            *comp = m_step_component(points.xs, r, *comp, sigma_floor, config, it > 0, mstep);
        }
        scoring_last = converged || iterations == config.max_iterations;
        prev_ll = ll;
    }
    comps.copy_from_slice(best_comps);
    weights.copy_from_slice(best_weights);
    sort_by_mean(comps, weights);
    EmRun {
        report: FitReport {
            log_likelihood: best_ll,
            iterations,
            converged,
        },
        trajectory,
        abandoned,
    }
}

/// `weights = [1 − λ, λ]` with λ clamped into `[min_weight, 1 − min_weight]`.
fn set_lambda(weights: &mut [f64], lambda: f64, min_weight: f64) {
    let lambda = lambda.clamp(min_weight, 1.0 - min_weight);
    weights[0] = 1.0 - lambda;
    weights[1] = lambda;
}

/// Two-component E-step: the chunked log-sum-exp writes `z₁` to the first
/// half of `resp` and each point's log-normalizer to the second. One pass
/// in point order then accumulates the count-weighted log-likelihood and
/// Σcz₁ and leaves `c·z₁` and `c·(1 − z₁)` in the two halves. Updates λ and
/// returns the log-likelihood.
fn e_step2(
    weights: &mut [f64],
    dens: &[f64],
    resp: &mut [f64],
    counts: &[f64],
    n_samples: f64,
    min_weight: f64,
) -> f64 {
    let n = dens.len() / 2;
    let (logs1, logs2) = dens.split_at(n);
    let (resp1, resp2) = resp.split_at_mut(n);
    lse2(weights[0].ln(), weights[1].ln(), logs1, logs2, resp1, resp2);
    let mut ll = 0.0;
    let mut w1 = 0.0;
    for ((z1, z2), &c) in resp1.iter_mut().zip(resp2.iter_mut()).zip(counts) {
        let log_tot = *z2;
        let z = if log_tot.is_finite() {
            ll += c * log_tot;
            *z1
        } else {
            ll += c * -745.0; // both densities underflowed; cap the penalty
            0.5
        };
        w1 += c * z;
        *z1 = c * z;
        *z2 = c * (1.0 - z);
    }
    set_lambda(weights, (n_samples - w1) / n_samples, min_weight);
    ll
}

/// K-way E-step: each point's log-joints go through `row` and
/// [`lse_row`]; a row with no finite log-joint gets uniform
/// responsibilities. Leaves `c·zⱼ` in `resp`, updates the weights (floored,
/// then renormalized) and returns the log-likelihood.
#[allow(clippy::too_many_arguments)]
fn e_step(
    weights: &mut [f64],
    dens: &[f64],
    resp: &mut [f64],
    logw: &mut [f64],
    row: &mut [f64],
    counts: &[f64],
    n_samples: f64,
    min_weight: f64,
) -> f64 {
    let k = weights.len();
    let n = dens.len() / k;
    for (lw, w) in logw.iter_mut().zip(weights.iter()) {
        *lw = w.ln();
    }
    let mut ll = 0.0;
    for (i, &c) in counts.iter().enumerate() {
        for (j, slot) in row.iter_mut().enumerate() {
            *slot = logw[j] + dens[j * n + i];
        }
        let log_tot = lse_row(row);
        if log_tot.is_finite() {
            ll += c * log_tot;
        } else {
            row.fill(1.0 / k as f64);
            ll += c * -745.0;
        }
        for (j, &z) in row.iter().enumerate() {
            resp[j * n + i] = c * z;
        }
    }
    for (w, r) in weights.iter_mut().zip(resp.chunks_exact(n)) {
        let total: f64 = r.iter().sum();
        *w = (total / n_samples).max(min_weight);
    }
    normalize(weights);
    ll
}

/// Σ ln f(xᵢ) over every sample for the mixture `comps` with `weights`:
/// one density sweep and the E-step's log-sum-exp on `samples` (counts of
/// 1), summed in sample order. Scores the model of a fit that ran on pair
/// means.
pub(crate) fn sample_log_likelihood(
    samples: EmPoints<'_>,
    comps: &[SkewNormal],
    weights: &[f64],
    ws: &mut FitWorkspace,
) -> f64 {
    let n = samples.xs.len();
    let k = comps.len();
    let FitWorkspace {
        dens,
        resp,
        logw,
        row,
        entry_weights,
        ..
    } = ws;
    reset(dens, k * n);
    reset(resp, k * n);
    reset(logw, k);
    reset(row, k);
    for (comp, d) in comps.iter().zip(dens.chunks_exact_mut(n)) {
        comp.ln_pdf_batch(samples.xs, d);
    }
    // The E-step updates the weights it is given; score with a copy.
    entry_weights.clear();
    entry_weights.extend_from_slice(weights);
    let (counts, n_samples) = (samples.counts, n as f64);
    if k == 2 {
        e_step2(entry_weights, dens, resp, counts, n_samples, 0.0)
    } else {
        e_step(entry_weights, dens, resp, logw, row, counts, n_samples, 0.0)
    }
}

/// Scales `weights` to sum to one.
pub(crate) fn normalize(weights: &mut [f64]) {
    let total: f64 = weights.iter().sum();
    for w in weights.iter_mut() {
        *w /= total;
    }
}

/// Sorts the components, and their weights with them, by ascending mean;
/// equal means keep their order (a stable insertion sort, allocation-free).
fn sort_by_mean(comps: &mut [SkewNormal], weights: &mut [f64]) {
    for i in 1..comps.len() {
        let mut j = i;
        while j > 0 && comps[j - 1].mean() > comps[j].mean() {
            comps.swap(j - 1, j);
            weights.swap(j - 1, j);
            j -= 1;
        }
    }
}

/// The best of a fit's EM runs, and the work all of them did.
pub(crate) struct Restarts<M> {
    best: Option<(M, EmRun)>,
    restarts: usize,
    restarts_abandoned: usize,
    iterations_all: usize,
}

impl<M> Restarts<M> {
    pub(crate) fn new() -> Self {
        Restarts {
            best: None,
            restarts: 0,
            restarts_abandoned: 0,
            iterations_all: 0,
        }
    }

    /// The log-likelihood of the best finished run (−∞ before the first):
    /// the `abandon_below` for the next [`run_em`].
    pub(crate) fn bar(&self) -> f64 {
        self.best
            .as_ref()
            .map_or(f64::NEG_INFINITY, |(_, b)| b.report.log_likelihood)
    }

    /// Records one run; it becomes the best when its log-likelihood is
    /// strictly higher than the best so far.
    pub(crate) fn offer(&mut self, model: M, run: EmRun) {
        self.restarts += 1;
        self.restarts_abandoned += usize::from(run.abandoned);
        self.iterations_all += run.report.iterations;
        if self.best.is_none() || run.report.log_likelihood > self.bar() {
            self.best = Some((model, run));
        }
    }

    /// Replaces the best run's log-likelihood with `exact(model)`: a fit on
    /// grouped points reports its model's log-likelihood on every sample.
    /// Call after the last [`offer`](Restarts::offer).
    pub(crate) fn rescore_best(&mut self, exact: impl FnOnce(&M) -> f64) {
        if let Some((model, run)) = &mut self.best {
            run.report.log_likelihood = exact(model);
        }
    }

    /// Emits the fit's [`FitEvent`] and returns the best run's model.
    ///
    /// # Panics
    ///
    /// When no run was offered.
    pub(crate) fn finish(
        self,
        obs: &Obs,
        fitter: &'static str,
        degenerate_components: usize,
    ) -> Fitted<M> {
        let (model, run) = self.best.expect("at least one EM run");
        obs.fit_event(&FitEvent {
            fitter,
            iterations: run.report.iterations,
            iterations_all: self.iterations_all,
            converged: run.report.converged,
            restarts: self.restarts,
            restarts_abandoned: self.restarts_abandoned,
            log_likelihood: run.report.log_likelihood,
            trajectory: &run.trajectory,
            degenerate_components,
        });
        Fitted::new(model, run.report)
    }
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

/// Skew-normal for one k-means cluster by (clamped) method of moments, with
/// σ floored at `sigma_floor`.
pub(crate) fn cluster_skew_normal(
    cluster: &[f64],
    sigma_floor: f64,
) -> Result<SkewNormal, FitError> {
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

/// One M-step for a single component under `weights`.
///
/// The weighted-MLE step compacts the support (`w > 1e-12`) once — the
/// weights are fixed during the inner optimization, and the compacted
/// samples keep the (sorted) order of `xs` — and evaluates the
/// weighted negative log-likelihood with one
/// [`Distribution::ln_pdf_batch`] sweep per objective call, inside the
/// caller's scratch.
///
/// `warm` marks every EM iteration after the first. On the first, the
/// component comes from a method-of-moments initializer and may sit well
/// away from its weighted-MLE optimum, so the simplex needs room (0.05 per
/// unit scale). Later, `current` is the previous M-step's own optimum,
/// which EM moves only slightly: a 5×-smaller simplex converges in a
/// fraction of the evaluations without changing where it converges to.
fn m_step_component(
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
                initial_step: if warm { 0.01 } else { 0.05 },
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
