//! The log-likelihood a fit reports belongs to the model it returns.
//!
//! `FitReport::log_likelihood` ranks EM restarts and feeds the BIC/AIC of
//! `select_order`, so it must score the returned model, not a neighbouring
//! EM iterate. Each case recomputes Σ ln f(xᵢ) with
//! [`Distribution::ln_pdf`] and asserts agreement to 1e-12 relative, which
//! leaves room only for summation order and the E-step's log-sum-exp.
//!
//! Every data set here has at least 512 samples, so the `fast()` cases run
//! EM on pair means and report the winning model rescored on every sample;
//! `table1_arc_odd` (n = 1501) ends on a single-sample point of count 1.
//! Norm² runs its own closed-form EM on every sample under both presets.

use lvf2_fit::{fit_lvf2, fit_norm2, fit_sn_mixture, FitConfig};
use lvf2_stats::{Distribution, Lvf2, Mixture, Moments, SkewNormal};
use rand::rngs::StdRng;
use rand::SeedableRng;

const REL_TOL: f64 = 1e-12;

fn sn(mean: f64, sigma: f64, skew: f64) -> SkewNormal {
    SkewNormal::from_moments(Moments::new(mean, sigma, skew)).unwrap()
}

/// Data sets that cover a converged two-peak arc (at an even and an odd
/// length), overlapping peaks that run EM to its cap, and a three-peak
/// mixture.
fn datasets() -> Vec<(&'static str, Vec<f64>)> {
    let table1 = Lvf2::new(0.45, sn(0.10, 0.010, 0.4), sn(0.16, 0.012, -0.1)).unwrap();
    let overlapping = Lvf2::new(0.7, sn(0.5, 0.15, -0.5), sn(0.75, 0.195, 0.2)).unwrap();
    let three_peaks = Mixture::new(
        vec![sn(1.0, 0.04, 0.5), sn(1.3, 0.05, 0.3), sn(1.6, 0.06, -0.2)],
        vec![0.45, 0.35, 0.20],
    )
    .unwrap();
    vec![
        (
            "table1_arc",
            table1.sample_n(&mut StdRng::seed_from_u64(2024), 2000),
        ),
        (
            "table1_arc_odd",
            table1.sample_n(&mut StdRng::seed_from_u64(2025), 1501),
        ),
        (
            "overlapping",
            overlapping.sample_n(&mut StdRng::seed_from_u64(911), 1500),
        ),
        (
            "three_peaks",
            three_peaks.sample_n(&mut StdRng::seed_from_u64(41), 2000),
        ),
    ]
}

fn recomputed(model: &impl Distribution, xs: &[f64]) -> f64 {
    xs.iter().map(|&x| model.ln_pdf(x)).sum()
}

fn check(failures: &mut Vec<String>, case: String, reported: f64, actual: f64) {
    let rel = (reported - actual).abs() / actual.abs();
    if rel.is_nan() || rel > REL_TOL {
        failures.push(format!(
            "{case}: reported {reported:?}, model scores {actual:?} (relative {rel:.3e})"
        ));
    }
}

#[test]
fn lvf2_reports_the_likelihood_of_its_model() {
    let mut failures = Vec::new();
    for (data, xs) in datasets() {
        for (preset, cfg) in [
            ("default", FitConfig::default()),
            ("fast", FitConfig::fast()),
        ] {
            let fit = fit_lvf2(&xs, &cfg).unwrap();
            let actual = recomputed(&fit.model, &xs);
            check(
                &mut failures,
                format!("{data}/{preset}"),
                fit.report.log_likelihood,
                actual,
            );
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn sn_mixture_reports_the_likelihood_of_its_model() {
    let mut failures = Vec::new();
    for (data, xs) in datasets() {
        for (preset, cfg) in [
            ("default", FitConfig::default()),
            ("fast", FitConfig::fast()),
        ] {
            let fit = fit_sn_mixture(&xs, 3, &cfg).unwrap();
            let actual = recomputed(&fit.model, &xs);
            check(
                &mut failures,
                format!("{data}/k3/{preset}"),
                fit.report.log_likelihood,
                actual,
            );
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn norm2_reports_the_likelihood_of_its_model() {
    let mut failures = Vec::new();
    for (data, xs) in datasets() {
        for (preset, cfg) in [
            ("default", FitConfig::default()),
            ("fast", FitConfig::fast()),
        ] {
            let fit = fit_norm2(&xs, &cfg).unwrap();
            let actual = recomputed(&fit.model, &xs);
            check(
                &mut failures,
                format!("{data}/norm2/{preset}"),
                fit.report.log_likelihood,
                actual,
            );
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
