//! `score_model` in one sorted sweep against the per-point path it
//! replaced.
//!
//! [`score_model`] evaluates the model CDF in two batches (bin edges with
//! the 3σ point, then the RMSE grid), reads the golden ECDF along the grid
//! with one merging index, takes the golden moments cached in
//! [`GoldenReference`], and finds the 3σ quantile by safeguarded Newton.
//! The reference below is the path it replaced, kept here as a test-local
//! copy: the scalar CDF through a closure at every point, one
//! `partition_point` search per ECDF read, every moment recomputed, and a
//! bracketed bisection quantile. Every [`ModelScore`] field of the four
//! model families must agree to 1e-12 absolute on the five Table 1
//! scenarios.

use lvf2_binning::{binning_error, score_model, BinSet, GoldenReference, ModelScore};
use lvf2_cells::Scenario;
use lvf2_fit::{fit_lesn, fit_lvf, fit_lvf2, fit_norm2, FitConfig};
use lvf2_stats::special::norm_cdf;
use lvf2_stats::{sample_mean, sample_std, Distribution, Ecdf};

const SAMPLES: usize = 2000;
const RMSE_POINTS: usize = 256;
const TOLERANCE: f64 = 1e-12;

/// `F⁻¹(p)` by bisection on a bracket expanded from `mean ± k·σ`, run
/// until the midpoint meets an end of the bracket.
fn bisection_quantile<D: Distribution>(d: &D, p: f64) -> f64 {
    let m = d.mean();
    let s = d.std_dev().max(f64::MIN_POSITIVE);
    let mut lo = m - 4.0 * s;
    let mut hi = m + 4.0 * s;
    let mut k = 8.0;
    while d.cdf(lo) > p && k < 1e9 {
        lo = m - k * s;
        k *= 2.0;
    }
    k = 8.0;
    while d.cdf(hi) < p && k < 1e9 {
        hi = m + k * s;
        k *= 2.0;
    }
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if mid <= lo || mid >= hi {
            break;
        }
        if d.cdf(mid) < p {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// The fraction of `sorted` at or below `x`, by binary search.
fn ecdf_at(sorted: &[f64], x: f64) -> f64 {
    sorted.partition_point(|&v| v <= x) as f64 / sorted.len() as f64
}

/// The per-point scoring path.
fn reference_score<D: Distribution>(model: &D, samples: &[f64]) -> ModelScore {
    let cdf = |x: f64| model.cdf(x);
    let bins = BinSet::sigma_bins(sample_mean(samples), sample_std(samples));
    let binning = binning_error(
        &bins.probabilities(cdf),
        &bins.probabilities_from_samples(samples),
    );

    let ecdf = Ecdf::new(samples.to_vec()).expect("valid samples");
    let sorted = ecdf.samples();
    let t = sample_mean(sorted) + 3.0 * sample_std(sorted);
    let yield_error = (cdf(t) - ecdf_at(sorted, t)).abs();

    let sd = sample_std(sorted);
    let lo = ecdf.min() - 0.5 * sd;
    let hi = ecdf.max() + 0.5 * sd;
    let mut sum = 0.0;
    for k in 0..RMSE_POINTS {
        let x = lo + (hi - lo) * k as f64 / (RMSE_POINTS - 1) as f64;
        let d = cdf(x) - ecdf_at(sorted, x);
        sum += d * d;
    }

    let p3 = norm_cdf(3.0);
    ModelScore {
        binning_error: binning,
        yield_3sigma_error: yield_error,
        cdf_rmse: (sum / RMSE_POINTS as f64).sqrt(),
        three_sigma_q_error: (bisection_quantile(model, p3) - ecdf.quantile(p3)).abs(),
    }
}

fn assert_scores_agree<D: Distribution>(name: &str, model: &D, samples: &[f64]) {
    let golden = GoldenReference::from_samples(samples).expect("valid samples");
    let got = score_model(model, &golden);
    let want = reference_score(model, samples);
    let fields = [
        ("binning_error", got.binning_error, want.binning_error),
        (
            "yield_3sigma_error",
            got.yield_3sigma_error,
            want.yield_3sigma_error,
        ),
        ("cdf_rmse", got.cdf_rmse, want.cdf_rmse),
        (
            "three_sigma_q_error",
            got.three_sigma_q_error,
            want.three_sigma_q_error,
        ),
    ];
    for (field, g, w) in fields {
        assert!(
            (g - w).abs() <= TOLERANCE,
            "{name} {field}: sweep {g:e} vs per-point {w:e}"
        );
    }
}

#[test]
fn every_score_matches_the_per_point_path_on_the_table1_scenarios() {
    let config = FitConfig::fast();
    for (seed, scenario) in Scenario::ALL.into_iter().enumerate() {
        let xs = scenario.sample(SAMPLES, 40 + seed as u64);
        let name = scenario.name();
        let lvf = fit_lvf(&xs, &config).expect("LVF fit").model;
        let norm2 = fit_norm2(&xs, &config).expect("Norm2 fit").model;
        let lesn = fit_lesn(&xs, &config).expect("LESN fit").model;
        let lvf2 = fit_lvf2(&xs, &config).expect("LVF2 fit").model;
        assert_scores_agree(&format!("{name} LVF"), &lvf, &xs);
        assert_scores_agree(&format!("{name} Norm2"), &norm2, &xs);
        assert_scores_agree(&format!("{name} LESN"), &lesn, &xs);
        assert_scores_agree(&format!("{name} LVF2"), &lvf2, &xs);
    }
}

#[test]
fn golden_reference_keeps_the_free_metrics_moments() {
    // The free-standing metrics recompute the moments the reference caches;
    // a model equal to the golden ECDF's own steps scores the same through
    // both.
    let xs = Scenario::Saddle.sample(SAMPLES, 7);
    let golden = GoldenReference::from_samples(&xs).expect("valid samples");
    let ecdf = golden.ecdf();
    let model = lvf2_stats::Normal::new(sample_mean(&xs), sample_std(&xs)).expect("valid");
    let got = score_model(&model, &golden);
    let cdf = |x: f64| model.cdf(x);
    assert_eq!(
        got.yield_3sigma_error.to_bits(),
        lvf2_binning::yield_3sigma_error(cdf, ecdf).to_bits()
    );
    assert_eq!(
        got.cdf_rmse.to_bits(),
        lvf2_binning::cdf_rmse(cdf, ecdf, RMSE_POINTS).to_bits()
    );
}
