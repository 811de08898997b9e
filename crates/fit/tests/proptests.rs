//! Property-based tests for the fitting stack.

use lvf2_fit::{
    fit_lvf, fit_lvf2, fit_sn_mixture, kmeans1d, nelder_mead, FitConfig, FitReport, Fitted,
    NelderMeadOptions,
};
use lvf2_stats::{Distribution, Lvf2, Mixture, Moments, SkewNormal};
use proptest::prelude::*;

/// Every float of a fit — weights, each component's `(ξ, ω, α)`, the
/// log-likelihood — as bits, plus the iteration count and convergence flag.
fn fit_bits(weights: &[f64], comps: &[SkewNormal], report: &FitReport) -> Vec<u64> {
    let mut v: Vec<u64> = weights.iter().map(|w| w.to_bits()).collect();
    for c in comps {
        v.extend([c.xi(), c.omega(), c.alpha()].map(f64::to_bits));
    }
    v.extend([
        report.log_likelihood.to_bits(),
        report.iterations as u64,
        u64::from(report.converged),
    ]);
    v
}

fn lvf2_bits(f: &Fitted<Lvf2>) -> Vec<u64> {
    fit_bits(
        &[f.model.lambda()],
        &[*f.model.first(), *f.model.second()],
        &f.report,
    )
}

fn mixture_bits(f: &Fitted<Mixture<SkewNormal>>) -> Vec<u64> {
    fit_bits(f.model.weights(), f.model.components(), &f.report)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn kmeans_assignments_are_valid_and_centers_sorted(
        xs in proptest::collection::vec(-10.0..10.0f64, 4..120),
        k in 1usize..4,
    ) {
        prop_assume!(xs.len() >= k);
        let r = kmeans1d(&xs, k, 50).expect("enough samples");
        prop_assert_eq!(r.assignments.len(), xs.len());
        prop_assert!(r.assignments.iter().all(|&a| a < k));
        prop_assert!(r.centers.windows(2).all(|w| w[0] <= w[1]));
        // Each sample is assigned to its nearest center.
        for (x, &a) in xs.iter().zip(&r.assignments) {
            for (j, c) in r.centers.iter().enumerate() {
                prop_assert!(
                    (x - r.centers[a]).abs() <= (x - c).abs() + 1e-9,
                    "sample {x} assigned to {a} but {j} is closer"
                );
            }
        }
    }

    #[test]
    fn nelder_mead_never_worse_than_start(
        x0 in proptest::collection::vec(-5.0..5.0f64, 1..4),
        a in 0.1..5.0f64,
    ) {
        let f = move |x: &[f64]| x.iter().map(|v| a * v * v).sum::<f64>() + 1.0;
        let start = f(&x0);
        let r = nelder_mead(f, &x0, &NelderMeadOptions::default());
        prop_assert!(r.fx <= start + 1e-12);
        prop_assert!(r.fx >= 1.0 - 1e-9, "objective minimum is 1");
    }

    #[test]
    fn lvf_fit_matches_first_two_sample_moments(
        seedish in 0u64..1000,
        mean in 0.1..5.0f64,
        sd in 0.01..0.5f64,
    ) {
        use rand::SeedableRng;
        let truth = lvf2_stats::Normal::new(mean, sd).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seedish);
        let xs = truth.sample_n(&mut rng, 500);
        let fit = fit_lvf(&xs, &FitConfig::default()).expect("fits");
        // Method of moments matches the sample mean/σ exactly.
        let sm = lvf2_stats::SampleMoments::from_samples(&xs).unwrap();
        prop_assert!((fit.model.mean() - sm.mean).abs() < 1e-9);
        prop_assert!((fit.model.std_dev() - sm.std_dev()).abs() < 1e-9);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The fitters sort their input first, so a fit is a function of the
    /// multiset of samples: a seeded shuffle gives the same bits. Odd seeds
    /// quantize the samples to force ties. Sizes span both sides of the 512
    /// samples from which `fast()` fits run on pair means.
    #[test]
    fn fits_are_bit_identical_under_sample_permutation(
        seed in 0u64..10_000,
        n in 40usize..1100,
        k in 2usize..4,
    ) {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let sn = |m: f64, s: f64, g: f64| SkewNormal::from_moments(Moments::new(m, s, g)).unwrap();
        let truth = Lvf2::new(0.35, sn(1.0, 0.05, 0.4), sn(1.3, 0.07, -0.2)).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut xs = truth.sample_n(&mut rng, n);
        if seed % 2 == 1 {
            for x in &mut xs {
                *x = (*x * 200.0).round() / 200.0;
            }
        }
        let mut shuffled = xs.clone();
        shuffled.shuffle(&mut rng);

        for cfg in [FitConfig::default().with_max_iterations(15), FitConfig::fast()] {
            let a = fit_lvf2(&xs, &cfg).expect("fits");
            let b = fit_lvf2(&shuffled, &cfg).expect("fits");
            prop_assert_eq!(lvf2_bits(&a), lvf2_bits(&b));
        }
        let a = fit_sn_mixture(&xs, k, &FitConfig::fast()).expect("fits");
        let b = fit_sn_mixture(&shuffled, k, &FitConfig::fast()).expect("fits");
        prop_assert_eq!(mixture_bits(&a), mixture_bits(&b));
    }
}
