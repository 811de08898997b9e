//! Golden fits: the EM's exact outputs on fixed inputs.
//!
//! Each case pins the mixture weights (`[λ]` for LVF²), every component's
//! `(ξ, ω, α)` in the fitter's mean order, the log-likelihood, the iteration
//! count and the convergence flag. Floats are compared by `to_bits` — the
//! literals are `{:?}` renderings, which round-trip exactly — so any change
//! to the EM's arithmetic or accumulation order (k-means init, E-step, either
//! M-step, restart pruning) fails here. The values were first recorded
//! while a second, per-sample implementation of the same EM still existed
//! and agreed with them bit for bit. They were re-recorded once, when the
//! E-step moved to the libm-free log-sum-exp and fits to sorted samples: no
//! case changed its iteration count or convergence flag, and no parameter
//! moved by more than 5e-12 relative (CHANGELOG.md lists each case).
//! `k2/fast` alone was re-recorded again when both fitters moved onto one
//! EM loop: a k = 2 mixture now takes the two-component arithmetic of
//! `fit_lvf2` (λ clamped, second responsibility `1 − z₁`) instead of the
//! K-way row. Its iteration count and convergence flag did not change, and
//! no value moved by more than 2e-15 relative. `table1_arc/fast` was
//! re-recorded when the moments M-step moved onto pair means from 512
//! samples on: still 6 iterations and converged, with its log-likelihood
//! (scored on every sample) 4926.419082084308 → 4926.419139306817. Every
//! other case, each under 512 samples or under the MLE M-step, kept its
//! bits: they pin that the one-point-per-sample path is unchanged.
//!
//! Closeness to the generating truth is a separate question, answered by
//! the recovery tests in `src/lvf2.rs` and `src/mixture_em.rs`.
//!
//! The inputs: a table1-style two-peak arc (n = 2000) under the MLE
//! (`default`) and moment-matching (`fast`) M-steps; two generated truths at
//! lengths off the 8-lane kernel boundary (n = 305, 313); and the K-way
//! mixture EM at k = 2 and k = 3 (n = 400, `fast`).

use lvf2_fit::{fit_lvf2, fit_sn_mixture, FitConfig, FitReport, Fitted};
use lvf2_stats::{Distribution, Lvf2, Mixture, Moments, SkewNormal};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One pinned fit.
struct Golden {
    weights: &'static [f64],
    components: &'static [[f64; 3]],
    log_likelihood: f64,
    iterations: usize,
    converged: bool,
}

/// What a fit returned, in the same shape as [`Golden`].
struct Observed {
    weights: Vec<f64>,
    components: Vec<[f64; 3]>,
    report: FitReport,
}

impl Observed {
    fn lvf2(f: Fitted<Lvf2>) -> Self {
        Observed {
            weights: vec![f.model.lambda()],
            components: vec![params(f.model.first()), params(f.model.second())],
            report: f.report,
        }
    }

    fn mixture(f: Fitted<Mixture<SkewNormal>>) -> Self {
        Observed {
            weights: f.model.weights().to_vec(),
            components: f.model.components().iter().map(params).collect(),
            report: f.report,
        }
    }

    fn matches(&self, g: &Golden) -> bool {
        let same = |a: &[f64], b: &[f64]| {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        };
        same(&self.weights, g.weights)
            && self.components.len() == g.components.len()
            && self
                .components
                .iter()
                .zip(g.components)
                .all(|(a, b)| same(a, b))
            && self.report.log_likelihood.to_bits() == g.log_likelihood.to_bits()
            && self.report.iterations == g.iterations
            && self.report.converged == g.converged
    }

    /// The observed fit as a `Golden` literal, for the failure message.
    fn literal(&self) -> String {
        let floats = |xs: &[f64]| {
            xs.iter()
                .map(|x| format!("{x:?}"))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let comps: Vec<String> = self
            .components
            .iter()
            .map(|c| format!("[{}]", floats(c)))
            .collect();
        format!(
            "Golden {{ weights: &[{}], components: &[{}], log_likelihood: {:?}, \
             iterations: {}, converged: {} }}",
            floats(&self.weights),
            comps.join(", "),
            self.report.log_likelihood,
            self.report.iterations,
            self.report.converged
        )
    }
}

fn params(c: &SkewNormal) -> [f64; 3] {
    [c.xi(), c.omega(), c.alpha()]
}

fn sn(mean: f64, sigma: f64, skew: f64) -> SkewNormal {
    SkewNormal::from_moments(Moments::new(mean, sigma, skew)).unwrap()
}

fn table1_arc() -> Vec<f64> {
    let t = Lvf2::new(0.45, sn(0.10, 0.010, 0.4), sn(0.16, 0.012, -0.1)).unwrap();
    t.sample_n(&mut StdRng::seed_from_u64(2024), 2000)
}

/// A two-peak truth: component 2 sits `sep` above component 1 and is 1.3×
/// wider.
fn generated(lambda: f64, m1: f64, sep: f64, sd: f64, g1: f64, g2: f64) -> Lvf2 {
    Lvf2::new(lambda, sn(m1, sd, g1), sn(m1 + sep, sd * 1.3, g2)).unwrap()
}

/// Well-separated peaks.
fn generated_a() -> Lvf2 {
    generated(0.3, -0.2, 0.6, 0.08, 0.4, -0.3)
}

/// Overlapping peaks; EM runs to the iteration cap.
fn generated_b() -> Lvf2 {
    generated(0.7, 0.5, 0.25, 0.15, -0.5, 0.2)
}

fn assert_golden(cases: Vec<(String, Observed)>, golden: &[(&str, Golden)]) {
    assert_eq!(cases.len(), golden.len());
    let mut failures = Vec::new();
    for ((name, got), (want_name, want)) in cases.iter().zip(golden) {
        assert_eq!(name, want_name);
        if !got.matches(want) {
            failures.push(format!("{name}: got {}", got.literal()));
        }
    }
    assert!(failures.is_empty(), "fits moved:\n{}", failures.join("\n"));
}

/// `fit_lvf2` on `xs` under the `default` (MLE) and `fast` (moments)
/// presets.
fn lvf2_cases(data: &str, xs: &[f64]) -> Vec<(String, Observed)> {
    [
        ("default", FitConfig::default()),
        ("fast", FitConfig::fast()),
    ]
    .into_iter()
    .map(|(preset, cfg)| {
        let fit = fit_lvf2(xs, &cfg).unwrap();
        (format!("{data}/{preset}"), Observed::lvf2(fit))
    })
    .collect()
}

#[test]
fn table1_arc_fits_match_golden() {
    assert_golden(lvf2_cases("table1_arc", &table1_arc()), TABLE1_ARC_GOLDEN);
}

#[test]
fn generated_lvf2_fits_match_golden() {
    // 300 + extra keeps each length off the 8-lane boundary.
    let a = generated_a().sample_n(&mut StdRng::seed_from_u64(17), 300 + 5);
    let b = generated_b().sample_n(&mut StdRng::seed_from_u64(911), 300 + 13);
    let mut cases = lvf2_cases("generated_a", &a);
    cases.extend(lvf2_cases("generated_b", &b));
    assert_golden(cases, GENERATED_GOLDEN);
}

#[test]
fn sn_mixture_fits_match_golden() {
    let xs = generated_a().sample_n(&mut StdRng::seed_from_u64(23), 400);
    let cases = [("k2/fast", 2), ("k3/fast", 3)]
        .into_iter()
        .map(|(name, k)| {
            let fit = fit_sn_mixture(&xs, k, &FitConfig::fast()).unwrap();
            (name.to_string(), Observed::mixture(fit))
        })
        .collect();
    assert_golden(cases, MIXTURE_GOLDEN);
}

const TABLE1_ARC_GOLDEN: &[(&str, Golden)] = &[
    (
        "table1_arc/default",
        Golden {
            weights: &[0.44474363290636415],
            components: &[
                [
                    0.08992976451665664,
                    0.013894708001509685,
                    1.8144611375398456,
                ],
                [
                    0.16632825342138507,
                    0.012953473436589268,
                    -0.7359778512991192,
                ],
            ],
            log_likelihood: 4926.420801852642,
            iterations: 5,
            converged: true,
        },
    ),
    (
        "table1_arc/fast",
        Golden {
            weights: &[0.444821655926747],
            components: &[
                [0.08996400161791587, 0.013864058013517484, 1.801150302995552],
                [
                    0.16646277617661845,
                    0.013026389431289974,
                    -0.7557760940291864,
                ],
            ],
            log_likelihood: 4926.419139306817,
            iterations: 6,
            converged: true,
        },
    ),
];

const GENERATED_GOLDEN: &[(&str, Golden)] = &[
    (
        "generated_a/default",
        Golden {
            weights: &[0.26191429383259823],
            components: &[
                [-0.2878264650216396, 0.12018175299436307, 2.3408602723802816],
                [0.4942273576761442, 0.14703320008339382, -2.5607191935092604],
            ],
            log_likelihood: 151.23400901776714,
            iterations: 5,
            converged: true,
        },
    ),
    (
        "generated_a/fast",
        Golden {
            weights: &[0.26225744145049806],
            components: &[
                [-0.2824378668002989, 0.11598674214076385, 2.013954607029165],
                [
                    0.49460831518571174,
                    0.14789040403014925,
                    -2.5898799521894755,
                ],
            ],
            log_likelihood: 151.0932387955661,
            iterations: 7,
            converged: true,
        },
    ),
    (
        "generated_b/default",
        Golden {
            weights: &[0.49445671396290475],
            components: &[
                [0.33795578496165435, 0.312860473940286, 2.183553433891383],
                [0.7847893706297798, 0.200610801907158, 0.008439798652073853],
            ],
            log_likelihood: 10.406885429969467,
            iterations: 60,
            converged: false,
        },
    ),
    (
        "generated_b/fast",
        Golden {
            weights: &[0.49569893346104577],
            components: &[
                [0.4055651976958484, 0.20941104255660184, 0.9706309689580417],
                [0.7338667219496025, 0.20613540356135385, 0.7160510080935073],
            ],
            log_likelihood: 10.314606291632622,
            iterations: 40,
            converged: false,
        },
    ),
];

const MIXTURE_GOLDEN: &[(&str, Golden)] = &[
    (
        "k2/fast",
        Golden {
            weights: &[0.6729137049270575, 0.32708629507294246],
            components: &[
                [-0.2797047903295724, 0.11350456666958884, 2.2546615435215878],
                [0.5306955325330629, 0.16870677880164273, -3.060700779155397],
            ],
            log_likelihood: 171.7229609618132,
            iterations: 6,
            converged: true,
        },
    ),
    (
        "k3/fast",
        Golden {
            weights: &[0.36070077916334303, 0.31125429491447154, 0.3280449259221855],
            components: &[
                [
                    -0.21920775154129535,
                    0.05373454897518909,
                    -1.3570612806736064,
                ],
                [
                    -0.20265254155020596,
                    0.08857483664980717,
                    2026.9153189384158,
                ],
                [0.5324127510493359, 0.17144184929729725, -3.203718569100453],
            ],
            log_likelihood: 172.6275744845391,
            iterations: 7,
            converged: true,
        },
    ),
];
