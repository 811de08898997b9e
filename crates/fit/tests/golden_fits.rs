//! Golden fits: the EM's exact outputs on fixed inputs.
//!
//! Each case pins the mixture weights (`[λ]` for LVF²), every component's
//! `(ξ, ω, α)` in the fitter's mean order, the log-likelihood, the iteration
//! count and the convergence flag. Floats are compared by `to_bits` — the
//! literals are `{:?}` renderings, which round-trip exactly — so any change
//! to the EM's arithmetic or accumulation order (k-means init, E-step, either
//! M-step, restart pruning) fails here. The values were recorded while a
//! second, per-sample implementation of the same EM still existed and
//! agreed with these bit for bit.
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
            weights: &[0.444743632906366],
            components: &[
                [
                    0.08992976451665703,
                    0.013894708001509649,
                    1.8144611375397393,
                ],
                [
                    0.16632825342138208,
                    0.012953473436589072,
                    -0.7359778512988847,
                ],
            ],
            log_likelihood: 4926.420795385631,
            iterations: 5,
            converged: true,
        },
    ),
    (
        "table1_arc/fast",
        Golden {
            weights: &[0.4448145362689411],
            components: &[
                [
                    0.08996615876393917,
                    0.013862961363003091,
                    1.8002415515482508,
                ],
                [
                    0.16644601100339768,
                    0.013017355138364908,
                    -0.7532990831194315,
                ],
            ],
            log_likelihood: 4926.4190738036905,
            iterations: 6,
            converged: true,
        },
    ),
];

const GENERATED_GOLDEN: &[(&str, Golden)] = &[
    (
        "generated_a/default",
        Golden {
            weights: &[0.2619142938325978],
            components: &[
                [-0.2878264650216396, 0.12018175299436307, 2.340860272380279],
                [
                    0.49422735767614384,
                    0.14703320008339402,
                    -2.5607191935092684,
                ],
            ],
            log_likelihood: 151.23400601510923,
            iterations: 5,
            converged: true,
        },
    ),
    (
        "generated_a/fast",
        Golden {
            weights: &[0.2622964843570385],
            components: &[
                [-0.2823633963284127, 0.11590977457414468, 2.009928888795603],
                [0.4948572386808418, 0.14816547876058048, -2.6069569507199755],
            ],
            log_likelihood: 151.09006110690964,
            iterations: 12,
            converged: true,
        },
    ),
    (
        "generated_b/default",
        Golden {
            weights: &[0.4944567139620786],
            components: &[
                [0.3379557849619373, 0.31286047394029726, 2.1835534338913143],
                [0.7847893706297812, 0.2006108019069905, 0.008439798652113901],
            ],
            log_likelihood: 10.403231481954965,
            iterations: 60,
            converged: false,
        },
    ),
    (
        "generated_b/fast",
        Golden {
            weights: &[0.4956989334610436],
            components: &[
                [0.40556519769584554, 0.20941104255660317, 0.9706309689580708],
                [0.7338667219496003, 0.20613540356135487, 0.7160510080935267],
            ],
            log_likelihood: 10.310449203874335,
            iterations: 40,
            converged: false,
        },
    ),
];

const MIXTURE_GOLDEN: &[(&str, Golden)] = &[
    (
        "k2/fast",
        Golden {
            weights: &[0.6712038221833665, 0.32879617781663356],
            components: &[
                [-0.2765170483371444, 0.11010535111832287, 2.0534490020262797],
                [0.5372681271849076, 0.17696445629596613, -3.732883668718462],
            ],
            log_likelihood: 171.52177097034766,
            iterations: 26,
            converged: true,
        },
    ),
    (
        "k3/fast",
        Golden {
            weights: &[0.4266424183593915, 0.2429165510179494, 0.3304410306226591],
            components: &[
                [
                    -0.2540859963693863,
                    0.05025907154691728,
                    0.33360871898109684,
                ],
                [
                    -0.18976907131917375,
                    0.08472443804742986,
                    2026.9153189384158,
                ],
                [0.5420187401650438, 0.18357688855949336, -4.436721626681767],
            ],
            log_likelihood: 173.33985836556133,
            iterations: 40,
            converged: false,
        },
    ),
];
