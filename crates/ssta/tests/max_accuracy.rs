//! Accuracy of the statistical `max` kernel (`ops::max_moments`) against
//! references that share none of its numerics: an exact-CDF quadrature on a
//! finer grid, the iid-Gaussian closed forms, a constant operand's closed
//! form, and exact domination.
//!
//! The kernel's uniform grid is coarse (a few panels over the operands'
//! union range); its two refinements carry the hard cases here: a narrow
//! component gets panels of its own (the 1:100 σ ratio, the near-delta
//! clock edge) and a panel whose pdf its interpolant misses is bisected (the
//! skew-normal's edge at the α ≈ ±2027 skewness clamp).

use lvf2_cells::CellType;
use lvf2_ssta::ops::{max_moments, CentralMoments};
use lvf2_ssta::{DelayFamily, DelaySource, SyntheticDelays, TimingDist};
use lvf2_stats::quad::{gauss_legendre_32, gl32};
use lvf2_stats::{Distribution, Lesn, Normal, SkewNormal};
use proptest::prelude::*;

/// Exact-CDF reference over the kernel's own range, the union of the two
/// ±10σ spans: GL32 on `panels` uniform panels, each further cut at the
/// `extra` break points that fall inside it, with each operand's `pdf` and
/// its CDF from `cdf` at every node, moments taken about the range's
/// midpoint.
fn reference<D: Distribution>(
    a: &D,
    b: &D,
    panels: usize,
    extra: &[f64],
    cdf: impl Fn(&D, &[f64]) -> Vec<f64>,
) -> CentralMoments {
    let lo = (a.mean() - 10.0 * a.std_dev()).min(b.mean() - 10.0 * b.std_dev());
    let hi = (a.mean() + 10.0 * a.std_dev()).max(b.mean() + 10.0 * b.std_dev());
    let (c, h) = (0.5 * (lo + hi), (hi - lo) / panels as f64);
    let mut edges: Vec<f64> = (0..=panels).map(|p| lo + p as f64 * h).collect();
    edges.extend(extra.iter().filter(|&&x| lo < x && x < hi));
    edges.sort_by(f64::total_cmp);
    let rule = gl32();
    let mut ts = Vec::with_capacity(32 * edges.len());
    let mut ws = Vec::with_capacity(32 * edges.len());
    for e in edges.windows(2) {
        let (mid, hw) = (0.5 * (e[0] + e[1]), 0.5 * (e[1] - e[0]));
        ts.extend(rule.nodes.iter().map(|x| mid + hw * x));
        ws.extend(rule.weights.iter().map(|w| hw * w));
    }
    let (ca, cb) = (cdf(a, &ts), cdf(b, &ts));
    let mut m = [0.0f64; 4];
    for (k, (&t, w)) in ts.iter().zip(ws).enumerate() {
        let g = a.pdf(t) * cb[k] + ca[k] * b.pdf(t);
        let u = t - c;
        for (e, mk) in m.iter_mut().enumerate() {
            *mk += w * g * u.powi(e as i32 + 1);
        }
    }
    let mu = m[0];
    let var = m[1] - mu * mu;
    let m3 = m[2] - 3.0 * mu * m[1] + 2.0 * mu.powi(3);
    let m4 = m[3] - 4.0 * mu * m[2] + 6.0 * mu * mu * m[1] - 3.0 * mu.powi(4);
    (c + mu, var, m3, m4)
}

/// The closed-form CDF at every point.
fn exact_cdf<D: Distribution>(d: &D, ts: &[f64]) -> Vec<f64> {
    ts.iter().map(|&t| d.cdf(t)).collect()
}

/// The CDF at ascending points by GL32 of the pdf between consecutive
/// points, from one closed-form value at the first: LESN's closed-form CDF
/// is itself an adaptive quadrature per point, too slow for thousands.
fn running_cdf<D: Distribution>(d: &D, ts: &[f64]) -> Vec<f64> {
    let mut f = d.cdf(ts[0]);
    let mut out = vec![f];
    for w in ts.windows(2) {
        f += gauss_legendre_32(|t| d.pdf(t), w[0], w[1]);
        out.push(f);
    }
    out
}

/// |Δμ|/σ ≤ 1e-9, |Δvar|/var ≤ 1e-7, |Δm₃|/σ³ ≤ 1e-6.
fn check(got: CentralMoments, want: CentralMoments) -> Result<(), TestCaseError> {
    let sd = want.1.sqrt();
    prop_assert!(
        (got.0 - want.0).abs() <= 1e-9 * sd,
        "mean {got:?} vs {want:?}"
    );
    prop_assert!(
        (got.1 - want.1).abs() <= 1e-7 * want.1,
        "var {got:?} vs {want:?}"
    );
    prop_assert!(
        (got.2 - want.2).abs() <= 1e-6 * sd.powi(3),
        "m3 {got:?} vs {want:?}"
    );
    Ok(())
}

fn skew_normal() -> impl Strategy<Value = SkewNormal> {
    (0.05..0.3f64, 0.005..0.05f64, -6.0..6.0f64)
        .prop_map(|(xi, omega, alpha)| SkewNormal::new(xi, omega, alpha).expect("valid"))
}

/// One edge delay of the generated netlists' LVF² delay model: a cell's
/// fast and slow regimes, ±4% around its nominal mean.
fn lvf2_edge_delay() -> impl Strategy<Value = [SkewNormal; 2]> {
    (0..u64::MAX, 0..64usize, 0..4usize, 0..4usize).prop_map(|(seed, gate, pin, cell)| {
        let cells = [
            CellType::Inv,
            CellType::Nand2,
            CellType::Nor2,
            CellType::Xor2,
        ];
        let delays = SyntheticDelays::new(DelayFamily::Lvf2, seed);
        match delays.gate_delay(gate, pin, cells[cell]).expect("valid") {
            TimingDist::Lvf2(m) => [*m.first(), *m.second()],
            other => panic!("LVF² delay model gave {}", other.family()),
        }
    })
}

fn lesn() -> impl Strategy<Value = Lesn> {
    (-3.0..-1.0f64, 0.05..0.3f64, -3.0..3.0f64, -1.0..1.0f64).prop_map(|(xi, omega, alpha, tau)| {
        Lesn::from_log_params(xi, omega, alpha, tau).expect("valid")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn skew_normal_pairs_match_exact_cdf_quadrature(x in skew_normal(), y in skew_normal()) {
        let [[got]] = max_moments([&x], [&y]);
        check(got, reference(&x, &y, 96, &[], exact_cdf))?;
    }

    #[test]
    fn lvf2_component_pairs_match_exact_cdf_quadrature(
        a in (skew_normal(), skew_normal()),
        b in (skew_normal(), skew_normal()),
    ) {
        let got = max_moments([&a.0, &a.1], [&b.0, &b.1]);
        for (i, x) in [&a.0, &a.1].into_iter().enumerate() {
            for (j, y) in [&b.0, &b.1].into_iter().enumerate() {
                check(got[i][j], reference(x, y, 96, &[], exact_cdf))?;
            }
        }
    }

    #[test]
    fn lvf2_edge_delay_pairs_match_exact_cdf_quadrature(
        a in lvf2_edge_delay(),
        b in lvf2_edge_delay(),
    ) {
        let got = max_moments([&a[0], &a[1]], [&b[0], &b[1]]);
        for (i, x) in a.iter().enumerate() {
            for (j, y) in b.iter().enumerate() {
                check(got[i][j], reference(x, y, 96, &[], exact_cdf))?;
            }
        }
    }
}

/// `count + 1` evenly spaced break points across `[lo, hi]`.
fn band(lo: f64, hi: f64, count: usize) -> Vec<f64> {
    (0..=count)
        .map(|k| lo + k as f64 * (hi - lo) / count as f64)
        .collect()
}

#[test]
fn skewness_clamp_edges_match_exact_cdf_quadrature() -> Result<(), TestCaseError> {
    // At |α| ≈ 2027, where fitted skew-normals clamp, the pdf rises from 0
    // to its peak within ω/|α| of ξ: far inside one grid panel, so only
    // bisection resolves it. The reference's break band steps across the
    // edge at 2ω/|α|.
    let x = SkewNormal::new(0.0217, 0.00425, 3.26).unwrap();
    let cases = [
        SkewNormal::new(0.0184, 0.0123, 2027.0).unwrap(),
        SkewNormal::new(0.0250, 0.0123, -2027.0).unwrap(),
        SkewNormal::new(0.0100, 0.0040, 2027.0).unwrap(),
        SkewNormal::new(0.0300, 0.0040, -2027.0).unwrap(),
    ];
    for y in cases {
        let w = y.omega() / y.alpha().abs();
        let edge = band(y.xi() - 200.0 * w, y.xi() + 200.0 * w, 200);
        let [[got]] = max_moments([&x], [&y]);
        check(got, reference(&x, &y, 400, &edge, exact_cdf))?;
        // The edge inside a 2×2 operator, beside an ordinary pair.
        let z = SkewNormal::new(0.0230, 0.0030, -1.0).unwrap();
        let got = max_moments([&x, &z], [&y, &z]);
        for (i, a) in [&x, &z].into_iter().enumerate() {
            for (j, b) in [&y, &z].into_iter().enumerate() {
                check(got[i][j], reference(a, b, 400, &edge, exact_cdf))?;
            }
        }
    }
    Ok(())
}

#[test]
fn one_to_hundred_sigma_ratio_matches_exact_cdf_quadrature() -> Result<(), TestCaseError> {
    // The narrow component spans ~1/80 of the pair's range, a tenth of one
    // grid panel, at the wide one's mode, shoulders and tail. The
    // reference cuts its ±10σ span into 64 panels.
    let wide = SkewNormal::new(1.0, 0.2, 2.0).unwrap();
    for mean in [0.9, 1.1, 1.3, 1.6] {
        let narrow = SkewNormal::new(mean, 0.002, -1.0).unwrap();
        let (m, s) = (narrow.mean(), narrow.std_dev());
        let own = band(m - 10.0 * s, m + 10.0 * s, 64);
        let [[got]] = max_moments([&wide], [&narrow]);
        check(got, reference(&wide, &narrow, 400, &own, exact_cdf))?;
        let [[got]] = max_moments([&narrow], [&wide]);
        check(got, reference(&narrow, &wide, 400, &own, exact_cdf))?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn lesn_pairs_match_exact_cdf_quadrature(x in lesn(), y in lesn()) {
        let [[got]] = max_moments([&x], [&y]);
        check(got, reference(&x, &y, 64, &[], running_cdf))?;
    }
}

#[test]
fn iid_standard_normals_match_the_closed_forms() {
    let pi = std::f64::consts::PI;
    let n = Normal::standard();
    let sn = SkewNormal::new(0.0, 1.0, 0.0).unwrap();
    let want = (
        1.0 / pi.sqrt(),
        1.0 - 1.0 / pi,
        -0.5 / pi.sqrt() + 2.0 / pi.powf(1.5),
    );
    let [[a]] = max_moments([&n], [&n]);
    let [[b]] = max_moments([&sn], [&sn]);
    for got in [a, b] {
        assert!((got.0 - want.0).abs() < 1e-13, "mean {got:?}");
        assert!((got.1 - want.1).abs() < 1e-13, "var {got:?}");
        assert!((got.2 - want.2).abs() < 1e-13, "m3 {got:?}");
    }
}

#[test]
fn near_delta_constant_operand_matches_the_closed_form() {
    // max(X, c) for a clock-edge constant c inside X's range:
    // E[g(max)] = g(c)·F(c) + ∫_c^∞ g(t) f(t) dt.
    let x = SkewNormal::new(0.10, 0.012, 2.5).unwrap();
    let c = x.mean() + 0.3 * x.std_dev();
    let arrival = TimingDist::Lvf(x);
    let clock = arrival.constant_like(c).unwrap();
    let TimingDist::Lvf(delta) = &clock else {
        panic!("in-family constant")
    };
    let [[got]] = max_moments([&x], [delta]);

    let hi = x.mean() + 12.0 * x.std_dev();
    let raw = |k: i32| {
        let tail: f64 = (0..400)
            .map(|p| {
                let h = (hi - c) / 400.0;
                gauss_legendre_32(
                    |t| t.powi(k) * x.pdf(t),
                    c + p as f64 * h,
                    c + (p + 1) as f64 * h,
                )
            })
            .sum();
        c.powi(k) * x.cdf(c) + tail
    };
    let mean = raw(1);
    let var = raw(2) - mean * mean;
    let sd = var.sqrt();
    assert!((got.0 - mean).abs() < 1e-9 * sd, "mean {} vs {mean}", got.0);
    assert!((got.1 - var).abs() < 1e-7 * var, "var {} vs {var}", got.1);

    // The same through the operator: the in-family refit keeps mean and σ.
    let m = arrival.max(&clock).unwrap();
    assert!(
        (m.mean() - mean).abs() < 1e-9 * sd,
        "{} vs {mean}",
        m.mean()
    );
    assert!(
        (m.std_dev() - sd).abs() < 1e-7 * sd,
        "{} vs {sd}",
        m.std_dev()
    );
}

#[test]
fn dominated_pair_is_exactly_the_larger_operand() {
    let small = SkewNormal::new(0.10, 0.01, 3.0).unwrap();
    let large = SkewNormal::new(0.50, 0.02, -1.5).unwrap();
    let var = large.variance();
    let exact = (
        large.mean(),
        var,
        large.skewness() * var * var.sqrt(),
        (large.excess_kurtosis() + 3.0) * var * var,
    );
    assert_eq!(max_moments([&small], [&large]), [[exact]]);
    assert_eq!(max_moments([&large], [&small]), [[exact]]);
    // Mixed: in a 2×2 op only the overlapping pair is integrated.
    let near = SkewNormal::new(0.49, 0.02, 1.0).unwrap();
    let got = max_moments([&small, &near], [&large]);
    assert_eq!(got[0][0], exact);
    assert_ne!(got[1][0], exact);
}
