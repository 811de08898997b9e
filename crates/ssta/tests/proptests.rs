//! Property-based tests for the SSTA operators (moment preservation,
//! family closure, and max-operator sanity for arbitrary valid models) and
//! for the netlist parsers (typed errors, never a panic).

use lvf2_ssta::reduce::{mixture_moments, reduce_components, MomentComponent};
use lvf2_ssta::{
    parse_bench, parse_netlist, CsrGraph, DelayFamily, ReductionStrategy, SstaError,
    SyntheticDelays, TimingDist, Topology,
};
use lvf2_stats::{Distribution, Lvf2, Moments, SkewNormal};
use proptest::prelude::*;

fn component() -> impl Strategy<Value = MomentComponent> {
    (0.05..1.0f64, -2.0..2.0f64, 0.001..0.5f64, -0.01..0.01f64)
        .prop_map(|(w, mean, var, m3)| MomentComponent { w, mean, var, m3 })
}

fn skew_normal() -> impl Strategy<Value = SkewNormal> {
    (0.05..2.0f64, 0.005..0.2f64, -0.8..0.8f64)
        .prop_map(|(m, s, g)| SkewNormal::from_moments(Moments::new(m, s, g)).expect("valid"))
}

fn lvf2_dist() -> impl Strategy<Value = TimingDist> {
    (0.05..0.95f64, skew_normal(), skew_normal())
        .prop_map(|(l, a, b)| TimingDist::Lvf2(Lvf2::new(l, a, b).expect("valid")))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn pairwise_reduction_preserves_first_three_moments(
        comps in proptest::collection::vec(component(), 2..8),
        k in 1usize..3,
    ) {
        let before = mixture_moments(&comps);
        let reduced = reduce_components(comps, k, ReductionStrategy::MomentPreservingPairwise);
        prop_assert!(reduced.len() <= k);
        let after = mixture_moments(&reduced);
        prop_assert!((before.0 - after.0).abs() < 1e-9, "mean");
        prop_assert!((before.1 - after.1).abs() < 1e-9, "variance");
        prop_assert!((before.2 - after.2).abs() < 1e-9, "third moment");
    }

    #[test]
    fn lvf2_sum_is_exact_in_mean_and_variance(a in lvf2_dist(), b in lvf2_dist()) {
        let s = a.sum(&b).expect("same family");
        prop_assert_eq!(s.family(), "LVF2");
        prop_assert!((s.mean() - (a.mean() + b.mean())).abs() < 1e-6);
        prop_assert!(
            (s.variance() - (a.variance() + b.variance())).abs()
                / (a.variance() + b.variance()) < 1e-4,
            "variance additivity"
        );
    }

    #[test]
    fn lvf_sum_third_moment_additive(x in skew_normal(), y in skew_normal()) {
        let a = TimingDist::Lvf(x);
        let b = TimingDist::Lvf(y);
        let s = a.sum(&b).expect("same family");
        let want_m3 = x.skewness() * x.variance().powf(1.5)
            + y.skewness() * y.variance().powf(1.5);
        let got_m3 = s.skewness() * s.variance().powf(1.5);
        // Exact unless the target skewness hit the SN clamp.
        let sum_var = x.variance() + y.variance();
        let implied = want_m3 / sum_var.powf(1.5);
        prop_assume!(implied.abs() < 0.99);
        prop_assert!((got_m3 - want_m3).abs() < 1e-9);
    }

    #[test]
    fn max_dominates_both_means(a in lvf2_dist(), b in lvf2_dist()) {
        let m = a.max(&b).expect("same family");
        prop_assert!(m.mean() >= a.mean().max(b.mean()) - 1e-6);
        prop_assert!(m.variance() > 0.0);
    }

    #[test]
    fn max_with_self_at_minus_infinity_is_identity_like(x in skew_normal()) {
        // max(X, Y) where Y is far below X ⇒ distribution of X.
        let lo = SkewNormal::from_moments(
            Moments::new(x.mean() - 50.0 * x.std_dev(), x.std_dev(), 0.0),
        ).expect("valid");
        let m = TimingDist::Lvf(x).max(&TimingDist::Lvf(lo)).expect("same family");
        prop_assert!((m.mean() - x.mean()).abs() < 1e-6 * (1.0 + x.mean().abs()));
        prop_assert!((m.variance() - x.variance()).abs() / x.variance() < 1e-4);
    }
}

/// Tokens of the netlist "line soup": the punctuation both formats split
/// on, their keywords, and a few signal names.
const SOUP: [&str; 22] = [
    "(", ")", "=", ",", "#", " ", "INPUT", "OUTPUT", "DFF", "NAND", "NOT", "XOR", "input",
    "output", "gate", "NAND2", "INV", "u1", "a", "b", "y", "\t",
];

fn soup() -> impl Strategy<Value = String> {
    proptest::collection::vec(proptest::collection::vec(0..SOUP.len(), 0..10), 0..10).prop_map(
        |lines| {
            lines
                .iter()
                .map(|toks| toks.iter().map(|&t| SOUP[t]).collect::<String>())
                .collect::<Vec<_>>()
                .join("\n")
        },
    )
}

/// A parsed topology always loads; only levelization may refuse it (a
/// combinational loop).
fn loads(topo: &Topology) -> Result<(), String> {
    let loaded = topo
        .timing_graph(&SyntheticDelays::new(DelayFamily::Normal, 1))
        .map_err(|e| format!("loader rejected a parsed topology: {e}"))?;
    match CsrGraph::try_from(loaded.graph) {
        Ok(_) | Err(SstaError::GraphCycle) => Ok(()),
        Err(e) => Err(format!("levelization failed: {e}")),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn netlist_parsers_never_panic_on_line_soup(text in soup()) {
        for parsed in [parse_bench(&text), parse_netlist(&text).map(|n| n.topology)] {
            match parsed {
                Ok(topo) => prop_assert_eq!(loads(&topo), Ok(()), "{:?}", text),
                Err(e) => prop_assert!(matches!(e, SstaError::Netlist { .. }), "{:?}: {}", text, e),
            }
        }
    }
}
