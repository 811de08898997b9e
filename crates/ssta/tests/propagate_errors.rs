//! Error contract of `CsrGraph::propagate`: with several independent
//! failing merges, the error reported is that of the failing node first in
//! level order, the same at every thread count.
//!
//! The failures use the overflowing operands of
//! `dist.rs::non_finite_max_moments_are_a_typed_error`. An LVF² arrival in
//! the 1e307 range fails in the sum of its next edge (`sigma` = ∞) or in a
//! max (`component mean` = NaN); a Norm² arrival at ±1e308 fails in the sum
//! (`component mean` = −∞). A wide band of healthy nodes around them keeps
//! eight workers busy.

use lvf2_parallel::Parallelism;
use lvf2_ssta::{CsrGraph, SstaError, TimingDist, TimingGraph};
use lvf2_stats::{Lvf2, Norm2, Normal, SkewNormal, StatsError};

const SOURCE: usize = 0;
/// LVF² merge that fails in the sum of its second fan-in edge.
const LVF2_MERGE: usize = 1;
/// Norm² merge that fails in the sum of its second fan-in edge.
const NORM2_MERGE: usize = 2;
/// LVF² merge of two overflowing source edges: fails in the max.
const MAX_MERGE: usize = 29;
const HEALTHY: std::ops::RangeInclusive<usize> = 6..=17;

fn lvf2(lambda: f64, a: SkewNormal, b: SkewNormal) -> TimingDist {
    TimingDist::Lvf2(Lvf2::new(lambda, a, b).unwrap())
}

fn small() -> TimingDist {
    lvf2(
        0.3,
        SkewNormal::new(0.1, 0.01, 0.8).unwrap(),
        SkewNormal::new(0.12, 0.011, -0.5).unwrap(),
    )
}

fn pair() -> TimingDist {
    lvf2(
        0.5,
        SkewNormal::new(1e307, 1e306, 1.0).unwrap(),
        SkewNormal::new(9e306, 1e306, -1.0).unwrap(),
    )
}

fn norm2(lo: Normal, hi: Normal) -> TimingDist {
    TimingDist::Norm2(Norm2::new(0.5, lo, hi).unwrap())
}

fn wide() -> TimingDist {
    norm2(
        Normal::new(-1e308, 1e307).unwrap(),
        Normal::new(1e308, 1e307).unwrap(),
    )
}

fn healthy_norm2() -> TimingDist {
    norm2(
        Normal::new(0.1, 0.01).unwrap(),
        Normal::new(0.12, 0.012).unwrap(),
    )
}

/// Two failing merges on level 2: the Norm² one (node 2) comes first in
/// level order, the LVF² one (node 1) first by node id. With
/// `max_merge`, node 29 also fails on level 1.
fn graph(max_merge: bool) -> TimingGraph {
    let (p, w, n) = (3, 4, 5);
    let mut g = TimingGraph::new(30);
    // Level 1, in this order: W, N, P, then the healthy band.
    g.add_edge(SOURCE, w, wide()).unwrap();
    g.add_edge(SOURCE, n, healthy_norm2()).unwrap();
    g.add_edge(SOURCE, p, pair()).unwrap();
    for h in HEALTHY {
        g.add_edge(SOURCE, h, small()).unwrap();
    }
    // Level 2: N's edge folds first and succeeds, W's overflows.
    g.add_edge(n, NORM2_MERGE, healthy_norm2()).unwrap();
    g.add_edge(w, NORM2_MERGE, wide()).unwrap();
    // Level 2: a healthy edge first, then P's, which overflows.
    g.add_edge(*HEALTHY.start(), LVF2_MERGE, small()).unwrap();
    g.add_edge(p, LVF2_MERGE, small()).unwrap();
    // Healthy level-2 merges, each of two neighbours in the band.
    for (k, h) in HEALTHY.take(11).enumerate() {
        g.add_edge(h, 18 + k, small()).unwrap();
        g.add_edge(h + 1, 18 + k, small()).unwrap();
    }
    if max_merge {
        g.add_edge(SOURCE, MAX_MERGE, pair()).unwrap();
        g.add_edge(SOURCE, MAX_MERGE, pair()).unwrap();
    }
    g
}

fn propagate_errors(g: &TimingGraph) -> Vec<SstaError> {
    let csr = CsrGraph::from_graph(g).unwrap();
    assert!(csr.peak_level_width() >= 8, "too narrow to run 8 workers");
    [1, 2, 8]
        .into_iter()
        .map(|threads| {
            let par = Parallelism::auto().with_threads(threads);
            csr.propagate(SOURCE, &par).unwrap_err()
        })
        .collect()
}

#[test]
fn first_failing_merge_in_level_order_wins() {
    let g = graph(false);
    let csr = CsrGraph::from_graph(&g).unwrap();
    let position = |node: u32| csr.level(2).iter().position(|&m| m == node).unwrap();
    assert!(position(NORM2_MERGE as u32) < position(LVF2_MERGE as u32));

    let expect = SstaError::Stats(StatsError::NonFinite {
        name: "component mean",
        value: f64::NEG_INFINITY,
    });
    for (threads, err) in [1, 2, 8].into_iter().zip(propagate_errors(&g)) {
        assert_eq!(err, expect, "threads={threads}");
    }
}

#[test]
fn an_earlier_level_failure_wins_over_later_ones() {
    // Node 29's max overflows on level 1; the level-2 failures lose.
    for (threads, err) in [1, 2, 8].into_iter().zip(propagate_errors(&graph(true))) {
        assert!(
            matches!(
                err,
                SstaError::Stats(StatsError::NonFinite { name: "component mean", value })
                    if value.is_nan()
            ),
            "threads={threads}: {err:?}"
        );
    }
}

#[test]
fn each_failure_alone_is_the_operator_error() {
    // The fixture's three failures, one at a time, as the operators raise
    // them: the errors above really are distinct nodes' errors.
    assert!(matches!(
        pair().sum(&small()),
        Err(SstaError::Stats(StatsError::NonFinite {
            name: "sigma",
            ..
        }))
    ));
    assert_eq!(
        wide().sum(&wide()).unwrap_err(),
        SstaError::Stats(StatsError::NonFinite {
            name: "component mean",
            value: f64::NEG_INFINITY,
        })
    );
    assert!(matches!(
        pair().max(&pair()),
        Err(SstaError::Stats(StatsError::NonFinite { value, .. })) if value.is_nan()
    ));
}
