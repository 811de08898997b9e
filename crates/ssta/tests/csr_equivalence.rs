//! Determinism contract for the graph-scale engine: CSR-levelized
//! (wavefront-parallel) arrival propagation must be **bit-identical** to the
//! independent O(V·E) edge-scanning reference, at every thread count.
//!
//! Random DAGs are generated with diamonds, deep reconvergence, disconnected
//! nodes, and multi-way merges — the shapes where a merge-order or
//! level-barrier bug would show as a last-bit difference. Run under the CI
//! determinism matrix at `LVF2_THREADS` ∈ {1, 2, 8}.

use lvf2_parallel::Parallelism;
use lvf2_ssta::{CsrGraph, DelayFamily, NetlistGen, SyntheticDelays, TimingDist, TimingGraph};
use lvf2_stats::{Lvf2, Moments, Normal, SkewNormal};
use proptest::prelude::*;

/// One random edge delay; family and parameters derived from integer knobs
/// so proptest shrinking stays well-defined.
fn delay(family: u8, mean_m: u16, sd_m: u16, shape_m: u16) -> TimingDist {
    let mean = 0.01 + f64::from(mean_m % 1000) * 1e-4;
    let sd = mean * (0.02 + f64::from(sd_m % 100) * 1e-3);
    match family % 3 {
        0 => TimingDist::Normal(Normal::new(mean, sd).unwrap()),
        1 => {
            let skew = f64::from(shape_m % 100) * 6e-3;
            TimingDist::Lvf(SkewNormal::from_moments(Moments::new(mean, sd, skew)).unwrap())
        }
        _ => {
            let lambda = 0.2 + f64::from(shape_m % 100) * 6e-3;
            let a = SkewNormal::new(mean * 0.97, sd, 0.8).unwrap();
            let b = SkewNormal::new(mean * 1.03, sd * 1.1, -0.5).unwrap();
            TimingDist::Lvf2(Lvf2::new(lambda, a, b).unwrap())
        }
    }
}

/// Builds a random DAG on `nodes` nodes. Every edge runs `from -> to` with
/// `from < to` (guaranteeing acyclicity) where the endpoints are drawn from
/// raw knobs; nodes never drawn stay disconnected. Repeated `(from, to)`
/// pairs create parallel edges — legal, and a good stress for fold order.
/// One delay family per graph: statistical sum/max are only defined within
/// a family.
fn build_graph(nodes: usize, family: u8, raw_edges: &[(u16, u16, u16, u16, u16)]) -> TimingGraph {
    let mut g = TimingGraph::new(nodes);
    for &(a, b, mean_m, sd_m, shape_m) in raw_edges {
        let x = a as usize % nodes;
        let y = b as usize % nodes;
        if x == y {
            continue;
        }
        let (from, to) = if x < y { (x, y) } else { (y, x) };
        g.add_edge(from, to, delay(family, mean_m, sd_m, shape_m))
            .unwrap();
    }
    g
}

fn assert_bit_identical(g: &TimingGraph, source: usize) {
    let reference = g.arrival_times_reference(source).unwrap();
    let csr = CsrGraph::from_graph(g).unwrap();
    for threads in [1usize, 2, 8] {
        let par = Parallelism::auto().with_threads(threads);
        let got = csr.propagate(source, &par).unwrap().arrivals;
        assert_eq!(
            got, reference,
            "arrivals diverge from reference at {threads} threads"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random DAGs (parallel edges, reconvergence, disconnected nodes):
    /// CSR-parallel ≡ reference, bitwise, at 1/2/8 threads.
    #[test]
    fn random_dags_match_reference(
        nodes in 2usize..40,
        family in 0u8..3,
        raw_edges in collection::vec(
            (0u16..u16::MAX, 0u16..u16::MAX, 0u16..u16::MAX, 0u16..u16::MAX, 0u16..u16::MAX),
            0usize..120,
        ),
        source_knob in 0u16..u16::MAX,
    ) {
        let g = build_graph(nodes, family, &raw_edges);
        let source = source_knob as usize % nodes;
        let reference = g.arrival_times_reference(source).unwrap();
        let csr = CsrGraph::from_graph(&g).unwrap();
        for threads in [1usize, 2, 8] {
            let par = Parallelism::auto().with_threads(threads);
            let got = csr.propagate(source, &par).unwrap().arrivals;
            prop_assert_eq!(&got, &reference, "diverged at {} threads", threads);
        }
    }
}

/// The canonical reconvergent diamond, with a multi-way merge on top.
#[test]
fn diamond_with_multiway_merge() {
    let mut g = TimingGraph::new(6);
    let d = |m: u16| delay(2, m, 10, 40);
    g.add_edge(0, 1, d(100)).unwrap();
    g.add_edge(0, 2, d(200)).unwrap();
    g.add_edge(1, 3, d(300)).unwrap();
    g.add_edge(2, 3, d(400)).unwrap();
    g.add_edge(0, 3, d(500)).unwrap(); // long-range reconvergence
    g.add_edge(3, 4, d(600)).unwrap();
    g.add_edge(1, 4, d(700)).unwrap(); // second merge point
                                       // node 5 disconnected
    assert_bit_identical(&g, 0);
}

/// Generated netlists (the ssta_bench workload) match the reference too —
/// wide levels exercise the parallel path; LVF2 delays exercise the
/// mixture sum/max/reduce pipeline.
#[test]
fn generated_netlist_matches_reference() {
    let topo = NetlistGen {
        depth: 10,
        width: 40,
        max_fanin: 3,
        reconvergence: 0.25,
        seed: 17,
    }
    .generate();
    let loaded = topo
        .timing_graph(&SyntheticDelays::new(DelayFamily::Lvf2, 17))
        .unwrap();
    assert_bit_identical(&loaded.graph, loaded.source);
}

/// Propagating from a mid-graph node leaves upstream nodes `None` and still
/// matches the reference bit-for-bit (exercises the live-level skip path).
#[test]
fn mid_graph_source_matches_reference() {
    let topo = NetlistGen {
        depth: 8,
        width: 12,
        max_fanin: 3,
        reconvergence: 0.3,
        seed: 5,
    }
    .generate();
    let loaded = topo
        .timing_graph(&SyntheticDelays::new(DelayFamily::Lvf, 5))
        .unwrap();
    let mid = loaded.graph.node_count() / 2;
    let arrivals = loaded.graph.arrival_times(mid).unwrap();
    assert!(arrivals.iter().take(mid).filter(|a| a.is_some()).count() < mid);
    assert_bit_identical(&loaded.graph, mid);
}

/// End-to-end at graph scale: a ~100k-node generated netlist propagates
/// through the CSR engine (acceptance criterion for the graph-scale PR).
/// Normal delays keep the debug-profile runtime reasonable; the release
/// bench covers the heavier families.
#[test]
fn hundred_thousand_node_netlist_propagates() {
    let gen = NetlistGen::with_nodes(100_000, 50);
    let topo = gen.generate();
    assert!(topo.node_count() >= 100_000);
    let loaded = topo
        .timing_graph(&SyntheticDelays::new(DelayFamily::Normal, 1))
        .unwrap();
    let csr = CsrGraph::try_from(loaded.graph).unwrap();
    assert_eq!(csr.level_count(), 52); // source + PI rank + 50 gate ranks
    let par = Parallelism::auto();
    let prop = csr.propagate(loaded.source, &par).unwrap();
    for &s in &loaded.sinks {
        assert!(prop.arrivals[s].is_some(), "sink {s} unreachable");
    }
    // Every edge except the virtual-source fanout incurs one statistical
    // sum; merges incur maxes.
    assert!(prop.maxes > 0);
    assert_eq!(prop.sums as usize, csr.edge_count() - topo.n_inputs);
}
