//! Integration test: block-based graph propagation (sum along edges, max at
//! reconvergence) tracks a direct Monte-Carlo simulation of the same DAG,
//! for every model family that supports it.

use lvf2::binning::{score_model, GoldenReference};
use lvf2::parallel::Parallelism;
use lvf2::ssta::{
    golden, CsrGraph, DelayFamily, NetlistGen, SyntheticDelays, TimingDist, TimingGraph,
};
use lvf2::stats::{Distribution, Lvf2, Moments, Norm2, Normal, SkewNormal};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Monte-Carlo reference for the diamond: two parallel 2-edge paths from a
/// common source, reconverging at the sink; all edge delays independent.
fn diamond_mc<D: Distribution>(edges: &[D; 4], n: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let upper = edges[0].sample(&mut rng) + edges[2].sample(&mut rng);
            let lower = edges[1].sample(&mut rng) + edges[3].sample(&mut rng);
            upper.max(lower)
        })
        .collect()
}

fn diamond_graph(edges: [TimingDist; 4]) -> TimingDist {
    let mut g = TimingGraph::new(4);
    let [e01, e02, e13, e23] = edges;
    g.add_edge(0, 1, e01).expect("edge");
    g.add_edge(0, 2, e02).expect("edge");
    g.add_edge(1, 3, e13).expect("edge");
    g.add_edge(2, 3, e23).expect("edge");
    let arrivals = g.arrival_times(0).expect("propagates");
    arrivals[3].clone().expect("sink reached")
}

fn check_against_mc(analytic: &TimingDist, mc: &[f64], tol_mean: f64, tol_sd: f64) {
    let mc_mean = lvf2::stats::sample_mean(mc);
    let mc_sd = lvf2::stats::sample_std(mc);
    assert!(
        (analytic.mean() - mc_mean).abs() < tol_mean * mc_mean,
        "{}: mean {} vs MC {mc_mean}",
        analytic.family(),
        analytic.mean()
    );
    assert!(
        (analytic.std_dev() - mc_sd).abs() < tol_sd * mc_sd,
        "{}: σ {} vs MC {mc_sd}",
        analytic.family(),
        analytic.std_dev()
    );
    // Median agreement via the CDF.
    let ecdf = lvf2::stats::Ecdf::new(mc.to_vec()).expect("samples");
    let med = ecdf.quantile(0.5);
    assert!(
        (analytic.cdf(med) - 0.5).abs() < 0.05,
        "{}: cdf(median) = {}",
        analytic.family(),
        analytic.cdf(med)
    );
}

#[test]
fn normal_diamond_matches_monte_carlo() {
    let n = |m: f64, s: f64| Normal::new(m, s).unwrap();
    let edges = [n(0.10, 0.01), n(0.12, 0.012), n(0.11, 0.01), n(0.09, 0.011)];
    let mc = diamond_mc(&edges, 200_000, 1);
    let analytic = diamond_graph(edges.map(TimingDist::Normal));
    check_against_mc(&analytic, &mc, 0.01, 0.08);
}

#[test]
fn lvf_diamond_matches_monte_carlo() {
    let sn = |m: f64, s: f64, g: f64| SkewNormal::from_moments(Moments::new(m, s, g)).unwrap();
    let edges = [
        sn(0.10, 0.010, 0.5),
        sn(0.12, 0.012, -0.3),
        sn(0.11, 0.010, 0.2),
        sn(0.09, 0.011, 0.6),
    ];
    let mc = diamond_mc(&edges, 200_000, 2);
    let analytic = diamond_graph(edges.map(TimingDist::Lvf));
    check_against_mc(&analytic, &mc, 0.01, 0.08);
}

#[test]
fn lvf2_diamond_matches_monte_carlo() {
    let sn = |m: f64, s: f64, g: f64| SkewNormal::from_moments(Moments::new(m, s, g)).unwrap();
    let mix = |l: f64, a: SkewNormal, b: SkewNormal| Lvf2::new(l, a, b).unwrap();
    let edges = [
        mix(0.3, sn(0.10, 0.008, 0.4), sn(0.13, 0.010, -0.2)),
        mix(0.5, sn(0.11, 0.009, 0.1), sn(0.14, 0.011, 0.3)),
        mix(0.2, sn(0.10, 0.007, 0.5), sn(0.12, 0.009, 0.0)),
        mix(0.4, sn(0.09, 0.008, -0.1), sn(0.12, 0.010, 0.2)),
    ];
    let mc = diamond_mc(&edges, 200_000, 3);
    let analytic = diamond_graph(edges.map(TimingDist::Lvf2));
    assert_eq!(analytic.family(), "LVF2");
    check_against_mc(&analytic, &mc, 0.01, 0.08);
}

#[test]
fn norm2_diamond_matches_monte_carlo() {
    let n = |m: f64, s: f64| Normal::new(m, s).unwrap();
    let mix = |l: f64, a: Normal, b: Normal| Norm2::new(l, a, b).unwrap();
    let edges = [
        mix(0.3, n(0.10, 0.008), n(0.13, 0.010)),
        mix(0.5, n(0.11, 0.009), n(0.14, 0.011)),
        mix(0.2, n(0.10, 0.007), n(0.12, 0.009)),
        mix(0.4, n(0.09, 0.008), n(0.12, 0.010)),
    ];
    let mc = diamond_mc(&edges, 200_000, 4);
    let analytic = diamond_graph(edges.map(TimingDist::Norm2));
    check_against_mc(&analytic, &mc, 0.01, 0.08);
}

#[test]
fn wider_dag_with_multiple_reconvergences() {
    // Two diamonds in series: 0→{1,2}→3→{4,5}→6.
    let sn =
        |m: f64| TimingDist::Lvf(SkewNormal::from_moments(Moments::new(m, 0.01, 0.3)).unwrap());
    let mut g = TimingGraph::new(7);
    g.add_edge(0, 1, sn(0.1)).unwrap();
    g.add_edge(0, 2, sn(0.12)).unwrap();
    g.add_edge(1, 3, sn(0.1)).unwrap();
    g.add_edge(2, 3, sn(0.09)).unwrap();
    g.add_edge(3, 4, sn(0.11)).unwrap();
    g.add_edge(3, 5, sn(0.1)).unwrap();
    g.add_edge(4, 6, sn(0.1)).unwrap();
    g.add_edge(5, 6, sn(0.12)).unwrap();
    let arrivals = g.arrival_times(0).unwrap();
    let sink = arrivals[6].as_ref().unwrap();
    // Longest nominal path ≈ 0.12+0.09(max upper/lower ~0.21..0.22) + ... :
    // sanity bounds rather than exact values.
    assert!(
        sink.mean() > 0.4 && sink.mean() < 0.5,
        "sink mean {}",
        sink.mean()
    );
    assert!(sink.std_dev() > 0.005 && sink.std_dev() < 0.05);
}

#[test]
fn generated_lvf2_netlist_sinks_match_golden_propagation() {
    // ~200 nodes of reconvergent logic at depth 6, LVF² delays on every
    // edge. The golden reference draws each edge's samples from that edge's
    // own `TimingDist`, so it measures only the sum/max/reduce error of the
    // analytical propagation, not fit error. Tolerances are the benchmark's
    // golden check: the operators ignore the correlation reconvergence
    // builds, so σ errors of 10–20% are expected.
    const SAMPLES: usize = 10_000;
    let loaded = NetlistGen {
        seed: 11,
        ..NetlistGen::with_nodes(200, 6)
    }
    .generate()
    .timing_graph(&SyntheticDelays::new(DelayFamily::Lvf2, 11))
    .expect("timing graph");
    let (source, sinks) = (loaded.source, loaded.sinks);
    let csr = CsrGraph::try_from(loaded.graph).expect("acyclic");
    assert!(csr.node_count() >= 190, "{} nodes", csr.node_count());
    let arrivals = csr
        .propagate(source, &Parallelism::serial())
        .expect("propagates")
        .arrivals;

    let mut rng = StdRng::seed_from_u64(12);
    let edge_samples: Vec<Vec<f64>> = (0..csr.edge_count())
        .map(|e| csr.delay(e).sample_n(&mut rng, SAMPLES))
        .collect();
    let golden_arrivals = golden::propagate_samples(&csr, source, &edge_samples);

    assert!(!sinks.is_empty());
    for &s in &sinks {
        let model = arrivals[s].as_ref().expect("sink reached");
        assert_eq!(model.family(), "LVF2");
        let samples = golden_arrivals[s].as_deref().expect("golden sink reached");
        let (gm, gs) = (
            lvf2::stats::sample_mean(samples),
            lvf2::stats::sample_std(samples),
        );
        let mean_rel = (model.mean() - gm).abs() / gm;
        let sigma_rel = (model.std_dev() - gs).abs() / gs;
        let reference = GoldenReference::from_samples(samples).expect("spread");
        let binning = score_model(model, &reference).binning_error;
        assert!(mean_rel < 0.03, "sink {s}: |Δμ|/μ = {mean_rel}");
        assert!(sigma_rel < 0.35, "sink {s}: |Δσ|/σ = {sigma_rel}");
        assert!(binning < 0.10, "sink {s}: binning error {binning}");
    }
}
