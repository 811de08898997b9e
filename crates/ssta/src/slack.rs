//! Statistical slack and timing-violation analysis on a [`CsrGraph`]:
//! backward required-time propagation, per-node slack distributions and the
//! probability of violating a clock target — the quantities a signoff flow
//! derives from the arrival distributions the paper's models feed it.

use lvf2_stats::Distribution;

use crate::csr::CsrGraph;
use crate::dist::TimingDist;
use crate::error::SstaError;

/// Slack analysis results for one node.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSlack {
    /// Node id.
    pub node: usize,
    /// Slack distribution `required − arrival` (None for nodes with no
    /// arrival, i.e. the source and unreachable nodes).
    pub slack: Option<TimingDist>,
    /// `P(slack < 0)` — the probability this node violates timing.
    pub violation_probability: f64,
}

/// Computes per-node statistical slack against a deterministic clock target
/// at the sinks, given the forward `arrivals` of
/// [`CsrGraph::propagate`].
///
/// Required times propagate backward, level by level from the last, from
/// every sink (out-degree 0) at `clock_target`: a node folds its fan-out
/// edges in ascending edge id, taking the min of `required(to) − delay`.
/// Slack at a node is `required − arrival`, treated as independent (the
/// standard block-based approximation).
///
/// # Errors
///
/// Propagates operator errors; LESN edges are rejected (no negation).
///
/// # Panics
///
/// Panics when `arrivals` does not hold one entry per node.
///
/// # Example
///
/// ```
/// use lvf2_parallel::Parallelism;
/// use lvf2_ssta::{slack::slack_analysis, CsrGraph, TimingDist, TimingGraph};
/// use lvf2_stats::Normal;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let d = TimingDist::Normal(Normal::new(0.1, 0.01)?);
/// let mut g = TimingGraph::new(3);
/// g.add_edge(0, 1, d.clone())?;
/// g.add_edge(1, 2, d)?;
/// let csr = CsrGraph::try_from(g)?;
/// let arrivals = csr.propagate(0, &Parallelism::serial())?.arrivals;
/// // Path mean 0.2 ns against a 0.25 ns clock: comfortable slack.
/// let slacks = slack_analysis(&csr, &arrivals, 0.25)?;
/// assert!(slacks[2].violation_probability < 0.01);
/// # Ok(())
/// # }
/// ```
pub fn slack_analysis(
    graph: &CsrGraph,
    arrivals: &[Option<TimingDist>],
    clock_target: f64,
) -> Result<Vec<NodeSlack>, SstaError> {
    let n = graph.node_count();
    assert_eq!(arrivals.len(), n, "one arrival per node");

    // Backward pass: every fan-out target sits in a later level, so its
    // required time is final before its driver folds it. Sinks have no
    // fan-out and get the constant target lazily.
    let mut required: Vec<Option<TimingDist>> = vec![None; n];
    for l in (0..graph.level_count()).rev() {
        for &node in graph.level(l) {
            let mut acc: Option<TimingDist> = None;
            for &e in graph.fanout(node as usize) {
                let (_, to) = graph.edge(e as usize);
                let delay = graph.delay(e as usize);
                let through = match &required[to] {
                    Some(r) => r.sub(delay)?,
                    None => delay.constant_like(clock_target)?.sub(delay)?,
                };
                acc = Some(match acc {
                    Some(existing) => existing.min(&through)?,
                    None => through,
                });
            }
            required[node as usize] = acc;
        }
    }

    let mut out = Vec::with_capacity(n);
    for (node, arrival) in arrivals.iter().enumerate() {
        let slack = match arrival {
            Some(arr) => {
                let req = match &required[node] {
                    Some(r) => r.clone(),
                    None => arr.constant_like(clock_target)?, // sink
                };
                Some(req.sub(arr)?)
            }
            None => None,
        };
        let violation_probability = slack.as_ref().map_or(0.0, |s| s.cdf(0.0));
        out.push(NodeSlack {
            node,
            slack,
            violation_probability,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DelayFamily, NetlistGen, SyntheticDelays, TimingGraph};
    use lvf2_parallel::Parallelism;
    use lvf2_stats::{Moments, Normal, SkewNormal};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn nd(m: f64, s: f64) -> TimingDist {
        TimingDist::Normal(Normal::new(m, s).unwrap())
    }

    /// Slack of `g` propagated from node 0.
    fn slacks_of(g: &TimingGraph, clock_target: f64) -> Vec<NodeSlack> {
        let csr = CsrGraph::from_graph(g).unwrap();
        let arrivals = csr.propagate(0, &Parallelism::serial()).unwrap().arrivals;
        slack_analysis(&csr, &arrivals, clock_target).unwrap()
    }

    #[test]
    fn chain_slack_matches_closed_form() {
        let mut g = TimingGraph::new(3);
        g.add_edge(0, 1, nd(0.1, 0.01)).unwrap();
        g.add_edge(1, 2, nd(0.1, 0.01)).unwrap();
        let t = 0.25;
        let slacks = slacks_of(&g, t);
        // Sink slack: T − (d1+d2) ~ N(0.05, sqrt(2)·0.01).
        let sink = slacks[2].slack.as_ref().unwrap();
        assert!((sink.mean() - 0.05).abs() < 1e-6);
        assert!((sink.std_dev() - (2f64).sqrt() * 0.01).abs() < 1e-4);
        // Mid-node slack: (T − d2) − d1 — same total variance.
        let mid = slacks[1].slack.as_ref().unwrap();
        assert!((mid.mean() - 0.05).abs() < 1e-6);
        // Violation probability = Φ(−0.05/0.01414) ≈ 2e-4.
        let want = lvf2_stats::special::norm_cdf(-0.05 / (2f64.sqrt() * 0.01));
        assert!(
            (slacks[2].violation_probability - want).abs() < 1e-3,
            "{} vs {want}",
            slacks[2].violation_probability
        );
    }

    #[test]
    fn tight_clock_raises_violation_probability() {
        let mut g = TimingGraph::new(2);
        g.add_edge(0, 1, nd(0.2, 0.02)).unwrap();
        let loose = slacks_of(&g, 0.3)[1].violation_probability;
        let tight = slacks_of(&g, 0.21)[1].violation_probability;
        assert!(loose < 1e-4, "loose {loose}");
        assert!(tight > 0.2, "tight {tight}");
    }

    #[test]
    fn diamond_slack_tracks_monte_carlo() {
        let sn = |m: f64, s: f64, g: f64| {
            TimingDist::Lvf(SkewNormal::from_moments(Moments::new(m, s, g)).unwrap())
        };
        let edges = [
            sn(0.10, 0.01, 0.4),
            sn(0.12, 0.012, -0.2),
            sn(0.11, 0.01, 0.1),
            sn(0.09, 0.011, 0.3),
        ];
        let mut g = TimingGraph::new(4);
        g.add_edge(0, 1, edges[0].clone()).unwrap();
        g.add_edge(0, 2, edges[1].clone()).unwrap();
        g.add_edge(1, 3, edges[2].clone()).unwrap();
        g.add_edge(2, 3, edges[3].clone()).unwrap();
        let t = 0.235;
        let slacks = slacks_of(&g, t);
        let p = slacks[3].violation_probability;
        // MC reference.
        let mut rng = StdRng::seed_from_u64(8);
        let n = 200_000;
        let mut viol = 0usize;
        for _ in 0..n {
            let up = edges[0].sample(&mut rng) + edges[2].sample(&mut rng);
            let lo = edges[1].sample(&mut rng) + edges[3].sample(&mut rng);
            if up.max(lo) > t {
                viol += 1;
            }
        }
        let mc = viol as f64 / n as f64;
        assert!((p - mc).abs() < 0.02, "violation {p} vs MC {mc}");
    }

    #[test]
    fn source_has_no_slack_entry() {
        let mut g = TimingGraph::new(2);
        g.add_edge(0, 1, nd(0.1, 0.01)).unwrap();
        let slacks = slacks_of(&g, 1.0);
        assert!(slacks[0].slack.is_none());
        assert_eq!(slacks[0].violation_probability, 0.0);
    }

    #[test]
    fn lvf2_edges_are_supported() {
        let m = lvf2_stats::Lvf2::new(
            0.4,
            SkewNormal::from_moments(Moments::new(0.1, 0.008, 0.3)).unwrap(),
            SkewNormal::from_moments(Moments::new(0.13, 0.01, -0.1)).unwrap(),
        )
        .unwrap();
        let mut g = TimingGraph::new(3);
        g.add_edge(0, 1, TimingDist::Lvf2(m)).unwrap();
        g.add_edge(1, 2, TimingDist::Lvf2(m)).unwrap();
        let slacks = slacks_of(&g, 0.3);
        let sink = slacks[2].slack.as_ref().unwrap();
        assert_eq!(sink.family(), "LVF2");
        assert!(sink.mean() > 0.0);
    }

    #[test]
    fn generated_lvf2_slack_is_pinned() {
        // FNV-1a of the `{:?}` rendering of the slack vector: pins the
        // backward fold order bit for bit. The digest was 0x5303_9578_bae8_310e
        // with the exact-CDF max quadrature; the shared-grid max with
        // spectral CDFs moved the bits but not the values: every slack's
        // (mean, σ) under the old max must still hold to 1e-9 relative.
        // It was 0x69e0_2dbe_8124_746d until the skew-normal pdf moved to
        // one `exp` over the `log Φ` parts.
        const BEFORE: [(f64, f64); 30] = [
            (-0.054439515497355845, 0.0063971330365614),
            (-0.09337339564834787, 0.00762064658894459),
            (-0.09653747185765604, 0.008259094059940767),
            (-0.08539137312960832, 0.0076669743091142386),
            (-0.0985541878179836, 0.007259313512325285),
            (-0.09558272386893135, 0.006780284608426734),
            (-0.0531297444022932, 0.007252911400475624),
            (-0.07681371470930409, 0.0070898637715075576),
            (-0.040689826128859255, 0.005942606483124586),
            (-0.09112101278364625, 0.0073135095443948835),
            (-0.10042935528426555, 0.007506651741346887),
            (-0.05789395765720841, 0.006476891440852257),
            (-0.06096280162309569, 0.007019625313187435),
            (-0.05375766165853756, 0.00692065162614925),
            (-0.03462306294589672, 0.005933994521378416),
            (-0.051356815239150956, 0.0069768371302925975),
            (-0.10101895254219534, 0.007086341697598274),
            (-0.05537653746804474, 0.00731885095929422),
            (-0.061554131226832634, 0.00661296395497279),
            (-0.05375766165853759, 0.00692065162614925),
            (-0.02416094570710554, 0.005776598834918817),
            (-0.03692771878765263, 0.005960377485290306),
            (-0.10201269849596731, 0.006732580841681148),
            (-0.05538070001431491, 0.007311759545338218),
            (-0.08299746962976581, 0.006383455374106123),
            (-0.05371217620601808, 0.006958336080582171),
            (-0.044443628577461286, 0.00651539625947813),
            (-0.0382276767996375, 0.005306025294392812),
            (-0.10331896782136812, 0.006170617968637821),
            (-0.03925859604048095, 0.006548943413530173),
        ];
        let topo = NetlistGen {
            depth: 4,
            width: 6,
            max_fanin: 3,
            reconvergence: 0.4,
            seed: 3,
        }
        .generate();
        let loaded = topo
            .timing_graph(&SyntheticDelays::new(DelayFamily::Lvf2, 3))
            .unwrap();
        let slacks = slacks_of(&loaded.graph, 0.12);
        assert_eq!(slacks.len(), 31);
        assert!(slacks[0].slack.is_none());
        for (s, (mean, sd)) in slacks[1..].iter().zip(BEFORE) {
            let d = s.slack.as_ref().expect("every gate has a slack");
            assert!(
                (d.mean() - mean).abs() <= 1e-9 * mean.abs(),
                "node {}",
                s.node
            );
            assert!((d.std_dev() - sd).abs() <= 1e-9 * sd, "node {}", s.node);
        }
        let digest = format!("{slacks:?}")
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            });
        assert_eq!(digest, 0x8190_97aa_ff20_59b1);
    }
}
