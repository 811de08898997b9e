//! Block-based SSTA over a timing DAG (Devgan–Kashyap, ref \[20\]):
//! arrival-time propagation with `sum` along edges and `max` at merge
//! points.

use lvf2_parallel::Parallelism;

use crate::csr::CsrGraph;
use crate::dist::TimingDist;
use crate::error::SstaError;

/// An edge in the timing graph: a delay distribution from one node to
/// another.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingEdge {
    /// Source node id.
    pub from: usize,
    /// Destination node id.
    pub to: usize,
    /// The edge's delay distribution.
    pub delay: TimingDist,
}

/// A DAG of timing nodes and delay edges.
///
/// # Example
///
/// A diamond: two parallel paths reconverging, requiring a statistical max.
///
/// ```
/// use lvf2_ssta::{TimingDist, TimingGraph};
/// use lvf2_stats::{Distribution, Normal};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// fn d(m: f64) -> Result<TimingDist, lvf2_stats::StatsError> {
///     Ok(TimingDist::Normal(Normal::new(m, 0.01)?))
/// }
/// let mut g = TimingGraph::new(4);
/// g.add_edge(0, 1, d(0.10)?)?;
/// g.add_edge(0, 2, d(0.12)?)?;
/// g.add_edge(1, 3, d(0.10)?)?;
/// g.add_edge(2, 3, d(0.10)?)?;
/// let arrivals = g.arrival_times(0)?;
/// let sink = arrivals[3].as_ref().expect("sink reached");
/// assert!(sink.mean() > 0.22); // max of the two paths, ≥ slower branch
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TimingGraph {
    nodes: usize,
    edges: Vec<TimingEdge>,
}

impl TimingGraph {
    /// Creates a graph with `nodes` nodes (ids `0..nodes`) and no edges.
    pub fn new(nodes: usize) -> Self {
        TimingGraph {
            nodes,
            edges: Vec::new(),
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// The edges.
    pub fn edges(&self) -> &[TimingEdge] {
        &self.edges
    }

    /// Consumes the graph, returning the edge list (used by the consuming
    /// [`CsrGraph`] conversion to move delay distributions instead of
    /// cloning a multi-hundred-MB slab at graph scale).
    pub fn into_edges(self) -> Vec<TimingEdge> {
        self.edges
    }

    /// Adds a delay edge.
    ///
    /// # Errors
    ///
    /// [`SstaError::BadEdge`] when either endpoint is out of range.
    pub fn add_edge(&mut self, from: usize, to: usize, delay: TimingDist) -> Result<(), SstaError> {
        if from >= self.nodes {
            return Err(SstaError::BadEdge { node: from });
        }
        if to >= self.nodes {
            return Err(SstaError::BadEdge { node: to });
        }
        self.edges.push(TimingEdge { from, to, delay });
        Ok(())
    }

    /// Kahn topological order of the node ids.
    fn topo_order(&self) -> Result<Vec<usize>, SstaError> {
        let mut indeg = vec![0usize; self.nodes];
        for e in &self.edges {
            indeg[e.to] += 1;
        }
        let mut queue: Vec<usize> = (0..self.nodes).filter(|&n| indeg[n] == 0).collect();
        let mut order = Vec::with_capacity(self.nodes);
        while let Some(n) = queue.pop() {
            order.push(n);
            for e in self.edges.iter().filter(|e| e.from == n) {
                indeg[e.to] -= 1;
                if indeg[e.to] == 0 {
                    queue.push(e.to);
                }
            }
        }
        if order.len() != self.nodes {
            return Err(SstaError::GraphCycle);
        }
        Ok(order)
    }

    /// Block-based arrival-time propagation from `source`.
    ///
    /// Returns, per node, `Some(arrival distribution)` for nodes reachable
    /// from the source (the source itself gets `None`, meaning arrival 0 —
    /// as does any unreachable node).
    ///
    /// Compiles the edge list to [`CsrGraph`] and runs the serial levelized
    /// propagation — O(V+E) instead of the old O(V·E) edge re-scan. For
    /// repeated propagations or parallel wavefronts, build the [`CsrGraph`]
    /// once ([`CsrGraph::try_from`]) and call [`CsrGraph::propagate`]
    /// directly.
    ///
    /// # Errors
    ///
    /// [`SstaError::BadNode`] when `source` is outside the graph,
    /// [`SstaError::GraphCycle`] on cyclic graphs, plus any family/fit error
    /// from the statistical operators.
    pub fn arrival_times(&self, source: usize) -> Result<Vec<Option<TimingDist>>, SstaError> {
        let obs = lvf2_obs::Obs::current();
        let _span = obs.span("ssta.arrival_times");
        Ok(CsrGraph::from_graph(self)?
            .propagate(source, &Parallelism::serial())?
            .arrivals)
    }

    /// Serial reference propagation over the raw edge list — the naive
    /// path the CSR engine is equivalence-tested against.
    ///
    /// Scans the whole edge `Vec` per node (O(V·E)): deliberately naive, no
    /// shared code with [`CsrGraph`], but the identical fold contract —
    /// fan-in edges in insertion order, first reached edge seeds the fold,
    /// later ones merge with the statistical max — so the results are
    /// bit-identical to [`CsrGraph::propagate`] at any thread count.
    ///
    /// # Errors
    ///
    /// Same contract as [`arrival_times`](Self::arrival_times).
    pub fn arrival_times_reference(
        &self,
        source: usize,
    ) -> Result<Vec<Option<TimingDist>>, SstaError> {
        if source >= self.nodes {
            return Err(SstaError::BadNode { node: source });
        }
        let order = self.topo_order()?;
        let mut arrival: Vec<Option<TimingDist>> = vec![None; self.nodes];
        let mut reached = vec![false; self.nodes];
        reached[source] = true;
        for &n in &order {
            let mut acc: Option<TimingDist> = None;
            // Pull fan-in in edge-insertion order (the filter preserves it).
            for e in self.edges.iter().filter(|e| e.to == n) {
                if !reached[e.from] {
                    continue;
                }
                let through = match &arrival[e.from] {
                    Some(a) => a.sum(&e.delay)?,
                    None => e.delay.clone(),
                };
                acc = Some(match acc {
                    Some(existing) => existing.max(&through)?,
                    None => through,
                });
            }
            if acc.is_some() {
                reached[n] = true;
                arrival[n] = acc;
            }
        }
        Ok(arrival)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lvf2_stats::{Distribution, Moments, Normal, SkewNormal};

    fn nd(m: f64) -> TimingDist {
        TimingDist::Normal(Normal::new(m, 0.01).unwrap())
    }

    #[test]
    fn chain_sums_delays() {
        let mut g = TimingGraph::new(4);
        g.add_edge(0, 1, nd(0.1)).unwrap();
        g.add_edge(1, 2, nd(0.2)).unwrap();
        g.add_edge(2, 3, nd(0.3)).unwrap();
        let a = g.arrival_times(0).unwrap();
        let sink = a[3].as_ref().unwrap();
        assert!((sink.mean() - 0.6).abs() < 1e-12);
        assert!((sink.variance() - 3e-4).abs() < 1e-12);
    }

    #[test]
    fn reconvergence_takes_max() {
        let mut g = TimingGraph::new(4);
        g.add_edge(0, 1, nd(0.1)).unwrap();
        g.add_edge(0, 2, nd(0.5)).unwrap();
        g.add_edge(1, 3, nd(0.1)).unwrap();
        g.add_edge(2, 3, nd(0.1)).unwrap();
        let a = g.arrival_times(0).unwrap();
        let sink = a[3].as_ref().unwrap();
        // Slow branch dominates: ≈ 0.6.
        assert!((sink.mean() - 0.6).abs() < 1e-6, "mean {}", sink.mean());
    }

    #[test]
    fn cycles_are_rejected() {
        let mut g = TimingGraph::new(2);
        g.add_edge(0, 1, nd(0.1)).unwrap();
        g.add_edge(1, 0, nd(0.1)).unwrap();
        assert!(matches!(g.arrival_times(0), Err(SstaError::GraphCycle)));
    }

    #[test]
    fn bad_edges_are_rejected() {
        let mut g = TimingGraph::new(2);
        assert!(matches!(
            g.add_edge(0, 5, nd(0.1)),
            Err(SstaError::BadEdge { node: 5 })
        ));
    }

    #[test]
    fn unreachable_nodes_stay_none() {
        let mut g = TimingGraph::new(3);
        g.add_edge(1, 2, nd(0.1)).unwrap();
        let a = g.arrival_times(0).unwrap();
        assert!(a[1].is_none() && a[2].is_none());
    }

    #[test]
    fn out_of_range_source_is_a_typed_error() {
        let mut g = TimingGraph::new(2);
        g.add_edge(0, 1, nd(0.1)).unwrap();
        // Used to silently return all-`None`; now a typed error, from every
        // propagation entry point.
        assert!(matches!(
            g.arrival_times(2),
            Err(SstaError::BadNode { node: 2 })
        ));
        assert!(matches!(
            CsrGraph::from_graph(&g)
                .unwrap()
                .propagate(7, &Parallelism::serial()),
            Err(SstaError::BadNode { node: 7 })
        ));
        assert!(matches!(
            g.arrival_times_reference(2),
            Err(SstaError::BadNode { node: 2 })
        ));
    }

    #[test]
    fn reference_matches_csr_bitwise() {
        // Multi-way merge with shuffled edge insertion: the fold order is
        // pinned by edge id, so both engines must agree bit-for-bit.
        let mut g = TimingGraph::new(6);
        g.add_edge(2, 5, nd(0.31)).unwrap();
        g.add_edge(0, 1, nd(0.10)).unwrap();
        g.add_edge(0, 3, nd(0.12)).unwrap();
        g.add_edge(1, 5, nd(0.27)).unwrap();
        g.add_edge(0, 2, nd(0.50)).unwrap();
        g.add_edge(3, 5, nd(0.09)).unwrap();
        g.add_edge(1, 4, nd(0.05)).unwrap();
        g.add_edge(4, 5, nd(0.22)).unwrap();
        let reference = g.arrival_times_reference(0).unwrap();
        let csr = CsrGraph::from_graph(&g).unwrap();
        for threads in [1, 2, 8] {
            let par = Parallelism::auto().with_threads(threads);
            assert_eq!(
                csr.propagate(0, &par).unwrap().arrivals,
                reference,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn lvf2_graph_propagates() {
        let sn = |m: f64, s: f64, g: f64| SkewNormal::from_moments(Moments::new(m, s, g)).unwrap();
        let d = TimingDist::Lvf2(
            lvf2_stats::Lvf2::new(0.3, sn(0.1, 0.008, 0.4), sn(0.13, 0.01, -0.2)).unwrap(),
        );
        let mut g = TimingGraph::new(4);
        g.add_edge(0, 1, d.clone()).unwrap();
        g.add_edge(0, 2, d.clone()).unwrap();
        g.add_edge(1, 3, d.clone()).unwrap();
        g.add_edge(2, 3, d).unwrap();
        let a = g.arrival_times(0).unwrap();
        let sink = a[3].as_ref().unwrap();
        assert_eq!(sink.family(), "LVF2");
        assert!(
            sink.mean() > 0.2 && sink.mean() < 0.35,
            "mean {}",
            sink.mean()
        );
    }
}
