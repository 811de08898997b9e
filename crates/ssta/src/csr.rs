//! Arena/CSR timing-graph representation with dependency-driven parallel
//! propagation — the graph-scale engine behind [`TimingGraph`].
//!
//! The edge-list [`TimingGraph`] is the right *construction* API (append an
//! edge, done), but its propagation re-scanned the whole edge `Vec` per node
//! — O(V·E), pointer-chasing, strictly serial. [`CsrGraph`] is the same DAG
//! compiled once into flat arrays:
//!
//! - an **edge slab**: `from`/`to`/delay stored in three parallel vectors in
//!   insertion order, no per-edge heap objects;
//! - **offset-indexed adjacency**: for every node, its fan-in and fan-out
//!   edge ids as a contiguous `u32` slice (classic compressed-sparse-row);
//! - **Kahn levelization into wavefronts**: level of a node = longest edge
//!   path from any root, so every node's predecessors live in strictly
//!   earlier levels.
//!
//! Wavefronts remain the graph's shape and its telemetry (level count,
//! widths, the order errors are reported in), but they are no longer the
//! unit of parallel work. [`CsrGraph::propagate`] hands the nodes, in level
//! order, to [`Parallelism::try_par_dag`]: one set of workers per
//! propagation, and a node runs as soon as its last fan-in has finished,
//! with no barrier between levels.
//!
//! # Determinism contract
//!
//! Arrival times are **pulled**: node `t` folds its fan-in edges in
//! ascending edge-id (= insertion) order — `through(e) = arrival(from(e)) +
//! delay(e)`, first reached edge seeds the fold, later ones merge with the
//! statistical max. Each node's arrival is therefore a pure function of its
//! predecessors' arrivals and a *fixed* fold order, so serial and parallel
//! propagation are bit-identical at any thread count by construction — the
//! same contract `lvf2-parallel` gives the MC and fitting pipelines. The
//! edge-scanning serial reference ([`TimingGraph::arrival_times_reference`])
//! implements the identical contract over the raw edge list and is what the
//! equivalence proptests compare against. A failing operator reports the
//! error of the failing node that comes first in level order, and no node
//! downstream of it runs.

use lvf2_parallel::{DagOutputs, Parallelism};

use crate::dist::TimingDist;
use crate::error::SstaError;
use crate::graph::TimingGraph;

/// A timing DAG compiled to compressed-sparse-row form, levelized into
/// wavefronts, ready for parallel arrival propagation.
///
/// Build one with [`CsrGraph::from_graph`] (borrowing) or
/// [`CsrGraph::try_from`]`(TimingGraph)` (consuming — preferred at graph
/// scale, the delay slab is moved instead of cloned).
///
/// # Example
///
/// ```
/// use lvf2_parallel::Parallelism;
/// use lvf2_ssta::{CsrGraph, TimingDist, TimingGraph};
/// use lvf2_stats::Normal;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut g = TimingGraph::new(4);
/// let d = |m: f64| TimingDist::Normal(Normal::new(m, 0.01).unwrap());
/// g.add_edge(0, 1, d(0.10))?;
/// g.add_edge(0, 2, d(0.12))?;
/// g.add_edge(1, 3, d(0.10))?;
/// g.add_edge(2, 3, d(0.10))?;
/// let csr = CsrGraph::try_from(g)?;
/// assert_eq!(csr.level_count(), 3);
/// let prop = csr.propagate(0, &Parallelism::serial())?;
/// assert!(prop.arrivals[3].is_some());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CsrGraph {
    nodes: usize,
    /// Edge slab, insertion order: `edge_from[e] → edge_to[e]` with delay
    /// `delays[e]`.
    edge_from: Vec<u32>,
    edge_to: Vec<u32>,
    delays: Vec<TimingDist>,
    /// Fan-in adjacency: edge ids into node `n` are
    /// `fanin_edges[fanin_off[n]..fanin_off[n+1]]`, ascending.
    fanin_off: Vec<u32>,
    fanin_edges: Vec<u32>,
    /// Fan-out adjacency, same layout.
    fanout_off: Vec<u32>,
    fanout_edges: Vec<u32>,
    /// Wavefronts: level `l` holds nodes
    /// `level_nodes[level_off[l]..level_off[l+1]]`; every fan-in edge of a
    /// level-`l` node originates in a level `< l`.
    level_off: Vec<u32>,
    level_nodes: Vec<u32>,
    /// Position of each node in `level_nodes`: its task index in
    /// [`CsrGraph::propagate`].
    level_rank: Vec<u32>,
}

/// One node's pulled arrival with the (sum, max) op counts it spent.
type Pulled = (Option<TimingDist>, u64, u64);

/// Arrival times plus the propagation telemetry the benches report.
#[derive(Debug, Clone, PartialEq)]
pub struct Propagation {
    /// Per node: `Some(arrival)` for nodes reached through at least one
    /// edge; `None` for the source itself (arrival 0) and unreachable nodes.
    pub arrivals: Vec<Option<TimingDist>>,
    /// Statistical-sum operations performed.
    pub sums: u64,
    /// Statistical-max operations performed.
    pub maxes: u64,
    /// Number of levels that contained at least one reached node.
    pub active_levels: usize,
    /// Widest wavefront (nodes in the largest level).
    pub peak_level_width: usize,
}

impl CsrGraph {
    /// Compiles a [`TimingGraph`] into CSR form, cloning the delay slab.
    ///
    /// # Errors
    ///
    /// [`SstaError::GraphCycle`] when the graph is not a DAG.
    pub fn from_graph(graph: &TimingGraph) -> Result<CsrGraph, SstaError> {
        Self::try_from(graph.clone())
    }

    fn build(
        nodes: usize,
        edge_from: Vec<u32>,
        edge_to: Vec<u32>,
        delays: Vec<TimingDist>,
    ) -> Result<CsrGraph, SstaError> {
        let n_edges = edge_from.len();
        // Counting sort into CSR adjacency. Edge ids are pushed in ascending
        // order, so each node's fan-in/fan-out list is ascending — the fold
        // order the determinism contract pins.
        let mut fanin_off = vec![0u32; nodes + 1];
        let mut fanout_off = vec![0u32; nodes + 1];
        for e in 0..n_edges {
            fanin_off[edge_to[e] as usize + 1] += 1;
            fanout_off[edge_from[e] as usize + 1] += 1;
        }
        for n in 0..nodes {
            fanin_off[n + 1] += fanin_off[n];
            fanout_off[n + 1] += fanout_off[n];
        }
        let mut fanin_edges = vec![0u32; n_edges];
        let mut fanout_edges = vec![0u32; n_edges];
        let mut fanin_cursor = fanin_off.clone();
        let mut fanout_cursor = fanout_off.clone();
        for e in 0..n_edges {
            let t = edge_to[e] as usize;
            fanin_edges[fanin_cursor[t] as usize] = e as u32;
            fanin_cursor[t] += 1;
            let f = edge_from[e] as usize;
            fanout_edges[fanout_cursor[f] as usize] = e as u32;
            fanout_cursor[f] += 1;
        }

        // Kahn levelization by wavefront: a node enters the frontier once
        // all predecessors have been placed, which happens right after its
        // *deepest* predecessor's level — so level = longest-path depth.
        let mut indeg: Vec<u32> = (0..nodes)
            .map(|n| fanin_off[n + 1] - fanin_off[n])
            .collect();
        let mut level_off = vec![0u32];
        let mut level_nodes: Vec<u32> = (0..nodes as u32)
            .filter(|&n| indeg[n as usize] == 0)
            .collect();
        level_off.push(level_nodes.len() as u32);
        let mut lo = 0usize;
        while lo < level_nodes.len() {
            let hi = level_nodes.len();
            for i in lo..hi {
                let n = level_nodes[i] as usize;
                for &e in &fanout_edges[fanout_off[n] as usize..fanout_off[n + 1] as usize] {
                    let t = edge_to[e as usize] as usize;
                    indeg[t] -= 1;
                    if indeg[t] == 0 {
                        level_nodes.push(t as u32);
                    }
                }
            }
            lo = hi;
            if level_nodes.len() > hi {
                level_off.push(level_nodes.len() as u32);
            }
        }
        if level_nodes.len() != nodes {
            return Err(SstaError::GraphCycle);
        }
        let mut level_rank = vec![0u32; nodes];
        for (k, &n) in level_nodes.iter().enumerate() {
            level_rank[n as usize] = k as u32;
        }
        Ok(CsrGraph {
            nodes,
            edge_from,
            edge_to,
            delays,
            fanin_off,
            fanin_edges,
            fanout_off,
            fanout_edges,
            level_off,
            level_nodes,
            level_rank,
        })
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edge_from.len()
    }

    /// Number of levels (wavefronts); 0 for the empty graph.
    pub fn level_count(&self) -> usize {
        self.level_off.len().saturating_sub(1)
    }

    /// The node ids of level `l`.
    pub fn level(&self, l: usize) -> &[u32] {
        &self.level_nodes[self.level_off[l] as usize..self.level_off[l + 1] as usize]
    }

    /// Nodes in the widest wavefront.
    pub fn peak_level_width(&self) -> usize {
        (0..self.level_count())
            .map(|l| self.level(l).len())
            .max()
            .unwrap_or(0)
    }

    /// Fan-in edge ids of `n`, ascending.
    pub fn fanin(&self, n: usize) -> &[u32] {
        &self.fanin_edges[self.fanin_off[n] as usize..self.fanin_off[n + 1] as usize]
    }

    /// Fan-out edge ids of `n`, ascending.
    pub fn fanout(&self, n: usize) -> &[u32] {
        &self.fanout_edges[self.fanout_off[n] as usize..self.fanout_off[n + 1] as usize]
    }

    /// The endpoints of edge `e` as `(from, to)`.
    pub fn edge(&self, e: usize) -> (usize, usize) {
        (self.edge_from[e] as usize, self.edge_to[e] as usize)
    }

    /// The delay distribution of edge `e`.
    pub fn delay(&self, e: usize) -> &TimingDist {
        &self.delays[e]
    }

    /// Pulls one node's arrival from its predecessors (see the module-level
    /// determinism contract). `arrival(m)` is node `m`'s arrival, `None` for
    /// the source and unreached nodes. Returns the new arrival plus the
    /// (sum, max) op counts it spent.
    fn pull_arrival<'a>(
        &self,
        n: usize,
        source: usize,
        arrival: impl Fn(usize) -> Option<&'a TimingDist>,
    ) -> Result<Pulled, SstaError> {
        let mut acc: Option<TimingDist> = None;
        let (mut sums, mut maxes) = (0u64, 0u64);
        for &e in self.fanin(n) {
            let from = self.edge_from[e as usize] as usize;
            let through = match arrival(from) {
                Some(a) => {
                    sums += 1;
                    a.sum(&self.delays[e as usize])?
                }
                None if from == source => self.delays[e as usize].clone(),
                None => continue,
            };
            acc = Some(match acc {
                Some(existing) => {
                    maxes += 1;
                    existing.max(&through)?
                }
                None => through,
            });
        }
        Ok((acc, sums, maxes))
    }

    /// Arrival-time propagation from `source`: every node is pulled as soon
    /// as its fan-in has finished, on `min(threads, peak level width)`
    /// workers (see the module docs).
    ///
    /// Results are bit-identical at any thread count (and to the serial
    /// edge-scanning reference) — see the module docs for why.
    ///
    /// # Errors
    ///
    /// [`SstaError::BadNode`] when `source` is outside the graph, plus any
    /// family/fit error from the statistical operators: that of the failing
    /// node first in level order, independent of thread count.
    pub fn propagate(&self, source: usize, par: &Parallelism) -> Result<Propagation, SstaError> {
        if source >= self.nodes {
            return Err(SstaError::BadNode { node: source });
        }
        let obs = lvf2_obs::Obs::current();
        let _span = obs.span("ssta.propagate");
        // Task `k` is node `level_nodes[k]`: level order is a topological
        // order, and the scheduler's lowest-index error is the first
        // failure in level order.
        let rank = |m: usize| self.level_rank[m] as usize;
        let run = par.try_par_dag(
            self.nodes,
            self.peak_level_width(),
            |k| {
                self.fanout(self.level_nodes[k] as usize)
                    .iter()
                    .map(|&e| rank(self.edge_to[e as usize] as usize))
            },
            |k, done: &DagOutputs<'_, Pulled>| {
                self.pull_arrival(self.level_nodes[k] as usize, source, |m| {
                    done.get(rank(m)).0.as_ref()
                })
            },
        )?;
        obs.observe_time("ssta.sched.wait_us", run.wait.as_secs_f64() * 1e6);

        let mut arrivals: Vec<Option<TimingDist>> = vec![None; self.nodes];
        let (mut sums, mut maxes) = (0u64, 0u64);
        let mut active_levels = 0usize;
        let mut peak_level_width = 0usize;
        let mut pulled = run.outputs.into_iter();
        for l in 0..self.level_count() {
            let mut width = 0usize;
            for (&n, (arrival, s, m)) in self.level(l).iter().zip(pulled.by_ref()) {
                sums += s;
                maxes += m;
                width += usize::from(arrival.is_some());
                arrivals[n as usize] = arrival;
            }
            if width > 0 {
                active_levels += 1;
                peak_level_width = peak_level_width.max(width);
                obs.observe("ssta.level.width", width as f64);
            }
        }
        obs.inc("ssta.ops.sum", sums);
        obs.inc("ssta.ops.max", maxes);
        obs.observe("ssta.depth", active_levels as f64);
        Ok(Propagation {
            arrivals,
            sums,
            maxes,
            active_levels,
            peak_level_width,
        })
    }
}

impl TryFrom<TimingGraph> for CsrGraph {
    type Error = SstaError;

    /// Consuming compilation: moves the delay slab out of the edge list
    /// instead of cloning it — the conversion to use at 10⁵–10⁶ nodes.
    fn try_from(graph: TimingGraph) -> Result<CsrGraph, SstaError> {
        let nodes = graph.node_count();
        let edges = graph.into_edges();
        let mut edge_from = Vec::with_capacity(edges.len());
        let mut edge_to = Vec::with_capacity(edges.len());
        let mut delays = Vec::with_capacity(edges.len());
        for e in edges {
            edge_from.push(e.from as u32);
            edge_to.push(e.to as u32);
            delays.push(e.delay);
        }
        Self::build(nodes, edge_from, edge_to, delays)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lvf2_stats::Normal;

    fn nd(m: f64) -> TimingDist {
        TimingDist::Normal(Normal::new(m, 0.01).unwrap())
    }

    fn diamond() -> TimingGraph {
        let mut g = TimingGraph::new(4);
        g.add_edge(0, 1, nd(0.1)).unwrap();
        g.add_edge(0, 2, nd(0.5)).unwrap();
        g.add_edge(1, 3, nd(0.1)).unwrap();
        g.add_edge(2, 3, nd(0.1)).unwrap();
        g
    }

    #[test]
    fn csr_layout_matches_edge_list() {
        let csr = CsrGraph::from_graph(&diamond()).unwrap();
        assert_eq!(csr.node_count(), 4);
        assert_eq!(csr.edge_count(), 4);
        assert_eq!(csr.fanout(0), &[0, 1]);
        assert_eq!(csr.fanin(3), &[2, 3]);
        assert_eq!(csr.edge(2), (1, 3));
        assert_eq!(csr.level_count(), 3);
        assert_eq!(csr.level(0), &[0]);
        assert_eq!(csr.peak_level_width(), 2);
    }

    #[test]
    fn levels_respect_longest_paths() {
        // 0→1→2→4 and 0→4: node 4 must sit at level 3, not level 1.
        let mut g = TimingGraph::new(5);
        g.add_edge(0, 1, nd(0.1)).unwrap();
        g.add_edge(1, 2, nd(0.1)).unwrap();
        g.add_edge(2, 4, nd(0.1)).unwrap();
        g.add_edge(0, 4, nd(0.1)).unwrap();
        let csr = CsrGraph::from_graph(&g).unwrap();
        assert_eq!(csr.level_count(), 4);
        assert_eq!(csr.level(3), &[4]);
        // Node 3 has no edges at all: level 0, never reached.
        let p = csr.propagate(0, &Parallelism::serial()).unwrap();
        assert!(p.arrivals[3].is_none());
        assert!(p.arrivals[4].is_some());
    }

    #[test]
    fn cycles_are_rejected() {
        let mut g = TimingGraph::new(2);
        g.add_edge(0, 1, nd(0.1)).unwrap();
        g.add_edge(1, 0, nd(0.1)).unwrap();
        assert!(matches!(
            CsrGraph::from_graph(&g),
            Err(SstaError::GraphCycle)
        ));
    }

    #[test]
    fn bad_source_is_rejected() {
        let csr = CsrGraph::from_graph(&diamond()).unwrap();
        assert!(matches!(
            csr.propagate(9, &Parallelism::serial()),
            Err(SstaError::BadNode { node: 9 })
        ));
    }

    #[test]
    fn consuming_conversion_matches_borrowing() {
        let g = diamond();
        let a = CsrGraph::from_graph(&g).unwrap();
        let b = CsrGraph::try_from(g).unwrap();
        let pa = a.propagate(0, &Parallelism::serial()).unwrap();
        let pb = b.propagate(0, &Parallelism::serial()).unwrap();
        assert_eq!(pa, pb);
    }

    #[test]
    fn propagation_counts_ops() {
        let csr = CsrGraph::from_graph(&diamond()).unwrap();
        let p = csr.propagate(0, &Parallelism::serial()).unwrap();
        // Two source edges (clone), two sums into node 3, one max there.
        assert_eq!(p.sums, 2);
        assert_eq!(p.maxes, 1);
        assert_eq!(p.active_levels, 2);
        assert_eq!(p.peak_level_width, 2);
    }
}
