//! Sample-level golden propagation: the Monte-Carlo reference every model
//! is judged against (§4.4's "golden is obtained based on MC simulation").

use crate::csr::CsrGraph;

/// Element-wise sum of two stage sample vectors (independent local
/// variation: sample `k` of the path is the sum of sample `k` of each
/// stage).
///
/// # Panics
///
/// Panics when lengths differ.
pub fn sum_samples(a: &[f64], b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "stage sample counts must match");
    a.iter().zip(b).map(|(x, y)| x + y).collect()
}

/// Element-wise max of two arrival sample vectors.
///
/// # Panics
///
/// Panics when lengths differ.
pub fn max_samples(a: &[f64], b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "arrival sample counts must match");
    a.iter().zip(b).map(|(x, y)| x.max(*y)).collect()
}

/// Running cumulative sums along a path: entry `k` holds the golden samples
/// of the path truncated after stage `k`.
///
/// Generic over the stage storage (`&[Vec<f64>]`, `&[&[f64]]`, …) so
/// callers can pass borrowed sample slices without cloning each stage.
pub fn cumulative_path<S: AsRef<[f64]>>(stages: &[S]) -> Vec<Vec<f64>> {
    let mut out: Vec<Vec<f64>> = Vec::with_capacity(stages.len());
    for stage in stages {
        let stage = stage.as_ref();
        let next = match out.last() {
            Some(prev) => sum_samples(prev, stage),
            None => stage.to_vec(),
        };
        out.push(next);
    }
    out
}

/// Golden arrival samples over a timing DAG: one sample vector per edge,
/// propagated through `graph`'s levels with [`sum_samples`] along edges and
/// [`max_samples`] at merges — no analytical operator involved.
///
/// The fold contract of [`CsrGraph::propagate`]: node `t` folds its reached
/// fan-in edges in ascending edge id; edges out of `source` contribute
/// their bare samples. `None` marks the source and unreachable nodes.
///
/// # Panics
///
/// Panics unless `edge_samples` holds one equally long vector per edge.
pub fn propagate_samples<S: AsRef<[f64]>>(
    graph: &CsrGraph,
    source: usize,
    edge_samples: &[S],
) -> Vec<Option<Vec<f64>>> {
    assert_eq!(
        edge_samples.len(),
        graph.edge_count(),
        "one sample vector per edge"
    );
    let mut arrivals: Vec<Option<Vec<f64>>> = vec![None; graph.node_count()];
    for l in 0..graph.level_count() {
        for &t in graph.level(l) {
            let mut acc: Option<Vec<f64>> = None;
            for &e in graph.fanin(t as usize) {
                let (from, _) = graph.edge(e as usize);
                let delay = edge_samples[e as usize].as_ref();
                let through = match &arrivals[from] {
                    Some(a) => sum_samples(a, delay),
                    None if from == source => delay.to_vec(),
                    None => continue, // unreached
                };
                acc = Some(match acc {
                    Some(existing) => max_samples(&existing, &through),
                    None => through,
                });
            }
            arrivals[t as usize] = acc;
        }
    }
    arrivals
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cumulative_sums_accumulate() {
        let stages = vec![vec![1.0, 2.0], vec![10.0, 20.0], vec![100.0, 200.0]];
        let c = cumulative_path(&stages);
        assert_eq!(c[0], vec![1.0, 2.0]);
        assert_eq!(c[1], vec![11.0, 22.0]);
        assert_eq!(c[2], vec![111.0, 222.0]);
    }

    #[test]
    fn max_is_elementwise() {
        assert_eq!(max_samples(&[1.0, 5.0], &[2.0, 4.0]), vec![2.0, 5.0]);
    }

    #[test]
    fn samples_propagate_over_levels() {
        use crate::{TimingDist, TimingGraph};
        // Diamond 0→{1,2}→3; node 4 is unreachable.
        let d = TimingDist::Normal(lvf2_stats::Normal::new(0.1, 0.01).unwrap());
        let mut g = TimingGraph::new(5);
        for (from, to) in [(0, 1), (0, 2), (1, 3), (2, 3), (4, 3)] {
            g.add_edge(from, to, d.clone()).unwrap();
        }
        let csr = CsrGraph::try_from(g).unwrap();
        let edges = [
            [1.0, 2.0],
            [3.0, 0.5],
            [10.0, 10.0],
            [1.0, 20.0],
            [99.0, 99.0],
        ];
        let a = propagate_samples(&csr, 0, &edges);
        assert_eq!(a[0], None);
        assert_eq!(a[1].as_deref(), Some(&[1.0, 2.0][..]));
        assert_eq!(a[3].as_deref(), Some(&[11.0, 20.5][..]));
        assert_eq!(a[4], None);
    }

    #[test]
    #[should_panic(expected = "must match")]
    fn mismatched_lengths_panic() {
        sum_samples(&[1.0], &[1.0, 2.0]);
    }
}
