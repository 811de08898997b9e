//! Contract of `Parallelism::try_par_dag`: outputs equal a serial fold in
//! index order at every thread count, the lowest-index failure is the one
//! reported, nothing downstream of a failure runs, and a panicking task
//! unwinds out of the call instead of leaving workers blocked.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::Duration;

use lvf2_parallel::{DagOutputs, Parallelism};
use proptest::prelude::*;

/// A DAG as predecessor lists; every edge runs from a lower to a higher
/// index, and a repeated pair is a parallel edge.
struct Dag {
    preds: Vec<Vec<usize>>,
    succs: Vec<Vec<usize>>,
}

impl Dag {
    fn new(n: usize, edges: &[(usize, usize)]) -> Dag {
        let mut preds = vec![Vec::new(); n];
        let mut succs = vec![Vec::new(); n];
        for &(a, b) in edges {
            let (from, to) = (a.min(b), a.max(b));
            if from != to {
                preds[to].push(from);
                succs[from].push(to);
            }
        }
        Dag { preds, succs }
    }

    fn len(&self) -> usize {
        self.preds.len()
    }
}

/// A task output that depends on every predecessor output and on the order
/// they are folded in.
fn fold(i: usize, inputs: impl Iterator<Item = u64>) -> u64 {
    inputs.fold(i as u64 ^ 0x9E37_79B9, |acc, x| {
        acc.wrapping_mul(0x100_0000_01B3).wrapping_add(x)
    })
}

fn serial_fold(dag: &Dag) -> Vec<u64> {
    let mut out: Vec<u64> = Vec::with_capacity(dag.len());
    for i in 0..dag.len() {
        let v = fold(i, dag.preds[i].iter().map(|&p| out[p]));
        out.push(v);
    }
    out
}

fn par_fold(dag: &Dag, threads: usize) -> Vec<u64> {
    let run = Parallelism::auto()
        .with_threads(threads)
        .try_par_dag(
            dag.len(),
            dag.len(),
            |i| dag.succs[i].iter().copied(),
            |i, done: &DagOutputs<'_, u64>| {
                Ok::<u64, ()>(fold(i, dag.preds[i].iter().map(|&p| *done.get(p))))
            },
        )
        .unwrap();
    if threads == 1 {
        assert_eq!(run.wait, Duration::ZERO, "a lone worker never waits");
    }
    run.outputs
}

fn assert_matches_serial(dag: &Dag) {
    let expect = serial_fold(dag);
    for threads in [1, 2, 8] {
        assert_eq!(par_fold(dag, threads), expect, "threads={threads}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random DAGs with parallel edges, reconvergence and isolated tasks.
    #[test]
    fn random_dags_match_a_serial_fold(
        n in 1usize..48,
        raw in collection::vec((0usize..1000, 0usize..1000), 0usize..160),
    ) {
        let edges: Vec<(usize, usize)> = raw.iter().map(|&(a, b)| (a % n, b % n)).collect();
        let dag = Dag::new(n, &edges);
        let expect = serial_fold(&dag);
        for threads in [1, 2, 8] {
            prop_assert_eq!(par_fold(&dag, threads), expect.clone());
        }
    }
}

#[test]
fn edge_shapes_match_a_serial_fold() {
    // n = 0 and n = 1.
    assert_matches_serial(&Dag::new(0, &[]));
    assert_matches_serial(&Dag::new(1, &[]));
    // Only isolated tasks.
    assert_matches_serial(&Dag::new(5, &[]));
    // A chain.
    let chain: Vec<(usize, usize)> = (0..30).map(|i| (i, i + 1)).collect();
    assert_matches_serial(&Dag::new(31, &chain));
    // Parallel edges: task 2 reads task 0 three times.
    assert_matches_serial(&Dag::new(3, &[(0, 2), (0, 2), (1, 2), (0, 2)]));
}

#[test]
fn lowest_index_failure_wins_and_nothing_downstream_runs() {
    // Two independent fan-out trees from tasks 3 and 4; tasks 5 (under 3)
    // and 40 (under 4) fail. Task 5 is slowed down, so on several workers
    // task 40 usually fails first; 5 must still be the one reported.
    let mut edges = vec![(0, 3), (1, 4), (3, 5), (5, 6), (6, 7)];
    edges.extend((8..40).map(|i| (4, i)));
    edges.extend((8..40).map(|i| (i, 40)));
    edges.extend([(40, 41), (5, 42), (2, 43)]);
    let dag = Dag::new(44, &edges);
    for threads in [1, 2, 8] {
        let ran: Vec<AtomicBool> = (0..dag.len()).map(|_| AtomicBool::new(false)).collect();
        let r = Parallelism::auto().with_threads(threads).try_par_dag(
            dag.len(),
            dag.len(),
            |i| dag.succs[i].iter().copied(),
            |i, _: &DagOutputs<'_, ()>| {
                ran[i].store(true, Ordering::Relaxed);
                match i {
                    5 => {
                        std::thread::sleep(Duration::from_millis(20));
                        Err(i)
                    }
                    40 => Err(i),
                    _ => Ok(()),
                }
            },
        );
        assert_eq!(r.unwrap_err(), 5, "threads={threads}");
        for downstream in [6, 7, 41, 42] {
            assert!(
                !ran[downstream].load(Ordering::Relaxed),
                "threads={threads}: task {downstream} ran below a failure"
            );
        }
    }
}

#[test]
fn a_panicking_task_unwinds_out_of_the_call() {
    // A wide DAG whose tasks all wait on task 0; task 7 panics while the
    // other workers are blocked or busy.
    let edges: Vec<(usize, usize)> = (1..64).map(|i| (0, i)).chain([(7, 64)]).collect();
    let dag = Dag::new(65, &edges);
    for threads in [2, 8] {
        let (tx, rx) = mpsc::channel();
        let succs = dag.succs.clone();
        std::thread::spawn(move || {
            let r = std::panic::catch_unwind(|| {
                Parallelism::auto().with_threads(threads).try_par_dag(
                    succs.len(),
                    succs.len(),
                    |i| succs[i].iter().copied(),
                    |i, _: &DagOutputs<'_, ()>| {
                        if i == 7 {
                            panic!("task 7 failed loudly");
                        }
                        std::thread::sleep(Duration::from_millis(1));
                        Ok::<(), ()>(())
                    },
                )
            });
            let message = r
                .err()
                .and_then(|p| p.downcast_ref::<&str>().map(|s| s.to_string()));
            tx.send(message).unwrap();
        });
        let message = rx
            .recv_timeout(Duration::from_secs(60))
            .unwrap_or_else(|_| panic!("threads={threads}: the call hung after a panic"));
        assert_eq!(
            message.as_deref(),
            Some("task 7 failed loudly"),
            "threads={threads}"
        );
    }
}
