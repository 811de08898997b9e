//! Dependency-driven execution of a task DAG: [`Parallelism::try_par_dag`].
//!
//! A levelized loop runs a DAG one wavefront at a time, with a spawn, a
//! join and a barrier per level; the slowest task of each level idles every
//! other worker. Here one set of workers lives for the whole call and a task
//! runs as soon as its last predecessor has finished.
//!
//! - Every task has an atomic count of unfinished predecessors. The worker
//!   that finishes a task decrements its successors' counts; a successor
//!   whose count reaches zero is ready. The worker keeps the first one it
//!   readies and pushes the rest onto a shared ready stack (`Mutex` +
//!   `Condvar`), where idle workers wait.
//! - A task's output lands in a write-once slot (`OnceLock`), which its
//!   successors read through [`DagOutputs`].
//! - The call ends when the stack is empty and no worker holds a task.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use crate::Parallelism;

/// Read access to the outputs of finished tasks, handed to every task of
/// [`Parallelism::try_par_dag`].
pub struct DagOutputs<'a, U>(&'a [OnceLock<U>]);

impl<U> DagOutputs<'_, U> {
    /// The output of task `i`.
    ///
    /// # Panics
    ///
    /// If task `i` has not finished. A task's predecessors always have.
    pub fn get(&self, i: usize) -> &U {
        self.0[i]
            .get()
            .unwrap_or_else(|| panic!("DAG task {i} read before it finished"))
    }
}

/// A successful [`Parallelism::try_par_dag`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct DagRun<U> {
    /// Task outputs in task-index order.
    pub outputs: Vec<U>,
    /// Time workers spent blocked on the ready stack, summed over workers.
    /// Zero on one worker, which never waits.
    pub wait: Duration,
}

/// Scheduler state behind the ready-stack lock.
struct Queue {
    /// Tasks whose predecessors have all finished.
    ready: Vec<usize>,
    /// Workers holding a task (running it or about to release its
    /// successors). With an empty stack and none busy, no task can become
    /// ready again.
    busy: usize,
    /// Workers blocked on the condvar; nobody is woken while it is zero,
    /// so a lone worker never makes a wake-up call.
    idle: usize,
    /// Set when a worker unwinds: everyone else leaves instead of waiting
    /// for tasks that will never be released.
    halted: bool,
}

/// State shared by the workers of one call.
struct Shared<'a, U, E, S, F> {
    slots: Vec<OnceLock<U>>,
    /// Unfinished predecessors per task.
    pending: Vec<AtomicU32>,
    queue: Mutex<Queue>,
    wake: Condvar,
    /// Lowest failing task index so far (`usize::MAX`: none). Ready tasks
    /// above it are skipped; tasks below it still run, so the lowest failure
    /// overall is always found.
    first_failure: AtomicUsize,
    failure: Mutex<Option<(usize, E)>>,
    /// Mirror of `Queue::halted` that workers check between tasks without
    /// taking the lock.
    halted: AtomicBool,
    successors: &'a S,
    task: &'a F,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // A panicking worker never holds these locks while running user code,
    // and the unwinding guard must still be able to halt the others.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Halts the call if the worker holding it unwinds.
struct HaltOnUnwind<'s, 'a, U, E, S, F>(&'s Shared<'a, U, E, S, F>);

impl<U, E, S, F> Drop for HaltOnUnwind<'_, '_, U, E, S, F> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.halted.store(true, Ordering::Relaxed);
            lock(&self.0.queue).halted = true;
            self.0.wake.notify_all();
        }
    }
}

impl<U, E, S, I, F> Shared<'_, U, E, S, F>
where
    U: Send + Sync,
    E: Send,
    S: Fn(usize) -> I + Sync,
    I: IntoIterator<Item = usize>,
    F: Fn(usize, &DagOutputs<'_, U>) -> Result<U, E> + Sync,
{
    /// One worker: take a ready task, run it, release its successors, until
    /// no task can become ready. Returns the time spent waiting.
    fn work(&self) -> Duration {
        let _halt = HaltOnUnwind(self);
        let mut waited = Duration::ZERO;
        let mut held: Option<usize> = None;
        let mut released = Vec::new();
        loop {
            let t = match held.take() {
                Some(t) => t,
                None => {
                    let mut q = lock(&self.queue);
                    q.busy -= 1;
                    loop {
                        if q.halted {
                            return waited;
                        }
                        if let Some(t) = q.ready.pop() {
                            q.busy += 1;
                            break t;
                        }
                        if q.busy == 0 {
                            if q.idle > 0 {
                                self.wake.notify_all();
                            }
                            return waited;
                        }
                        let t0 = Instant::now();
                        q.idle += 1;
                        q = self.wake.wait(q).unwrap_or_else(PoisonError::into_inner);
                        q.idle -= 1;
                        waited += t0.elapsed();
                    }
                }
            };
            if self.halted.load(Ordering::Relaxed) || t > self.first_failure.load(Ordering::Relaxed)
            {
                continue;
            }
            match (self.task)(t, &DagOutputs(&self.slots)) {
                Ok(u) => assert!(self.slots[t].set(u).is_ok(), "DAG task {t} ran twice"),
                Err(e) => {
                    self.first_failure.fetch_min(t, Ordering::Relaxed);
                    let mut failure = lock(&self.failure);
                    if failure.as_ref().is_none_or(|(i, _)| t < *i) {
                        *failure = Some((t, e));
                    }
                    continue;
                }
            }
            for s in (self.successors)(t) {
                if self.pending[s].fetch_sub(1, Ordering::AcqRel) == 1 {
                    if held.is_none() {
                        held = Some(s);
                    } else {
                        released.push(s);
                    }
                }
            }
            if !released.is_empty() {
                let mut q = lock(&self.queue);
                let (count, idle) = (released.len(), q.idle);
                q.ready.append(&mut released);
                drop(q);
                match (count, idle) {
                    (_, 0) => {}
                    (1, _) => self.wake.notify_one(),
                    _ => self.wake.notify_all(),
                }
            }
        }
    }
}

impl Parallelism {
    /// Runs the `n` tasks of a DAG, each as soon as its predecessors have
    /// finished, and returns their outputs in task-index order.
    ///
    /// `successors(i)` lists the tasks that read task `i`'s output; a task
    /// listed `k` times waits for `k` releases, so parallel edges are fine.
    /// Task indices must be a topological order: every successor of `i` is
    /// greater than `i`. `task(i, done)` computes task `i` and reads its
    /// predecessors' outputs through `done`; it must be a pure function of
    /// those outputs for the result to be independent of the schedule.
    ///
    /// `min(effective_threads, width)` workers run the DAG, the caller among
    /// them, inside one `std::thread::scope`; pass the widest set of tasks
    /// that can be ready at once (e.g. the peak level width). With one
    /// worker the caller runs the same loop alone and nothing is spawned.
    ///
    /// # Errors
    ///
    /// The error of the lowest-index failing task: the one a serial loop in
    /// index order returns, at any thread count. A failed task releases no
    /// successor, so nothing downstream of a failure runs.
    ///
    /// # Panics
    ///
    /// A panic in `task` or `successors` halts the other workers and
    /// resumes unwinding out of this call. Also panics if a successor index
    /// is not greater than its task's.
    pub fn try_par_dag<U, E, S, I, F>(
        &self,
        n: usize,
        width: usize,
        successors: S,
        task: F,
    ) -> Result<DagRun<U>, E>
    where
        U: Send + Sync,
        E: Send,
        S: Fn(usize) -> I + Sync,
        I: IntoIterator<Item = usize>,
        F: Fn(usize, &DagOutputs<'_, U>) -> Result<U, E> + Sync,
    {
        let mut pending = vec![0u32; n];
        for i in 0..n {
            for s in successors(i) {
                assert!(
                    s > i && s < n,
                    "DAG successor {s} of task {i} is out of order"
                );
                pending[s] += 1;
            }
        }
        let ready: Vec<usize> = (0..n).rev().filter(|&i| pending[i] == 0).collect();
        let workers = self.effective_threads().min(width).max(1);
        let shared = Shared {
            slots: (0..n).map(|_| OnceLock::new()).collect(),
            pending: pending.into_iter().map(AtomicU32::new).collect(),
            // Every worker enters `work` counted as busy.
            queue: Mutex::new(Queue {
                ready,
                busy: workers,
                idle: 0,
                halted: false,
            }),
            wake: Condvar::new(),
            first_failure: AtomicUsize::new(usize::MAX),
            failure: Mutex::new(None),
            halted: AtomicBool::new(false),
            successors: &successors,
            task: &task,
        };

        let wait = if workers == 1 {
            shared.work()
        } else {
            // See `try_par_map_chunked_with`: spans opened inside `task`
            // stay parented to the submitting span.
            let span_ctx = lvf2_obs::span_context();
            std::thread::scope(|scope| {
                let handles: Vec<_> = (1..workers)
                    .map(|worker| {
                        let shared = &shared;
                        scope.spawn(move || {
                            lvf2_obs::set_worker_index(worker);
                            lvf2_obs::set_span_context(span_ctx);
                            shared.work()
                        })
                    })
                    .collect();
                let mut wait = shared.work();
                for h in handles {
                    match h.join() {
                        Ok(w) => wait += w,
                        Err(panic) => std::panic::resume_unwind(panic),
                    }
                }
                wait
            })
        };

        if let Some((_, e)) = shared
            .failure
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
        {
            return Err(e);
        }
        let outputs = shared
            .slots
            .into_iter()
            .map(|s| s.into_inner().expect("every task of an acyclic DAG runs"))
            .collect();
        Ok(DagRun { outputs, wait })
    }
}
