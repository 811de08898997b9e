//! Deterministic data-parallel execution for the LVF2 pipeline.
//!
//! The characterization→fit flow is thousands of independent jobs — MC
//! sample evaluations, (slew, load) grid conditions, per-arc
//! characterizations, per-table-entry EM fits. This crate provides the one
//! execution primitive they all share: a bounded-thread, chunked,
//! **order-deterministic** parallel map.
//!
//! Two properties are load-bearing for the rest of the workspace:
//!
//! 1. **Bit-identical outputs at any thread count.** Work is split into
//!    chunks by *index*, output slot `i` depends only on input `i`, and
//!    chunks are reassembled in index order — the OS scheduler can never
//!    reorder results. Callers that need randomness derive it per chunk via
//!    [`chunk_seed`], never from a shared sequential stream.
//! 2. **Deterministic error selection.** [`Parallelism::try_par_map_indexed`]
//!    always returns the error of the *lowest-index* failing item, so a
//!    failing flow reports the same error serially and in parallel.
//!
//! The API is shaped like a miniature `rayon` (`par_map` over slices,
//! indexed maps, chunked streams) so that a later PR can swap the backend
//! for a real work-stealing pool without touching call sites. The backend
//! here is `std::thread::scope` with an atomic chunk cursor: claimed chunks
//! run to completion, unclaimed chunks are skipped once an error is seen.
//!
//! # Task DAGs
//!
//! [`Parallelism::try_par_dag`] runs tasks that read each other's outputs
//! (SSTA arrival propagation): one scope per call, a task released the
//! moment its last predecessor finishes, no barrier between levels. Its
//! contract extends the two properties above:
//!
//! - **Ordering.** Task indices are a topological order. Outputs come back
//!   in index order, and a task that is a pure function of its
//!   predecessors' outputs gives the same bits at any thread count.
//! - **Errors.** The error of the lowest-index failing task, as from a
//!   serial loop in index order. A failed task releases no successor, so
//!   nothing downstream of it runs.
//! - **Panics.** A panicking task halts the other workers, which stop
//!   waiting for tasks that will never be released, and the panic resumes
//!   out of the call with its own payload.
//!
//! ```
//! use lvf2_parallel::Parallelism;
//!
//! let par = Parallelism::auto();
//! let squares = par.par_map_indexed(8, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! // Same result at any thread count:
//! assert_eq!(squares, Parallelism::serial().par_map_indexed(8, |i| i * i));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

mod dag;

pub use dag::{DagOutputs, DagRun};

/// Environment variable overriding the auto-detected thread count.
pub const THREADS_ENV: &str = "LVF2_THREADS";

/// Default number of samples per work unit for fine-grained streams
/// (individual MC sample evaluations). Coarse jobs (grid conditions, arcs,
/// fits) use chunk size 1 implicitly.
pub const DEFAULT_CHUNK_SIZE: usize = 256;

/// Thread/chunking configuration threaded through the characterization
/// pipeline (`lvf2-mc` → `lvf2-cells` → `lvf2-fit` → `lvf2::flow` → CLI).
///
/// `threads == 0` means "resolve automatically": the `LVF2_THREADS`
/// environment variable if set, otherwise [`std::thread::available_parallelism`].
/// The resolved count is clamped to at least 1. With the `force-serial`
/// feature enabled, every configuration resolves to 1 thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism {
    /// Requested worker threads; 0 = auto-detect.
    threads: usize,
    /// Samples per work unit for fine-grained sample streams.
    chunk_size: usize,
}

impl Default for Parallelism {
    /// Auto-detected threads, default chunk size.
    fn default() -> Self {
        Parallelism::auto()
    }
}

impl Parallelism {
    /// Auto-detected thread count (env override, then hardware).
    pub fn auto() -> Self {
        Parallelism {
            threads: 0,
            chunk_size: DEFAULT_CHUNK_SIZE,
        }
    }

    /// Exactly one thread; the parallel helpers run inline.
    pub fn serial() -> Self {
        Parallelism {
            threads: 1,
            chunk_size: DEFAULT_CHUNK_SIZE,
        }
    }

    /// Sets the worker thread count; 0 restores auto-detection.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the fine-grained chunk size (clamped to at least 1).
    pub fn with_chunk_size(mut self, chunk_size: usize) -> Self {
        self.chunk_size = chunk_size.max(1);
        self
    }

    /// Samples per work unit for fine-grained streams.
    pub fn chunk_size(&self) -> usize {
        self.chunk_size.max(1)
    }

    /// The resolved worker thread count (always ≥ 1).
    pub fn effective_threads(&self) -> usize {
        if cfg!(feature = "force-serial") {
            return 1;
        }
        if self.threads > 0 {
            return self.threads;
        }
        if let Ok(v) = std::env::var(THREADS_ENV) {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n > 0 {
                    return n;
                }
            }
        }
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    }

    /// Number of chunks a stream of `n` items splits into at `chunk` items
    /// per chunk.
    pub fn chunk_count(n: usize, chunk: usize) -> usize {
        n.div_ceil(chunk.max(1))
    }

    /// Maps `0..n` through `f` in parallel, one item per work unit.
    ///
    /// Output order is `f(0), f(1), …, f(n-1)` regardless of thread count.
    /// Use for coarse jobs (a grid condition, an arc, an EM fit); for
    /// fine-grained streams prefer [`Parallelism::par_map_chunked`].
    pub fn par_map_indexed<U, F>(&self, n: usize, f: F) -> Vec<U>
    where
        U: Send,
        F: Fn(usize) -> U + Sync,
    {
        self.par_map_chunked(n, 1, f)
    }

    /// Maps a slice through `f` in parallel, preserving order.
    pub fn par_map<T, U, F>(&self, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(&T) -> U + Sync,
    {
        self.par_map_indexed(items.len(), |i| f(&items[i]))
    }

    /// Maps `0..n` through `f` in parallel, `chunk` items per work unit.
    ///
    /// Each work unit covers the index range `[c·chunk, min(n, (c+1)·chunk))`
    /// for chunk index `c`; callers that draw randomness should seed it from
    /// `c` via [`chunk_seed`], which is what makes results independent of
    /// the thread count.
    pub fn par_map_chunked<U, F>(&self, n: usize, chunk: usize, f: F) -> Vec<U>
    where
        U: Send,
        F: Fn(usize) -> U + Sync,
    {
        match self.try_par_map_chunked(n, chunk, |i| Ok::<U, Never>(f(i))) {
            Ok(v) => v,
            Err(never) => match never {},
        }
    }

    /// Fallible indexed parallel map, one item per work unit.
    ///
    /// On failure returns the error of the lowest-index failing item —
    /// the same error the serial loop would have returned first.
    pub fn try_par_map_indexed<U, E, F>(&self, n: usize, f: F) -> Result<Vec<U>, E>
    where
        U: Send,
        E: Send,
        F: Fn(usize) -> Result<U, E> + Sync,
    {
        self.try_par_map_chunked(n, 1, f)
    }

    /// Fallible chunked parallel map; see [`Parallelism::par_map_chunked`]
    /// and [`Parallelism::try_par_map_indexed`] for ordering and error
    /// semantics.
    pub fn try_par_map_chunked<U, E, F>(&self, n: usize, chunk: usize, f: F) -> Result<Vec<U>, E>
    where
        U: Send,
        E: Send,
        F: Fn(usize) -> Result<U, E> + Sync,
    {
        self.try_par_map_chunked_with(n, chunk, || (), |(), i| f(i))
    }

    /// Fallible indexed parallel map with **worker-local state**: `init` runs
    /// once per worker thread and the resulting value is threaded mutably
    /// through every item that worker claims.
    ///
    /// This is how per-thread scratch memory (e.g. `lvf2-fit`'s
    /// `FitWorkspace`) rides through a parallel sweep without cross-thread
    /// sharing or per-item allocation. `f` **must** produce the same output
    /// for a given index regardless of the state's history — item
    /// distribution across workers is scheduler-dependent, and the ordering
    /// and lowest-index-error guarantees of
    /// [`Parallelism::try_par_map_indexed`] only carry over when the state is
    /// pure scratch.
    ///
    /// # Errors
    ///
    /// On failure returns the error of the lowest-index failing item.
    pub fn try_par_map_with<W, U, E, I, F>(&self, n: usize, init: I, f: F) -> Result<Vec<U>, E>
    where
        U: Send,
        E: Send,
        I: Fn() -> W + Sync,
        F: Fn(&mut W, usize) -> Result<U, E> + Sync,
    {
        self.try_par_map_chunked_with(n, 1, init, f)
    }

    /// The chunked engine behind every fallible map: worker-local state +
    /// index-ordered reassembly + lowest-index error selection.
    fn try_par_map_chunked_with<W, U, E, I, F>(
        &self,
        n: usize,
        chunk: usize,
        init: I,
        f: F,
    ) -> Result<Vec<U>, E>
    where
        U: Send,
        E: Send,
        I: Fn() -> W + Sync,
        F: Fn(&mut W, usize) -> Result<U, E> + Sync,
    {
        let chunk = chunk.max(1);
        let n_chunks = Self::chunk_count(n, chunk);
        let threads = self.effective_threads().min(n_chunks.max(1));
        if threads <= 1 || n_chunks <= 1 {
            let mut state = init();
            let mut out = Vec::with_capacity(n);
            for i in 0..n {
                out.push(f(&mut state, i)?);
            }
            return Ok(out);
        }

        // Chunk outputs land here tagged with their chunk index; reassembly
        // below sorts by that index, so scheduling order is irrelevant.
        type ChunkResult<U, E> = (usize, Result<Vec<U>, (usize, E)>);
        let results: Mutex<Vec<ChunkResult<U, E>>> = Mutex::new(Vec::with_capacity(n_chunks));
        let cursor = AtomicUsize::new(0);
        let abort = AtomicBool::new(false);
        // The submitting thread's trace position: propagated onto every
        // worker so spans opened inside `f` stay parented to the span that
        // submitted the parallel region (and keep its request trace id).
        let span_ctx = lvf2_obs::span_context();

        std::thread::scope(|scope| {
            for worker in 0..threads {
                let (results, cursor, abort, f, init) = (&results, &cursor, &abort, &f, &init);
                scope.spawn(move || {
                    // Tag the thread with its worker slot so the
                    // observability layer (`lvf2-obs`) can shard metric
                    // writes per worker and merge them deterministically.
                    lvf2_obs::set_worker_index(worker + 1);
                    lvf2_obs::set_span_context(span_ctx);
                    // Worker-local state, reused across every chunk this
                    // worker claims.
                    let mut state = init();
                    loop {
                        if abort.load(Ordering::Relaxed) {
                            break;
                        }
                        let c = cursor.fetch_add(1, Ordering::Relaxed);
                        if c >= n_chunks {
                            break;
                        }
                        let lo = c * chunk;
                        let hi = n.min(lo + chunk);
                        let mut out = Vec::with_capacity(hi - lo);
                        let mut failure = None;
                        for i in lo..hi {
                            match f(&mut state, i) {
                                Ok(v) => out.push(v),
                                Err(e) => {
                                    failure = Some((i, e));
                                    break;
                                }
                            }
                        }
                        let failed = failure.is_some();
                        results
                            .lock()
                            .expect("parallel worker panicked while holding results lock")
                            .push((c, failure.map_or(Ok(out), Err)));
                        if failed {
                            // Unclaimed chunks all have higher indices than every
                            // claimed chunk, so skipping them cannot hide a
                            // lower-index error (see module docs).
                            abort.store(true, Ordering::Relaxed);
                            break;
                        }
                    }
                });
            }
        });

        let mut results = results.into_inner().expect("parallel worker panicked");
        results.sort_unstable_by_key(|(c, _)| *c);
        let mut failures: Vec<(usize, E)> = Vec::new();
        let mut out = Vec::with_capacity(n);
        for (_, r) in results {
            match r {
                Ok(mut v) => out.append(&mut v),
                Err(ie) => failures.push(ie),
            }
        }
        match failures.into_iter().min_by_key(|(i, _)| *i) {
            Some((_, e)) => Err(e),
            None => Ok(out),
        }
    }
}

/// An empty error type (stand-in for `!` on stable).
#[derive(Debug, Clone, Copy)]
pub enum Never {}

/// Derives the RNG seed for chunk `chunk` of a stream with base seed `base`.
///
/// SplitMix64 finalization over the (base, chunk) pair: well-mixed, cheap,
/// and — crucially — a pure function of the chunk *index*, so a stream
/// produces identical randomness however its chunks are scheduled.
pub fn chunk_seed(base: u64, chunk: u64) -> u64 {
    let mut z = base ^ chunk.wrapping_mul(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordered_at_any_thread_count() {
        let n = 1000;
        let expect: Vec<usize> = (0..n).map(|i| i * 3).collect();
        for threads in [1, 2, 3, 8] {
            for chunk in [1, 7, 256, 5000] {
                let par = Parallelism::auto().with_threads(threads);
                assert_eq!(
                    par.par_map_chunked(n, chunk, |i| i * 3),
                    expect,
                    "t={threads} c={chunk}"
                );
            }
        }
    }

    #[test]
    fn par_map_preserves_slice_order() {
        let items: Vec<i64> = (0..500).map(|i| i - 250).collect();
        let par = Parallelism::auto().with_threads(4);
        assert_eq!(
            par.par_map(&items, |x| x * x),
            items.iter().map(|x| x * x).collect::<Vec<_>>()
        );
    }

    #[test]
    fn error_is_lowest_index_at_any_thread_count() {
        // Items 313 and 77 both fail; every configuration must report 77.
        for threads in [1, 2, 8] {
            let par = Parallelism::auto().with_threads(threads);
            let r: Result<Vec<usize>, usize> =
                par.try_par_map_indexed(400, |i| if i == 313 || i == 77 { Err(i) } else { Ok(i) });
            assert_eq!(r.unwrap_err(), 77, "threads={threads}");
        }
    }

    #[test]
    fn worker_state_is_per_thread_and_reused() {
        use std::sync::atomic::AtomicUsize;
        for threads in [1, 2, 8] {
            let inits = AtomicUsize::new(0);
            let par = Parallelism::auto().with_threads(threads);
            // State is a scratch buffer; output must not depend on which
            // worker (with whatever buffer history) computes an item.
            let r: Result<Vec<usize>, Never> = par.try_par_map_with(
                100,
                || {
                    inits.fetch_add(1, Ordering::Relaxed);
                    Vec::<usize>::new()
                },
                |scratch, i| {
                    scratch.clear();
                    scratch.extend(0..=i);
                    Ok(scratch.iter().sum())
                },
            );
            let expect: Vec<usize> = (0..100).map(|i| i * (i + 1) / 2).collect();
            assert_eq!(r.unwrap(), expect, "threads={threads}");
            // One state per participating worker, never per item.
            assert!(
                inits.load(Ordering::Relaxed) <= threads.max(1),
                "threads={threads}: {} inits",
                inits.load(Ordering::Relaxed)
            );
        }
    }

    #[test]
    fn worker_state_error_is_lowest_index() {
        for threads in [1, 4] {
            let par = Parallelism::auto().with_threads(threads);
            let r: Result<Vec<usize>, usize> = par.try_par_map_with(
                300,
                || (),
                |(), i| if i == 200 || i == 42 { Err(i) } else { Ok(i) },
            );
            assert_eq!(r.unwrap_err(), 42, "threads={threads}");
        }
    }

    #[test]
    fn empty_and_single_item_edges() {
        let par = Parallelism::auto().with_threads(8);
        assert_eq!(par.par_map_indexed(0, |i| i), Vec::<usize>::new());
        assert_eq!(par.par_map_indexed(1, |i| i + 9), vec![9]);
    }

    #[test]
    fn chunk_count_rounds_up() {
        assert_eq!(Parallelism::chunk_count(0, 256), 0);
        assert_eq!(Parallelism::chunk_count(1, 256), 1);
        assert_eq!(Parallelism::chunk_count(256, 256), 1);
        assert_eq!(Parallelism::chunk_count(257, 256), 2);
    }

    #[test]
    fn effective_threads_is_positive_and_overridable() {
        assert_eq!(Parallelism::serial().effective_threads(), 1);
        assert_eq!(Parallelism::auto().with_threads(6).effective_threads(), 6);
        assert!(Parallelism::auto().effective_threads() >= 1);
    }

    #[test]
    fn chunk_seed_mixes() {
        assert_ne!(chunk_seed(7, 0), chunk_seed(7, 1));
        assert_ne!(chunk_seed(7, 0), chunk_seed(8, 0));
        // Pure function: same inputs, same seed.
        assert_eq!(chunk_seed(123, 45), chunk_seed(123, 45));
    }
}
