//! Steady-state allocation regression tests.
//!
//! The EM's contract is that once a [`FitWorkspace`]'s buffers have grown
//! to a dataset's high-water mark, repeating the fit performs **zero** heap
//! allocations. These tests pin
//! that with a counting global allocator: the first call is a warm-up that
//! may allocate freely; the second call over the same data must not touch
//! the allocator at all.
//!
//! Counting is thread-local, so concurrently running tests (or the libtest
//! harness itself) cannot leak allocations into an open counting window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use lvf2_fit::{
    fit_lvf2_with, fit_sn_mixture_with, kmeans1d_with, FitConfig, FitWorkspace, KMeansScratch,
};
use lvf2_stats::{Distribution, Lvf2, Moments, SkewNormal};
use rand::rngs::StdRng;
use rand::SeedableRng;

thread_local! {
    /// `Some(n)` while this thread is inside a counting window.
    static ALLOC_COUNT: Cell<Option<u64>> = const { Cell::new(None) };
}

struct CountingAlloc;

impl CountingAlloc {
    fn bump() {
        // `try_with` so allocation during TLS teardown can never panic.
        let _ = ALLOC_COUNT.try_with(|c| {
            if let Some(n) = c.get() {
                c.set(Some(n + 1));
            }
        });
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `f` with allocation counting enabled on this thread and returns the
/// number of alloc/realloc calls it made.
fn count_allocs<R>(f: impl FnOnce() -> R) -> (u64, R) {
    ALLOC_COUNT.with(|c| c.set(Some(0)));
    let out = f();
    let n = ALLOC_COUNT.with(|c| c.replace(None)).unwrap_or(0);
    (n, out)
}

fn bimodal_samples(n: usize, seed: u64) -> Vec<f64> {
    let truth = Lvf2::new(
        0.4,
        SkewNormal::from_moments(Moments::new(0.10, 0.010, 0.5)).unwrap(),
        SkewNormal::from_moments(Moments::new(0.16, 0.012, -0.2)).unwrap(),
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    truth.sample_n(&mut rng, n)
}

#[test]
fn kmeans_scratch_second_run_allocates_nothing() {
    let xs = bimodal_samples(800, 3);
    let mut scratch = KMeansScratch::new();

    // Warm-up: grows every buffer to its high-water mark.
    kmeans1d_with(&xs, 2, 50, &mut scratch).unwrap();
    let first_centers: Vec<f64> = scratch.centers().to_vec();

    let (allocs, ()) = count_allocs(|| {
        kmeans1d_with(&xs, 2, 50, &mut scratch).unwrap();
    });
    assert_eq!(
        allocs, 0,
        "second kmeans1d_with run must reuse every scratch buffer"
    );
    assert_eq!(scratch.centers(), first_centers.as_slice());
}

#[test]
fn fit_lvf2_second_run_allocates_nothing() {
    let xs = bimodal_samples(1200, 4);
    let config = FitConfig::default();
    let mut ws = FitWorkspace::new();

    // Warm-up fit: lazily grows the workspace (responsibilities, k-means,
    // Nelder–Mead simplex, M-step compaction buffers, ...).
    let first = fit_lvf2_with(&xs, &config, &mut ws).unwrap();

    let (allocs, second) = count_allocs(|| fit_lvf2_with(&xs, &config, &mut ws).unwrap());
    assert_eq!(
        allocs, 0,
        "steady-state fit_lvf2_with must not touch the heap (obs disabled)"
    );
    assert_eq!(second.model, first.model);
    assert_eq!(second.report, first.report);
}

#[test]
fn fit_lvf2_steady_state_holds_across_dataset_sizes() {
    // Growing once to the largest dataset covers all smaller ones too:
    // buffers never shrink, so later fits of any size stay allocation-free.
    let sets: Vec<Vec<f64>> = [400usize, 1200, 700]
        .iter()
        .enumerate()
        .map(|(i, &n)| bimodal_samples(n, 10 + i as u64))
        .collect();
    let config = FitConfig::default();
    let mut ws = FitWorkspace::new();

    // Warm up on the largest set.
    fit_lvf2_with(&sets[1], &config, &mut ws).unwrap();

    for xs in &sets {
        let (allocs, _) = count_allocs(|| fit_lvf2_with(xs, &config, &mut ws).unwrap());
        assert_eq!(
            allocs,
            0,
            "n={} should be covered by the warm buffers",
            xs.len()
        );
    }
}

#[test]
fn fit_sn_mixture_iterations_allocate_nothing() {
    // The K-way path allocates its returned model per fit, so it is pinned
    // per iteration instead: on a warm workspace, a fit capped at 5
    // iterations and one capped at 40 make the same number of allocations.
    let xs = bimodal_samples(900, 5);
    let config = |cap| FitConfig::default().with_max_iterations(cap);
    let mut ws = FitWorkspace::new();
    fit_sn_mixture_with(&xs, 3, &config(40), &mut ws).unwrap();

    let (short_allocs, short) =
        count_allocs(|| fit_sn_mixture_with(&xs, 3, &config(5), &mut ws).unwrap());
    let (long_allocs, long) =
        count_allocs(|| fit_sn_mixture_with(&xs, 3, &config(40), &mut ws).unwrap());
    assert_eq!(short.report.iterations, 5);
    assert!(long.report.iterations > 5, "{:?}", long.report);
    assert_eq!(
        short_allocs, long_allocs,
        "K-way EM iterations must not touch the heap (obs disabled)"
    );
}
