//! The statistical `max` kernel allocates nothing.
//!
//! `ops::max_moments` runs once per live max of a propagation, so its panel
//! bookkeeping (the breaks of the uniform grid and of narrow components'
//! own panels, and the stack of bisected panels) lives on the stack, sized
//! by the kernel's own bounds. This test pins that with a counting global
//! allocator on the kernel's three paths: the plain grid, a narrow
//! component's own panels, and the bisected skewness-clamp edge.
//!
//! Counting is thread-local, so concurrently running tests (or the libtest
//! harness itself) cannot leak allocations into an open counting window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use lvf2_ssta::ops::max_moments;
use lvf2_stats::SkewNormal;

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

#[test]
fn max_moments_allocates_nothing() {
    let s1 = SkewNormal::new(1.0, 0.2, 3.0).unwrap();
    let s2 = SkewNormal::new(1.1, 0.15, -2.0).unwrap();
    let narrow = SkewNormal::new(1.1, 0.002, -1.0).unwrap();
    let edge_x = SkewNormal::new(0.0217, 0.00425, 3.26).unwrap();
    let edge_y = SkewNormal::new(0.0184, 0.0123, 2027.0).unwrap();
    let run = || {
        (
            max_moments([&s1, &s2], [&s2, &narrow]),
            max_moments([&edge_x], [&edge_y]),
        )
    };
    // Warm-up: the quadrature tables are built on first use.
    let want = run();
    let (allocs, got) = count_allocs(run);
    assert_eq!(got, want);
    assert_eq!(allocs, 0, "max_moments allocated {allocs} times");
}
