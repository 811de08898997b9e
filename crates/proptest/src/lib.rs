//! Vendored, offline subset of the [`proptest`](https://docs.rs/proptest/1)
//! crate API.
//!
//! The build environment for this workspace has no network access, so the
//! registry `proptest` crate cannot be fetched. This crate implements the
//! surface the workspace's property tests use — the [`proptest!`] macro,
//! range/tuple/[`Just`](crate::strategy::Just)/[`collection::vec`]
//! strategies, `prop_map`, and the `prop_assert*`/`prop_assume!` macros —
//! with the same paths and syntax, so the test files compile unchanged.
//!
//! Differences from upstream, by design of the subset:
//!
//! - **No shrinking.** A failing case reports the case number and panics;
//!   it does not minimize the input. Failures are reproducible because case
//!   seeds are a pure function of the case number.
//! - **Deterministic seeds.** Upstream draws fresh entropy per run; here
//!   case `k` always uses the same derived seed, so CI failures replay
//!   locally without a persistence file.

#![forbid(unsafe_code)]

use rand::rngs::StdRng;

/// Strategy combinators and the [`Strategy`](crate::strategy::Strategy) trait.
pub mod strategy {
    use rand::rngs::StdRng;
    use rand::{Rng, SampleUniform};

    /// A generator of test-case values, mirroring upstream `Strategy`.
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Generates one value.
        fn generate(&self, rng: &mut StdRng) -> Self::Value;

        /// Maps generated values through `f` (upstream `prop_map`).
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }
    }

    /// The result of [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;

        fn generate(&self, rng: &mut StdRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// A strategy that always yields a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn generate(&self, _rng: &mut StdRng) -> T {
            self.0.clone()
        }
    }

    impl<T: SampleUniform> Strategy for core::ops::Range<T> {
        type Value = T;

        fn generate(&self, rng: &mut StdRng) -> T {
            rng.gen_range(self.start..self.end)
        }
    }

    macro_rules! impl_tuple_strategy {
        ($($name:ident : $idx:tt),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);

                fn generate(&self, rng: &mut StdRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        };
    }

    impl_tuple_strategy!(A: 0);
    impl_tuple_strategy!(A: 0, B: 1);
    impl_tuple_strategy!(A: 0, B: 1, C: 2);
    impl_tuple_strategy!(A: 0, B: 1, C: 2, D: 3);
    impl_tuple_strategy!(A: 0, B: 1, C: 2, D: 3, E: 4);
    impl_tuple_strategy!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);
    impl_tuple_strategy!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6);
    impl_tuple_strategy!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6, H: 7);
}

/// Collection strategies (`proptest::collection::vec`).
pub mod collection {
    use super::strategy::Strategy;
    use rand::rngs::StdRng;
    use rand::Rng;

    /// A length specification: an exact `usize` or a `Range<usize>`.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    /// Strategy for `Vec`s of `element` values with length in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// The result of [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let len = rng.gen_range(self.size.lo..self.size.hi);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Test-runner configuration and error plumbing.
pub mod test_runner {
    /// Per-test configuration, mirroring upstream `ProptestConfig`.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of accepted (non-rejected) cases to run.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A config running `cases` cases.
        pub fn with_cases(cases: u32) -> ProptestConfig {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> ProptestConfig {
            ProptestConfig { cases: 64 }
        }
    }

    /// Why a test case did not pass.
    #[derive(Debug)]
    pub enum TestCaseError {
        /// `prop_assume!` rejected the inputs; try another case.
        Reject,
        /// An assertion failed.
        Fail(String),
    }
}

/// Derives the RNG for one test case: deterministic in (test name, case).
#[doc(hidden)]
pub fn __case_rng(test_name: &str, case: u32) -> StdRng {
    use rand::SeedableRng;
    // FNV-1a over the test name decorrelates sibling tests in one file.
    let mut h: u64 = 0xCBF29CE484222325;
    for b in test_name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001B3);
    }
    StdRng::seed_from_u64(h ^ (case as u64).wrapping_mul(0x9E3779B97F4A7C15))
}

/// Declares property tests (subset of upstream `proptest!` syntax).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!($cfg; $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!(
            $crate::test_runner::ProptestConfig::default(); $($rest)*);
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ($cfg:expr; $(
        $(#[$meta:meta])*
        fn $name:ident ( $($arg:pat in $strat:expr),+ $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $cfg;
            let mut accepted: u32 = 0;
            let mut attempt: u32 = 0;
            // Rejection budget mirrors upstream's default global reject cap.
            let max_attempts = config.cases.saturating_mul(16).max(1024);
            while accepted < config.cases {
                assert!(
                    attempt < max_attempts,
                    "proptest `{}`: too many prop_assume! rejections ({} attempts, {} accepted)",
                    stringify!($name), attempt, accepted,
                );
                let mut rng = $crate::__case_rng(
                    concat!(module_path!(), "::", stringify!($name)),
                    attempt,
                );
                attempt += 1;
                let outcome = (|| -> ::core::result::Result<(), $crate::test_runner::TestCaseError> {
                    $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut rng);)+
                    $body
                    ::core::result::Result::Ok(())
                })();
                match outcome {
                    Ok(()) => accepted += 1,
                    Err($crate::test_runner::TestCaseError::Reject) => {}
                    Err($crate::test_runner::TestCaseError::Fail(msg)) => panic!(
                        "proptest `{}` failed at case {}:\n{}",
                        stringify!($name), attempt - 1, msg,
                    ),
                }
            }
        }
    )*};
}

/// Fails the current case with a message when the condition is false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::core::result::Result::Err(
                $crate::test_runner::TestCaseError::Fail(format!($($fmt)+)));
        }
    };
}

/// Fails the current case when the two values are not equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a == b, "assertion failed: {:?} == {:?}", a, b);
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a == b, "{}: {:?} == {:?}", format!($($fmt)+), a, b);
    }};
}

/// Fails the current case when the two values are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a != b, "assertion failed: {:?} != {:?}", a, b);
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a != b, "{}: {:?} != {:?}", format!($($fmt)+), a, b);
    }};
}

/// Rejects the current case (retried with fresh inputs) when false.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::Reject);
        }
    };
}

/// Everything a test file needs: `use proptest::prelude::*;`.
pub mod prelude {
    pub use crate::collection;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn small_even() -> impl Strategy<Value = u32> {
        (0u32..100).prop_map(|n| n * 2)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn ranges_respect_bounds(x in -2.0..6.0f64, k in 1usize..9) {
            prop_assert!((-2.0..6.0).contains(&x));
            prop_assert!((1..9).contains(&k));
        }

        #[test]
        fn mapped_and_tuple_strategies_compose((a, b) in (0u32..10, 5u32..7), e in small_even()) {
            prop_assert!(a < 10);
            prop_assert!(b == 5 || b == 6);
            prop_assert_eq!(e % 2, 0);
        }

        #[test]
        fn vec_sizes_and_assume(xs in collection::vec(0.0..1.0f64, 1..8), n in 0usize..10) {
            prop_assume!(n >= 2);
            prop_assert!(!xs.is_empty() && xs.len() < 8);
            prop_assert!(xs.iter().all(|&x| (0.0..1.0).contains(&x)));
            prop_assert!(n >= 2);
        }

        #[test]
        fn exact_vec_size(xs in collection::vec(Just(7u8), 4)) {
            prop_assert_eq!(xs, vec![7u8; 4]);
        }
    }

    #[test]
    fn cases_are_deterministic() {
        use crate::strategy::Strategy;
        let s = 0.0..1.0f64;
        let a = s.generate(&mut crate::__case_rng("t", 3));
        let b = s.generate(&mut crate::__case_rng("t", 3));
        assert_eq!(a, b);
    }
}
