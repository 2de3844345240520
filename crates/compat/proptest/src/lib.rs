//! Offline mini-proptest.
//!
//! The build container cannot reach crates.io, so this crate re-implements
//! the slice of the `proptest` API the workspace's property tests use:
//! the [`proptest!`] macro, [`strategy::Strategy`] with `prop_map` /
//! `prop_flat_map` / `prop_perturb`, range and tuple strategies,
//! [`collection::vec`], `any::<T>()`, `Just`, `prop_oneof!`, and the
//! `prop_assert*` / `prop_assume!` macros.
//!
//! Semantics: each test runs `ProptestConfig::cases` random cases from a
//! deterministic per-test seed. There is **no shrinking** — a failure reports
//! the offending case's formatted message only. That trades minimal
//! counterexamples for zero dependencies.

pub mod test_runner {
    /// Configuration accepted by `#![proptest_config(...)]`.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of random cases to run per test.
        pub cases: u32,
        /// Accepted for compatibility; unused (no shrinking here).
        pub max_shrink_iters: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            Self { cases: 256, max_shrink_iters: 0 }
        }
    }

    /// Failure channel used by the `prop_assert*` macros.
    #[derive(Debug)]
    pub enum TestCaseError {
        /// Assertion failure: the case is a real bug.
        Fail(String),
        /// `prop_assume!` rejection: the case is skipped.
        Reject(String),
    }

    impl TestCaseError {
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError::Fail(msg.into())
        }

        pub fn reject(msg: impl Into<String>) -> Self {
            TestCaseError::Reject(msg.into())
        }
    }

    /// Deterministic split-mix / xorshift generator driving all sampling.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        pub fn new(seed: u64) -> Self {
            // Avoid the all-zero fixed point and decorrelate small seeds.
            Self { state: seed ^ 0x9E37_79B9_7F4A_7C15 }
        }

        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        pub fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }

        /// Uniform f64 in `[0, 1)`.
        pub fn next_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }

        /// Forks an independent stream (used by `prop_perturb`).
        pub fn fork(&mut self) -> TestRng {
            TestRng::new(self.next_u64())
        }
    }

    /// Drives strategies; owns the RNG.
    pub struct TestRunner {
        pub config: ProptestConfig,
        pub(crate) rng: TestRng,
    }

    impl TestRunner {
        pub fn new(config: ProptestConfig) -> Self {
            Self { config, rng: TestRng::new(0x00C0_FFEE) }
        }

        /// Fixed-seed runner (API parity with upstream).
        pub fn deterministic() -> Self {
            Self { config: ProptestConfig::default(), rng: TestRng::new(0x5EED_5EED) }
        }

        /// Per-test runner with a seed derived from the test name, so each
        /// test gets a stable but distinct stream.
        pub fn new_for_test(config: ProptestConfig, name: &str) -> Self {
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
            Self { config, rng: TestRng::new(h) }
        }

        pub fn rng(&mut self) -> &mut TestRng {
            &mut self.rng
        }
    }
}

pub mod strategy {
    use crate::test_runner::{TestRng, TestRunner};
    use std::fmt::Debug;
    use std::marker::PhantomData;
    use std::ops::Range;

    /// A generated value plus (in real proptest) its shrink state. Here:
    /// just the value.
    pub trait ValueTree {
        type Value;
        fn current(&self) -> Self::Value;
    }

    /// Value holder without shrinking.
    #[derive(Debug, Clone)]
    pub struct NoShrink<T>(pub T);

    impl<T: Clone + Debug> ValueTree for NoShrink<T> {
        type Value = T;
        fn current(&self) -> T {
            self.0.clone()
        }
    }

    /// A random-value strategy. `Value` must be `Clone + Debug` so trees can
    /// re-yield it and failures can report it.
    pub trait Strategy {
        type Value: Clone + Debug;

        fn sample(&self, rng: &mut TestRng) -> Self::Value;

        fn new_tree(&self, runner: &mut TestRunner) -> Result<NoShrink<Self::Value>, String> {
            Ok(NoShrink(self.sample(&mut runner.rng)))
        }

        fn prop_map<O: Clone + Debug, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }

        fn prop_flat_map<S2: Strategy, F: Fn(Self::Value) -> S2>(
            self,
            f: F,
        ) -> FlatMap<Self, F>
        where
            Self: Sized,
        {
            FlatMap { inner: self, f }
        }

        fn prop_perturb<O: Clone + Debug, F: Fn(Self::Value, TestRng) -> O>(
            self,
            f: F,
        ) -> Perturb<Self, F>
        where
            Self: Sized,
        {
            Perturb { inner: self, f }
        }
    }

    /// Always yields a clone of the given value.
    #[derive(Debug, Clone)]
    pub struct Just<T>(pub T);

    impl<T: Clone + Debug> Strategy for Just<T> {
        type Value = T;
        fn sample(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O: Clone + Debug, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn sample(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.sample(rng))
        }
    }

    pub struct FlatMap<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
        type Value = S2::Value;
        fn sample(&self, rng: &mut TestRng) -> S2::Value {
            (self.f)(self.inner.sample(rng)).sample(rng)
        }
    }

    pub struct Perturb<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O: Clone + Debug, F: Fn(S::Value, TestRng) -> O> Strategy for Perturb<S, F> {
        type Value = O;
        fn sample(&self, rng: &mut TestRng) -> O {
            let v = self.inner.sample(rng);
            let fork = rng.fork();
            (self.f)(v, fork)
        }
    }

    /// Uniform choice among same-typed strategies (`prop_oneof!`).
    pub struct OneOf<S>(pub Vec<S>);

    impl<S: Strategy> Strategy for OneOf<S> {
        type Value = S::Value;
        fn sample(&self, rng: &mut TestRng) -> S::Value {
            assert!(!self.0.is_empty(), "prop_oneof! needs at least one arm");
            let i = (rng.next_u64() % self.0.len() as u64) as usize;
            self.0[i].sample(rng)
        }
    }

    macro_rules! int_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end - self.start) as u64;
                    self.start + (rng.next_u64() % span) as $t
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi - lo) as u64 + 1;
                    lo + (rng.next_u64() % span.max(1)) as $t
                }
            }
        )*};
    }

    int_strategy!(usize, u8, u16, u32, u64, i32, i64);

    impl Strategy for Range<f64> {
        type Value = f64;
        fn sample(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "empty range strategy");
            self.start + rng.next_f64() * (self.end - self.start)
        }
    }

    impl Strategy for Range<f32> {
        type Value = f32;
        fn sample(&self, rng: &mut TestRng) -> f32 {
            assert!(self.start < self.end, "empty range strategy");
            self.start + (rng.next_f64() as f32) * (self.end - self.start)
        }
    }

    macro_rules! tuple_strategy {
        ($(($($s:ident . $idx:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn sample(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.sample(rng),)+)
                }
            }
        )*};
    }

    tuple_strategy! {
        (A.0)
        (A.0, B.1)
        (A.0, B.1, C.2)
        (A.0, B.1, C.2, D.3)
        (A.0, B.1, C.2, D.3, E.4)
    }

    /// `any::<T>()` — full-range values for primitive types.
    pub struct Any<T>(PhantomData<T>);

    pub fn any_of<T>() -> Any<T> {
        Any(PhantomData)
    }

    macro_rules! any_int {
        ($($t:ty),*) => {$(
            impl Strategy for Any<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    any_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64);

    impl Strategy for Any<bool> {
        type Value = bool;
        fn sample(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::Range;

    /// Length specification for [`vec`](fn@vec): an exact size or a range.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange { lo: r.start, hi: r.end }
        }
    }

    /// Strategy yielding vectors of values from `element`.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo) as u64;
            let len = self.size.lo + (rng.next_u64() % span.max(1)) as usize;
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }

    /// `proptest::collection::vec(element, size)`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }
}

pub mod prelude {
    pub use crate::collection;
    pub use crate::strategy::{Just, Strategy, ValueTree};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestRunner};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest};

    /// `any::<T>()` strategy over a primitive's full range.
    pub fn any<T>() -> crate::strategy::Any<T> {
        crate::strategy::any_of::<T>()
    }
}

#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::test_runner::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($cfg:expr)
      $( $(#[$meta:meta])+
         fn $name:ident ( $($pat:pat in $strat:expr),+ $(,)? ) $body:block )* ) => {
        $(
            $(#[$meta])+
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $cfg;
                let mut runner =
                    $crate::test_runner::TestRunner::new_for_test(config.clone(), stringify!($name));
                for case in 0..config.cases {
                    $(
                        let $pat = $crate::strategy::ValueTree::current(
                            &$crate::strategy::Strategy::new_tree(&($strat), &mut runner).unwrap(),
                        );
                    )+
                    let result: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                        (move || {
                            $body
                            ::std::result::Result::Ok(())
                        })();
                    match result {
                        ::std::result::Result::Ok(()) => {}
                        ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject(_)) => {}
                        ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(msg)) => {
                            panic!(
                                "proptest '{}' failed at case {}/{}: {}",
                                stringify!($name), case, config.cases, msg
                            );
                        }
                    }
                }
            }
        )*
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {
        match (&$a, &$b) {
            (left, right) => {
                if !(*left == *right) {
                    return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                        format!("assertion failed: `{:?}` == `{:?}`", left, right),
                    ));
                }
            }
        }
    };
    ($a:expr, $b:expr, $($fmt:tt)+) => {
        match (&$a, &$b) {
            (left, right) => {
                if !(*left == *right) {
                    return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                        format!(
                            "assertion failed: `{:?}` == `{:?}`: {}",
                            left, right, format!($($fmt)+)
                        ),
                    ));
                }
            }
        }
    };
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {
        match (&$a, &$b) {
            (left, right) => {
                if *left == *right {
                    return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                        format!("assertion failed: `{:?}` != `{:?}`", left, right),
                    ));
                }
            }
        }
    };
    ($a:expr, $b:expr, $($fmt:tt)+) => {
        match (&$a, &$b) {
            (left, right) => {
                if *left == *right {
                    return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                        format!(
                            "assertion failed: `{:?}` != `{:?}`: {}",
                            left, right, format!($($fmt)+)
                        ),
                    ));
                }
            }
        }
    };
}

#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::reject(
                stringify!($cond),
            ));
        }
    };
}

#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::OneOf(vec![$($arm),+])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    #[test]
    fn ranges_sample_in_bounds() {
        let mut rng = TestRng::new(1);
        for _ in 0..500 {
            let v = (3usize..10).sample(&mut rng);
            assert!((3..10).contains(&v));
            let f = (-1.5f64..2.5).sample(&mut rng);
            assert!((-1.5..2.5).contains(&f));
        }
    }

    #[test]
    fn vec_strategy_has_requested_sizes() {
        let mut rng = TestRng::new(2);
        let s = collection::vec(0u32..5, 2..6);
        for _ in 0..200 {
            let v = s.sample(&mut rng);
            assert!((2..6).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 5));
        }
        let exact = collection::vec(0u32..5, 7usize);
        assert_eq!(exact.sample(&mut rng).len(), 7);
    }

    #[test]
    fn combinators_compose() {
        let mut rng = TestRng::new(3);
        let s = (1usize..5)
            .prop_flat_map(|n| collection::vec(0usize..n, n))
            .prop_map(|v| v.len());
        for _ in 0..100 {
            let len = s.sample(&mut rng);
            assert!((1..5).contains(&len));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

        #[test]
        fn macro_runs_and_binds_tuples((a, b) in (0u32..10, 10u32..20), c in 0usize..4) {
            prop_assert!(a < 10);
            prop_assert!((10..20).contains(&b));
            prop_assert!(c < 4);
            prop_assert_eq!(a as usize + c, c + a as usize);
            prop_assert_ne!(b, a);
        }

        #[test]
        fn assume_rejects_without_failing(n in 0u32..10) {
            prop_assume!(n % 2 == 0);
            prop_assert_eq!(n % 2, 0);
        }

        #[test]
        fn oneof_picks_an_arm(h in prop_oneof![Just(1u8), Just(2u8), Just(3u8)]) {
            prop_assert!((1..=3).contains(&h));
        }
    }
}
