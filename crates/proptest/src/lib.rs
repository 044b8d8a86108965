//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no network access and no registry cache, so
//! the workspace vendors the dependencies it needs as minimal in-repo
//! crates. This one implements the subset of proptest's API that the
//! workspace's property tests use, with identical call-site syntax:
//!
//! - the [`proptest!`] macro (with `#![proptest_config(...)]`),
//! - [`prop_assert!`] / [`prop_assert_eq!`] / [`prop_assert_ne!`] /
//!   [`prop_assume!`],
//! - the [`Strategy`] trait with `prop_map`, ranges, tuples,
//!   [`collection::vec`], [`sample::select`], and [`any`],
//! - [`ProptestConfig::with_cases`] and [`TestCaseError`].
//!
//! Differences from the real crate, by design:
//!
//! - **No shrinking.** A failing case reports the per-case seed instead; a
//!   rerun reproduces it because case generation is fully deterministic
//!   (seeded from the test's module path and name, optionally XORed with
//!   `PROPTEST_SEED` from the environment).
//! - **No persistence.** `.proptest-regressions` files are ignored.
//!
//! Swapping the real crate back in requires no call-site changes.

use std::marker::PhantomData;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Deterministic SplitMix64 stream driving value generation.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Build a generator from a 64-bit seed.
    pub fn from_seed(state: u64) -> Self {
        TestRng { state }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)` via debiased multiply-shift.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "TestRng::below(0)");
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let m = (self.next_u64() as u128) * (bound as u128);
            if (m as u64) >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform value in `[0, 1)` with 53 bits of precision.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// How a test case ends without passing. Mirrors `proptest::test_runner::TestCaseError`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TestCaseError {
    /// An assertion failed; the runner panics with this message.
    Fail(String),
    /// `prop_assume!` rejected the inputs; the case is retried with new ones.
    Reject(String),
}

impl TestCaseError {
    /// A failed case with the given message.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError::Fail(msg.into())
    }

    /// A rejected (filtered-out) case with the given reason.
    pub fn reject(msg: impl Into<String>) -> Self {
        TestCaseError::Reject(msg.into())
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TestCaseError::Fail(m) => write!(f, "test case failed: {m}"),
            TestCaseError::Reject(m) => write!(f, "test case rejected: {m}"),
        }
    }
}

impl std::error::Error for TestCaseError {}

/// Runner configuration. Only `cases` is honoured.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of passing cases required for the test to succeed.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases per test.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// A source of values for property tests. Mirrors `proptest::strategy::Strategy`,
/// reduced to generation (no value tree, no shrinking).
pub trait Strategy {
    /// The type of values this strategy produces.
    type Value;

    /// Generate one value.
    fn new_value(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values with `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }
}

/// Strategy returned by [`Strategy::prop_map`].
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

    fn new_value(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.new_value(rng))
    }
}

macro_rules! impl_range_unsigned {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn new_value(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy {self:?}");
                self.start + rng.below((self.end - self.start) as u64) as $t
            }
        }
    )*};
}

impl_range_unsigned!(u8, u16, u32, u64, usize);

macro_rules! impl_range_signed {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn new_value(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy {self:?}");
                let span = (self.end as i64).wrapping_sub(self.start as i64) as u64;
                ((self.start as i64) + rng.below(span) as i64) as $t
            }
        }
    )*};
}

impl_range_signed!(i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn new_value(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy {self:?}");
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

macro_rules! impl_tuple_strategy {
    ($($S:ident . $idx:tt),+) => {
        impl<$($S: Strategy),+> Strategy for ($($S,)+) {
            type Value = ($($S::Value,)+);
            fn new_value(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.new_value(rng),)+)
            }
        }
    };
}

impl_tuple_strategy!(A.0);
impl_tuple_strategy!(A.0, B.1);
impl_tuple_strategy!(A.0, B.1, C.2);
impl_tuple_strategy!(A.0, B.1, C.2, D.3);
impl_tuple_strategy!(A.0, B.1, C.2, D.3, E.4);
impl_tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5);

/// Types with a canonical "anything" strategy. Mirrors `proptest::arbitrary::Arbitrary`.
pub trait Arbitrary: Sized {
    /// Generate an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> f64 {
        rng.unit_f64()
    }
}

macro_rules! impl_arbitrary_tuple {
    ($($T:ident),+) => {
        impl<$($T: Arbitrary),+> Arbitrary for ($($T,)+) {
            fn arbitrary(rng: &mut TestRng) -> Self {
                ($($T::arbitrary(rng),)+)
            }
        }
    };
}

impl_arbitrary_tuple!(A);
impl_arbitrary_tuple!(A, B);
impl_arbitrary_tuple!(A, B, C);
impl_arbitrary_tuple!(A, B, C, D);

/// Strategy returned by [`any`].
#[derive(Debug, Clone, Copy)]
pub struct Any<T>(PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn new_value(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Strategy producing any value of `T`. Mirrors `proptest::prelude::any`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

/// Collection strategies. Mirrors `proptest::collection`.
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Length specification for [`vec()`]: a half-open range or an exact size.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec size range {r:?}");
            SizeRange { lo: r.start, hi: r.end }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    /// Strategy returned by [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn new_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo) as u64;
            let len = self.size.lo + rng.below(span) as usize;
            (0..len).map(|_| self.element.new_value(rng)).collect()
        }
    }

    /// A `Vec` of values from `element`, with a length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }
}

/// Sampling strategies. Mirrors `proptest::sample`.
pub mod sample {
    use super::{Strategy, TestRng};

    /// Strategy returned by [`select`].
    #[derive(Debug, Clone)]
    pub struct Select<T> {
        items: Vec<T>,
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;
        fn new_value(&self, rng: &mut TestRng) -> T {
            self.items[rng.below(self.items.len() as u64) as usize].clone()
        }
    }

    /// Pick uniformly from `items`.
    ///
    /// # Panics
    /// Panics if `items` is empty.
    pub fn select<T: Clone>(items: Vec<T>) -> Select<T> {
        assert!(!items.is_empty(), "sample::select on empty collection");
        Select { items }
    }
}

/// Drives the cases of one property test. Mirrors `proptest::test_runner::TestRunner`.
pub struct TestRunner {
    config: ProptestConfig,
    rng: TestRng,
    name: &'static str,
}

impl TestRunner {
    /// Build a runner whose base seed is derived from `name` (FNV-1a),
    /// optionally XORed with `PROPTEST_SEED` from the environment.
    pub fn new(config: ProptestConfig, name: &'static str) -> Self {
        let mut seed = 0xcbf2_9ce4_8422_2325u64;
        for b in name.bytes() {
            seed ^= b as u64;
            seed = seed.wrapping_mul(0x0000_0100_0000_01b3);
        }
        if let Some(extra) = std::env::var("PROPTEST_SEED").ok().and_then(|s| s.parse::<u64>().ok())
        {
            seed ^= extra;
        }
        TestRunner { config, rng: TestRng::from_seed(seed), name }
    }

    /// Run `case` until `config.cases` cases pass, panicking on the first
    /// failure (with the per-case seed, which makes the failure
    /// reproducible) or when `prop_assume!` rejects too many inputs.
    pub fn run<F>(&mut self, mut case: F)
    where
        F: FnMut(&mut TestRng) -> Result<(), TestCaseError>,
    {
        let cases = self.config.cases;
        let max_rejects = (cases as u64).saturating_mul(16).max(256);
        let mut rejects = 0u64;
        let mut passed = 0u32;
        while passed < cases {
            let case_seed = self.rng.next_u64();
            let mut case_rng = TestRng::from_seed(case_seed);
            match catch_unwind(AssertUnwindSafe(|| case(&mut case_rng))) {
                Ok(Ok(())) => passed += 1,
                Ok(Err(TestCaseError::Reject(why))) => {
                    rejects += 1;
                    if rejects > max_rejects {
                        panic!(
                            "{}: gave up after {rejects} prop_assume! rejections \
                             ({passed}/{cases} cases passed); last: {why}",
                            self.name
                        );
                    }
                }
                Ok(Err(TestCaseError::Fail(msg))) => panic!(
                    "{} failed after {passed} passing cases (case seed {case_seed:#018x}): {msg}",
                    self.name
                ),
                Err(payload) => {
                    let msg = payload
                        .downcast_ref::<String>()
                        .map(String::as_str)
                        .or_else(|| payload.downcast_ref::<&str>().copied())
                        .unwrap_or("<non-string panic payload>");
                    panic!(
                        "{} panicked after {passed} passing cases (case seed {case_seed:#018x}): {msg}",
                        self.name
                    );
                }
            }
        }
    }
}

/// The usual imports for property tests. Mirrors `proptest::prelude`.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, Arbitrary,
        ProptestConfig, Strategy, TestCaseError,
    };
}

/// Define property tests.
///
/// Matches proptest's syntax: an optional `#![proptest_config(expr)]`
/// header followed by `fn name(pat in strategy, ...) { body }` items,
/// each carrying its own attributes (`#[test]`, doc comments).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_cases! { @cfg($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_cases! { @cfg(<$crate::ProptestConfig as ::std::default::Default>::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_cases {
    (@cfg($cfg:expr) $(
        $(#[$meta:meta])*
        fn $name:ident ( $($pat:pat_param in $strat:expr),+ $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let mut runner = $crate::TestRunner::new(
                config,
                concat!(module_path!(), "::", stringify!($name)),
            );
            runner.run(|__proptest_rng| {
                $(let $pat = $crate::Strategy::new_value(&($strat), __proptest_rng);)+
                let __proptest_body: ::std::result::Result<(), $crate::TestCaseError> =
                    (move || {
                        $body
                        ::std::result::Result::Ok(())
                    })();
                __proptest_body
            });
        }
    )*};
}

/// Assert a condition inside a property test, failing the case (not the
/// process) when false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "prop_assert!({}) failed at {}:{}",
                stringify!($cond), file!(), line!()
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "prop_assert!({}) failed at {}:{}: {}",
                stringify!($cond), file!(), line!(), format!($($fmt)+)
            )));
        }
    };
}

/// Assert equality inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        if !(__l == __r) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "prop_assert_eq! failed at {}:{}: {} = {:?}, {} = {:?}",
                file!(), line!(), stringify!($left), __l, stringify!($right), __r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        if !(__l == __r) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "prop_assert_eq! failed at {}:{}: {:?} != {:?}: {}",
                file!(), line!(), __l, __r, format!($($fmt)+)
            )));
        }
    }};
}

/// Assert inequality inside a property test.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        if __l == __r {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "prop_assert_ne! failed at {}:{}: both sides = {:?}",
                file!(), line!(), __l
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        if __l == __r {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "prop_assert_ne! failed at {}:{}: both sides = {:?}: {}",
                file!(), line!(), __l, format!($($fmt)+)
            )));
        }
    }};
}

/// Reject the current inputs (retried with fresh ones, not counted as a
/// passing case).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::reject(concat!(
                "prop_assume!(",
                stringify!($cond),
                ")"
            )));
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = crate::TestRng::from_seed(1);
        for _ in 0..500 {
            let v = Strategy::new_value(&(3usize..17), &mut rng);
            assert!((3..17).contains(&v));
            let s = Strategy::new_value(&(-50i32..50), &mut rng);
            assert!((-50..50).contains(&s));
            let f = Strategy::new_value(&(0.0f64..0.5), &mut rng);
            assert!((0.0..0.5).contains(&f));
        }
    }

    #[test]
    fn vec_and_select_compose() {
        let mut rng = crate::TestRng::from_seed(2);
        let strat = crate::collection::vec(crate::sample::select(b"ACGT".to_vec()), 0..16);
        for _ in 0..200 {
            let v = Strategy::new_value(&strat, &mut rng);
            assert!(v.len() < 16);
            assert!(v.iter().all(|b| b"ACGT".contains(b)));
        }
        let exact = crate::collection::vec(0u8..4, 3);
        assert_eq!(Strategy::new_value(&exact, &mut rng).len(), 3);
    }

    #[test]
    fn runner_is_deterministic_per_name() {
        let mut seen = Vec::new();
        for _ in 0..2 {
            let mut runner = crate::TestRunner::new(ProptestConfig::with_cases(5), "det-check");
            let mut vals = Vec::new();
            runner.run(|rng| {
                vals.push(rng.next_u64());
                Ok(())
            });
            seen.push(vals);
        }
        assert_eq!(seen[0], seen[1]);
    }

    #[test]
    #[should_panic(expected = "failed after")]
    fn failures_panic_with_seed() {
        let mut runner = crate::TestRunner::new(ProptestConfig::with_cases(8), "fail-check");
        runner.run(|_| Err(TestCaseError::fail("boom")));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn macro_end_to_end(v in crate::collection::vec(0u8..10, 1..20), (x, _y) in (0usize..5, 0u8..3)) {
            prop_assume!(!v.is_empty());
            prop_assert!(x < 5, "x = {}", x);
            prop_assert_eq!(v.len(), v.iter().copied().map(usize::from).count());
            prop_assert_ne!(v.len(), 0);
        }

        #[test]
        fn mapped_strategies_work(s in (1i32..4, -4i32..0).prop_map(|(a, b)| a - b)) {
            prop_assert!((2..=7).contains(&s));
        }
    }
}
