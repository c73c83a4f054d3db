//! Offline shim for `proptest` (the subset this workspace's property tests use).
//!
//! The build environment has no crates.io access, so the real `proptest` cannot
//! be fetched. This shim keeps the same test-authoring surface — `proptest!`,
//! strategies built from ranges/tuples/`Just`/`prop_oneof!`, `prop_map` /
//! `prop_flat_map`, `collection::vec`, `prop_assert*!`, `prop_assume!`,
//! `ProptestConfig::with_cases` — executing each case on a deterministic RNG
//! derived from the test name and attempt number. **No shrinking**: a failing
//! case reports its attempt number so it can be re-run, but is not minimized.

use std::ops::{Range, RangeInclusive};

// ---------------------------------------------------------------------------
// Deterministic RNG (xoshiro256**, seeded via SplitMix64 from the test name).
// ---------------------------------------------------------------------------

/// Deterministic per-case random source handed to strategies.
pub struct TestRng {
    s: [u64; 4],
}

impl TestRng {
    /// RNG for one (test, attempt) pair.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let s = [next(), next(), next(), next()];
        Self { s }
    }

    /// Next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform value in `[0, bound)` (Lemire widening multiply).
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform f64 in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

// ---------------------------------------------------------------------------
// Config, errors, runner.
// ---------------------------------------------------------------------------

/// Per-test configuration (`#![proptest_config(..)]`).
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of passing cases required.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config requiring `cases` passing cases.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 256 }
    }
}

/// Why a single generated case did not pass.
#[derive(Debug)]
pub enum TestCaseError {
    /// Assertion failure — the property is violated; the test fails.
    Fail(String),
    /// Precondition not met (`prop_assume!`) — the case is skipped.
    Reject(String),
}

fn fnv1a(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Drive one property: generate cases until `cfg.cases` pass, panicking on the
/// first failure. Called by the code `proptest!` expands to; not user-facing.
pub fn run_proptest(
    cfg: &ProptestConfig,
    name: &str,
    mut case: impl FnMut(&mut TestRng) -> Result<(), TestCaseError>,
) {
    let base = fnv1a(name);
    let max_attempts = cfg.cases.saturating_mul(20).max(1000);
    let mut passed = 0u32;
    let mut attempt = 0u32;
    while passed < cfg.cases {
        assert!(
            attempt < max_attempts,
            "proptest '{name}': exhausted {attempt} attempts with only {passed}/{} passes \
             (too many prop_assume! rejections?)",
            cfg.cases
        );
        let mut rng = TestRng::new(base ^ (attempt as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        attempt += 1;
        match case(&mut rng) {
            Ok(()) => passed += 1,
            Err(TestCaseError::Reject(_)) => continue,
            Err(TestCaseError::Fail(msg)) => panic!(
                "proptest '{name}' failed on attempt {attempt} (after {passed} passes): {msg}\n\
                 (deterministic: attempt number reproduces the case; no shrinking in this shim)"
            ),
        }
    }
}

// ---------------------------------------------------------------------------
// Strategy trait and combinators.
// ---------------------------------------------------------------------------

/// A recipe for generating values of one type.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Generate one value.
    fn gen_value(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Build a dependent strategy from each generated value.
    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { inner: self, f }
    }

    /// Type-erase (needed by `prop_oneof!`).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy { inner: Box::new(self) }
    }
}

/// [`Strategy::prop_map`] adapter.
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn gen_value(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.gen_value(rng))
    }
}

/// [`Strategy::prop_flat_map`] adapter.
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
    type Value = S2::Value;
    fn gen_value(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.inner.gen_value(rng)).gen_value(rng)
    }
}

trait StrategyObj {
    type Value;
    fn gen_obj(&self, rng: &mut TestRng) -> Self::Value;
}

impl<S: Strategy> StrategyObj for S {
    type Value = S::Value;
    fn gen_obj(&self, rng: &mut TestRng) -> S::Value {
        self.gen_value(rng)
    }
}

/// Type-erased strategy (what [`Strategy::boxed`] returns).
pub struct BoxedStrategy<T> {
    inner: Box<dyn StrategyObj<Value = T>>,
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn gen_value(&self, rng: &mut TestRng) -> T {
        self.inner.gen_obj(rng)
    }
}

/// Always produces a clone of one value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn gen_value(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Uniform choice among equally-weighted alternatives (`prop_oneof!`).
pub struct Union<T> {
    options: Vec<BoxedStrategy<T>>,
}

impl<T> Union<T> {
    /// A union of the given alternatives; must be non-empty.
    pub fn new(options: Vec<BoxedStrategy<T>>) -> Self {
        assert!(!options.is_empty(), "prop_oneof! needs at least one alternative");
        Self { options }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn gen_value(&self, rng: &mut TestRng) -> T {
        let i = rng.below(self.options.len() as u64) as usize;
        self.options[i].gen_value(rng)
    }
}

macro_rules! int_strategies {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn gen_value(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn gen_value(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                if span > u64::MAX as u128 {
                    return rng.next_u64() as $t;
                }
                (lo as i128 + rng.below(span as u64) as i128) as $t
            }
        }
    )*};
}
int_strategies!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_strategies {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn gen_value(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                self.start + (self.end - self.start) * rng.unit_f64() as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn gen_value(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                lo + (hi - lo) * rng.unit_f64() as $t
            }
        }
    )*};
}
float_strategies!(f32, f64);

macro_rules! tuple_strategies {
    ($(($($name:ident),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn gen_value(&self, rng: &mut TestRng) -> Self::Value {
                #[allow(non_snake_case)]
                let ($($name,)+) = self;
                ($($name.gen_value(rng),)+)
            }
        }
    )*};
}
tuple_strategies! {
    (A) (A, B) (A, B, C) (A, B, C, D) (A, B, C, D, E) (A, B, C, D, E, F)
    (A, B, C, D, E, F, G) (A, B, C, D, E, F, G, H)
}

/// Types with a canonical `any::<T>()` strategy.
pub trait Arbitrary: Sized {
    /// The canonical strategy.
    type Strategy: Strategy<Value = Self>;
    /// Construct the canonical strategy.
    fn arbitrary() -> Self::Strategy;
}

/// The full-domain strategy of an [`Arbitrary`] type.
pub fn any<T: Arbitrary>() -> T::Strategy {
    T::arbitrary()
}

/// `any::<bool>()` strategy.
pub struct AnyBool;

impl Strategy for AnyBool {
    type Value = bool;
    fn gen_value(&self, rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for bool {
    type Strategy = AnyBool;
    fn arbitrary() -> AnyBool {
        AnyBool
    }
}

macro_rules! arbitrary_ints {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            type Strategy = RangeInclusive<$t>;
            fn arbitrary() -> Self::Strategy {
                <$t>::MIN..=<$t>::MAX
            }
        }
    )*};
}
arbitrary_ints!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

// ---------------------------------------------------------------------------
// Collections.
// ---------------------------------------------------------------------------

/// `proptest::collection` — strategies over containers.
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::{Range, RangeInclusive};

    /// Admissible length specifications for [`vec`].
    #[derive(Clone, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // inclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            Self { lo: n, hi: n }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            Self { lo: r.start, hi: r.end - 1 }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty size range");
            Self { lo: *r.start(), hi: *r.end() }
        }
    }

    /// Strategy producing `Vec`s of values from `element` with a length drawn
    /// from `size`.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// `Vec` strategy: each element drawn from `element`, length from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn gen_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo) as u64 + 1;
            let len = self.size.lo + rng.below(span) as usize;
            (0..len).map(|_| self.element.gen_value(rng)).collect()
        }
    }
}

// ---------------------------------------------------------------------------
// Macros.
// ---------------------------------------------------------------------------

/// Define property tests: `proptest! { #[test] fn p(x in 0..10usize) { .. } }`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    ( ($cfg:expr) $(
        $(#[$meta:meta])*
        fn $name:ident ( $($pat:pat in $strat:expr),+ $(,)? ) $body:block
    )* ) => {$(
        $(#[$meta])*
        fn $name() {
            let __cfg: $crate::ProptestConfig = $cfg;
            $crate::run_proptest(&__cfg, stringify!($name), |__rng| {
                $(let $pat = $crate::Strategy::gen_value(&($strat), __rng);)+
                (move || -> ::std::result::Result<(), $crate::TestCaseError> {
                    $body
                    ::std::result::Result::Ok(())
                })()
            });
        }
    )*};
}

/// Fail the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(format!($($fmt)+)));
        }
    };
}

/// Fail the current case unless `a == b`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (__a, __b) = (&$a, &$b);
        if !(*__a == *__b) {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(format!(
                "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
                stringify!($a), stringify!($b), __a, __b
            )));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (__a, __b) = (&$a, &$b);
        if !(*__a == *__b) {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(format!(
                "{}\n  left: {:?}\n right: {:?}", format!($($fmt)+), __a, __b
            )));
        }
    }};
}

/// Fail the current case unless `a != b`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (__a, __b) = (&$a, &$b);
        if *__a == *__b {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(format!(
                "assertion failed: `{} != {}`\n  both: {:?}",
                stringify!($a),
                stringify!($b),
                __a
            )));
        }
    }};
}

/// Skip the current case unless `cond` holds (does not count toward `cases`).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::Reject(
                stringify!($cond).to_string(),
            ));
        }
    };
}

/// Uniform choice among alternative strategies of one value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($strat)),+])
    };
}

/// Everything tests import via `use proptest::prelude::*`.
pub mod prelude {
    pub use crate::collection;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
        Arbitrary, BoxedStrategy, Just, ProptestConfig, Strategy, TestCaseError, Union,
    };
    /// `proptest::prelude::prop` — alias of the crate root, for `prop::collection::vec` paths.
    pub mod prop {
        pub use crate::collection;
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_in_bounds(x in 3usize..10, y in -2.0f32..2.0) {
            prop_assert!((3..10).contains(&x));
            prop_assert!((-2.0..2.0).contains(&y));
        }

        #[test]
        fn any_bool_draws_both_values(bs in collection::vec(any::<bool>(), 64)) {
            prop_assert!(bs.contains(&true) && bs.contains(&false), "{bs:?}");
        }

        #[test]
        fn vec_lengths_respected(v in collection::vec(0u32..5, 2..7)) {
            prop_assert!((2..7).contains(&v.len()));
            prop_assert!(v.iter().all(|&x| x < 5));
        }

        #[test]
        fn flat_map_dependent(pair in (1usize..5).prop_flat_map(|n| {
            (Just(n), collection::vec(0i32..10, n..=n))
        })) {
            let (n, v) = pair;
            prop_assert_eq!(v.len(), n);
        }

        #[test]
        fn oneof_and_map(x in prop_oneof![Just(1u32), Just(2), (10u32..12).prop_map(|v| v * 2)]) {
            prop_assert!(x == 1 || x == 2 || x == 20 || x == 22);
        }

        #[test]
        fn assume_rejects(x in 0usize..100) {
            prop_assume!(x % 2 == 0);
            prop_assert!(x % 2 == 0);
        }
    }

    #[test]
    #[should_panic(expected = "failed on attempt")]
    fn failing_property_panics() {
        run_proptest_example();
    }

    fn run_proptest_example() {
        crate::run_proptest(&ProptestConfig::with_cases(16), "always_fails", |_rng| {
            Err(TestCaseError::Fail("nope".into()))
        });
    }
}
