//! Offline stand-in for the `proptest` DSL surface this workspace uses.
//!
//! The CI container cannot reach the crates registry, so the property
//! tests run against this local mini-implementation instead of upstream
//! proptest. It keeps the same source syntax — `proptest! { #[test] fn
//! f(x in strategy) { … } }`, `prop::collection::vec`, `any::<T>()`,
//! range strategies, `.prop_map`, `prop_oneof!`, `prop::sample::select`,
//! `ProptestConfig::with_cases` and the `prop_assert*` macros — with two
//! deliberate simplifications:
//!
//! * **no shrinking** — a failing case reports its inputs via the panic
//!   message (every strategy value is `Debug`-printed on failure) but is
//!   not minimized;
//! * **fixed derivation** — cases derive deterministically from the test
//!   function's name, so every run explores the same inputs (a property
//!   CI actually wants: failures reproduce without a persisted seed
//!   file).
//!
//! The number of cases per test defaults to 256 and follows
//! `ProptestConfig::with_cases` where the tests override it.

#![forbid(unsafe_code)]

use std::fmt::Debug;
use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

/// Per-test configuration (mirrors `proptest::test_runner::Config`).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to run per property.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

impl ProptestConfig {
    /// A configuration running `cases` cases per property.
    #[must_use]
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// The deterministic case generator (SplitMix64 seeded from the test name).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seeds the generator from a test function's name (FNV-1a).
    #[must_use]
    pub fn from_name(name: &str) -> Self {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
        TestRng { state: hash }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`; `bound` must be positive.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        let zone = u64::MAX - (u64::MAX - bound + 1) % bound;
        loop {
            let v = self.next_u64();
            if v <= zone {
                return v % bound;
            }
        }
    }
}

/// A value generator (mirrors `proptest::strategy::Strategy`, minus
/// shrinking).
pub trait Strategy {
    /// The generated value type.
    type Value: Debug;

    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f` (mirrors `Strategy::prop_map`).
    fn prop_map<T: Debug, F: Fn(Self::Value) -> T>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Rejects generated values failing `predicate`, resampling instead
    /// (mirrors `Strategy::prop_filter`; panics after 10 000 consecutive
    /// rejections instead of proptest's global rejection budget).
    fn prop_filter<F: Fn(&Self::Value) -> bool>(
        self,
        reason: &'static str,
        predicate: F,
    ) -> Filter<Self, F>
    where
        Self: Sized,
    {
        Filter {
            inner: self,
            reason,
            predicate,
        }
    }

    /// Erases the concrete strategy type (mirrors `Strategy::boxed`).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

/// The [`Strategy::prop_filter`] adapter.
pub struct Filter<S, F> {
    inner: S,
    reason: &'static str,
    predicate: F,
}

impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
    type Value = S::Value;
    fn sample(&self, rng: &mut TestRng) -> S::Value {
        for _ in 0..10_000 {
            let value = self.inner.sample(rng);
            if (self.predicate)(&value) {
                return value;
            }
        }
        panic!(
            "strategy filter rejected 10000 consecutive samples: {}",
            self.reason
        );
    }
}

/// A type-erased strategy, as produced by [`Strategy::boxed`].
pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

impl<T: Debug> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        (**self).sample(rng)
    }
}

/// The [`Strategy::prop_map`] adapter.
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, T: Debug, F: Fn(S::Value) -> T> Strategy for Map<S, F> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        (self.f)(self.inner.sample(rng))
    }
}

/// A strategy that always yields a clone of one value (mirrors `Just`).
#[derive(Debug, Clone)]
pub struct Just<T>(pub T);

impl<T: Clone + Debug> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end - self.start) as u64;
                self.start + (rng.below(span) as $t)
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "cannot sample empty range");
                let span = (end - start) as u64;
                if span == u64::MAX {
                    return start + (rng.next_u64() as $t);
                }
                start + (rng.below(span + 1) as $t)
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize);

/// String strategies are written as regex literals in proptest; this shim
/// generates from a practical subset of that syntax: literal characters,
/// `.` (any printable ASCII except newline), escaped characters, and the
/// quantifiers `{m,n}`, `{n}`, `*`, `+`, `?` on the preceding atom.
impl Strategy for &str {
    type Value = String;
    fn sample(&self, rng: &mut TestRng) -> String {
        #[derive(Clone, Copy)]
        enum Atom {
            Any,
            Literal(char),
        }
        fn emit(atom: Atom, rng: &mut TestRng, out: &mut String) {
            match atom {
                // Printable ASCII (0x20..=0x7E): includes ',' and '"' so
                // CSV-escaping properties see both branches, excludes
                // newline exactly like regex `.`.
                Atom::Any => out.push((0x20 + rng.below(0x5F) as u8) as char),
                Atom::Literal(c) => out.push(c),
            }
        }
        let mut out = String::new();
        let mut chars = self.chars().peekable();
        while let Some(c) = chars.next() {
            let atom = match c {
                '.' => Atom::Any,
                '\\' => Atom::Literal(chars.next().expect("dangling escape")),
                other => Atom::Literal(other),
            };
            match chars.peek() {
                Some('{') => {
                    chars.next();
                    let mut spec = String::new();
                    for c in chars.by_ref() {
                        if c == '}' {
                            break;
                        }
                        spec.push(c);
                    }
                    let (min, max) = match spec.split_once(',') {
                        Some((lo, hi)) => (
                            lo.parse::<u64>().expect("quantifier bound"),
                            hi.parse::<u64>().expect("quantifier bound"),
                        ),
                        None => {
                            let n = spec.parse::<u64>().expect("quantifier bound");
                            (n, n)
                        }
                    };
                    let reps = min + rng.below(max - min + 1);
                    for _ in 0..reps {
                        emit(atom, rng, &mut out);
                    }
                }
                Some('*') => {
                    chars.next();
                    for _ in 0..rng.below(9) {
                        emit(atom, rng, &mut out);
                    }
                }
                Some('+') => {
                    chars.next();
                    for _ in 0..1 + rng.below(8) {
                        emit(atom, rng, &mut out);
                    }
                }
                Some('?') => {
                    chars.next();
                    if rng.next_u64() & 1 == 1 {
                        emit(atom, rng, &mut out);
                    }
                }
                _ => emit(atom, rng, &mut out),
            }
        }
        out
    }
}

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                #[allow(non_snake_case)]
                let ($($name,)+) = self;
                ($($name.sample(rng),)+)
            }
        }
    };
}

impl_tuple_strategy!(A);
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);
impl_tuple_strategy!(A, B, C, D, E, F);
impl_tuple_strategy!(A, B, C, D, E, F, G);
impl_tuple_strategy!(A, B, C, D, E, F, G, H);

/// Types with a canonical "any value" strategy (mirrors
/// `proptest::arbitrary::Arbitrary` for the types used in-tree).
pub trait ArbitraryValue: Debug + Sized {
    /// Draws one unconstrained value.
    fn any_value(rng: &mut TestRng) -> Self;
}

impl ArbitraryValue for bool {
    fn any_value(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl ArbitraryValue for u32 {
    fn any_value(rng: &mut TestRng) -> u32 {
        (rng.next_u64() >> 32) as u32
    }
}

impl ArbitraryValue for u64 {
    fn any_value(rng: &mut TestRng) -> u64 {
        rng.next_u64()
    }
}

impl ArbitraryValue for usize {
    fn any_value(rng: &mut TestRng) -> usize {
        rng.next_u64() as usize
    }
}

/// The `any::<T>()` strategy.
#[derive(Debug, Clone, Copy)]
pub struct Any<T>(PhantomData<T>);

impl<T: ArbitraryValue> Strategy for Any<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        T::any_value(rng)
    }
}

/// Unconstrained values of `T` (mirrors `proptest::prelude::any`).
#[must_use]
pub fn any<T: ArbitraryValue>() -> Any<T> {
    Any(PhantomData)
}

/// A uniform choice among boxed alternatives (the `prop_oneof!` backend).
pub struct Union<T> {
    options: Vec<BoxedStrategy<T>>,
}

impl<T: Debug> Union<T> {
    /// Builds a union; `options` must be non-empty.
    #[must_use]
    pub fn new(options: Vec<BoxedStrategy<T>>) -> Self {
        assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
        Union { options }
    }
}

impl<T: Debug> Strategy for Union<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        let i = rng.below(self.options.len() as u64) as usize;
        self.options[i].sample(rng)
    }
}

/// Strategy sub-modules, mirroring the `proptest::prop` namespace.
pub mod strategies {
    use super::{Debug, Strategy, TestRng};

    /// Collection strategies (`prop::collection`).
    pub mod collection {
        use super::super::{Range, RangeInclusive};
        use super::{Debug, Strategy, TestRng};

        /// A size specification for generated collections.
        #[derive(Debug, Clone)]
        pub struct SizeRange {
            min: usize,
            /// Inclusive upper bound.
            max: usize,
        }

        impl From<Range<usize>> for SizeRange {
            fn from(r: Range<usize>) -> Self {
                assert!(r.start < r.end, "empty size range");
                SizeRange {
                    min: r.start,
                    max: r.end - 1,
                }
            }
        }

        impl From<RangeInclusive<usize>> for SizeRange {
            fn from(r: RangeInclusive<usize>) -> Self {
                assert!(r.start() <= r.end(), "empty size range");
                SizeRange {
                    min: *r.start(),
                    max: *r.end(),
                }
            }
        }

        impl From<usize> for SizeRange {
            fn from(n: usize) -> Self {
                SizeRange { min: n, max: n }
            }
        }

        /// `Vec`s of `element` values with a length drawn from `size`.
        pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
            VecStrategy {
                element,
                size: size.into(),
            }
        }

        /// The [`vec()`] strategy.
        pub struct VecStrategy<S> {
            element: S,
            size: SizeRange,
        }

        impl<S: Strategy> Strategy for VecStrategy<S>
        where
            S::Value: Debug,
        {
            type Value = Vec<S::Value>;
            fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
                let span = (self.size.max - self.size.min) as u64;
                let len = self.size.min + rng.below(span + 1) as usize;
                (0..len).map(|_| self.element.sample(rng)).collect()
            }
        }
    }

    /// Boolean strategies (`prop::bool`).
    pub mod bool {
        /// Any boolean.
        pub const ANY: super::super::Any<bool> = super::super::Any(std::marker::PhantomData);
    }

    /// Sampling strategies (`prop::sample`).
    pub mod sample {
        use super::{Debug, Strategy, TestRng};

        /// Uniform choice among the given values.
        pub fn select<T: Clone + Debug>(options: Vec<T>) -> Select<T> {
            assert!(!options.is_empty(), "select needs at least one option");
            Select { options }
        }

        /// The [`select`] strategy.
        #[derive(Debug, Clone)]
        pub struct Select<T> {
            options: Vec<T>,
        }

        impl<T: Clone + Debug> Strategy for Select<T> {
            type Value = T;
            fn sample(&self, rng: &mut TestRng) -> T {
                let i = rng.below(self.options.len() as u64) as usize;
                self.options[i].clone()
            }
        }
    }
}

/// Everything the workspace's tests import (mirrors
/// `proptest::prelude::*`).
pub mod prelude {
    pub use crate::strategies as prop;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, Any, BoxedStrategy,
        Just, ProptestConfig, Strategy, TestRng,
    };
}

/// Asserts a condition inside a property (panics with the formatted
/// message on failure; no shrinking).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)*) => { assert!($cond, $($fmt)*) };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => { assert_eq!($left, $right) };
    ($left:expr, $right:expr, $($fmt:tt)*) => { assert_eq!($left, $right, $($fmt)*) };
}

/// Asserts inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => { assert_ne!($left, $right) };
    ($left:expr, $right:expr, $($fmt:tt)*) => { assert_ne!($left, $right, $($fmt)*) };
}

/// Uniform choice among strategy arms with a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::Union::new(vec![
            $($crate::Strategy::boxed($strategy)),+
        ])
    };
}

/// Declares property tests: each `fn name(arg in strategy, …) { body }`
/// becomes a `#[test]` running `config.cases` sampled cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($config) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($config:expr)
      $(
        $(#[$meta:meta])*
        fn $name:ident ( $($arg:ident in $strategy:expr),+ $(,)? ) $body:block
      )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $config;
                let mut rng = $crate::TestRng::from_name(concat!(module_path!(), "::", stringify!($name)));
                for case in 0..config.cases {
                    $(let $arg = $crate::Strategy::sample(&($strategy), &mut rng);)+
                    let mut inputs = String::new();
                    $(inputs.push_str(&format!(
                        "  {} = {:?}\n", stringify!($arg), &$arg,
                    ));)+
                    let result = ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(move || {
                        $body
                    }));
                    if let Err(cause) = result {
                        eprintln!(
                            "proptest case {}/{} of `{}` failed with inputs:\n{}",
                            case + 1, config.cases, stringify!($name), inputs,
                        );
                        ::std::panic::resume_unwind(cause);
                    }
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_sample_in_bounds() {
        let mut rng = TestRng::from_name("ranges");
        for _ in 0..1_000 {
            let x = (5u64..10).sample(&mut rng);
            assert!((5..10).contains(&x));
            let y = (3u32..=3).sample(&mut rng);
            assert_eq!(y, 3);
        }
    }

    #[test]
    fn vec_strategy_respects_size() {
        let mut rng = TestRng::from_name("vecs");
        let strategy = prop::collection::vec(0u64..100, 2..=5);
        for _ in 0..500 {
            let v = strategy.sample(&mut rng);
            assert!((2..=5).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 100));
        }
    }

    #[test]
    fn oneof_uses_every_arm() {
        let mut rng = TestRng::from_name("oneof");
        let strategy = prop_oneof![(0u64..1).prop_map(|_| "a"), (0u64..1).prop_map(|_| "b"),];
        let mut seen = (false, false);
        for _ in 0..200 {
            match strategy.sample(&mut rng) {
                "a" => seen.0 = true,
                _ => seen.1 = true,
            }
        }
        assert!(seen.0 && seen.1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The macro itself: sampled args are in range, maps compose.
        #[test]
        fn macro_end_to_end(
            xs in prop::collection::vec(1u64..50, 1..20),
            flip in any::<bool>(),
            pick in prop::sample::select(vec![2u64, 4, 8]),
        ) {
            prop_assert!(!xs.is_empty());
            prop_assert!(xs.iter().all(|&x| (1..50).contains(&x)));
            prop_assert!(pick == 2 || pick == 4 || pick == 8);
            let _ = flip;
        }
    }
}
