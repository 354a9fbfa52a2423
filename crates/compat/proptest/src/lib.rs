//! A minimal, offline stand-in for the
//! [proptest](https://crates.io/crates/proptest) property-testing
//! framework.
//!
//! This workspace builds with no network access and no registry cache, so
//! the real crate cannot be fetched. The shim implements the subset the
//! workspace's property tests use:
//!
//! * [`Strategy`] with `prop_map` / `prop_flat_map` / `boxed`
//! * numeric range strategies (`0u64..500`, `1usize..=8`, `-1.0f32..1.0`),
//!   [`any`], [`Just`], tuple strategies, [`collection::vec`], and
//!   character-class string patterns (`"[a-z]{1,12}"`)
//! * the [`proptest!`], [`prop_oneof!`], [`prop_assert!`] and
//!   [`prop_assert_eq!`] macros and [`ProptestConfig::with_cases`]
//!
//! Cases are generated from a deterministic per-test RNG (seeded from the
//! test's name and case index), so failures reproduce exactly on re-run.
//! There is no shrinking: the failing case's number is reported instead.

#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

/// Everything a test file needs, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_oneof, proptest, BoxedStrategy, Just,
        ProptestConfig, Strategy, TestCaseError,
    };
}

/// Per-`proptest!` configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to run per test.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 64 }
    }
}

impl ProptestConfig {
    /// A config running `cases` cases per test.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

/// A failed property inside a [`proptest!`] body.
#[derive(Debug)]
pub struct TestCaseError {
    message: String,
}

impl TestCaseError {
    /// Creates a failure with the given message.
    pub fn fail(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

/// Deterministic per-test random source (xorshift64*).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seeds the RNG for one test case from the test's name and the case
    /// index, so every case is reproducible.
    pub fn for_case(test_name: &str, case: u64) -> Self {
        // FNV-1a over the name, mixed with the case index.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in test_name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        let mut state = h ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        if state == 0 {
            state = 0x853c_49e6_748f_ea9b;
        }
        Self { state }
    }

    /// Next raw 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform index in `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index over an empty set");
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A source of random values for one test-case argument.
///
/// Unlike real proptest there is no shrinking tree: a strategy is just a
/// deterministic function of the [`TestRng`].
pub trait Strategy {
    /// The type of value this strategy produces.
    type Value;

    /// Draws one value.
    fn new_value(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Generates a value, then draws from the strategy `f` builds from it.
    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { inner: self, f }
    }

    /// Erases the strategy's type (used by [`prop_oneof!`]).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Box::new(move |rng| self.new_value(rng)))
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, O> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;

    fn new_value(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.new_value(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S, F, S2> Strategy for FlatMap<S, F>
where
    S: Strategy,
    S2: Strategy,
    F: Fn(S::Value) -> S2,
{
    type Value = S2::Value;

    fn new_value(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.inner.new_value(rng)).new_value(rng)
    }
}

/// A type-erased strategy; see [`Strategy::boxed`].
pub struct BoxedStrategy<V>(Box<dyn Fn(&mut TestRng) -> V>);

impl<V> Strategy for BoxedStrategy<V> {
    type Value = V;

    fn new_value(&self, rng: &mut TestRng) -> V {
        (self.0)(rng)
    }
}

/// Uniform choice between type-erased strategies; built by [`prop_oneof!`].
pub struct Union<V> {
    arms: Vec<BoxedStrategy<V>>,
}

impl<V> Union<V> {
    /// Creates a union over `arms`.
    ///
    /// # Panics
    ///
    /// Panics if `arms` is empty.
    pub fn new(arms: Vec<BoxedStrategy<V>>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! with no arms");
        Self { arms }
    }
}

impl<V> Strategy for Union<V> {
    type Value = V;

    fn new_value(&self, rng: &mut TestRng) -> V {
        let arm = rng.index(self.arms.len());
        self.arms[arm].new_value(rng)
    }
}

/// Always produces a clone of the given value.
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn new_value(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn new_value(&self, rng: &mut TestRng) -> $t {
                let lo = self.start as i128;
                let hi = self.end as i128;
                assert!(lo < hi, "empty range strategy {lo}..{hi}");
                let width = (hi - lo) as u128;
                (lo + (rng.next_u64() as u128 % width) as i128) as $t
            }
        }

        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            fn new_value(&self, rng: &mut TestRng) -> $t {
                let lo = *self.start() as i128;
                let hi = *self.end() as i128;
                assert!(lo <= hi, "empty range strategy {lo}..={hi}");
                let width = (hi - lo + 1) as u128;
                (lo + (rng.next_u64() as u128 % width) as i128) as $t
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn new_value(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let v = self.start
                    + (rng.unit_f64() as $t) * (self.end - self.start);
                // Guard against rounding up to the excluded endpoint.
                if v >= self.end { self.start } else { v }
            }
        }
    )*};
}

float_range_strategy!(f32, f64);

/// Marker returned by [`any`]; produces uniformly random values of `T`.
pub struct Any<T>(std::marker::PhantomData<T>);

/// The canonical strategy for an arbitrary `T` (mirrors `proptest::any`).
pub fn any<T>() -> Any<T>
where
    Any<T>: Strategy<Value = T>,
{
    Any(std::marker::PhantomData)
}

impl Strategy for Any<bool> {
    type Value = bool;

    fn new_value(&self, rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! any_int_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Any<$t> {
            type Value = $t;

            fn new_value(&self, rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

any_int_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// `&str` patterns act as strategies for matching strings. The shim
/// supports the character-class-with-repetition subset the workspace uses:
/// sequences of `[class]{min,max}`, `[class]{n}`, `[class]` or literal
/// characters, where a class may contain ranges (`a-z`) and literals.
impl Strategy for &str {
    type Value = String;

    fn new_value(&self, rng: &mut TestRng) -> String {
        generate_from_pattern(self, rng)
    }
}

fn generate_from_pattern(pattern: &str, rng: &mut TestRng) -> String {
    let chars: Vec<char> = pattern.chars().collect();
    let mut out = String::new();
    let mut i = 0;
    while i < chars.len() {
        let mut options = Vec::new();
        if chars[i] == '[' {
            i += 1;
            while i < chars.len() && chars[i] != ']' {
                let c1 = chars[i];
                if i + 2 < chars.len() && chars[i + 1] == '-' && chars[i + 2] != ']' {
                    let c2 = chars[i + 2];
                    for code in (c1 as u32)..=(c2 as u32) {
                        if let Some(c) = char::from_u32(code) {
                            options.push(c);
                        }
                    }
                    i += 3;
                } else {
                    options.push(c1);
                    i += 1;
                }
            }
            i += 1; // closing ']'
        } else {
            options.push(chars[i]);
            i += 1;
        }
        let (min, max) = if i < chars.len() && chars[i] == '{' {
            let mut spec = String::new();
            i += 1;
            while i < chars.len() && chars[i] != '}' {
                spec.push(chars[i]);
                i += 1;
            }
            i += 1; // closing '}'
            match spec.split_once(',') {
                Some((a, b)) => (a.trim().parse().unwrap_or(0), b.trim().parse().unwrap_or(0)),
                None => {
                    let n: usize = spec.trim().parse().unwrap_or(1);
                    (n, n)
                }
            }
        } else {
            (1, 1)
        };
        if options.is_empty() {
            continue;
        }
        let count = min + rng.index(max.saturating_sub(min) + 1);
        for _ in 0..count {
            out.push(options[rng.index(options.len())]);
        }
    }
    out
}

macro_rules! tuple_strategy {
    ($(($($name:ident),+),)*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            #[allow(non_snake_case)]
            fn new_value(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.new_value(rng),)+)
            }
        }
    )*};
}

tuple_strategy! {
    (A),
    (A, B),
    (A, B, C),
    (A, B, C, D),
    (A, B, C, D, E),
    (A, B, C, D, E, F),
}

/// Collection strategies (`proptest::collection`).
pub mod collection {
    use super::{Strategy, TestRng};

    /// An inclusive length range for generated collections; converts from
    /// `usize` (exact), `a..b` and `a..=b` like real proptest's `SizeRange`.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        min: usize,
        max: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            Self { min: n, max: n }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            Self {
                min: r.start,
                max: r.end - 1,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            Self {
                min: *r.start(),
                max: *r.end(),
            }
        }
    }

    /// Generates `Vec`s whose elements come from `element`.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// A strategy for vectors with lengths in `size` (mirrors
    /// `proptest::collection::vec`).
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn new_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.size.min + rng.index(self.size.max - self.size.min + 1);
            (0..len).map(|_| self.element.new_value(rng)).collect()
        }
    }
}

/// Uniform choice between strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($arm)),+])
    };
}

/// Asserts a condition inside a [`proptest!`] body, failing the case (not
/// panicking) so the runner can report the case number.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            return Err($crate::TestCaseError::fail(format!(
                "assertion failed: {}",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Asserts equality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        if !(left == right) {
            return Err($crate::TestCaseError::fail(format!(
                "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
                stringify!($left),
                stringify!($right),
                left,
                right
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$left, &$right);
        if !(left == right) {
            return Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    }};
}

/// Declares property tests. Each `#[test] fn name(arg in strategy, ...)
/// { body }` becomes a test running [`ProptestConfig::cases`] random
/// cases. As in upstream proptest, the caller writes the `#[test]`: the
/// macro passes attributes through and adds none, so each test is
/// registered once.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { $crate::ProptestConfig::default(); $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    ($cfg:expr;) => {};
    ($cfg:expr;
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strategy:expr),* $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __pt_config: $crate::ProptestConfig = $cfg;
            for __pt_case in 0..__pt_config.cases as u64 {
                let mut __pt_rng = $crate::TestRng::for_case(
                    concat!(module_path!(), "::", stringify!($name)),
                    __pt_case,
                );
                $(let $arg = $crate::Strategy::new_value(&($strategy), &mut __pt_rng);)*
                let __pt_result: ::std::result::Result<(), $crate::TestCaseError> =
                    (move || {
                        $body
                        Ok(())
                    })();
                if let Err(e) = __pt_result {
                    panic!(
                        "proptest {} failed at case {}/{}: {}",
                        stringify!($name),
                        __pt_case,
                        __pt_config.cases,
                        e
                    );
                }
            }
        }
        $crate::__proptest_items! { $cfg; $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::TestRng;

    #[test]
    fn int_ranges_respect_bounds() {
        let mut rng = TestRng::for_case("int_ranges", 0);
        for _ in 0..1000 {
            let v = Strategy::new_value(&(3usize..17), &mut rng);
            assert!((3..17).contains(&v));
            let w = Strategy::new_value(&(1usize..=8), &mut rng);
            assert!((1..=8).contains(&w));
        }
    }

    #[test]
    fn float_ranges_respect_bounds() {
        let mut rng = TestRng::for_case("float_ranges", 0);
        for _ in 0..1000 {
            let v = Strategy::new_value(&(-2.5f32..4.0), &mut rng);
            assert!((-2.5..4.0).contains(&v));
        }
    }

    #[test]
    fn patterns_match_their_class_and_length() {
        let mut rng = TestRng::for_case("patterns", 0);
        for _ in 0..200 {
            let s = Strategy::new_value(&"[a-z]{1,12}", &mut rng);
            assert!((1..=12).contains(&s.len()));
            assert!(s.chars().all(|c| c.is_ascii_lowercase()));

            let p = Strategy::new_value(&"[ -~]{0,32}", &mut rng);
            assert!(p.len() <= 32);
            assert!(p.chars().all(|c| (' '..='~').contains(&c)));

            let d = Strategy::new_value(&"[a-z.0-9]{1,16}", &mut rng);
            assert!(d
                .chars()
                .all(|c| c.is_ascii_lowercase() || c == '.' || c.is_ascii_digit()));
        }
    }

    #[test]
    fn vec_and_tuple_strategies_compose() {
        let mut rng = TestRng::for_case("compose", 0);
        let strat = crate::collection::vec((0usize..5, any::<bool>()), 2..6);
        for _ in 0..100 {
            let v = Strategy::new_value(&strat, &mut rng);
            assert!((2..6).contains(&v.len()));
            assert!(v.iter().all(|(n, _)| *n < 5));
        }
        let exact = crate::collection::vec(0u64..10, 7usize);
        assert_eq!(Strategy::new_value(&exact, &mut rng).len(), 7);
    }

    #[test]
    fn oneof_map_and_flat_map_run() {
        let mut rng = TestRng::for_case("oneof", 0);
        let strat = prop_oneof![
            (0usize..3).prop_map(|n| vec![0u8; n]),
            Just(vec![9u8]),
            (1usize..4).prop_flat_map(|n| crate::collection::vec(any::<u8>(), n)),
        ];
        for _ in 0..100 {
            let v = Strategy::new_value(&strat, &mut rng);
            assert!(v.len() <= 4);
        }
    }

    #[test]
    fn cases_are_reproducible() {
        let a: Vec<u64> = (0..5)
            .map(|c| TestRng::for_case("repro", c).next_u64())
            .collect();
        let b: Vec<u64> = (0..5)
            .map(|c| TestRng::for_case("repro", c).next_u64())
            .collect();
        assert_eq!(a, b);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// The macro itself: args bind, asserts work, config is honoured.
        #[allow(clippy::absurd_extreme_comparisons)]
        #[test]
        fn macro_generates_cases(a in 0usize..10, b in "[a-z]{2,4}") {
            prop_assert!(a < 10, "a was {a}");
            prop_assert_eq!(b.len().clamp(2, 4), b.len());
        }
    }
}
