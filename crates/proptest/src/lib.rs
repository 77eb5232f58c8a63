//! Vendored, dependency-free stand-in for the
//! [`proptest`](https://crates.io/crates/proptest) crate.
//!
//! The build environment has no access to crates.io, so this workspace
//! vendors the subset of the proptest 1.x API its tests use: the
//! [`Strategy`] trait with `prop_map` / `prop_filter` / `prop_recursive`,
//! [`Just`], ranges and regex-like string patterns as strategies, tuples,
//! [`collection::vec`] / [`collection::btree_set`], [`option::of`],
//! `prop_oneof!`, `any::<T>()`, and the [`proptest!`] test macro with
//! `prop_assert!` / `prop_assert_eq!` / `prop_assume!`.
//!
//! Differences from upstream: cases are generated from a seed derived from
//! the test name (fully deterministic run-to-run), and failing cases are
//! reported but **not shrunk**. That trade-off keeps the vendored crate
//! small while preserving what the workspace relies on: broad randomized
//! coverage with reproducible failures.

#![forbid(unsafe_code)]

use std::marker::PhantomData;
use std::ops::Range;
use std::rc::Rc;

// ---------------------------------------------------------------------------
// Test RNG
// ---------------------------------------------------------------------------

/// Deterministic generator driving all value generation (xoshiro256++).
#[derive(Debug, Clone)]
pub struct TestRng {
    s: [u64; 4],
}

impl TestRng {
    /// Builds the RNG for a named test: the seed is a hash of the name, so
    /// every run of the same test explores the same cases.
    pub fn seed_for(name: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        let mut x = h;
        let mut next = move || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        TestRng {
            s: [next(), next(), next(), next()],
        }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform draw from `[0, bound)` (`bound` must be nonzero).
    pub fn below(&mut self, bound: u64) -> u64 {
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

// ---------------------------------------------------------------------------
// Errors & config
// ---------------------------------------------------------------------------

/// Why a generated test case did not pass.
#[derive(Debug, Clone)]
pub enum TestCaseError {
    /// The case was rejected (e.g. by `prop_assume!`); another is generated.
    Reject(String),
    /// The property failed for this case.
    Fail(String),
}

impl TestCaseError {
    /// A failure with the given message.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError::Fail(msg.into())
    }

    /// A rejection with the given reason.
    pub fn reject(msg: impl Into<String>) -> Self {
        TestCaseError::Reject(msg.into())
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TestCaseError::Reject(m) => write!(f, "rejected: {m}"),
            TestCaseError::Fail(m) => write!(f, "failed: {m}"),
        }
    }
}

/// Runner configuration (only the case count is honoured).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of passing cases required.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

impl ProptestConfig {
    /// A config requiring `cases` passing cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// Drives one property: generates and checks cases until `config.cases`
/// pass, a case fails (panics with the message), or too many are rejected.
pub fn run_proptest<F>(config: ProptestConfig, name: &str, mut case: F)
where
    F: FnMut(&mut TestRng) -> Result<(), TestCaseError>,
{
    let mut rng = TestRng::seed_for(name);
    let mut passed = 0u32;
    let mut rejected = 0u32;
    while passed < config.cases {
        match case(&mut rng) {
            Ok(()) => passed += 1,
            Err(TestCaseError::Reject(_)) => {
                rejected += 1;
                assert!(
                    rejected <= config.cases.saturating_mul(16) + 100,
                    "proptest `{name}`: too many rejected cases ({rejected})"
                );
            }
            Err(TestCaseError::Fail(msg)) => {
                panic!("proptest `{name}` failed after {passed} passing case(s): {msg}")
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Strategy core
// ---------------------------------------------------------------------------

/// A recipe for generating values of `Self::Value`.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Generates one value.
    fn gen_value(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<T, F: Fn(Self::Value) -> T>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Keeps only values satisfying `pred` (regenerating otherwise).
    fn prop_filter<F: Fn(&Self::Value) -> bool>(
        self,
        reason: impl Into<String>,
        pred: F,
    ) -> Filter<Self, F>
    where
        Self: Sized,
    {
        Filter {
            inner: self,
            reason: reason.into(),
            pred,
        }
    }

    /// Builds recursive structures: `self` generates leaves and `branch`
    /// wraps an inner strategy into one more level, up to `depth` levels.
    /// The size hints of upstream proptest are accepted and ignored.
    fn prop_recursive<R, F>(
        self,
        depth: u32,
        _desired_size: u32,
        _expected_branch_size: u32,
        branch: F,
    ) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
        R: Strategy<Value = Self::Value> + 'static,
        F: Fn(BoxedStrategy<Self::Value>) -> R,
    {
        let mut strat = self.boxed();
        for _ in 0..depth {
            let deeper = branch(strat.clone()).boxed();
            strat = Union::new(vec![strat, deeper]).boxed();
        }
        strat
    }

    /// Erases the concrete strategy type (cheaply clonable).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Rc::new(self))
    }
}

trait DynStrategy<T> {
    fn gen_dyn(&self, rng: &mut TestRng) -> T;
}

impl<S: Strategy> DynStrategy<S::Value> for S {
    fn gen_dyn(&self, rng: &mut TestRng) -> S::Value {
        self.gen_value(rng)
    }
}

/// A type-erased, clonable strategy.
pub struct BoxedStrategy<T>(Rc<dyn DynStrategy<T>>);

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy(Rc::clone(&self.0))
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn gen_value(&self, rng: &mut TestRng) -> T {
        self.0.gen_dyn(rng)
    }
}

/// Always generates a clone of the wrapped value.
#[derive(Debug, Clone)]
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn gen_value(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, T, F: Fn(S::Value) -> T> Strategy for Map<S, F> {
    type Value = T;
    fn gen_value(&self, rng: &mut TestRng) -> T {
        (self.f)(self.inner.gen_value(rng))
    }
}

/// See [`Strategy::prop_filter`].
pub struct Filter<S, F> {
    inner: S,
    reason: String,
    pred: F,
}

impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
    type Value = S::Value;
    fn gen_value(&self, rng: &mut TestRng) -> S::Value {
        for _ in 0..1_000 {
            let v = self.inner.gen_value(rng);
            if (self.pred)(&v) {
                return v;
            }
        }
        panic!("prop_filter gave up after 1000 tries: {}", self.reason)
    }
}

/// Uniform choice between several strategies (`prop_oneof!`).
pub struct Union<T>(Vec<BoxedStrategy<T>>);

impl<T> Union<T> {
    /// Builds a union over the given (non-empty) alternatives.
    pub fn new(alts: Vec<BoxedStrategy<T>>) -> Self {
        assert!(!alts.is_empty(), "prop_oneof! needs at least one arm");
        Union(alts)
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn gen_value(&self, rng: &mut TestRng) -> T {
        let i = rng.below(self.0.len() as u64) as usize;
        self.0[i].gen_value(rng)
    }
}

// ---------------------------------------------------------------------------
// Primitive strategies: ranges, strings, tuples, any
// ---------------------------------------------------------------------------

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn gen_value(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start.wrapping_add(rng.below(span) as $t)
            }
        }
    )*};
}
int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn gen_value(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + (self.end - self.start) * rng.unit_f64()
    }
}

impl Strategy for Range<f32> {
    type Value = f32;
    fn gen_value(&self, rng: &mut TestRng) -> f32 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + (self.end - self.start) * rng.unit_f64() as f32
    }
}

/// One parsed element of a string pattern: a character class repeated
/// between `min` and `max` times.
struct PatternElem {
    /// Inclusive char ranges; a literal is a single-char range.
    ranges: Vec<(char, char)>,
    min: u32,
    max: u32,
}

/// Parses the regex subset the workspace's patterns use: literals,
/// `[...]` classes with `a-z` ranges (a `-` first or last is literal), and
/// `{n}` / `{m,n}` repetition.
fn parse_pattern(pat: &str) -> Vec<PatternElem> {
    let chars: Vec<char> = pat.chars().collect();
    let mut elems = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        let ranges = if chars[i] == '[' {
            let mut ranges = Vec::new();
            i += 1;
            while i < chars.len() && chars[i] != ']' {
                let c = chars[i];
                if i + 2 < chars.len() && chars[i + 1] == '-' && chars[i + 2] != ']' {
                    ranges.push((c, chars[i + 2]));
                    i += 3;
                } else {
                    ranges.push((c, c));
                    i += 1;
                }
            }
            assert!(i < chars.len(), "unterminated class in pattern `{pat}`");
            i += 1; // past ']'
            ranges
        } else {
            let c = chars[i];
            i += 1;
            vec![(c, c)]
        };
        let (min, max) = if i < chars.len() && chars[i] == '{' {
            let close = chars[i..]
                .iter()
                .position(|&c| c == '}')
                .expect("unterminated repetition")
                + i;
            let body: String = chars[i + 1..close].iter().collect();
            i = close + 1;
            match body.split_once(',') {
                Some((lo, hi)) => (
                    lo.trim().parse().expect("bad repetition lower bound"),
                    hi.trim().parse().expect("bad repetition upper bound"),
                ),
                None => {
                    let n = body.trim().parse().expect("bad repetition count");
                    (n, n)
                }
            }
        } else {
            (1, 1)
        };
        elems.push(PatternElem { ranges, min, max });
    }
    elems
}

fn gen_from_class(ranges: &[(char, char)], rng: &mut TestRng) -> char {
    let total: u64 = ranges
        .iter()
        .map(|&(a, b)| (b as u64) - (a as u64) + 1)
        .sum();
    let mut k = rng.below(total);
    for &(a, b) in ranges {
        let span = (b as u64) - (a as u64) + 1;
        if k < span {
            return char::from_u32(a as u32 + k as u32).expect("valid char");
        }
        k -= span;
    }
    unreachable!("class sampling out of bounds")
}

impl Strategy for &'static str {
    type Value = String;
    fn gen_value(&self, rng: &mut TestRng) -> String {
        let mut out = String::new();
        for elem in parse_pattern(self) {
            let span = (elem.max - elem.min + 1) as u64;
            let n = elem.min + rng.below(span) as u32;
            for _ in 0..n {
                out.push(gen_from_class(&elem.ranges, rng));
            }
        }
        out
    }
}

macro_rules! tuple_strategy {
    ($(($($s:ident $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn gen_value(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.gen_value(rng),)+)
            }
        }
    )*};
}
tuple_strategy! {
    (S0 0)
    (S0 0, S1 1)
    (S0 0, S1 1, S2 2)
    (S0 0, S1 1, S2 2, S3 3)
    (S0 0, S1 1, S2 2, S3 3, S4 4)
    (S0 0, S1 1, S2 2, S3 3, S4 4, S5 5)
}

/// Types with a canonical full-domain strategy (`any::<T>()`).
pub trait Arbitrary: Sized {
    /// Generates an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for u128 {
    fn arbitrary(rng: &mut TestRng) -> u128 {
        ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128
    }
}

macro_rules! arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> f64 {
        // Finite, broadly ranged values (upstream `any::<f64>()` includes
        // specials; the workspace never relies on them).
        (rng.unit_f64() - 0.5) * 2e12
    }
}

/// The strategy returned by [`any`].
pub struct Any<T>(PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn gen_value(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// A strategy over the whole domain of `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

// ---------------------------------------------------------------------------
// Collection & option strategies
// ---------------------------------------------------------------------------

/// Strategies for collections (mirrors `proptest::collection`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::collections::BTreeSet;
    use std::ops::Range;

    /// Generates a `Vec` with a length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn gen_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.end - self.size.start).max(1) as u64;
            let n = self.size.start + rng.below(span) as usize;
            (0..n).map(|_| self.element.gen_value(rng)).collect()
        }
    }

    /// Generates a `BTreeSet` whose size is drawn from `size` (best-effort:
    /// if the element domain is too small the set may come out smaller).
    pub fn btree_set<S>(element: S, size: Range<usize>) -> BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        BTreeSetStrategy { element, size }
    }

    /// See [`btree_set`].
    pub struct BTreeSetStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    impl<S> Strategy for BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;
        fn gen_value(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
            let span = (self.size.end - self.size.start).max(1) as u64;
            let target = self.size.start + rng.below(span) as usize;
            let mut out = BTreeSet::new();
            let mut tries = 0;
            while out.len() < target && tries < target * 10 + 16 {
                out.insert(self.element.gen_value(rng));
                tries += 1;
            }
            out
        }
    }
}

/// Strategies for `Option` (mirrors `proptest::option`).
pub mod option {
    use super::{Strategy, TestRng};

    /// Generates `Some` three times out of four, else `None`.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    /// See [`of`].
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn gen_value(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.below(4) == 0 {
                None
            } else {
                Some(self.inner.gen_value(rng))
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------------

/// Uniformly picks one of several strategies with a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($alt:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($alt)),+])
    };
}

/// Fails the current case unless the condition holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// Fails the current case unless both sides compare equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{}` == `{}`\n  left: {:?}\n right: {:?}",
                stringify!($left),
                stringify!($right),
                l,
                r
            )));
        }
    }};
}

/// Rejects (skips) the current case unless the assumption holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::reject(stringify!($cond)));
        }
    };
}

/// Declares property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running [`run_proptest`] over generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($cfg:expr); $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            $crate::run_proptest($cfg, stringify!($name), |__proptest_rng| {
                $(let $arg = $crate::Strategy::gen_value(&($strat), __proptest_rng);)+
                let mut __proptest_case =
                    move || -> ::std::result::Result<(), $crate::TestCaseError> {
                        $body
                        #[allow(unreachable_code)]
                        ::std::result::Result::Ok(())
                    };
                __proptest_case()
            });
        }
    )*};
}

/// Everything a test file normally imports.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assume, prop_oneof, proptest, Arbitrary,
        BoxedStrategy, Just, ProptestConfig, Strategy, TestCaseError,
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn pattern_generation_matches_shape() {
        let mut rng = crate::TestRng::seed_for("pattern");
        for _ in 0..200 {
            let s = crate::Strategy::gen_value(&"[a-z]{1,6}", &mut rng);
            assert!((1..=6).contains(&s.len()), "`{s}`");
            assert!(s.chars().all(|c| c.is_ascii_lowercase()));

            let t = crate::Strategy::gen_value(&"[A-Za-z_][A-Za-z0-9_]{0,8}", &mut rng);
            assert!(!t.is_empty() && t.len() <= 9);
            let first = t.chars().next().unwrap();
            assert!(first.is_ascii_alphabetic() || first == '_');

            let u = crate::Strategy::gen_value(&"[A-Za-z0-9 ._-]{0,16}", &mut rng);
            assert!(u.len() <= 16);
            assert!(u
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || " ._-".contains(c)));
        }
    }

    #[test]
    fn deterministic_per_test_name() {
        let strat = crate::collection::vec(0i32..100, 0..10);
        let mut a = crate::TestRng::seed_for("x");
        let mut b = crate::TestRng::seed_for("x");
        for _ in 0..50 {
            assert_eq!(strat.gen_value(&mut a), strat.gen_value(&mut b));
        }
    }

    #[test]
    #[should_panic(expected = "failed after")]
    fn failing_property_panics() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(10))]
            #[allow(unused)]
            fn always_fails(x in 0u32..10) {
                prop_assert!(x > 100, "x was {}", x);
            }
        }
        always_fails();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_in_bounds(x in -50i32..50, y in 0usize..9) {
            prop_assert!((-50..50).contains(&x));
            prop_assert!(y < 9);
        }

        #[test]
        fn assume_skips(x in 0u32..100) {
            prop_assume!(x % 2 == 0);
            prop_assert_eq!(x % 2, 0);
        }

        #[test]
        fn oneof_and_map(v in prop_oneof![Just(1u32), Just(2u32), 10u32..20]) {
            prop_assert!(v == 1 || v == 2 || (10..20).contains(&v));
        }

        #[test]
        fn recursive_terminates(depth_probe in recursive_depth()) {
            prop_assert!(depth_probe <= 5);
        }
    }

    fn recursive_depth() -> impl Strategy<Value = u32> {
        Just(0u32).prop_recursive(5, 16, 2, |inner| inner.prop_map(|d| d + 1))
    }
}
