//! Minimal, fully offline property-testing harness with a `proptest`-shaped
//! surface.
//!
//! The workspace's property tests were written against the crates.io
//! `proptest` crate; this package provides the subset of that API they use so
//! the suite builds and runs without network access. It is aliased to the
//! `proptest` dependency name in the workspace manifest.
//!
//! Supported surface:
//!
//! * the [`proptest!`] macro (with an optional
//!   `#![proptest_config(ProptestConfig::with_cases(n))]` header);
//! * [`prop_assert!`] / [`prop_assert_eq!`];
//! * [`Strategy`] with [`Strategy::prop_map`], implemented for numeric
//!   ranges, `&str` regex-lite patterns (`[class]{lo,hi}` sequences), tuples
//!   up to arity 5, and the combinators in [`prop`]
//!   (`collection::vec`, `collection::hash_set`, `sample::select`,
//!   `bool::ANY`).
//!
//! Unlike real proptest there is no shrinking: failures report the panic from
//! the failing case directly. Generation is deterministic per test name, so a
//! red test stays red until the code changes.

#![expect(
    clippy::panic,
    clippy::expect_used,
    clippy::disallowed_types,
    reason = "a proptest stand-in: panicking is how it reports a bad strategy, and `hash_set` mirrors proptest's HashSet API"
)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The RNG driving generation (re-exported for the macro's use).
pub type TestRng = StdRng;

/// Deterministic per-test generator: seeded from the test's name.
pub fn test_rng(test_name: &str) -> TestRng {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in test_name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    StdRng::seed_from_u64(h)
}

/// Run-time configuration for a `proptest!` block.
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` generated inputs per test.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        ProptestConfig { cases: 64 }
    }
}

/// A generator of values for property tests.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Generate one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Map generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }
}

/// The strategy returned by [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),* $(,)?) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for core::ops::Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        rng.gen_range(self.clone())
    }
}

/// `&str` strategies interpret the string as a regex-lite pattern: a sequence
/// of literal characters and `[class]` groups, each optionally followed by a
/// `{lo,hi}` repetition. Classes support literal characters and `a-z` ranges.
impl Strategy for &str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        generate_pattern(self, rng)
    }
}

fn generate_pattern(pattern: &str, rng: &mut TestRng) -> String {
    let chars: Vec<char> = pattern.chars().collect();
    let mut out = String::new();
    let mut i = 0;
    while i < chars.len() {
        // One atom: a class or a literal character.
        let alphabet: Vec<char> = if chars[i] == '[' {
            let close = chars[i..]
                .iter()
                .position(|&c| c == ']')
                .unwrap_or_else(|| panic!("unclosed [ in pattern {pattern:?}"))
                + i;
            let class = expand_class(&chars[i + 1..close], pattern);
            i = close + 1;
            class
        } else {
            let c = chars[i];
            i += 1;
            vec![c]
        };
        // Optional {lo,hi} repetition.
        let (lo, hi) = if i < chars.len() && chars[i] == '{' {
            let close = chars[i..]
                .iter()
                .position(|&c| c == '}')
                .unwrap_or_else(|| panic!("unclosed {{ in pattern {pattern:?}"))
                + i;
            let body: String = chars[i + 1..close].iter().collect();
            i = close + 1;
            match body.split_once(',') {
                Some((lo, hi)) => (
                    lo.trim().parse().expect("repeat lower bound"),
                    hi.trim().parse().expect("repeat upper bound"),
                ),
                None => {
                    let n: usize = body.trim().parse().expect("repeat count");
                    (n, n)
                }
            }
        } else {
            (1, 1)
        };
        let n = rng.gen_range(lo..=hi);
        for _ in 0..n {
            out.push(alphabet[rng.gen_range(0..alphabet.len())]);
        }
    }
    out
}

fn expand_class(class: &[char], pattern: &str) -> Vec<char> {
    assert!(!class.is_empty(), "empty character class in {pattern:?}");
    let mut out = Vec::new();
    let mut i = 0;
    while i < class.len() {
        if i + 2 < class.len() && class[i + 1] == '-' {
            let (lo, hi) = (class[i] as u32, class[i + 2] as u32);
            assert!(lo <= hi, "inverted class range in {pattern:?}");
            out.extend((lo..=hi).filter_map(char::from_u32));
            i += 3;
        } else {
            out.push(class[i]);
            i += 1;
        }
    }
    out
}

macro_rules! impl_tuple_strategy {
    ($(($($s:ident . $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy! {
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
}

/// Built-in strategy constructors, mirroring proptest's `prop` module tree.
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use crate::{Strategy, TestRng};
        use rand::Rng;

        /// Strategy for `Vec<S::Value>` with a length drawn from `size`.
        pub fn vec<S: Strategy>(element: S, size: core::ops::Range<usize>) -> VecStrategy<S> {
            VecStrategy { element, size }
        }

        /// See [`vec()`].
        #[derive(Debug, Clone)]
        pub struct VecStrategy<S> {
            element: S,
            size: core::ops::Range<usize>,
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let n = rng.gen_range(self.size.clone());
                (0..n).map(|_| self.element.generate(rng)).collect()
            }
        }

        /// Strategy for `HashSet<S::Value>` targeting a size drawn from
        /// `size` (fewer elements are possible when the element space is
        /// small, matching proptest's behaviour).
        pub fn hash_set<S>(element: S, size: core::ops::Range<usize>) -> HashSetStrategy<S>
        where
            S: Strategy,
            S::Value: std::hash::Hash + Eq,
        {
            HashSetStrategy { element, size }
        }

        /// See [`hash_set`].
        #[derive(Debug, Clone)]
        pub struct HashSetStrategy<S> {
            element: S,
            size: core::ops::Range<usize>,
        }

        impl<S> Strategy for HashSetStrategy<S>
        where
            S: Strategy,
            S::Value: std::hash::Hash + Eq,
        {
            type Value = std::collections::HashSet<S::Value>;
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let target = rng.gen_range(self.size.clone());
                let mut out = std::collections::HashSet::with_capacity(target);
                // Bounded attempts: tiny element domains can't fill `target`.
                for _ in 0..target.saturating_mul(20).max(20) {
                    if out.len() >= target {
                        break;
                    }
                    out.insert(self.element.generate(rng));
                }
                out
            }
        }
    }

    /// Sampling from explicit value sets.
    pub mod sample {
        use crate::{Strategy, TestRng};
        use rand::Rng;

        /// Strategy drawing uniformly from `options` (must be non-empty).
        pub fn select<T: Clone>(options: Vec<T>) -> Select<T> {
            assert!(!options.is_empty(), "select from empty options");
            Select { options }
        }

        /// See [`select`].
        #[derive(Debug, Clone)]
        pub struct Select<T> {
            options: Vec<T>,
        }

        impl<T: Clone> Strategy for Select<T> {
            type Value = T;
            fn generate(&self, rng: &mut TestRng) -> T {
                self.options[rng.gen_range(0..self.options.len())].clone()
            }
        }
    }

    /// Boolean strategies.
    pub mod bool {
        use crate::{Strategy, TestRng};
        use rand::Rng;

        /// Uniform boolean strategy.
        #[derive(Debug, Clone, Copy)]
        pub struct Any;

        /// The uniform boolean strategy value.
        pub const ANY: Any = Any;

        impl Strategy for Any {
            type Value = bool;
            fn generate(&self, rng: &mut TestRng) -> bool {
                rng.gen_bool(0.5)
            }
        }
    }
}

/// Everything a property-test file needs.
pub mod prelude {
    pub use crate::prop;
    pub use crate::{prop_assert, prop_assert_eq, proptest};
    pub use crate::{ProptestConfig, Strategy};
}

/// Assert inside a property test (no shrinking: plain `assert!`).
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// Assert equality inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// Define property tests: each `#[test] fn name(arg in strategy, ..) { .. }`
/// becomes a standard test running `config.cases` generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($cfg:expr) $( #[test] fn $name:ident ( $($arg:ident in $strat:expr),* $(,)? ) $body:block )* ) => {
        $(
            #[test]
            fn $name() {
                let __config: $crate::ProptestConfig = $cfg;
                let mut __rng = $crate::test_rng(concat!(module_path!(), "::", stringify!($name)));
                for __case in 0..__config.cases {
                    let __case: u32 = __case;
                    $(let $arg = $crate::Strategy::generate(&($strat), &mut __rng);)*
                    $body
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn patterns_generate_within_spec() {
        let mut rng = super::test_rng("patterns");
        for _ in 0..200 {
            let s = super::Strategy::generate(&"[a-z][a-z0-9]{0,10}", &mut rng);
            assert!((1..=11).contains(&s.len()), "{s:?}");
            assert!(s.chars().next().unwrap().is_ascii_lowercase());
            assert!(s
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit()));
            let p = super::Strategy::generate(&"[ -~]{0,24}", &mut rng);
            assert!(p.len() <= 24);
            assert!(p.chars().all(|c| (' '..='~').contains(&c)));
        }
    }

    #[test]
    fn generation_is_deterministic_per_name() {
        let mut a = super::test_rng("x");
        let mut b = super::test_rng("x");
        let strat = prop::collection::vec(0u64..100, 1..10);
        for _ in 0..20 {
            assert_eq!(
                super::Strategy::generate(&strat, &mut a),
                super::Strategy::generate(&strat, &mut b)
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn macro_binds_arguments(x in 0u32..50, pair in (0usize..4, "[a-z]{1,3}")) {
            prop_assert!(x < 50);
            prop_assert!(pair.0 < 4);
            prop_assert!((1..=3).contains(&pair.1.len()));
        }

        #[test]
        fn prop_map_and_select_compose(
            name in (prop::collection::vec("[a-z]{1,4}", 1..4), prop::sample::select(vec!["com", "net"]))
                .prop_map(|(labels, tld)| format!("{}.{}", labels.join("."), tld)),
            flag in prop::bool::ANY,
        ) {
            prop_assert!(name.ends_with(".com") || name.ends_with(".net"));
            let _ = flag;
        }
    }
}
