//! Offline shim for the `proptest` crate.
//!
//! The build environment has no crates-registry access, so the workspace
//! wires `proptest` to this std-only shim (see the workspace `Cargo.toml`).
//! It supports the subset of the proptest 1.x surface the workspace's tests
//! use: the [`proptest!`] macro (with optional `#![proptest_config(..)]`),
//! `prop_assert!`/`prop_assert_eq!`, [`prop_oneof!`], range and tuple
//! strategies, `prop_map`, `proptest::collection::{vec, hash_set}`, and
//! `proptest::bool::ANY`.
//!
//! Differences from real proptest, by design:
//!
//! * **No shrinking.** A failing case reports its case number and the
//!   assertion message; inputs are reproducible because generation is fully
//!   deterministic (seeded from the test name and case index).
//! * **Default case count is 64** (env `PROPTEST_CASES` overrides), keeping
//!   offline CI fast. Tests that set `ProptestConfig { cases, .. }` behave
//!   identically.

#![deny(unsafe_code)]

/// Deterministic generator driving all strategies (SplitMix64).
#[derive(Clone, Debug)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Generator for `case` of the test named `name` — deterministic across
    /// runs and independent across tests.
    pub fn for_case(name: &str, case: u32) -> Self {
        // FNV-1a over the test name, mixed with the case index.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        TestRng {
            state: h ^ (case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        }
    }

    /// Next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`. `bound` must be non-zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        self.next_u64() % bound
    }
}

pub mod test_runner {
    //! Test-runner configuration.

    /// Per-test configuration (subset of proptest's `Config`).
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        /// Number of generated cases per test.
        pub cases: u32,
        /// Accepted for source compatibility; shrinking is not implemented.
        pub max_shrink_iters: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            let cases = std::env::var("PROPTEST_CASES")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(64);
            ProptestConfig {
                cases,
                max_shrink_iters: 0,
            }
        }
    }

    impl ProptestConfig {
        /// Config running `cases` cases.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig {
                cases,
                ..Default::default()
            }
        }
    }
}

pub mod strategy {
    //! Value-generation strategies.

    use crate::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// A recipe for generating values of `Self::Value`.
    ///
    /// Object-safe (`prop_map` is `Self: Sized`), so `Box<dyn Strategy>` works
    /// for [`crate::prop_oneof!`].
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;
        fn generate(&self, rng: &mut TestRng) -> S::Value {
            (**self).generate(rng)
        }
    }

    impl<S: Strategy + ?Sized> Strategy for Box<S> {
        type Value = S::Value;
        fn generate(&self, rng: &mut TestRng) -> S::Value {
            (**self).generate(rng)
        }
    }

    /// Strategy that always yields a clone of one value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Result of [`Strategy::prop_map`].
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
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "cannot sample empty range");
                    let span = (self.end as i128 - self.start as i128) as u64;
                    (self.start as i128 + rng.below(span) as i128) as $t
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "cannot sample empty range");
                    let span = (hi as i128 - lo as i128) as u64 + 1;
                    (lo as i128 + rng.below(span) as i128) as $t
                }
            }
        )*};
    }

    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for Range<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "cannot sample empty range");
            let unit = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
            self.start + unit * (self.end - self.start)
        }
    }

    impl Strategy for Range<f32> {
        type Value = f32;
        fn generate(&self, rng: &mut TestRng) -> f32 {
            assert!(self.start < self.end, "cannot sample empty range");
            let unit = (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32);
            self.start + unit * (self.end - self.start)
        }
    }

    macro_rules! impl_tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        };
    }

    impl_tuple_strategy!(A);
    impl_tuple_strategy!(A, B);
    impl_tuple_strategy!(A, B, C);
    impl_tuple_strategy!(A, B, C, D);
    impl_tuple_strategy!(A, B, C, D, E);

    /// Uniform choice between boxed alternatives (backs [`crate::prop_oneof!`]).
    pub struct OneOf<V> {
        alts: Vec<Box<dyn Strategy<Value = V>>>,
    }

    impl<V> OneOf<V> {
        /// Builds from at least one alternative.
        pub fn new(alts: Vec<Box<dyn Strategy<Value = V>>>) -> Self {
            assert!(!alts.is_empty(), "prop_oneof! needs at least one arm");
            OneOf { alts }
        }
    }

    impl<V> Strategy for OneOf<V> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            let i = rng.below(self.alts.len() as u64) as usize;
            self.alts[i].generate(rng)
        }
    }

    /// Coercion helper used by [`crate::prop_oneof!`].
    pub fn boxed<S>(s: S) -> Box<dyn Strategy<Value = S::Value>>
    where
        S: Strategy + 'static,
    {
        Box::new(s)
    }
}

pub mod collection {
    //! Collection strategies.

    use crate::strategy::Strategy;
    use crate::TestRng;
    use std::collections::HashSet;
    use std::hash::Hash;
    use std::ops::Range;

    /// Size specification for collection strategies.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        /// Minimum length (inclusive).
        pub min: usize,
        /// Maximum length (exclusive).
        pub max: usize,
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                min: r.start,
                max: r.end,
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { min: n, max: n + 1 }
        }
    }

    impl SizeRange {
        fn pick(&self, rng: &mut TestRng) -> usize {
            self.min + rng.below((self.max - self.min) as u64) as usize
        }
    }

    /// Strategy yielding `Vec`s of `element` values.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// Result of [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.pick(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Strategy yielding `HashSet`s of `element` values with a size in range
    /// (best effort: gives up growing after a bounded number of duplicate
    /// draws, like real proptest's rejection cap).
    pub fn hash_set<S>(element: S, size: impl Into<SizeRange>) -> HashSetStrategy<S>
    where
        S: Strategy,
        S::Value: Hash + Eq,
    {
        HashSetStrategy {
            element,
            size: size.into(),
        }
    }

    /// Result of [`hash_set`].
    pub struct HashSetStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S> Strategy for HashSetStrategy<S>
    where
        S: Strategy,
        S::Value: Hash + Eq,
    {
        type Value = HashSet<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> HashSet<S::Value> {
            let target = self.size.pick(rng).max(self.size.min).max(1);
            let mut out = HashSet::with_capacity(target);
            let mut attempts = 0usize;
            while out.len() < target && attempts < target * 100 {
                out.insert(self.element.generate(rng));
                attempts += 1;
            }
            out
        }
    }
}

pub mod bool {
    //! Boolean strategies.

    use crate::strategy::Strategy;
    use crate::TestRng;

    /// The type of [`ANY`].
    #[derive(Clone, Copy, Debug)]
    pub struct Any;

    /// Uniform `true`/`false`.
    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = ::core::primitive::bool;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            rng.next_u64() & 1 == 1
        }
    }
}

pub mod prelude {
    //! One-stop imports for property tests.

    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// Defines property tests. See the crate docs for supported syntax.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { config = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! {
            config = ($crate::test_runner::ProptestConfig::default());
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (config = ($cfg:expr); $($(#[$meta:meta])* fn $name:ident ($($params:tt)*) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __cfg: $crate::test_runner::ProptestConfig = $cfg;
                for __case in 0..__cfg.cases {
                    let mut __rng = $crate::TestRng::for_case(stringify!($name), __case);
                    let __outcome: ::std::result::Result<(), ::std::string::String> =
                        $crate::__proptest_case!(__rng, $body, $($params)*);
                    if let ::std::result::Result::Err(msg) = __outcome {
                        ::std::panic!(
                            "property test {} failed at case {}/{}: {}",
                            stringify!($name),
                            __case,
                            __cfg.cases,
                            msg
                        );
                    }
                }
            }
        )*
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_case {
    ($rng:ident, $body:block, $($pat:pat in $strategy:expr),+ $(,)?) => {{
        $(
            let $pat = $crate::strategy::Strategy::generate(&($strategy), &mut $rng);
        )+
        let mut __case_fn = || -> ::std::result::Result<(), ::std::string::String> {
            $body
            ::std::result::Result::Ok(())
        };
        __case_fn()
    }};
}

/// Uniform choice between strategy alternatives with a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($alt:expr),+ $(,)?) => {
        $crate::strategy::OneOf::new(::std::vec![
            $($crate::strategy::boxed($alt)),+
        ])
    };
}

/// Asserts inside a property test; failure reports the case without panicking
/// the harness thread mid-generation.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err(::std::format!(
                "assertion failed: {}",
                stringify!($cond)
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err(::std::format!($($fmt)+));
        }
    };
}

/// Equality assertion inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        if !(*__l == *__r) {
            return ::std::result::Result::Err(::std::format!(
                "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
                stringify!($left), stringify!($right), __l, __r
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        if !(*__l == *__r) {
            return ::std::result::Result::Err(::std::format!(
                "{}\n  left: {:?}\n right: {:?}",
                ::std::format!($($fmt)+), __l, __r
            ));
        }
    }};
}

/// Inequality assertion inside a property test.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        if *__l == *__r {
            return ::std::result::Result::Err(::std::format!(
                "assertion failed: `{} != {}`\n  both: {:?}",
                stringify!($left),
                stringify!($right),
                __l
            ));
        }
    }};
}

/// Skips the current case when its inputs are unsuitable.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Ok(());
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_and_tuples_generate_in_bounds() {
        let mut rng = crate::TestRng::for_case("t", 0);
        for _ in 0..1000 {
            let v = (1u8..16).generate(&mut rng);
            assert!((1..16).contains(&v));
            let (a, b, c) = (0u64..10, 5usize..6, -2i32..3).generate(&mut rng);
            assert!(a < 10 && b == 5 && (-2..3).contains(&c));
        }
    }

    #[test]
    fn collections_respect_size() {
        let mut rng = crate::TestRng::for_case("c", 1);
        for _ in 0..200 {
            let v = crate::collection::vec(0u64..100, 3..7).generate(&mut rng);
            assert!((3..7).contains(&v.len()));
            let s = crate::collection::hash_set(0u64..1000, 1..32).generate(&mut rng);
            assert!((1..32).contains(&s.len()));
        }
    }

    #[test]
    fn oneof_covers_all_arms() {
        let strat = prop_oneof![
            (0u64..1).prop_map(|_| 1u32),
            (0u64..1).prop_map(|_| 2u32),
            (0u64..1).prop_map(|_| 3u32),
        ];
        let mut rng = crate::TestRng::for_case("o", 2);
        let mut seen = [false; 3];
        for _ in 0..200 {
            seen[strat.generate(&mut rng) as usize - 1] = true;
        }
        assert_eq!(seen, [true; 3]);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 8, .. ProptestConfig::default() })]

        /// The macro itself: patterns, config, assertions, loops.
        #[test]
        fn macro_end_to_end(
            mut xs in crate::collection::vec(0u64..50, 1..20),
            flag in crate::bool::ANY,
        ) {
            xs.sort_unstable();
            for pair in xs.windows(2) {
                prop_assert!(pair[0] <= pair[1], "unsorted after sort: {:?}", xs);
            }
            let n = xs.len();
            prop_assert_eq!(xs.len(), n);
            if flag {
                prop_assert_ne!(xs.len(), 0);
            }
        }
    }

    proptest! {
        #[test]
        fn default_config_form(x in 0u32..100) {
            prop_assert!(x < 100);
        }
    }
}
