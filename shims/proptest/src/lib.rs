//! Offline stand-in for `proptest`.
//!
//! Implements the subset the workspace's property tests use: numeric
//! range strategies, [`strategy::Just`], [`sample::select`],
//! [`bool::ANY`], `prop_oneof!`, the `proptest!` macro with
//! `#![proptest_config(...)]`, and the `prop_assert*`/`prop_assume!`
//! macros. Cases are generated from a deterministic per-test RNG (seeded
//! from the test's module path), so failures reproduce exactly. No
//! shrinking: a failing case reports its generated arguments instead.

pub mod test_runner {
    //! Case-loop plumbing used by the `proptest!` expansion.

    /// Run configuration (`with_cases` subset).
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of generated cases per test.
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

    /// A failed case; carries the formatted assertion message.
    #[derive(Debug)]
    pub struct TestCaseError(pub String);

    impl TestCaseError {
        /// Builds a failure from a message.
        pub fn fail(msg: impl Into<String>) -> TestCaseError {
            TestCaseError(msg.into())
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.0)
        }
    }

    /// Deterministic case RNG (SplitMix64 over an FNV-hashed test name).
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seeds from a test identifier so every test draws a distinct but
        /// reproducible stream.
        pub fn deterministic(test_name: &str) -> TestRng {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in test_name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
            TestRng { state: h }
        }

        /// Next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform draw from `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }
    }
}

pub mod strategy {
    //! Value-generation strategies.

    use crate::test_runner::TestRng;

    /// A way to produce values of one type.
    pub trait Strategy {
        /// Produced value type.
        type Value: Clone + std::fmt::Debug;

        /// Generates one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;
    }

    impl<S: Strategy + ?Sized> Strategy for Box<S> {
        type Value = S::Value;

        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            (**self).generate(rng)
        }
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;

        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            (**self).generate(rng)
        }
    }

    /// Always yields one value.
    #[derive(Debug, Clone)]
    pub struct Just<T>(pub T);

    impl<T: Clone + std::fmt::Debug> Strategy for Just<T> {
        type Value = T;

        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! impl_int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    (self.start as i128 + (rng.next_u64() as u128 % span) as i128) as $t
                }
            }

            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi as i128 - lo as i128) as u128 + 1;
                    (lo as i128 + (rng.next_u64() as u128 % span) as i128) as $t
                }
            }
        )*};
    }

    impl_int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! impl_float_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    self.start + rng.unit_f64() as $t * (self.end - self.start)
                }
            }

            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    lo + rng.unit_f64() as $t * (hi - lo)
                }
            }
        )*};
    }

    impl_float_range_strategy!(f32, f64);

    /// Uniform choice among boxed strategies (`prop_oneof!`).
    pub struct Union<T>(Vec<Box<dyn Strategy<Value = T>>>);

    impl<T: Clone + std::fmt::Debug> Union<T> {
        /// A union over `options` (must be non-empty).
        pub fn new(options: Vec<Box<dyn Strategy<Value = T>>>) -> Union<T> {
            assert!(!options.is_empty(), "prop_oneof! needs at least one option");
            Union(options)
        }
    }

    impl<T: Clone + std::fmt::Debug> Strategy for Union<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            let i = (rng.next_u64() % self.0.len() as u64) as usize;
            self.0[i].generate(rng)
        }
    }

    /// Boxes a strategy, erasing its concrete type (helper for
    /// `prop_oneof!` so heterogeneous options unify).
    pub fn boxed<S>(s: S) -> Box<dyn Strategy<Value = S::Value>>
    where
        S: Strategy + 'static,
    {
        Box::new(s)
    }
}

pub mod sample {
    //! Sampling from explicit collections.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Uniform choice from a fixed vector.
    #[derive(Debug, Clone)]
    pub struct Select<T>(Vec<T>);

    /// Strategy drawing uniformly from `options` (must be non-empty).
    pub fn select<T: Clone + std::fmt::Debug>(options: Vec<T>) -> Select<T> {
        assert!(!options.is_empty(), "select needs at least one option");
        Select(options)
    }

    impl<T: Clone + std::fmt::Debug> Strategy for Select<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            let i = (rng.next_u64() % self.0.len() as u64) as usize;
            self.0[i].clone()
        }
    }
}

pub mod bool {
    //! Boolean strategies.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// The uniform boolean strategy type.
    #[derive(Debug, Clone, Copy)]
    pub struct Any;

    /// Uniformly random booleans.
    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = ::core::primitive::bool;

        fn generate(&self, rng: &mut TestRng) -> ::core::primitive::bool {
            rng.next_u64() & 1 == 1
        }
    }
}

pub mod prelude {
    //! `use proptest::prelude::*` surface.

    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest};

    pub mod prop {
        //! The `prop::` alias exposed by the real prelude.
        pub use crate::bool;
        pub use crate::sample;
        pub use crate::strategy;
    }
}

/// Defines property tests: each `fn name(arg in strategy, ...) { body }`
/// expands to a `#[test]`-annotated function running `cases` generated
/// cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)]
     $( $(#[$meta:meta])* fn $name:ident ( $($arg:ident in $strat:expr),+ $(,)? ) $body:block )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config: $crate::test_runner::ProptestConfig = $cfg;
                let mut __rng = $crate::test_runner::TestRng::deterministic(
                    concat!(module_path!(), "::", stringify!($name)),
                );
                for __case in 0..__config.cases {
                    $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut __rng);)+
                    let __desc = [$( format!(concat!(stringify!($arg), " = {:?}"), $arg) ),+].join(", ");
                    let __result: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                        (|| {
                            $body
                            ::std::result::Result::Ok(())
                        })();
                    if let ::std::result::Result::Err(__e) = __result {
                        panic!(
                            "proptest {} failed at case {}/{}:\n  {}\n  with {}",
                            stringify!($name),
                            __case + 1,
                            __config.cases,
                            __e,
                            __desc,
                        );
                    }
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest! {
            #![proptest_config($crate::test_runner::ProptestConfig::default())]
            $($rest)*
        }
    };
}

/// Asserts inside a `proptest!` body; failure fails the case with context.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        // Bound first, so a negated float comparison reads as a plain bool.
        let holds: bool = $cond;
        if !holds {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Equality assertion inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        if !(*__l == *__r) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(format!(
                "assertion failed: `{:?}` == `{:?}`",
                __l, __r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        if !(*__l == *__r) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(format!(
                "{}: `{:?}` != `{:?}`",
                format!($($fmt)+),
                __l,
                __r
            )));
        }
    }};
}

/// Inequality assertion inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        if *__l == *__r {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(format!(
                "assertion failed: `{:?}` != `{:?}`",
                __l, __r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        if *__l == *__r {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(format!(
                "{}: both `{:?}`",
                format!($($fmt)+),
                __l
            )));
        }
    }};
}

/// Skips the current case when its precondition does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        let holds: bool = $cond;
        if !holds {
            return ::std::result::Result::Ok(());
        }
    };
}

/// Uniform choice among strategies yielding one value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![$( $crate::strategy::boxed($strat) ),+])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn tiny() -> impl Strategy<Value = f32> {
        prop_oneof![-1.0f32..1.0, Just(0.0f32)]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(x in 3usize..10, y in -2.0f64..2.0, b in crate::bool::ANY) {
            prop_assert!((3..10).contains(&x));
            prop_assert!((-2.0..2.0).contains(&y));
            let _ = b;
        }

        #[test]
        fn select_draws_members(k in prop::sample::select(vec![1u32, 5, 9])) {
            prop_assert!([1u32, 5, 9].contains(&k));
        }

        #[test]
        fn oneof_and_assume(v in tiny(), w in 0u64..10) {
            prop_assume!(w < 8);
            prop_assert!(v.abs() <= 1.0, "v out of range: {v}");
            prop_assert_ne!(v, 2.0f32);
        }
    }

    #[test]
    fn streams_are_deterministic() {
        use crate::strategy::Strategy;
        let s = 0u64..1000;
        let mut a = crate::test_runner::TestRng::deterministic("t");
        let mut b = crate::test_runner::TestRng::deterministic("t");
        for _ in 0..50 {
            assert_eq!(s.generate(&mut a), s.generate(&mut b));
        }
    }
}
