//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no crates.io access, so this workspace
//! vendors the small slice of the proptest API its test suites use:
//! the [`proptest!`] macro, range/tuple/vec/bool strategies, and the
//! `prop_assert*` / `prop_assume!` macros. Inputs are drawn from a
//! deterministic xorshift generator seeded per test name, so failures
//! reproduce exactly across runs. Shrinking is intentionally absent —
//! a failing case panics with the rendered assertion message instead.

#![forbid(unsafe_code)]

pub mod strategy {
    use crate::test_runner::StubRng;

    /// A source of random test inputs. Mirrors proptest's `Strategy`
    /// trait, minus shrinking: `generate` draws one value.
    pub trait Strategy {
        /// The value type this strategy produces.
        type Value;
        /// Draws one value from `rng`.
        fn generate(&self, rng: &mut StubRng) -> Self::Value;
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut StubRng) -> $t {
                    let width = (self.end - self.start) as u64;
                    if width == 0 {
                        return self.start;
                    }
                    self.start + (rng.next_u64() % width) as $t
                }
            }
        )*};
    }
    int_range_strategy!(u8, u16, u32, u64, usize);

    macro_rules! signed_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut StubRng) -> $t {
                    let width = (self.end as i64 - self.start as i64) as u64;
                    if width == 0 {
                        return self.start;
                    }
                    (self.start as i64 + (rng.next_u64() % width) as i64) as $t
                }
            }
        )*};
    }
    signed_range_strategy!(i8, i16, i32, i64, isize);

    macro_rules! float_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut StubRng) -> $t {
                    self.start + (rng.unit_f64() as $t) * (self.end - self.start)
                }
            }
        )*};
    }
    float_range_strategy!(f32, f64);

    macro_rules! tuple_strategy {
        ($(($($name:ident : $idx:tt),+))*) => {$(
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                fn generate(&self, rng: &mut StubRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )*};
    }
    tuple_strategy! {
        (A: 0)
        (A: 0, B: 1)
        (A: 0, B: 1, C: 2)
        (A: 0, B: 1, C: 2, D: 3)
        (A: 0, B: 1, C: 2, D: 3, E: 4)
        (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5)
        (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6)
        (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6, H: 7)
    }

    /// `Just(x)` always yields a clone of `x`.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut StubRng) -> T {
            self.0.clone()
        }
    }
}

pub mod bool {
    use crate::strategy::Strategy;
    use crate::test_runner::StubRng;

    /// Strategy yielding uniformly random booleans.
    #[derive(Clone, Copy, Debug)]
    pub struct AnyBool;

    /// The `proptest::bool::ANY` strategy.
    pub const ANY: AnyBool = AnyBool;

    impl Strategy for AnyBool {
        type Value = bool;
        fn generate(&self, rng: &mut StubRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::StubRng;

    /// Strategy for `Vec`s with element strategy `S` and a length drawn
    /// from `size`.
    pub struct VecStrategy<S> {
        elem: S,
        size: core::ops::Range<usize>,
    }

    /// `proptest::collection::vec(elem, len_range)`.
    pub fn vec<S: Strategy>(elem: S, size: core::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { elem, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut StubRng) -> Vec<S::Value> {
            let len = self.size.generate(rng);
            (0..len).map(|_| self.elem.generate(rng)).collect()
        }
    }
}

pub mod test_runner {
    /// Per-test deterministic xorshift64* generator.
    pub struct StubRng {
        state: u64,
    }

    impl StubRng {
        /// Seeds from an arbitrary byte string (the test name).
        pub fn from_name(name: &str) -> Self {
            let mut state = 0xcbf2_9ce4_8422_2325u64; // FNV offset basis
            for b in name.bytes() {
                state ^= b as u64;
                state = state.wrapping_mul(0x100_0000_01b3);
            }
            StubRng {
                state: state | 1, // xorshift state must be non-zero
            }
        }

        /// Next raw 64-bit draw.
        pub fn next_u64(&mut self) -> u64 {
            let mut x = self.state;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.state = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }

        /// Uniform draw in `[0, 1)` with 53 bits of precision.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// How many cases `proptest!` runs per property.
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        /// Number of generated cases.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// Config running `cases` inputs per property.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 64 }
        }
    }

    /// Outcome of one generated case.
    #[derive(Debug)]
    pub enum TestCaseError {
        /// A `prop_assert*` failed with the rendered message.
        Fail(String),
        /// A `prop_assume!` rejected the inputs; the case is skipped.
        Reject,
    }

    impl TestCaseError {
        /// Builds a failure.
        pub fn fail(msg: String) -> Self {
            TestCaseError::Fail(msg)
        }
    }

    /// Drives the case loop for one property.
    pub struct TestRunner {
        rng: StubRng,
        cases: u32,
        name: &'static str,
        case: u32,
    }

    impl TestRunner {
        /// New runner for the named property.
        pub fn new(config: ProptestConfig, name: &'static str) -> Self {
            TestRunner {
                rng: StubRng::from_name(name),
                cases: config.cases,
                name,
                case: 0,
            }
        }

        /// Number of cases to attempt.
        pub fn cases(&self) -> u32 {
            self.cases
        }

        /// The shared input generator.
        pub fn rng(&mut self) -> &mut StubRng {
            &mut self.rng
        }

        /// Records one case's outcome; panics on failure.
        pub fn finish_case(&mut self, result: Result<(), TestCaseError>) {
            self.case += 1;
            match result {
                Ok(()) | Err(TestCaseError::Reject) => {}
                Err(TestCaseError::Fail(msg)) => panic!(
                    "property `{}` failed at case {}/{}: {}",
                    self.name, self.case, self.cases, msg
                ),
            }
        }
    }
}

/// Declares a block of property tests. Supports the
/// `#![proptest_config(...)]` inner attribute and `arg in strategy`
/// parameter lists; each property becomes a plain `#[test]`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::proptest!(@funcs ($config); $($rest)*);
    };
    (@funcs ($config:expr);) => {};
    (@funcs ($config:expr);
        $(#[$meta:meta])*
        fn $name:ident( $($arg:ident in $strat:expr),* $(,)? ) $body:block
        $($rest:tt)*
    ) => {
        #[test]
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $config;
            let mut runner =
                $crate::test_runner::TestRunner::new(config, stringify!($name));
            for _ in 0..runner.cases() {
                $(
                    let $arg =
                        $crate::strategy::Strategy::generate(&($strat), runner.rng());
                )*
                let outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| {
                        $body
                        ::std::result::Result::Ok(())
                    })();
                runner.finish_case(outcome);
            }
        }
        $crate::proptest!(@funcs ($config); $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@funcs ($crate::test_runner::ProptestConfig::default()); $($rest)*);
    };
}

/// Asserts inside a property; failure aborts the case with a message.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("assertion failed: {}", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Equality assertion inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let l = $left;
        let r = $right;
        if l != r {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(format!(
                "assertion failed: {} == {} (left: {:?}, right: {:?})",
                stringify!($left),
                stringify!($right),
                l,
                r
            )));
        }
    }};
}

/// Skips the current case when its inputs don't satisfy `cond`.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject);
        }
    };
}

pub mod prelude {
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, proptest};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::test_runner::StubRng;

    #[test]
    fn rng_is_deterministic_per_name() {
        let mut a = StubRng::from_name("x");
        let mut b = StubRng::from_name("x");
        let mut c = StubRng::from_name("y");
        assert_eq!(a.next_u64(), b.next_u64());
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn unit_f64_in_range() {
        let mut rng = StubRng::from_name("unit");
        for _ in 0..1000 {
            let u = rng.unit_f64();
            assert!((0.0..1.0).contains(&u));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Ranges respect their bounds.
        #[test]
        fn ranges_respect_bounds(
            x in 3u32..17,
            y in -5i64..5,
            f in 0.25f64..0.75,
        ) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((-5..5).contains(&y));
            prop_assert!((0.25..0.75).contains(&f), "f out of range: {f}");
        }

        /// Vec + tuple + bool strategies compose.
        #[test]
        fn collections_compose(
            v in crate::collection::vec((0u8..4, crate::bool::ANY), 1..9),
        ) {
            prop_assert!(!v.is_empty() && v.len() < 9);
            for (n, _flag) in v {
                prop_assert!(n < 4);
            }
            prop_assert_eq!(1 + 1, 2);
        }

        /// Assume rejects without failing.
        #[test]
        fn assume_skips(n in 0u32..10) {
            prop_assume!(n % 2 == 0);
            prop_assert_eq!(n % 2, 0);
        }
    }
}
