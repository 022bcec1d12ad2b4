#![forbid(unsafe_code)]
//! Offline stand-in for the `proptest` crate.
//!
//! The public registry is unreachable from this build environment, so the
//! workspace vendors the subset of the proptest 1.x API its test suites
//! use: the [`proptest!`] macro, `prop_assert*` macros, range / tuple /
//! collection / string strategies, `prop_map`, `prop_oneof!`,
//! `prop_recursive`, and [`ProptestConfig`].
//!
//! Semantics: every test function runs `config.cases` deterministic random
//! cases (seeded from the test name, so runs are reproducible). There is no
//! shrinking — a failing case reports its case index and message instead.
//! String strategies ignore the regex pattern and generate arbitrary
//! printable text of bounded length, which preserves the workspace's
//! "parser never panics on garbage" intent without a regex engine.

pub mod strategy;
pub mod test_runner;

pub use strategy::{any, Arbitrary, BoxedStrategy, Just, Strategy, TestRng};
pub use test_runner::ProptestConfig;

pub mod collection {
    //! Collection strategies (subset of `proptest::collection`).

    use crate::strategy::{SizeRange, Strategy, TestRng};

    /// Strategy for `Vec`s whose length is drawn from `size` and whose
    /// elements are drawn from `element`.
    #[derive(Clone, Debug)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// `proptest::collection::vec`: a vector strategy.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            let len = self.size.pick(rng);
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

pub mod prelude {
    //! The glob-import surface (`use proptest::prelude::*`).

    pub use crate::strategy::{any, Arbitrary, BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};

    /// Alias letting `prop::collection::vec(...)` style paths resolve.
    pub use crate as prop;
}

/// Defines deterministic property tests.
///
/// Supported grammar (the subset the workspace uses):
///
/// ```text
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(32))]   // optional
///     /// docs…
///     #[test]
///     fn name(arg in strategy, arg2 in strategy2) { body }
///     …
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ [$cfg] $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{ [$crate::test_runner::ProptestConfig::default()] $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ([$cfg:expr]) => {};
    ([$cfg:expr]
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            let __config: $crate::test_runner::ProptestConfig = $cfg;
            let mut __rng = $crate::strategy::TestRng::from_name(stringify!($name));
            for __case in 0..__config.cases {
                $(let $arg = $crate::strategy::Strategy::sample(&($strat), &mut __rng);)+
                let __result: ::std::result::Result<(), ::std::string::String> = (|| {
                    $body
                    ::std::result::Result::Ok(())
                })();
                if let ::std::result::Result::Err(__msg) = __result {
                    panic!(
                        "proptest {} failed at case {}/{}: {}",
                        stringify!($name),
                        __case + 1,
                        __config.cases,
                        __msg
                    );
                }
            }
        }
        $crate::__proptest_impl!{ [$cfg] $($rest)* }
    };
}

/// Asserts a condition inside a [`proptest!`] body, reporting the failing
/// case instead of unwinding immediately.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err(::std::format!(
                "assertion failed: {}",
                stringify!($cond)
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err(::std::format!($($fmt)+));
        }
    };
}

/// Asserts equality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return ::std::result::Result::Err(::std::format!(
                "assertion failed: {} == {} ({:?} vs {:?})",
                stringify!($left),
                stringify!($right),
                l,
                r
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return ::std::result::Result::Err(::std::format!(
                "assertion failed: {} == {}: {}",
                stringify!($left),
                stringify!($right),
                ::std::format!($($fmt)+)
            ));
        }
    }};
}

/// Asserts inequality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if l == r {
            return ::std::result::Result::Err(::std::format!(
                "assertion failed: {} != {} (both {:?})",
                stringify!($left),
                stringify!($right),
                l
            ));
        }
    }};
}

/// Uniform choice between strategies of the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::OneOf::new(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}
