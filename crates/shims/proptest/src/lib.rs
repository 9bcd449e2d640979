//! Minimal offline stand-in for the `proptest` crate.
//!
//! The build container has no network access, so this shim implements
//! the subset of the proptest API the workspace's property tests use:
//! the [`Strategy`](strategy::Strategy) trait with `prop_map`, integer/range/tuple/`Just`
//! strategies, weighted [`prop_oneof!`], `collection::{vec, btree_set,
//! btree_map}`, the [`proptest!`] macro with `proptest_config`, and the
//! `prop_assert*` macros.
//!
//! Differences from the real crate, deliberately accepted:
//!
//! - no shrinking: a failing case panics with its (Debug-printed) inputs
//!   but is not minimized;
//! - deterministic seeding: each test derives its RNG seed from the test
//!   name, so failures reproduce exactly across runs and platforms;
//! - `prop_assert*` are plain `assert*` (they panic instead of returning
//!   `Err`), which is equivalent under the no-shrinking model.

pub mod strategy;
pub mod test_runner;

pub mod collection;

/// The glob-importable prelude, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

use strategy::{Arbitrary, Fundamental};

/// Returns the canonical strategy for `T` (uniform over the whole
/// domain), mirroring `proptest::prelude::any`.
pub fn any<T: Arbitrary>() -> Fundamental<T> {
    Fundamental::new()
}

/// Property-test assertion; panics on failure (no shrinking in the shim).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Property-test equality assertion.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Property-test inequality assertion.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Picks among several strategies producing the same value type,
/// optionally weighted (`weight => strategy`).
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $( ($weight as u32, $crate::strategy::boxed($strat)) ),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $( (1u32, $crate::strategy::boxed($strat)) ),+
        ])
    };
}

/// Declares property tests: each argument is drawn from its strategy and
/// the body re-runs for the configured number of cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = $crate::test_runner::Config::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (cfg = $cfg:expr; $(
        $(#[$meta:meta])*
        fn $name:ident ( $($arg:pat in $strat:expr),+ $(,)? ) $body:block
    )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __cfg: $crate::test_runner::Config = $cfg;
                let mut __rng = $crate::test_runner::TestRng::for_test(stringify!($name));
                let __strats = ( $( $strat, )+ );
                for __case in 0..__cfg.cases {
                    let _ = __case;
                    let ( $($arg,)+ ) =
                        $crate::strategy::Strategy::generate(&__strats, &mut __rng);
                    $body
                }
            }
        )*
    };
}
