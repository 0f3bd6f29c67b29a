//! Offline shim for the subset of `proptest` this workspace uses.
//!
//! Provides deterministic property testing: the `proptest!` macro runs each
//! property over `ProptestConfig::cases` generated inputs, with each case's
//! RNG seeded from the *test name and case index* — a failure reproduces
//! exactly on re-run, with no persistence files needed. There is **no
//! shrinking**: the failing input is printed as generated.
//!
//! Supported strategy surface (everything the workspace's properties use):
//! numeric `Range` strategies (`0.5f64..7.0`, `1usize..100`, ...), tuples of
//! strategies up to arity 3, `&str` regex-ish string strategies (pattern
//! semantics reduced to "arbitrary strings", which is what `".*"` asks for),
//! [`collection::vec`], [`array::uniform4`], and
//! [`Strategy::prop_map`](strategy::Strategy::prop_map).

pub mod strategy;
pub mod test_runner;

pub mod collection {
    use crate::strategy::{Strategy, VecStrategy};
    use std::ops::Range;

    /// `proptest::collection::vec`: a `Vec` of values from `element`, with a
    /// length drawn from `len`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }
}

pub mod array {
    use crate::strategy::{ArrayStrategy, Strategy};

    /// `proptest::array::uniform4`: a `[T; 4]` with each lane drawn
    /// independently from `element`.
    pub fn uniform4<S: Strategy>(element: S) -> ArrayStrategy<S, 4> {
        ArrayStrategy { element }
    }
}

pub mod prelude {
    pub use crate::strategy::Strategy;
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, proptest};
}

/// Declare deterministic property tests. Mirrors `proptest::proptest!`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! {
            cfg = ($crate::test_runner::ProptestConfig::default());
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (cfg = ($cfg:expr);) => {};
    (
        cfg = ($cfg:expr);
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $cfg;
            for case in 0..config.cases {
                let mut rng =
                    $crate::test_runner::TestRng::for_case(stringify!($name), case);
                $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut rng);)+
                // Rendered eagerly so the property body is free to move the
                // generated values.
                let mut input_desc = ::std::string::String::new();
                $(
                    input_desc.push_str(concat!("  ", stringify!($arg), " = "));
                    input_desc.push_str(&::std::format!("{:?}", $arg));
                    input_desc.push('\n');
                )+
                let outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| { $body ::std::result::Result::Ok(()) })();
                if let ::std::result::Result::Err(e) = outcome {
                    panic!(
                        "proptest case {}/{} failed: {}\ninputs:\n{}",
                        case + 1,
                        config.cases,
                        e,
                        input_desc
                    );
                }
            }
        }
        $crate::__proptest_impl! { cfg = ($cfg); $($rest)* }
    };
}

/// `prop_assert!`: like `assert!` but reported through the proptest runner
/// (which prints the generated inputs). Must run inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(::std::format!($($fmt)*)),
            );
        }
    };
}

/// `prop_assert_eq!`: equality assertion reported through the runner.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let l = $left;
        let r = $right;
        $crate::prop_assert!(
            l == r,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
            stringify!($left),
            stringify!($right),
            l,
            r
        );
    }};
}
