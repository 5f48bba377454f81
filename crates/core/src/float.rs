//! Shared float-comparison helpers: the workspace's single epsilon.
//!
//! Raw `==`/`!=` on floating-point expressions is banned in library
//! code by the workspace lints table (`clippy::float_cmp`): after any
//! arithmetic, two mathematically equal grades may differ in their
//! last bits, so exact comparison silently turns into "did the
//! round-off happen to agree". Code that needs equality semantics on
//! floats goes through this module instead, so there is exactly one
//! tolerance in the codebase and one place to document it.
//!
//! # Choice of epsilon
//!
//! [`EPSILON`] is `1e-12`. Grades live in `[0, 1]`, where one ulp is
//! about `1e-16`; the deepest arithmetic the workspace performs on a
//! grade (weighted combines, t-norm chains, distance-to-grade
//! conversions) composes a few dozen operations, keeping accumulated
//! round-off under ~`1e-13`. `1e-12` therefore absorbs every
//! legitimate rounding difference while staying three orders of
//! magnitude below any semantically meaningful grade gap the test
//! suites assert on (`1e-9` and coarser).
//!
//! Comparisons at other scales (e.g. squared distances in
//! `fmdb-media`) should derive their tolerance from the data, not from
//! this constant.

/// The workspace's unit-interval comparison tolerance. See the module
/// docs for the rationale.
pub const EPSILON: f64 = 1e-12;

/// True when `a` and `b` differ by at most [`EPSILON`].
///
/// NaN compares unequal to everything, as with `==`.
#[inline]
pub fn approx_eq(a: f64, b: f64) -> bool {
    (a - b).abs() <= EPSILON
}

/// True when `x` is within [`EPSILON`] of zero.
#[inline]
pub fn approx_zero(x: f64) -> bool {
    x.abs() <= EPSILON
}

/// True when `x` is within [`EPSILON`] of one.
#[inline]
pub fn approx_one(x: f64) -> bool {
    approx_eq(x, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_tolerates_round_off() {
        assert!(approx_eq(0.1 + 0.2, 0.3));
        assert!(approx_eq(1.0, 1.0 + EPSILON / 2.0));
        assert!(!approx_eq(1.0, 1.0 + 1e-9));
    }

    #[test]
    fn nan_is_never_approx_equal() {
        assert!(!approx_eq(f64::NAN, f64::NAN));
        assert!(!approx_zero(f64::NAN));
        assert!(!approx_one(f64::NAN));
    }

    #[test]
    fn endpoint_helpers() {
        assert!(approx_zero(0.0));
        assert!(approx_zero(-EPSILON));
        assert!(!approx_zero(1e-9));
        assert!(approx_one(1.0));
        assert!(approx_one(1.0 - EPSILON));
        assert!(!approx_one(0.999999));
    }
}
