//! Grades ("scores") in the unit interval.
//!
//! The paper (§3) assigns every object a *grade* in `[0, 1]` under each
//! atomic query: `1` is a perfect match, `0` is no match at all, and a
//! traditional (crisp) predicate only ever produces `0` or `1`.
//!
//! [`Score`] is a newtype over `f64` that statically rules out NaN and
//! out-of-range values, which in turn lets it implement [`Ord`] (grades
//! must be sortable: sorted access streams objects by descending grade).

use std::cmp::Ordering;
use std::fmt;

use crate::float;

/// Error returned when constructing a [`Score`] from an invalid `f64`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScoreError {
    /// The value was NaN.
    NotANumber,
    /// The value was outside `[0, 1]`; the payload is the offending value.
    OutOfRange(f64),
}

impl fmt::Display for ScoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScoreError::NotANumber => write!(f, "score must not be NaN"),
            ScoreError::OutOfRange(v) => write!(f, "score {v} is outside [0, 1]"),
        }
    }
}

impl std::error::Error for ScoreError {}

/// A grade in the closed unit interval `[0, 1]`.
///
/// Invariants: the wrapped value is a finite `f64` with `0.0 <= v <= 1.0`.
/// Because of this, `Score` is totally ordered and implements [`Eq`] and
/// [`Ord`] (unlike raw `f64`).
///
/// ```
/// use fmdb_core::score::Score;
/// let a = Score::new(0.3).unwrap();
/// let b = Score::new(0.7).unwrap();
/// assert!(a < b);
/// assert_eq!(a.max(b), b);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Score(f64);

impl Score {
    /// The minimal grade: the query is (completely) false about the object.
    pub const ZERO: Score = Score(0.0);
    /// The maximal grade: a perfect match.
    pub const ONE: Score = Score(1.0);
    /// The midpoint grade, ½.
    pub const HALF: Score = Score(0.5);

    /// Creates a score, rejecting NaN and values outside `[0, 1]`.
    pub fn new(value: f64) -> Result<Score, ScoreError> {
        if value.is_nan() {
            Err(ScoreError::NotANumber)
        } else if !(0.0..=1.0).contains(&value) {
            Err(ScoreError::OutOfRange(value))
        } else {
            Ok(Score::canonical(value))
        }
    }

    /// Creates a score by clamping `value` into `[0, 1]`. NaN becomes `0`.
    ///
    /// This is the right constructor when converting a *distance* into a
    /// grade, where floating-point round-off may land epsilon outside the
    /// interval.
    #[inline]
    pub fn clamped(value: f64) -> Score {
        if value.is_nan() {
            Score::ZERO
        } else {
            Score::canonical(value.clamp(0.0, 1.0))
        }
    }

    /// Wraps an in-range value with `-0.0` folded into `+0.0`: IEEE
    /// addition gives `-0.0 + 0.0 == +0.0` and leaves every other
    /// value alone. `-0.0` passes the range check, but `==` calls the
    /// two zeros equal while [`Ord`] (`total_cmp`) and `to_bits` do
    /// not — so no constructor may let it in.
    #[inline]
    fn canonical(value: f64) -> Score {
        Score(value + 0.0).debug_checked()
    }

    /// The runtime half of the workspace's invariant story: every
    /// non-const construction path funnels through this check, so a
    /// grade that escapes `[0, 1]` (or goes NaN) panics immediately in
    /// debug/test builds instead of corrupting a top-k answer three
    /// layers later. Release builds compile it away. What this traps
    /// dynamically, the workspace lints table complements statically
    /// (`clippy::unwrap_used`, `expect_used`, `panic`, `float_cmp`).
    #[inline]
    fn debug_checked(self) -> Score {
        debug_assert!(
            self.0.is_finite() && (0.0..=1.0).contains(&self.0),
            "Score invariant violated: {} is not a grade in [0, 1]",
            self.0
        );
        debug_assert!(
            self.0.is_sign_positive(),
            "Score invariant violated: -0.0 must be stored as +0.0"
        );
        self
    }

    /// Creates a crisp score from a Boolean: `true` ↦ 1, `false` ↦ 0.
    ///
    /// Traditional database predicates (e.g. `Artist='Beatles'`) grade
    /// every object with exactly 0 or 1 (§3 of the paper).
    #[inline]
    pub fn crisp(truth: bool) -> Score {
        if truth {
            Score::ONE
        } else {
            Score::ZERO
        }
    }

    /// The raw grade value.
    #[inline]
    pub fn value(self) -> f64 {
        self.0
    }

    /// Whether this grade is crisp: within [`float::EPSILON`] of 0
    /// or 1.
    ///
    /// Crisp grades are produced by traditional predicates (§3), but a
    /// crisp grade that travelled through a scoring function may pick
    /// up round-off, so the test is tolerant rather than exact (see
    /// [`crate::float`]).
    #[inline]
    pub fn is_crisp(self) -> bool {
        float::approx_zero(self.0) || float::approx_one(self.0)
    }

    /// Standard fuzzy negation `1 − x` (the paper's negation rule, §3).
    #[inline]
    #[must_use]
    pub fn negate(self) -> Score {
        Score(1.0 - self.0).debug_checked()
    }

    /// The smaller of two grades (Zadeh conjunction).
    ///
    /// Spelled `other < self` so that it is one `minsd` on x86-64:
    /// `self <= other` differs from it only on a NaN, which no grade
    /// holds, and compiles to a compare and three masks.
    #[inline]
    #[must_use]
    pub fn min(self, other: Score) -> Score {
        if other.0 < self.0 {
            other
        } else {
            self
        }
    }

    /// The larger of two grades (Zadeh disjunction); one `maxsd`, as
    /// [`Score::min`] is one `minsd`.
    #[inline]
    #[must_use]
    pub fn max(self, other: Score) -> Score {
        if other.0 > self.0 {
            other
        } else {
            self
        }
    }

    /// True if `self` is within `eps` of `other` (for tests on float
    /// paths). For the workspace's standard tolerance use
    /// [`float::approx_eq`] / [`float::EPSILON`].
    #[inline]
    pub fn approx_eq(self, other: Score, eps: f64) -> bool {
        (self.0 - other.0).abs() <= eps
    }
}

impl Eq for Score {}

impl PartialOrd for Score {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Score {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        // Scores are finite and in [0, 1] by construction, with -0.0
        // folded into +0.0: there the numeric order is the order of
        // the bits as unsigned integers (IEEE total order on
        // non-negative values), so this is total without any
        // panicking fallback, and one integer comparison.
        self.0.to_bits().cmp(&other.0.to_bits())
    }
}

impl fmt::Display for Score {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4}", self.0)
    }
}

impl From<bool> for Score {
    fn from(truth: bool) -> Score {
        Score::crisp(truth)
    }
}

impl TryFrom<f64> for Score {
    type Error = ScoreError;
    fn try_from(value: f64) -> Result<Score, ScoreError> {
        Score::new(value)
    }
}

/// An object paired with its grade under some query.
///
/// This is the unit of communication with a subsystem: sorted access
/// yields `ScoredObject`s in descending grade order (§4 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScoredObject<Id> {
    /// The object's identity in the repository being queried.
    pub id: Id,
    /// The object's grade under the (sub)query.
    pub grade: Score,
}

impl<Id> ScoredObject<Id> {
    /// Pairs an object id with a grade.
    pub fn new(id: Id, grade: Score) -> Self {
        ScoredObject { id, grade }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_accepts_unit_interval() {
        assert_eq!(Score::new(0.0).unwrap(), Score::ZERO);
        assert_eq!(Score::new(1.0).unwrap(), Score::ONE);
        assert_eq!(Score::new(0.5).unwrap(), Score::HALF);
    }

    #[test]
    fn new_rejects_out_of_range() {
        assert_eq!(Score::new(-0.01), Err(ScoreError::OutOfRange(-0.01)));
        assert_eq!(Score::new(1.01), Err(ScoreError::OutOfRange(1.01)));
    }

    #[test]
    fn new_rejects_nan() {
        assert_eq!(Score::new(f64::NAN), Err(ScoreError::NotANumber));
    }

    #[test]
    fn clamped_saturates() {
        assert_eq!(Score::clamped(-3.0), Score::ZERO);
        assert_eq!(Score::clamped(42.0), Score::ONE);
        assert_eq!(Score::clamped(0.25).value(), 0.25);
        assert_eq!(Score::clamped(f64::NAN), Score::ZERO);
    }

    /// `-0.0` is in range but must not survive construction: `==` and
    /// `cmp` would disagree on it and grade-bit digests would differ.
    #[test]
    fn negative_zero_is_stored_as_positive_zero() {
        for zero in [Score::new(-0.0).unwrap(), Score::clamped(-0.0)] {
            assert_eq!(zero, Score::ZERO);
            assert_eq!(zero.cmp(&Score::ZERO), Ordering::Equal);
            assert_eq!(zero.value().to_bits(), 0.0_f64.to_bits());
        }
        // Values that clamp or compute to zero from below, too.
        assert_eq!(Score::clamped(-1e-300).value().to_bits(), 0);
        assert_eq!(Score::ONE.negate().value().to_bits(), 0);
    }

    #[test]
    fn crisp_maps_booleans() {
        assert_eq!(Score::crisp(true), Score::ONE);
        assert_eq!(Score::crisp(false), Score::ZERO);
        assert!(Score::crisp(true).is_crisp());
        assert!(!Score::HALF.is_crisp());
    }

    #[test]
    fn negation_is_involutive() {
        let s = Score::new(0.3).unwrap();
        assert!(s.negate().negate().approx_eq(s, 1e-15));
        assert_eq!(Score::ZERO.negate(), Score::ONE);
    }

    #[test]
    fn ordering_is_total_and_consistent() {
        let mut v = [
            Score::new(0.9).unwrap(),
            Score::ZERO,
            Score::HALF,
            Score::ONE,
        ];
        v.sort();
        let vals: Vec<f64> = v.iter().map(|s| s.value()).collect();
        assert_eq!(vals, vec![0.0, 0.5, 0.9, 1.0]);
    }

    #[test]
    fn min_max_agree_with_ordering() {
        let a = Score::new(0.2).unwrap();
        let b = Score::new(0.8).unwrap();
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(a), a);
    }

    #[test]
    fn display_is_fixed_precision() {
        assert_eq!(Score::HALF.to_string(), "0.5000");
    }

    #[test]
    fn error_display() {
        assert_eq!(ScoreError::NotANumber.to_string(), "score must not be NaN");
        assert!(ScoreError::OutOfRange(2.0).to_string().contains("2"));
    }
}
