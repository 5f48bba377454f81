//! The disjunction special case (§4.1, end).
//!
//! "If the scoring function t is not strict, then A₀ is not necessarily
//! optimal. An interesting example arises when t is max … In this case
//! there is a simple algorithm whose database access cost is only
//! `m·k`, *independent of the size N of the database*!"
//!
//! The algorithm: take the top `k` of each list under sorted access
//! (`m·k` accesses) and return the best `k` of those candidates by
//! their best observed grade — computed as `t` of the candidate's
//! grades with 0 where a list did not reveal it, which under max is the
//! same and under a function that is max only to rounding is that
//! function's grade.
//!
//! Why the observed grades are exact for the returned objects: suppose a
//! returned object `z` had a higher grade in some list `j` where it
//! missed the top `k`. Then `k` objects of list `j` grade at least
//! `μ_j(z) = μ(z)`, and all of them are candidates whose observed grade
//! is at least `μ(z)` — strictly above `z`'s observed grade — so `z`
//! could not have been among the `k` best observed candidates.
//! Contradiction; hence observed = true for everything returned, and by
//! the same argument the returned set is a valid top-k.

use fmdb_core::score::ScoredObject;
use fmdb_core::scoring::ScoringFunction;

use crate::algorithms::book::Book;
use crate::algorithms::{monotone, AlgoError};
use crate::planner::behaves_like_max;
use crate::source::{Oid, Subsystem};

#[doc(hidden)]
pub use crate::frozen::MaxMerge;

/// Refuses a function that is not max: silently accepting min would
/// return wrong answers.
pub(crate) fn max_like(scoring: &dyn ScoringFunction, m: usize) -> Result<(), AlgoError> {
    monotone(scoring)?;
    if !behaves_like_max(scoring, m) {
        return Err(AlgoError::UnsupportedScoring {
            algorithm: "max-merge",
            requirement: "max (standard disjunction) semantics",
            scoring: scoring.name(),
        });
    }
    Ok(())
}

/// Sorted access on every list from depth `from` down to depth `to`, or
/// to the list's end: a run that has read the top `from` of each list
/// reads on to the top `to`.
pub(crate) fn deepen(
    book: &mut Book,
    sources: &mut [&mut dyn Subsystem],
    from: usize,
    to: usize,
) -> Result<(), AlgoError> {
    for i in 0..sources.len() {
        for _ in from..to {
            if book.pull(i, sources)?.is_none() {
                break;
            }
        }
    }
    Ok(())
}

/// Every row's grade, in row order: `scoring` of its fields, 0 in each
/// field no list has revealed. Under max that is the best observed
/// grade. A function that is max only to rounding (`WEIGHTED[min; 0.6,
/// 0.4](x, x)` grades `0.2x + 0.8x`, an ulp off `x`) gets its own grade
/// rather than a list's: exactly where every list revealed the row, and
/// where one did not, with the fields it did not reveal — each at most
/// the best observed grade, by the argument above — read as 0.
pub(crate) fn observed(book: &mut Book, scoring: &dyn ScoringFunction) -> Vec<ScoredObject<Oid>> {
    let table = &mut book.table;
    (0..table.len())
        .map(|row| {
            let grade = table.lower(row, scoring);
            ScoredObject::new(table.oid(row), grade)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::Cursor;
    use crate::planner::PhysicalPlan;
    use crate::source::VecSource;
    use fmdb_core::score::Score;
    use fmdb_core::scoring::conorms::Max;
    use fmdb_core::scoring::tnorms::Min;
    use fmdb_core::scoring::ConormScoring;

    fn s(v: f64) -> Score {
        Score::clamped(v)
    }

    fn fixture() -> (VecSource, VecSource) {
        let a = VecSource::from_dense("color", &[s(0.9), s(0.8), s(0.3), s(0.6), s(0.1), s(0.5)]);
        let b = VecSource::from_dense("shape", &[s(0.2), s(0.7), s(0.95), s(0.5), s(0.85), s(0.4)]);
        (a, b)
    }

    #[test]
    fn agrees_with_naive_under_max() {
        for k in 1..=6 {
            let (mut a, mut b) = fixture();
            let mut srcs: Vec<&mut dyn Subsystem> = vec![&mut a, &mut b];
            let mm = Cursor::once(
                PhysicalPlan::MaxMerge,
                0.0,
                &mut srcs,
                &ConormScoring(Max),
                k,
            )
            .unwrap();

            let (mut a2, mut b2) = fixture();
            let mut srcs2: Vec<&mut dyn Subsystem> = vec![&mut a2, &mut b2];
            let naive = Cursor::once(
                PhysicalPlan::FullScan,
                0.0,
                &mut srcs2,
                &ConormScoring(Max),
                k,
            )
            .unwrap();
            assert_eq!(mm.answers, naive.answers, "k={k}");
        }
    }

    #[test]
    fn cost_is_m_times_k_independent_of_n() {
        for n in [100usize, 1000, 5000] {
            let grades: Vec<Score> = (0..n).map(|i| s((i * 31 % n) as f64 / n as f64)).collect();
            let mut a = VecSource::from_dense("a", &grades);
            let mut b = VecSource::from_dense("b", &grades);
            let mut c = VecSource::from_dense("c", &grades);
            let mut srcs: Vec<&mut dyn Subsystem> = vec![&mut a, &mut b, &mut c];
            let k = 10;
            let r = Cursor::once(
                PhysicalPlan::MaxMerge,
                0.0,
                &mut srcs,
                &ConormScoring(Max),
                k,
            )
            .unwrap();
            assert_eq!(r.stats.sorted, (3 * k) as u64, "n={n}");
            assert_eq!(r.stats.random, 0);
        }
    }

    #[test]
    fn rejects_min_scoring() {
        let (mut a, mut b) = fixture();
        let mut srcs: Vec<&mut dyn Subsystem> = vec![&mut a, &mut b];
        assert!(matches!(
            Cursor::once(PhysicalPlan::MaxMerge, 0.0, &mut srcs, &Min, 2),
            Err(AlgoError::UnsupportedScoring { .. })
        ));
    }

    #[test]
    fn returned_grades_are_exact_even_for_cross_list_objects() {
        // Object 0 is top of list a with 0.9 but also graded 0.2 in b;
        // object 2 is low in a (0.3) but top of b (0.95). Max grades
        // must reflect the best of *all* lists for returned objects.
        let (mut a, mut b) = fixture();
        let mut srcs: Vec<&mut dyn Subsystem> = vec![&mut a, &mut b];
        let r = Cursor::once(
            PhysicalPlan::MaxMerge,
            0.0,
            &mut srcs,
            &ConormScoring(Max),
            2,
        )
        .unwrap();
        assert_eq!(r.answers[0], ScoredObject::new(2, s(0.95)));
        assert_eq!(r.answers[1], ScoredObject::new(0, s(0.9)));
    }

    /// Max at arity 1 only to rounding, as a one-leaf query tree may be:
    /// `0.2x + 0.8x`, which is not always `x`.
    #[derive(Debug)]
    struct NearlyIdentity;

    impl ScoringFunction for NearlyIdentity {
        fn name(&self) -> String {
            "0.2x + 0.8x".to_owned()
        }
        fn combine(&self, scores: &[Score]) -> Score {
            let x = scores[0].value();
            Score::clamped(0.2 * x + 0.8 * x)
        }
        fn is_strict(&self) -> bool {
            true
        }
    }

    /// One list holds every argument of every candidate, so each answer
    /// carries the function's grade, bit for bit, not the list's.
    #[test]
    fn a_function_max_only_to_rounding_grades_exactly() {
        let grades: Vec<Score> = (0..200).map(|i| s(1.0 - f64::from(i) / 199.0)).collect();
        let want: Vec<Score> = grades
            .iter()
            .map(|&g| NearlyIdentity.combine(&[g]))
            .collect();
        assert!(
            grades.iter().zip(&want).any(|(g, w)| g != w),
            "some grade must round off"
        );
        let mut list = VecSource::from_dense("x", &grades);
        let mut srcs: Vec<&mut dyn Subsystem> = vec![&mut list];
        let r = Cursor::once(PhysicalPlan::MaxMerge, 0.0, &mut srcs, &NearlyIdentity, 50).unwrap();
        for answer in &r.answers {
            assert_eq!(answer.grade, want[answer.id as usize], "oid {}", answer.id);
        }
    }

    #[test]
    fn short_universe_is_handled() {
        let mut a = VecSource::from_dense("a", &[s(0.4)]);
        let mut b = VecSource::from_dense("b", &[s(0.6)]);
        let mut srcs: Vec<&mut dyn Subsystem> = vec![&mut a, &mut b];
        let r = Cursor::once(
            PhysicalPlan::MaxMerge,
            0.0,
            &mut srcs,
            &ConormScoring(Max),
            5,
        )
        .unwrap();
        assert_eq!(r.answers.len(), 1);
        assert_eq!(r.answers[0].grade, s(0.6));
    }
}
