//! The disjunction special case (§4.1, end).
//!
//! "If the scoring function t is not strict, then A₀ is not necessarily
//! optimal. An interesting example arises when t is max … In this case
//! there is a simple algorithm whose database access cost is only
//! `m·k`, *independent of the size N of the database*!"
//!
//! The algorithm: take the top `k` of each list under sorted access
//! (`m·k` accesses) and return the best `k` of those candidates by
//! their best observed grade.
//!
//! Why the observed grades are exact for the returned objects: suppose a
//! returned object `z` had a higher grade in some list `j` where it
//! missed the top `k`. Then `k` objects of list `j` grade at least
//! `μ_j(z) = μ(z)`, and all of them are candidates whose observed grade
//! is at least `μ(z)` — strictly above `z`'s observed grade — so `z`
//! could not have been among the `k` best observed candidates.
//! Contradiction; hence observed = true for everything returned, and by
//! the same argument the returned set is a valid top-k.

use fmdb_core::score::{Score, ScoredObject};
use fmdb_core::scoring::ScoringFunction;

use crate::algorithms::book::Book;
use crate::algorithms::{finalize, validate, AlgoError, TopKAlgorithm, TopKResult};
use crate::planner::behaves_like_max;
use crate::source::Subsystem;

/// The `m·k` disjunction (max) algorithm.
#[derive(Debug, Clone, Copy, Default)]
pub struct MaxMerge;

impl TopKAlgorithm for MaxMerge {
    fn name(&self) -> &'static str {
        "max-merge"
    }

    fn evaluate(
        &self,
        sources: &mut [&mut dyn Subsystem],
        scoring: &dyn ScoringFunction,
        k: usize,
    ) -> Result<TopKResult, AlgoError> {
        validate(sources, scoring, k)?;
        // Only correct for max: silently accepting min would return
        // wrong answers.
        if !behaves_like_max(scoring, sources.len()) {
            return Err(AlgoError::UnsupportedScoring {
                algorithm: "max-merge",
                requirement: "max (standard disjunction) semantics",
                scoring: scoring.name(),
            });
        }

        let mut book = Book::open(sources);
        for i in 0..sources.len() {
            for _ in 0..k {
                if book.pull(i, sources)?.is_none() {
                    break;
                }
            }
        }
        let table = &book.table;
        let combined = (0..table.len())
            .map(|row| {
                let observed = table.fields(row).iter().flatten();
                ScoredObject::new(table.oid(row), observed.fold(Score::ZERO, |a, &g| a.max(g)))
            })
            .collect();
        Ok(finalize(combined, k, book.frontier.stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::naive::Naive;
    use crate::source::GradedSource;
    use crate::source::VecSource;
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
            let mut srcs: Vec<&mut dyn GradedSource> = vec![&mut a, &mut b];
            let mm = MaxMerge.top_k(&mut srcs, &ConormScoring(Max), k).unwrap();

            let (mut a2, mut b2) = fixture();
            let mut srcs2: Vec<&mut dyn GradedSource> = vec![&mut a2, &mut b2];
            let naive = Naive.top_k(&mut srcs2, &ConormScoring(Max), k).unwrap();
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
            let mut srcs: Vec<&mut dyn GradedSource> = vec![&mut a, &mut b, &mut c];
            let k = 10;
            let r = MaxMerge.top_k(&mut srcs, &ConormScoring(Max), k).unwrap();
            assert_eq!(r.stats.sorted, (3 * k) as u64, "n={n}");
            assert_eq!(r.stats.random, 0);
        }
    }

    #[test]
    fn rejects_min_scoring() {
        let (mut a, mut b) = fixture();
        let mut srcs: Vec<&mut dyn GradedSource> = vec![&mut a, &mut b];
        assert!(matches!(
            MaxMerge.top_k(&mut srcs, &Min, 2),
            Err(AlgoError::UnsupportedScoring { .. })
        ));
    }

    #[test]
    fn returned_grades_are_exact_even_for_cross_list_objects() {
        // Object 0 is top of list a with 0.9 but also graded 0.2 in b;
        // object 2 is low in a (0.3) but top of b (0.95). Max grades
        // must reflect the best of *all* lists for returned objects.
        let (mut a, mut b) = fixture();
        let mut srcs: Vec<&mut dyn GradedSource> = vec![&mut a, &mut b];
        let r = MaxMerge.top_k(&mut srcs, &ConormScoring(Max), 2).unwrap();
        assert_eq!(r.answers[0], ScoredObject::new(2, s(0.95)));
        assert_eq!(r.answers[1], ScoredObject::new(0, s(0.9)));
    }

    #[test]
    fn short_universe_is_handled() {
        let mut a = VecSource::from_dense("a", &[s(0.4)]);
        let mut b = VecSource::from_dense("b", &[s(0.6)]);
        let mut srcs: Vec<&mut dyn GradedSource> = vec![&mut a, &mut b];
        let r = MaxMerge.top_k(&mut srcs, &ConormScoring(Max), 5).unwrap();
        assert_eq!(r.answers.len(), 1);
        assert_eq!(r.answers[0].grade, s(0.6));
    }
}
