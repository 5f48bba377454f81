//! Brute-force reference evaluation and top-k validity checking.
//!
//! The paper defines a correct answer to a top-k query as *any* set of
//! `k` objects (with grades) such that every returned object ties or
//! beats every object left out; ties may be broken arbitrarily.
//! [`verify_top_k_set`] checks exactly that definition — `min(k, N)`
//! distinct objects with their true grades, none beaten by an object
//! left out — so algorithms with different (but legal) tie-breaking all
//! pass; it serves the plans that certify a set (NRA, the θ plans).
//! [`verify_top_k`] also demands the ranked order every other plan
//! promises: grades non-increasing. Both drain the sources completely —
//! they are oracles for tests, not algorithms.

use std::collections::HashMap;

use fmdb_core::score::{Score, ScoredObject};
use fmdb_core::scoring::ScoringFunction;

use crate::source::{GradedSource, Oid};

/// Every object's exact overall grade, computed by full scans.
///
/// Rewinds and fully drains each source.
pub fn all_grades(
    sources: &mut [&mut dyn GradedSource],
    scoring: &dyn ScoringFunction,
) -> HashMap<Oid, Score> {
    let m = sources.len();
    let mut slots: HashMap<Oid, Vec<Score>> = HashMap::new();
    for (i, source) in sources.iter_mut().enumerate() {
        source.rewind();
        while let Some(so) = source.sorted_next() {
            slots.entry(so.id).or_insert_with(|| vec![Score::ZERO; m])[i] = so.grade;
        }
        source.rewind();
    }
    slots
        .into_iter()
        .map(|(oid, gs)| (oid, scoring.combine(&gs)))
        .collect()
}

/// Why a candidate answer failed verification.
#[derive(Debug, Clone, PartialEq)]
pub enum TopKViolation {
    /// An answer reported a grade different from the true grade.
    WrongGrade {
        /// The object.
        oid: Oid,
        /// What the algorithm reported.
        reported: Score,
        /// The true grade.
        actual: Score,
    },
    /// Fewer answers than `min(k, N)` were returned.
    TooFewAnswers {
        /// How many came back.
        got: usize,
        /// How many were required.
        expected: usize,
    },
    /// More answers than `min(k, N)` were returned.
    TooManyAnswers {
        /// How many came back.
        got: usize,
        /// How many were allowed.
        expected: usize,
    },
    /// The answer at `position` has a higher grade than the one before
    /// it: a ranked answer lists grades non-increasing.
    OutOfOrder {
        /// Index of the first answer that outranks its predecessor.
        position: usize,
    },
    /// The same object appeared twice.
    Duplicate(Oid),
    /// Some object outside the answer set beats an answer.
    NotTopK {
        /// The overlooked object.
        better: Oid,
        /// Its grade.
        better_grade: Score,
        /// The weakest returned grade it beats.
        weakest_returned: Score,
    },
}

impl std::fmt::Display for TopKViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopKViolation::WrongGrade {
                oid,
                reported,
                actual,
            } => write!(f, "object {oid}: reported grade {reported}, actual {actual}"),
            TopKViolation::TooFewAnswers { got, expected } => {
                write!(f, "got {got} answers, expected {expected}")
            }
            TopKViolation::TooManyAnswers { got, expected } => {
                write!(f, "got {got} answers, at most {expected} allowed")
            }
            TopKViolation::OutOfOrder { position } => write!(
                f,
                "answer {position} has a higher grade than answer {}",
                position.saturating_sub(1)
            ),
            TopKViolation::Duplicate(oid) => write!(f, "object {oid} returned twice"),
            TopKViolation::NotTopK {
                better,
                better_grade,
                weakest_returned,
            } => write!(
                f,
                "object {better} (grade {better_grade}) beats weakest returned grade {weakest_returned}"
            ),
        }
    }
}

/// Verifies that `answers` is a valid ranked top-`k` result for the
/// query: [`verify_top_k_set`]'s checks, and grades non-increasing.
///
/// Drains the sources (they are rewound before and after).
pub fn verify_top_k(
    sources: &mut [&mut dyn GradedSource],
    scoring: &dyn ScoringFunction,
    answers: &[ScoredObject<Oid>],
    k: usize,
) -> Result<(), TopKViolation> {
    verify_top_k_set(sources, scoring, answers, k)?;
    match answers
        .windows(2)
        .position(|pair| pair[1].grade.value() > pair[0].grade.value())
    {
        Some(i) => Err(TopKViolation::OutOfOrder { position: i + 1 }),
        None => Ok(()),
    }
}

/// Verifies that `answers`, in any order, is a valid top-`k` set for the
/// query: exactly `min(k, N)` distinct objects, each with its true grade,
/// none beaten by an object left out.
///
/// Drains the sources (they are rewound before and after).
pub fn verify_top_k_set(
    sources: &mut [&mut dyn GradedSource],
    scoring: &dyn ScoringFunction,
    answers: &[ScoredObject<Oid>],
    k: usize,
) -> Result<(), TopKViolation> {
    let truth = all_grades(sources, scoring);
    let expected = k.min(truth.len());
    if answers.len() < expected {
        return Err(TopKViolation::TooFewAnswers {
            got: answers.len(),
            expected,
        });
    }
    if answers.len() > expected {
        return Err(TopKViolation::TooManyAnswers {
            got: answers.len(),
            expected,
        });
    }
    let mut seen = std::collections::HashSet::new();
    for a in answers {
        if !seen.insert(a.id) {
            return Err(TopKViolation::Duplicate(a.id));
        }
        let actual = truth.get(&a.id).copied().unwrap_or(Score::ZERO);
        if !actual.approx_eq(a.grade, 1e-9) {
            return Err(TopKViolation::WrongGrade {
                oid: a.id,
                reported: a.grade,
                actual,
            });
        }
    }
    let weakest = answers.iter().map(|a| a.grade).min().unwrap_or(Score::ONE);
    for (&oid, &grade) in &truth {
        if !seen.contains(&oid) && grade.value() > weakest.value() + 1e-9 {
            return Err(TopKViolation::NotTopK {
                better: oid,
                better_grade: grade,
                weakest_returned: weakest,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::VecSource;
    use fmdb_core::scoring::tnorms::Min;

    fn s(v: f64) -> Score {
        Score::clamped(v)
    }

    fn sources() -> (VecSource, VecSource) {
        (
            VecSource::from_dense("a", &[s(0.9), s(0.2), s(0.6)]),
            VecSource::from_dense("b", &[s(0.1), s(0.8), s(0.7)]),
        )
    }

    #[test]
    fn all_grades_combines_correctly() {
        let (mut a, mut b) = sources();
        let mut refs: Vec<&mut dyn GradedSource> = vec![&mut a, &mut b];
        let g = all_grades(&mut refs, &Min);
        assert_eq!(g[&0], s(0.1));
        assert_eq!(g[&1], s(0.2));
        assert_eq!(g[&2], s(0.6));
    }

    #[test]
    fn accepts_a_correct_answer() {
        let (mut a, mut b) = sources();
        let mut refs: Vec<&mut dyn GradedSource> = vec![&mut a, &mut b];
        let ans = vec![ScoredObject::new(2, s(0.6)), ScoredObject::new(1, s(0.2))];
        assert_eq!(verify_top_k(&mut refs, &Min, &ans, 2), Ok(()));
    }

    #[test]
    fn rejects_wrong_grade() {
        let (mut a, mut b) = sources();
        let mut refs: Vec<&mut dyn GradedSource> = vec![&mut a, &mut b];
        let ans = vec![ScoredObject::new(2, s(0.9))];
        assert!(matches!(
            verify_top_k(&mut refs, &Min, &ans, 1),
            Err(TopKViolation::WrongGrade { oid: 2, .. })
        ));
    }

    #[test]
    fn rejects_non_top_k() {
        let (mut a, mut b) = sources();
        let mut refs: Vec<&mut dyn GradedSource> = vec![&mut a, &mut b];
        let ans = vec![ScoredObject::new(1, s(0.2))];
        assert!(matches!(
            verify_top_k(&mut refs, &Min, &ans, 1),
            Err(TopKViolation::NotTopK { better: 2, .. })
        ));
    }

    #[test]
    fn rejects_duplicates_and_short_answers() {
        let (mut a, mut b) = sources();
        let mut refs: Vec<&mut dyn GradedSource> = vec![&mut a, &mut b];
        let dup = vec![ScoredObject::new(2, s(0.6)), ScoredObject::new(2, s(0.6))];
        assert!(matches!(
            verify_top_k(&mut refs, &Min, &dup, 2),
            Err(TopKViolation::Duplicate(2))
        ));
        let short = vec![ScoredObject::new(2, s(0.6))];
        assert!(matches!(
            verify_top_k(&mut refs, &Min, &short, 2),
            Err(TopKViolation::TooFewAnswers {
                got: 1,
                expected: 2
            })
        ));
    }

    #[test]
    fn rejects_a_too_long_answer() {
        let (mut a, mut b) = sources();
        let mut refs: Vec<&mut dyn GradedSource> = vec![&mut a, &mut b];
        let long = vec![ScoredObject::new(2, s(0.6)), ScoredObject::new(1, s(0.2))];
        assert!(matches!(
            verify_top_k(&mut refs, &Min, &long, 1),
            Err(TopKViolation::TooManyAnswers {
                got: 2,
                expected: 1
            })
        ));
        assert!(matches!(
            verify_top_k_set(&mut refs, &Min, &long, 1),
            Err(TopKViolation::TooManyAnswers { .. })
        ));
    }

    #[test]
    fn rejects_an_unsorted_answer_but_the_set_check_takes_it() {
        let (mut a, mut b) = sources();
        let mut refs: Vec<&mut dyn GradedSource> = vec![&mut a, &mut b];
        let unsorted = vec![ScoredObject::new(1, s(0.2)), ScoredObject::new(2, s(0.6))];
        assert_eq!(
            verify_top_k(&mut refs, &Min, &unsorted, 2),
            Err(TopKViolation::OutOfOrder { position: 1 })
        );
        assert_eq!(verify_top_k_set(&mut refs, &Min, &unsorted, 2), Ok(()));
    }

    #[test]
    fn violation_display() {
        let v = TopKViolation::Duplicate(3);
        assert!(v.to_string().contains('3'));
    }
}
