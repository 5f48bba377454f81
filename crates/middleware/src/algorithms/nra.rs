//! NRA — top-k with **no random access** (extension).
//!
//! §4.2's sobering finding: random access presupposes a one-to-one id
//! mapping and a way to look up "the matching attributes of the same
//! object in the second stream", and that information "may not be
//! easily available (e.g., through an index)". When a subsystem simply
//! cannot answer point probes, A₀ is inapplicable — the regime later
//! formalized by Fagin–Lotem–Naor's NRA (PODS 2001), implemented here.
//!
//! NRA does sorted access only, maintaining for every seen object a
//! grade **interval**: the lower bound fills unknown conjuncts with 0,
//! the upper bound fills them with the list's last-streamed grade. It
//! stops when k objects' lower bounds dominate every other object's
//! upper bound (seen or unseen). The price of skipping random access is
//! that reported grades may remain intervals rather than exact values.

use fmdb_core::score::{Score, ScoredObject};
use fmdb_core::scoring::ScoringFunction;

use crate::algorithms::threshold::{Family, Probe, Report};
use crate::algorithms::{AlgoError, TopKAlgorithm, TopKResult};
use crate::source::{GradedSource, Oid};
use crate::stats::AccessStats;

/// An NRA answer: an object guaranteed to belong to the top k, with
/// the grade interval known when the algorithm stopped.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundedAnswer {
    /// The object.
    pub id: Oid,
    /// Guaranteed lower bound on its overall grade.
    pub lower: Score,
    /// Guaranteed upper bound on its overall grade.
    pub upper: Score,
}

impl BoundedAnswer {
    /// True if the interval has collapsed (the grade is exact).
    pub fn is_exact(&self) -> bool {
        self.lower == self.upper
    }
}

/// Result of an NRA run.
#[derive(Debug, Clone, PartialEq)]
pub struct NraResult {
    /// A valid top-k *set* (every member's true grade ties or beats
    /// every non-member's), in the one order the threshold kernel
    /// reports in: descending [`BoundedAnswer::lower`], ties by
    /// ascending oid. Where the lower bounds are exact grades — under
    /// TA, and under CA once its closing probes have run — that is the
    /// workspace's output order (descending grade, then ascending oid).
    pub answers: Vec<BoundedAnswer>,
    /// Access statistics — `random` is 0 by construction.
    pub stats: AccessStats,
}

impl NraResult {
    /// Flattens each [`BoundedAnswer`] to its certified **lower**
    /// bound. The answer *set* is a valid top-k set; reported grades
    /// may understate the truth wherever the interval had not
    /// collapsed — that is the price of the no-random-access regime.
    pub fn into_lower_bounds(self) -> TopKResult {
        TopKResult {
            answers: self
                .answers
                .iter()
                .map(|b| ScoredObject::new(b.id, b.lower))
                .collect(),
            stats: self.stats,
        }
    }
}

/// The no-random-access algorithm.
#[derive(Debug, Clone, Copy, Default)]
pub struct Nra;

impl Nra {
    /// Finds a top-`k` set using sorted access only: the threshold
    /// kernel with no probes, reporting the intervals as they stand at
    /// the halt.
    pub fn top_k(
        &self,
        sources: &mut [&mut dyn GradedSource],
        scoring: &dyn ScoringFunction,
        k: usize,
    ) -> Result<NraResult, AlgoError> {
        Family::new(Probe::Never, 0.0, Report::AsHalted).top_k(sources, scoring, k)
    }
}

/// NRA packaged as a [`TopKAlgorithm`]: flattens every answer to its
/// certified **lower** bound ([`NraResult::into_lower_bounds`]), so it
/// is usable wherever a `&dyn TopKAlgorithm` is required (notably
/// [`crate::engine::Engine::run_algorithm`]). Callers needing the
/// intervals should use [`Nra::top_k`] directly.
///
/// Grade caveat carried over from [`Nra`]: the answer *set* is a valid
/// top-k set, but grades may understate the truth wherever the interval
/// had not collapsed.
#[derive(Debug, Clone, Copy, Default)]
pub struct NraLowerBound;

impl TopKAlgorithm for NraLowerBound {
    fn name(&self) -> &'static str {
        "nra-lower-bound"
    }

    fn top_k(
        &self,
        sources: &mut [&mut dyn GradedSource],
        scoring: &dyn ScoringFunction,
        k: usize,
    ) -> Result<TopKResult, AlgoError> {
        Ok(Nra.top_k(sources, scoring, k)?.into_lower_bounds())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::naive::Naive;
    use crate::oracle::all_grades;
    use crate::source::VecSource;
    use crate::workload::independent_uniform;
    use fmdb_core::scoring::means::ArithmeticMean;
    use fmdb_core::scoring::tnorms::Min;

    fn run_nra(sources: &mut [VecSource], scoring: &dyn ScoringFunction, k: usize) -> NraResult {
        let mut refs: Vec<&mut dyn GradedSource> = sources
            .iter_mut()
            .map(|s| s as &mut dyn GradedSource)
            .collect();
        Nra.top_k(&mut refs, scoring, k).unwrap()
    }

    /// Checks that the returned ids form a valid top-k *set* under the
    /// true grades, and that every interval contains the true grade.
    fn assert_valid_set(
        sources: &mut [VecSource],
        scoring: &dyn ScoringFunction,
        result: &NraResult,
        k: usize,
    ) {
        let mut refs: Vec<&mut dyn GradedSource> = sources
            .iter_mut()
            .map(|s| s as &mut dyn GradedSource)
            .collect();
        let truth = all_grades(&mut refs, scoring);
        assert_eq!(result.answers.len(), k.min(truth.len()));
        let mut returned_true: Vec<Score> = result.answers.iter().map(|a| truth[&a.id]).collect();
        returned_true.sort();
        let weakest = returned_true[0];
        for (&oid, &grade) in &truth {
            if !result.answers.iter().any(|a| a.id == oid) {
                assert!(
                    grade.value() <= weakest.value() + 1e-9,
                    "object {oid} ({grade}) beats returned floor {weakest}"
                );
            }
        }
        for a in &result.answers {
            let t = truth[&a.id];
            assert!(
                a.lower.value() - 1e-9 <= t.value() && t.value() <= a.upper.value() + 1e-9,
                "interval [{}, {}] misses true {t}",
                a.lower,
                a.upper
            );
        }
        assert_eq!(result.stats.random, 0, "NRA must not random-access");
    }

    #[test]
    fn returns_a_valid_top_k_set_under_min() {
        for k in [1usize, 5, 12] {
            let mut sources = independent_uniform(300, 2, 9);
            let result = run_nra(&mut sources, &Min, k);
            assert_valid_set(&mut sources, &Min, &result, k);
        }
    }

    #[test]
    fn returns_a_valid_top_k_set_under_mean_three_lists() {
        let mut sources = independent_uniform(200, 3, 11);
        let result = run_nra(&mut sources, &ArithmeticMean, 6);
        assert_valid_set(&mut sources, &ArithmeticMean, &result, 6);
    }

    #[test]
    fn grade_set_matches_naive_grades() {
        let mut a = independent_uniform(250, 2, 4);
        let nra = run_nra(&mut a, &Min, 8);
        let mut b = independent_uniform(250, 2, 4);
        let mut refs: Vec<&mut dyn GradedSource> =
            b.iter_mut().map(|s| s as &mut dyn GradedSource).collect();
        let naive = Naive.top_k(&mut refs, &Min, 8).unwrap();
        // Same true-grade multiset (sets may differ only on ties).
        let mut refs2: Vec<&mut dyn GradedSource> =
            b.iter_mut().map(|s| s as &mut dyn GradedSource).collect();
        let truth = all_grades(&mut refs2, &Min);
        let mut nra_grades: Vec<Score> = nra.answers.iter().map(|x| truth[&x.id]).collect();
        nra_grades.sort();
        let mut naive_grades: Vec<Score> = naive.answers.iter().map(|x| x.grade).collect();
        naive_grades.sort();
        for (x, y) in nra_grades.iter().zip(&naive_grades) {
            assert!(x.approx_eq(*y, 1e-9));
        }
    }

    #[test]
    fn small_universe_returns_everything_exactly() {
        let g = [0.9, 0.4, 0.7].map(Score::clamped);
        let h = [0.5, 0.8, 0.6].map(Score::clamped);
        let mut sources = vec![
            VecSource::from_dense("a", &g),
            VecSource::from_dense("b", &h),
        ];
        let result = run_nra(&mut sources, &Min, 3);
        assert_eq!(result.answers.len(), 3);
        for a in &result.answers {
            assert!(a.is_exact(), "fully drained lists give exact grades");
        }
        // min grades: [0.5, 0.4, 0.6] → order 2, 0, 1.
        let ids: Vec<Oid> = result.answers.iter().map(|a| a.id).collect();
        assert_eq!(ids, vec![2, 0, 1]);
    }

    #[test]
    fn costs_more_sorted_accesses_than_fa_but_zero_random() {
        use crate::algorithms::fa::FaginsAlgorithm;
        let mut a = independent_uniform(2000, 2, 21);
        let nra = run_nra(&mut a, &Min, 5);
        let mut b = independent_uniform(2000, 2, 21);
        let mut refs: Vec<&mut dyn GradedSource> =
            b.iter_mut().map(|s| s as &mut dyn GradedSource).collect();
        let fa = FaginsAlgorithm.top_k(&mut refs, &Min, 5).unwrap();
        assert_eq!(nra.stats.random, 0);
        assert!(fa.stats.random > 0);
        // NRA usually pays deeper sorted streams for skipping probes.
        assert!(
            nra.stats.sorted >= fa.stats.sorted,
            "nra {} vs fa {}",
            nra.stats.sorted,
            fa.stats.sorted
        );
    }

    #[test]
    fn validates_arguments() {
        let mut none: Vec<&mut dyn GradedSource> = vec![];
        assert!(matches!(
            Nra.top_k(&mut none, &Min, 1),
            Err(AlgoError::NoSources)
        ));
    }
}
