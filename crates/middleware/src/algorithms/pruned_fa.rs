//! A₀ with pruned random access — the "various improvements … that can
//! be made to algorithm A₀" mentioned in §4.1 (detailed in \[Fa96\],
//! particularly for `t = min`).
//!
//! Phase 1 (sorted access) is exactly A₀'s. Phase 2 exploits what
//! sorted access already revealed: when list `i` last output grade
//! `bᵢ` ("bottom"), every object not yet seen in list `i` has
//! `μᵢ ≤ bᵢ`. By monotonicity, an object's overall grade is at most its
//! **upper bound** — the scoring function applied with every unknown
//! slot replaced by that list's bottom. Two prunes follow:
//!
//! * **skip** — once `k` objects are fully known with `k`-th best grade
//!   `τ`, an object whose upper bound is ≤ τ can be dropped without any
//!   random access (ties may be broken arbitrarily, §4.1);
//! * **short-circuit** — while probing an object's missing grades one
//!   list at a time, the upper bound is recomputed after every probe;
//!   the moment it falls to ≤ τ the remaining probes are abandoned.
//!   For `t = min` this is the classic improvement: one low grade
//!   settles the object's fate.
//!
//! The output is a valid top-k with exact grades — the same *grades*
//! as A₀, though tie objects at the `τ` boundary may differ (both
//! resolutions are correct per the paper's arbitrary tie-breaking).
//! Only the random access cost shrinks; experiment E3 quantifies it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use fmdb_core::score::{Score, ScoredObject};
use fmdb_core::scoring::ScoringFunction;

use crate::algorithms::fa::FaState;
use crate::algorithms::{finalize, monotone, validate, AlgoError, TopKAlgorithm, TopKResult};
use crate::source::{Oid, Subsystem};

/// A₀ with upper-bound pruning of phase-2 random accesses.
///
/// `short_circuit` (default on) enables the intra-object probe
/// abandonment; turning it off isolates the skip prune for the
/// ablation experiment E17.
#[derive(Debug, Clone, Copy)]
pub struct PrunedFa {
    /// Abandon an object's remaining probes once its upper bound falls
    /// to ≤ τ.
    pub short_circuit: bool,
}

impl Default for PrunedFa {
    fn default() -> Self {
        PrunedFa {
            short_circuit: true,
        }
    }
}

impl PrunedFa {
    /// The skip-prune-only variant (no intra-object short circuit).
    pub fn without_short_circuit() -> PrunedFa {
        PrunedFa {
            short_circuit: false,
        }
    }
}

/// The `k` best fully known grades, the smallest on top: τ once there
/// are `k` of them.
struct KthBest {
    k: usize,
    best: BinaryHeap<Reverse<Score>>,
}

impl KthBest {
    fn push(&mut self, grade: Score) {
        self.best.push(Reverse(grade));
        if self.best.len() > self.k {
            self.best.pop();
        }
    }

    /// Whether `k` objects are known to tie or beat `upper`.
    fn excludes(&self, upper: Score) -> bool {
        self.best.len() >= self.k && self.best.peek().is_some_and(|kth| upper <= kth.0)
    }
}

impl TopKAlgorithm for PrunedFa {
    fn name(&self) -> &'static str {
        "pruned-fa"
    }

    fn evaluate(
        &self,
        sources: &mut [&mut dyn Subsystem],
        scoring: &dyn ScoringFunction,
        k: usize,
    ) -> Result<TopKResult, AlgoError> {
        validate(sources, k)?;
        monotone(scoring)?;
        // Phase 1 — A₀'s own.
        let mut state = FaState::new(sources);
        state.sorted_phase(sources, k)?;
        let book = &mut state.book;

        // Phase 2 — pruned random access.
        // Split into fully-known objects and candidates with holes.
        let mut known: Vec<ScoredObject<Oid>> = Vec::new();
        let mut tau = KthBest {
            k,
            best: BinaryHeap::new(),
        };
        let mut candidates: Vec<(Score, Oid, usize)> = Vec::new();
        for row in 0..book.table.len() {
            // With no unknown slot the upper bound is the exact grade.
            let upper = book.upper(row, scoring);
            let oid = book.table.oid(row);
            if book.table.missing(row) == 0 {
                known.push(ScoredObject::new(oid, upper));
                tau.push(upper);
            } else {
                candidates.push((upper, oid, row));
            }
        }

        // Process candidates in descending upper-bound order so the
        // threshold tightens as fast as possible.
        candidates.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        'candidates: for (upper, oid, row) in candidates {
            // Skip prune: μ(oid) ≤ upper ≤ τ — the k fully-known
            // objects already tie or beat it.
            if tau.excludes(upper) {
                continue;
            }
            // Short-circuit probe.
            for j in 0..sources.len() {
                if book.table.fields(row)[j].is_some() {
                    continue;
                }
                book.probe(row, j, sources)?;
                if self.short_circuit && tau.excludes(book.upper(row, scoring)) {
                    continue 'candidates;
                }
            }
            let grade = book.upper(row, scoring);
            known.push(ScoredObject::new(oid, grade));
            tau.push(grade);
        }

        Ok(finalize(known, k, book.frontier.stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::tests::Planned;
    use crate::oracle::verify_top_k;
    use crate::planner::PhysicalPlan;
    use crate::source::GradedSource;
    use crate::source::VecSource;
    use crate::workload::independent_uniform;
    use fmdb_core::scoring::means::ArithmeticMean;
    use fmdb_core::scoring::tnorms::{Min, Product};

    fn s(v: f64) -> Score {
        Score::clamped(v)
    }

    fn run(
        algo: &dyn TopKAlgorithm,
        sources: &mut [VecSource],
        scoring: &dyn ScoringFunction,
        k: usize,
    ) -> TopKResult {
        let mut refs: Vec<&mut dyn GradedSource> = sources
            .iter_mut()
            .map(|s| s as &mut dyn GradedSource)
            .collect();
        algo.top_k(&mut refs, scoring, k).unwrap()
    }

    fn grades_of(r: &TopKResult) -> Vec<Score> {
        r.answers.iter().map(|a| a.grade).collect()
    }

    fn assert_valid(
        sources: &mut [VecSource],
        scoring: &dyn ScoringFunction,
        r: &TopKResult,
        k: usize,
    ) {
        let mut refs: Vec<&mut dyn GradedSource> = sources
            .iter_mut()
            .map(|s| s as &mut dyn GradedSource)
            .collect();
        verify_top_k(&mut refs, scoring, &r.answers, k).expect("invalid top-k");
    }

    #[test]
    fn results_are_valid_and_grades_match_fa_under_min() {
        for k in [1usize, 3, 10] {
            let mut a = independent_uniform(300, 2, 11);
            let pruned = run(&PrunedFa::default(), &mut a, &Min, k);
            assert_valid(&mut a, &Min, &pruned, k);
            let mut b = independent_uniform(300, 2, 11);
            let plain = run(&Planned(PhysicalPlan::Fa, 0.0), &mut b, &Min, k);
            assert_eq!(grades_of(&pruned), grades_of(&plain), "k={k}");
        }
    }

    #[test]
    fn results_are_valid_under_product_and_mean() {
        let scorings: Vec<Box<dyn ScoringFunction>> =
            vec![Box::new(Product), Box::new(ArithmeticMean)];
        for scoring in &scorings {
            let mut a = independent_uniform(200, 3, 23);
            let pruned = run(&PrunedFa::default(), &mut a, scoring.as_ref(), 5);
            assert_valid(&mut a, scoring.as_ref(), &pruned, 5);
            let mut b = independent_uniform(200, 3, 23);
            let plain = run(&Planned(PhysicalPlan::Fa, 0.0), &mut b, scoring.as_ref(), 5);
            assert_eq!(grades_of(&pruned), grades_of(&plain), "{}", scoring.name());
        }
    }

    #[test]
    fn pruning_never_increases_cost() {
        for seed in 0..5u64 {
            let mut a = independent_uniform(500, 2, seed);
            let pruned = run(&PrunedFa::default(), &mut a, &Min, 10);
            let mut b = independent_uniform(500, 2, seed);
            let plain = run(&Planned(PhysicalPlan::Fa, 0.0), &mut b, &Min, 10);
            assert_eq!(pruned.stats.sorted, plain.stats.sorted);
            assert!(
                pruned.stats.random <= plain.stats.random,
                "seed {seed}: pruned {} vs plain {}",
                pruned.stats.random,
                plain.stats.random
            );
        }
    }

    #[test]
    fn pruning_saves_random_accesses_on_random_data() {
        // Averaged over seeds so a single lucky instance can't hide the
        // effect; the short-circuit prune alone guarantees savings for
        // m = 3 under min.
        let mut pruned_total = 0u64;
        let mut plain_total = 0u64;
        for seed in 0..5u64 {
            let mut a = independent_uniform(1000, 3, seed);
            pruned_total += run(&PrunedFa::default(), &mut a, &Min, 5).stats.random;
            let mut b = independent_uniform(1000, 3, seed);
            plain_total += run(&Planned(PhysicalPlan::Fa, 0.0), &mut b, &Min, 5)
                .stats
                .random;
        }
        assert!(
            pruned_total < plain_total,
            "expected saving: pruned {pruned_total} vs plain {plain_total}"
        );
    }

    #[test]
    fn exhausted_lists_bound_unseen_objects_by_zero() {
        // One sparse list: objects it never streams must be prunable.
        let mut a = VecSource::new("a", vec![(0, s(0.9)), (1, s(0.8)), (2, s(0.7))]);
        let mut b = VecSource::new("b", vec![(0, s(0.6))]);
        let mut refs: Vec<&mut dyn GradedSource> = vec![&mut a, &mut b];
        let r = PrunedFa::default().top_k(&mut refs, &Min, 1).unwrap();
        assert_eq!(r.answers[0], ScoredObject::new(0, s(0.6)));
    }

    #[test]
    fn tiny_universe_smaller_than_k() {
        let mut a = VecSource::from_dense("a", &[s(0.5), s(0.7)]);
        let mut b = VecSource::from_dense("b", &[s(0.6), s(0.2)]);
        let mut refs: Vec<&mut dyn GradedSource> = vec![&mut a, &mut b];
        let r = PrunedFa::default().top_k(&mut refs, &Min, 10).unwrap();
        assert_eq!(r.answers.len(), 2);
    }
}
