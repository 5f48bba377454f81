//! Filter-condition simulation of A₀, after Chaudhuri–Gravano \[CG96\]
//! (§4.1: "Chaudhuri and Gravano consider ways to simulate algorithm A₀
//! by using 'filter conditions', which might say, for example, that the
//! color score is at least .2").
//!
//! Many repositories cannot stream indefinitely but can answer *filter
//! queries*: "all objects with grade ≥ τ". We simulate such a query
//! over a [`Subsystem`] by sorted-accessing until the stream drops
//! below τ (each streamed object counts as an access, including the one
//! that reveals the stream fell below τ).
//!
//! Strategy: guess a threshold τ; fetch every conjunct's τ-filter
//! result; objects in *all* filter results have fully-known grades, so
//! their overall grades are exact. If at least `k` of them score ≥ τ we
//! are done (no other object can reach τ — see below); otherwise lower
//! τ and restart, paying the re-execution. Experiment E12 measures how
//! the τ schedule trades restarts against over-fetching.
//!
//! Soundness requires `combine(x₁…x_m) ≤ min(x₁…x_m)` — true for every
//! t-norm (`t(x,y) ≤ t(x,1) = x`), false for means. Then an object
//! missing from some τ-filter has a conjunct grade < τ, hence an overall
//! grade < τ, and cannot displace the `k` found answers. The
//! constructor probes this property and refuses means and co-norms.

use fmdb_core::score::{Score, ScoredObject};
use fmdb_core::scoring::ScoringFunction;

use crate::algorithms::book::Book;
use crate::algorithms::{finalize, monotone, validate, AlgoError, TopKAlgorithm, TopKResult};
use crate::planner::bounded_by_min;
use crate::source::Subsystem;
use crate::stats::AccessStats;

/// Filter-condition top-k evaluation with a geometric τ schedule.
#[derive(Debug, Clone, Copy)]
pub struct CgFilter {
    /// First threshold tried, in `(0, 1)`.
    pub initial_tau: f64,
    /// Multiplier applied to τ after an unsuccessful round, in `(0, 1)`.
    pub decay: f64,
}

impl Default for CgFilter {
    fn default() -> Self {
        CgFilter {
            initial_tau: 0.5,
            decay: 0.5,
        }
    }
}

/// Result of one [`CgFilter`] run with the restart count exposed.
#[derive(Debug, Clone, PartialEq)]
pub struct CgRun {
    /// The top-k result (stats include every restarted round).
    pub result: TopKResult,
    /// Number of rounds executed (1 = first τ sufficed).
    pub rounds: u32,
    /// The final threshold that produced the answer.
    pub final_tau: f64,
}

impl CgFilter {
    /// Creates a filter strategy. Returns `None` unless
    /// `0 < initial_tau < 1` and `0 < decay < 1`.
    pub fn new(initial_tau: f64, decay: f64) -> Option<CgFilter> {
        ((0.0..1.0).contains(&initial_tau)
            && initial_tau > 0.0
            && (0.0..1.0).contains(&decay)
            && decay > 0.0)
            .then_some(CgFilter { initial_tau, decay })
    }

    /// Runs the filter strategy, reporting restart diagnostics.
    pub fn run(
        &self,
        sources: &mut [&mut dyn Subsystem],
        scoring: &dyn ScoringFunction,
        k: usize,
    ) -> Result<CgRun, AlgoError> {
        validate(sources, k)?;
        monotone(scoring)?;
        if !bounded_by_min(scoring, sources.len()) {
            return Err(AlgoError::UnsupportedScoring {
                algorithm: "cg-filter",
                requirement: "combine bounded by min (a t-norm)",
                scoring: scoring.name(),
            });
        }
        let mut stats = AccessStats::ZERO;
        let mut tau = self.initial_tau;
        let mut rounds = 0u32;

        loop {
            rounds += 1;
            // One filter round: stream each list down to grade < τ. A
            // restart re-executes the filter queries, so it pays for —
            // and forgets — everything the last round saw.
            let mut book = Book::open(sources);
            for i in 0..sources.len() {
                while book
                    .pull(i, sources)?
                    .is_some_and(|(.., grade)| grade.value() >= tau)
                {}
            }
            stats += book.frontier.stats;
            let all_exhausted = book.frontier.exhausted.iter().all(|&drained| drained);

            // Candidates present in every filter result have exact
            // grades (the entry that showed a stream had fallen below τ
            // is in none). Once every list is fully drained, a missing
            // slot definitively means "not in that list" — grade 0.
            let table = &mut book.table;
            let passed = |g: &Option<Score>| g.is_some_and(|g| g.value() >= tau);
            let mut answers = Vec::new();
            for row in 0..table.len() {
                if all_exhausted || table.fields(row).iter().all(passed) {
                    let grade = table.bound(row, |_| Score::ZERO, scoring);
                    answers.push(ScoredObject::new(table.oid(row), grade));
                }
            }
            let enough = answers.iter().filter(|a| a.grade.value() >= tau).count() >= k;

            if enough || all_exhausted {
                return Ok(CgRun {
                    result: finalize(answers, k, stats),
                    rounds,
                    final_tau: tau,
                });
            }
            tau *= self.decay;
            // Grades of 0 can never pass a positive filter; once τ
            // decays below any meaningful grade, drop it to 0 so the
            // next round drains the lists completely and terminates.
            if tau < 1e-12 {
                tau = 0.0;
            }
        }
    }
}

impl TopKAlgorithm for CgFilter {
    fn name(&self) -> &'static str {
        "cg-filter"
    }

    fn evaluate(
        &self,
        sources: &mut [&mut dyn Subsystem],
        scoring: &dyn ScoringFunction,
        k: usize,
    ) -> Result<TopKResult, AlgoError> {
        self.run(sources, scoring, k).map(|r| r.result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::tests::Planned;
    use crate::planner::PhysicalPlan;
    use crate::source::GradedSource;
    use crate::source::VecSource;
    use fmdb_core::scoring::means::ArithmeticMean;
    use fmdb_core::scoring::tnorms::{Min, Product};

    fn s(v: f64) -> Score {
        Score::clamped(v)
    }

    fn pseudo_random_sources(n: u64, seeds: &[u64]) -> Vec<VecSource> {
        seeds
            .iter()
            .map(|&seed| {
                let grades: Vec<Score> = (0..n)
                    .map(|i| s(((i.wrapping_mul(seed)) % 10_007) as f64 / 10_007.0))
                    .collect();
                VecSource::from_dense(format!("src{seed}"), &grades)
            })
            .collect()
    }

    fn run_algo(
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

    #[test]
    fn grades_match_naive_under_min_and_product() {
        let scorings: Vec<Box<dyn ScoringFunction>> = vec![Box::new(Min), Box::new(Product)];
        for scoring in &scorings {
            for k in [1, 5, 12] {
                let mut a = pseudo_random_sources(300, &[7919, 104729]);
                let cg = run_algo(&CgFilter::default(), &mut a, scoring.as_ref(), k);
                let mut b = pseudo_random_sources(300, &[7919, 104729]);
                let naive = run_algo(
                    &Planned(PhysicalPlan::FullScan, 0.0),
                    &mut b,
                    scoring.as_ref(),
                    k,
                );
                assert_eq!(
                    grades_of(&cg),
                    grades_of(&naive),
                    "{} k={k}",
                    scoring.name()
                );
            }
        }
    }

    #[test]
    fn rejects_means() {
        let mut a = pseudo_random_sources(50, &[7919, 104729]);
        let mut refs: Vec<&mut dyn GradedSource> =
            a.iter_mut().map(|s| s as &mut dyn GradedSource).collect();
        assert!(matches!(
            CgFilter::default().top_k(&mut refs, &ArithmeticMean, 3),
            Err(AlgoError::UnsupportedScoring { .. })
        ));
    }

    #[test]
    fn low_initial_tau_avoids_restarts_high_tau_restarts() {
        let mut a = pseudo_random_sources(300, &[7919, 104729]);
        let mut refs: Vec<&mut dyn Subsystem> =
            a.iter_mut().map(|s| s as &mut dyn Subsystem).collect();
        let greedy = CgFilter::new(0.95, 0.5).unwrap();
        let run_hi = greedy.run(&mut refs, &Min, 20).unwrap();
        assert!(run_hi.rounds > 1, "τ=0.95 should not satisfy k=20 at once");

        let mut b = pseudo_random_sources(300, &[7919, 104729]);
        let mut refs_b: Vec<&mut dyn Subsystem> =
            b.iter_mut().map(|s| s as &mut dyn Subsystem).collect();
        let lax = CgFilter::new(0.05, 0.5).unwrap();
        let run_lo = lax.run(&mut refs_b, &Min, 20).unwrap();
        assert_eq!(run_lo.rounds, 1);
    }

    #[test]
    fn terminates_on_all_zero_grades() {
        let grades = vec![Score::ZERO; 10];
        let mut a = VecSource::from_dense("a", &grades);
        let mut b = VecSource::from_dense("b", &grades);
        let mut refs: Vec<&mut dyn Subsystem> = vec![&mut a, &mut b];
        let run = CgFilter::default().run(&mut refs, &Min, 3).unwrap();
        assert_eq!(run.result.answers.len(), 3);
        assert!(run.result.answers.iter().all(|a| a.grade == Score::ZERO));
    }

    #[test]
    fn constructor_validates() {
        assert!(CgFilter::new(0.0, 0.5).is_none());
        assert!(CgFilter::new(1.0, 0.5).is_none());
        assert!(CgFilter::new(0.5, 0.0).is_none());
        assert!(CgFilter::new(0.5, 1.0).is_none());
        assert!(CgFilter::new(0.5, 0.5).is_some());
    }
}
