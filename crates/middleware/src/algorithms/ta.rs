//! The Threshold Algorithm (TA) — an *extension* beyond the paper.
//!
//! §6 poses "finding efficient algorithms in various natural cases" as
//! an open problem; the answer, published three years later by Fagin,
//! Lotem, and Naor ("Optimal Aggregation Algorithms for Middleware",
//! PODS 2001), is TA. We include it to quantify how much headroom the
//! open problem left above A₀ (experiment E13).
//!
//! TA interleaves the phases that A₀ runs back-to-back:
//!
//! * do sorted access in parallel; for every object seen, *immediately*
//!   random-access its missing grades and compute its overall grade;
//! * maintain the threshold `τ = t(b₁, …, b_m)` where `bᵢ` is the last
//!   grade seen under sorted access in list `i`;
//! * halt as soon as `k` objects have grade ≥ τ (no unseen object can
//!   beat `τ`, by monotonicity).
//!
//! Unlike A₀, TA's stopping condition adapts to the data distribution,
//! which makes it *instance optimal* — in particular it degrades
//! gracefully on the correlated instances where A₀'s probabilistic
//! analysis does not apply (experiment E11).

use fmdb_core::scoring::ScoringFunction;

use crate::algorithms::threshold::{Family, Probe, Report};
use crate::algorithms::{AlgoError, TopKAlgorithm, TopKResult};
use crate::source::GradedSource;

/// The Threshold Algorithm.
#[derive(Debug, Clone, Copy, Default)]
pub struct ThresholdAlgorithm;

impl TopKAlgorithm for ThresholdAlgorithm {
    fn name(&self) -> &'static str {
        "threshold-ta"
    }

    /// TA reports its local top-k with exact grades in output order, so
    /// merging per-shard TA answers is a valid top-k — the serial
    /// answer list itself on tie-free lists ([`crate::sharded`]).
    fn shard_kernel(&self) -> bool {
        true
    }

    /// The threshold kernel probing on sight: every seen object is
    /// resolved at once, so the intervals it reports are exact grades.
    fn top_k(
        &self,
        sources: &mut [&mut dyn GradedSource],
        scoring: &dyn ScoringFunction,
        k: usize,
    ) -> Result<TopKResult, AlgoError> {
        let family = Family::new(Probe::OnSight, 0.0, Report::AsHalted);
        Ok(family.top_k(sources, scoring, k)?.into_lower_bounds())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::fa::FaginsAlgorithm;
    use crate::algorithms::naive::Naive;
    use crate::source::VecSource;
    use fmdb_core::score::Score;
    use fmdb_core::scoring::means::ArithmeticMean;
    use fmdb_core::scoring::tnorms::Min;

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

    /// TA may break grade-ties differently from naive; compare the grade
    /// sequences (which must be identical) rather than the oids.
    fn grades_of(r: &TopKResult) -> Vec<Score> {
        r.answers.iter().map(|a| a.grade).collect()
    }

    #[test]
    fn grades_match_naive_under_min() {
        for k in [1, 4, 9] {
            let mut a = pseudo_random_sources(250, &[7919, 104729]);
            let ta = run(&ThresholdAlgorithm, &mut a, &Min, k);
            let mut b = pseudo_random_sources(250, &[7919, 104729]);
            let naive = run(&Naive, &mut b, &Min, k);
            assert_eq!(grades_of(&ta), grades_of(&naive), "k={k}");
        }
    }

    #[test]
    fn grades_match_naive_under_mean() {
        let mut a = pseudo_random_sources(250, &[13, 31, 10_007]);
        let ta = run(&ThresholdAlgorithm, &mut a, &ArithmeticMean, 5);
        let mut b = pseudo_random_sources(250, &[13, 31, 10_007]);
        let naive = run(&Naive, &mut b, &ArithmeticMean, 5);
        assert_eq!(grades_of(&ta), grades_of(&naive));
    }

    #[test]
    fn ta_buffers_never_exceed_universe_and_stop_early() {
        let mut a = pseudo_random_sources(2000, &[7919, 104729]);
        let ta = run(&ThresholdAlgorithm, &mut a, &Min, 5);
        assert!(
            ta.stats.sorted < 2 * 2000,
            "TA should stop before a full scan, got {}",
            ta.stats
        );
    }

    #[test]
    fn ta_usually_beats_fa_on_sorted_cost() {
        let mut a = pseudo_random_sources(2000, &[7919, 104729]);
        let ta = run(&ThresholdAlgorithm, &mut a, &Min, 5);
        let mut b = pseudo_random_sources(2000, &[7919, 104729]);
        let fa = run(&FaginsAlgorithm, &mut b, &Min, 5);
        assert!(
            ta.stats.sorted <= fa.stats.sorted,
            "TA sorted {} vs FA sorted {}",
            ta.stats.sorted,
            fa.stats.sorted
        );
    }

    #[test]
    fn anti_correlated_instance_is_handled() {
        // g2 = 1 − g1: the hard instance for A₀.
        let n = 200;
        let g1: Vec<Score> = (0..n).map(|i| s(i as f64 / n as f64)).collect();
        let g2: Vec<Score> = g1.iter().map(|g| g.negate()).collect();
        let mut a = vec![
            VecSource::from_dense("a", &g1),
            VecSource::from_dense("b", &g2),
        ];
        let ta = run(&ThresholdAlgorithm, &mut a, &Min, 3);
        let mut b = vec![
            VecSource::from_dense("a", &g1),
            VecSource::from_dense("b", &g2),
        ];
        let naive = run(&Naive, &mut b, &Min, 3);
        assert_eq!(grades_of(&ta), grades_of(&naive));
    }

    #[test]
    fn validates_arguments() {
        let mut none: Vec<&mut dyn GradedSource> = vec![];
        assert_eq!(
            ThresholdAlgorithm.top_k(&mut none, &Min, 1),
            Err(AlgoError::NoSources)
        );
    }
}
