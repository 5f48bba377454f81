//! CA — the Combined Algorithm (Fagin–Lotem–Naor §6).
//!
//! TA random-accesses every field of every object it meets, which is
//! ruinous when a random access costs `c_R ≫ c_S`; NRA never probes,
//! which leaves grades as intervals and can stream far deeper than
//! necessary. CA interpolates between them, tuned by the cost ratio:
//!
//! * run NRA-style rounds of sorted access, maintaining a grade
//!   interval `[lower, upper]` for every seen object;
//! * every `h = max(1, ⌊c_R/c_S⌋)` rounds, spend (up to) the price of
//!   one random access per round: completely resolve the *most
//!   promising unresolved* object — the one with the largest upper
//!   bound among those not already excluded by the current k-th lower
//!   bound — by random-accessing all its missing fields;
//! * halt under NRA's (θ-relaxed) rule: every non-candidate upper
//!   bound is `≤ (1 + θ)·Mₖ` and so is the unseen-object bound.
//!
//! At `h = 1` CA probes aggressively like TA; as `h → ∞` it degrades
//! toward pure NRA. Unlike NRA, CA *reports exact grades*: whatever
//! intervals remain open on the k answers at the halt are closed by
//! probing their missing fields (charged to `random` like any other
//! probe), so the result satisfies the workspace's exact-grade oracle
//! checks for θ = 0 regardless of the cost ratio.

use fmdb_core::scoring::ScoringFunction;

use crate::algorithms::threshold::{Family, Probe, Report};
use crate::algorithms::{AlgoError, TopKAlgorithm, TopKResult};
use crate::source::Subsystem;
use crate::stats::CostModel;

/// The Combined Algorithm, parameterized by the interleave depth `h`
/// (sorted-access rounds per random-access step) and the approximation
/// slack `θ`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CombinedAlgorithm {
    h: usize,
    theta: f64,
}

impl CombinedAlgorithm {
    /// CA with an explicit interleave depth (`h` is clamped to ≥ 1)
    /// and slack (`theta = 0.0` for the exact algorithm).
    pub fn new(h: usize, theta: f64) -> CombinedAlgorithm {
        CombinedAlgorithm { h: h.max(1), theta }
    }

    /// CA tuned to a cost model: `h = max(1, ⌊c_R/c_S⌋)`.
    pub fn for_cost(cost: &CostModel, theta: f64) -> CombinedAlgorithm {
        CombinedAlgorithm::new(crate::policy::interleave_depth(cost), theta)
    }

    /// The interleave depth `h`.
    pub fn interleave(&self) -> usize {
        self.h
    }

    /// The configured slack.
    pub fn theta(&self) -> f64 {
        self.theta
    }
}

impl TopKAlgorithm for CombinedAlgorithm {
    fn name(&self) -> &'static str {
        "combined-ca"
    }

    /// The threshold kernel probing every `h`-th round, with the
    /// answers' open intervals closed after the halt.
    fn evaluate(
        &self,
        sources: &mut [&mut dyn Subsystem],
        scoring: &dyn ScoringFunction,
        k: usize,
    ) -> Result<TopKResult, AlgoError> {
        let family = Family::new(Probe::Every(self.h), self.theta, Report::Closed);
        Ok(family.top_k(sources, scoring, k)?.into_lower_bounds())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::naive::Naive;
    use crate::algorithms::ta::ThresholdAlgorithm;
    use crate::oracle::verify_top_k;
    use crate::source::GradedSource;
    use crate::source::{Oid, VecSource};
    use crate::workload::independent_uniform;
    use fmdb_core::score::Score;
    use fmdb_core::scoring::means::ArithmeticMean;
    use fmdb_core::scoring::tnorms::Min;

    fn run(algo: &dyn TopKAlgorithm, sources: &mut [VecSource], k: usize) -> TopKResult {
        let mut refs: Vec<&mut dyn GradedSource> = sources
            .iter_mut()
            .map(|s| s as &mut dyn GradedSource)
            .collect();
        algo.top_k(&mut refs, &Min, k).unwrap()
    }

    fn grades_of(r: &TopKResult) -> Vec<Score> {
        r.answers.iter().map(|a| a.grade).collect()
    }

    #[test]
    fn exact_ca_matches_naive_for_every_interleave() {
        for h in [1usize, 3, 10, 100] {
            for k in [1usize, 5, 12] {
                let mut a = independent_uniform(300, 2, 13);
                let ca = run(&CombinedAlgorithm::new(h, 0.0), &mut a, k);
                let mut b = independent_uniform(300, 2, 13);
                let naive = run(&Naive, &mut b, k);
                assert_eq!(grades_of(&ca), grades_of(&naive), "h={h} k={k}");

                let mut c = independent_uniform(300, 2, 13);
                let mut refs: Vec<&mut dyn GradedSource> =
                    c.iter_mut().map(|s| s as &mut dyn GradedSource).collect();
                assert!(verify_top_k(&mut refs, &Min, &ca.answers, k).is_ok());
            }
        }
    }

    #[test]
    fn exact_ca_matches_naive_under_mean_three_lists() {
        let mut a = independent_uniform(200, 3, 29);
        let mut refs: Vec<&mut dyn GradedSource> =
            a.iter_mut().map(|s| s as &mut dyn GradedSource).collect();
        let ca = CombinedAlgorithm::new(5, 0.0)
            .top_k(&mut refs, &ArithmeticMean, 6)
            .unwrap();
        let mut b = independent_uniform(200, 3, 29);
        let mut refs: Vec<&mut dyn GradedSource> =
            b.iter_mut().map(|s| s as &mut dyn GradedSource).collect();
        let naive = Naive.top_k(&mut refs, &ArithmeticMean, 6).unwrap();
        assert_eq!(grades_of(&ca), grades_of(&naive));
    }

    #[test]
    fn deep_interleave_probes_less_than_ta() {
        let mut a = independent_uniform(4000, 2, 7);
        let ca = run(&CombinedAlgorithm::new(50, 0.0), &mut a, 10);
        let mut b = independent_uniform(4000, 2, 7);
        let ta = run(&ThresholdAlgorithm, &mut b, 10);
        assert!(
            ca.stats.random < ta.stats.random,
            "CA h=50 random {} must undercut TA's {}",
            ca.stats.random,
            ta.stats.random
        );
    }

    #[test]
    fn for_cost_derives_the_interleave() {
        let model = CostModel::random_to_sorted_ratio(30.0).unwrap();
        assert_eq!(CombinedAlgorithm::for_cost(&model, 0.0).interleave(), 30);
        assert_eq!(
            CombinedAlgorithm::for_cost(&CostModel::UNIFORM, 0.0).interleave(),
            1
        );
    }

    #[test]
    fn small_universe_returns_everything_exactly() {
        let g = [0.9, 0.4, 0.7].map(Score::clamped);
        let h = [0.5, 0.8, 0.6].map(Score::clamped);
        let mut sources = vec![
            VecSource::from_dense("a", &g),
            VecSource::from_dense("b", &h),
        ];
        let ca = run(&CombinedAlgorithm::new(2, 0.0), &mut sources, 3);
        // min grades: [0.5, 0.4, 0.6] → order 2, 0, 1.
        let ids: Vec<Oid> = ca.answers.iter().map(|a| a.id).collect();
        assert_eq!(ids, vec![2, 0, 1]);
    }

    #[test]
    fn validates_arguments() {
        let mut none: Vec<&mut dyn GradedSource> = vec![];
        assert!(matches!(
            CombinedAlgorithm::new(2, 0.0).top_k(&mut none, &Min, 1),
            Err(AlgoError::NoSources)
        ));
        let mut sources = independent_uniform(10, 2, 1);
        let mut refs: Vec<&mut dyn GradedSource> = sources
            .iter_mut()
            .map(|s| s as &mut dyn GradedSource)
            .collect();
        assert!(matches!(
            CombinedAlgorithm::new(2, -0.1).top_k(&mut refs, &Min, 2),
            Err(AlgoError::InvalidRequest(_))
        ));
    }
}
