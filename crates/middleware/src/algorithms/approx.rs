//! θ-approximate TA and NRA (Fagin–Lotem–Naor §9).
//!
//! A **θ-approximation** of the top-k answers (θ > 0) is a set of `k`
//! objects such that for every returned `z` and every non-returned
//! `y`: `(1 + θ)·g(z) ≥ g(y)`. The algorithms buy access savings by
//! relaxing their stopping rules:
//!
//! * **TA**: halt as soon as `k` seen objects have
//!   `g·(1 + θ) ≥ τ` — the unseen are bounded by `τ`, so the slack
//!   absorbs whatever the scan has not confirmed yet. Returned grades
//!   are exact (TA resolves every seen object by random access).
//! * **NRA**: halt as soon as every non-candidate upper bound is
//!   `≤ (1 + θ)·Mₖ`, `Mₖ` the k-th best lower bound. Returned grades
//!   are certified lower bounds, as in exact NRA.
//!
//! At `θ = 0` both relaxed rules degenerate to the exact comparisons —
//! bit for bit, because the θ ≤ 0 path compares [`Score`]s directly
//! instead of multiplying by `(1 + θ)` (`tests/approx_equivalence.rs`
//! proves the equivalence by property).

use fmdb_core::score::Score;
use fmdb_core::scoring::ScoringFunction;

use crate::algorithms::threshold::{Family, Probe, Report};
use crate::algorithms::{AlgoError, TopKAlgorithm, TopKResult};
use crate::source::Subsystem;

/// TA's relaxed certification: does grade `g` certify against the
/// threshold `τ` under slack `θ`? The same comparison as NRA's
/// exclusion with the roles swapped — `τ` is the bound on the unseen,
/// `g` the k-th grade that must dismiss it.
pub(crate) fn grade_certifies(g: Score, tau: Score, theta: f64) -> bool {
    upper_excluded(tau, g, theta)
}

/// NRA's relaxed exclusion: is an `upper` bound excluded by the k-th
/// lower bound `tau` under slack `θ`? Exact `Score` comparison at θ ≤ 0
/// so the θ = 0 path is bit-identical to the exact algorithm.
pub(crate) fn upper_excluded(upper: Score, tau: Score, theta: f64) -> bool {
    if theta <= 0.0 {
        upper <= tau
    } else {
        upper.value() <= tau.value() * (1.0 + theta)
    }
}

/// Rejects negative or non-finite slacks.
pub(crate) fn validate_theta(theta: f64) -> Result<(), AlgoError> {
    if theta.is_finite() && theta >= 0.0 {
        Ok(())
    } else {
        Err(AlgoError::InvalidRequest(format!(
            "approximation slack θ must be finite and ≥ 0, got {theta}"
        )))
    }
}

/// θ-approximate Threshold Algorithm. Grades of returned objects are
/// exact; the *set* is a θ-approximation of the true top k.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApproxTa {
    theta: f64,
}

impl ApproxTa {
    /// A TA run tolerating a `(1 + theta)` grade slack.
    pub fn new(theta: f64) -> ApproxTa {
        ApproxTa { theta }
    }

    /// The configured slack.
    pub fn theta(&self) -> f64 {
        self.theta
    }
}

impl TopKAlgorithm for ApproxTa {
    fn name(&self) -> &'static str {
        "approx-ta"
    }

    fn evaluate(
        &self,
        sources: &mut [&mut dyn Subsystem],
        scoring: &dyn ScoringFunction,
        k: usize,
    ) -> Result<TopKResult, AlgoError> {
        let family = Family::new(Probe::OnSight, self.theta, Report::AsHalted);
        Ok(family.top_k(sources, scoring, k)?.into_lower_bounds())
    }
}

/// θ-approximate NRA. Like [`crate::algorithms::nra::NraLowerBound`],
/// answers are flattened to their certified **lower** bounds; the set
/// is a θ-approximation of the true top k.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApproxNra {
    theta: f64,
}

impl ApproxNra {
    /// An NRA run tolerating a `(1 + theta)` grade slack.
    pub fn new(theta: f64) -> ApproxNra {
        ApproxNra { theta }
    }

    /// The configured slack.
    pub fn theta(&self) -> f64 {
        self.theta
    }
}

impl TopKAlgorithm for ApproxNra {
    fn name(&self) -> &'static str {
        "approx-nra"
    }

    fn evaluate(
        &self,
        sources: &mut [&mut dyn Subsystem],
        scoring: &dyn ScoringFunction,
        k: usize,
    ) -> Result<TopKResult, AlgoError> {
        let family = Family::new(Probe::Never, self.theta, Report::AsHalted);
        Ok(family.top_k(sources, scoring, k)?.into_lower_bounds())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::nra::NraLowerBound;
    use crate::algorithms::ta::ThresholdAlgorithm;
    use crate::oracle::all_grades;
    use crate::source::GradedSource;
    use crate::source::VecSource;
    use crate::workload::independent_uniform;
    use fmdb_core::scoring::tnorms::Min;

    fn run(algo: &dyn TopKAlgorithm, sources: &mut [VecSource], k: usize) -> TopKResult {
        let mut refs: Vec<&mut dyn GradedSource> = sources
            .iter_mut()
            .map(|s| s as &mut dyn GradedSource)
            .collect();
        algo.top_k(&mut refs, &Min, k).unwrap()
    }

    #[test]
    fn theta_zero_is_bit_identical_to_the_exact_algorithms() {
        for seed in [3u64, 17, 99] {
            let mut a = independent_uniform(400, 2, seed);
            let exact_ta = run(&ThresholdAlgorithm, &mut a, 7);
            let mut b = independent_uniform(400, 2, seed);
            let approx_ta = run(&ApproxTa::new(0.0), &mut b, 7);
            assert_eq!(exact_ta.answers, approx_ta.answers);
            assert_eq!(exact_ta.stats, approx_ta.stats);

            let mut c = independent_uniform(400, 2, seed);
            let exact_nra = run(&NraLowerBound, &mut c, 7);
            let mut d = independent_uniform(400, 2, seed);
            let approx_nra = run(&ApproxNra::new(0.0), &mut d, 7);
            assert_eq!(exact_nra.answers, approx_nra.answers);
            assert_eq!(exact_nra.stats, approx_nra.stats);
        }
    }

    #[test]
    fn slack_saves_accesses_and_respects_the_guarantee() {
        let k = 10;
        let mut a = independent_uniform(4000, 2, 42);
        let exact = run(&ThresholdAlgorithm, &mut a, k);
        let mut b = independent_uniform(4000, 2, 42);
        let approx = run(&ApproxTa::new(0.5), &mut b, k);
        assert!(
            approx.stats.database_access_cost() <= exact.stats.database_access_cost(),
            "θ = 0.5 must not cost more than exact TA: {} vs {}",
            approx.stats,
            exact.stats
        );

        let mut c = independent_uniform(4000, 2, 42);
        let mut refs: Vec<&mut dyn GradedSource> =
            c.iter_mut().map(|s| s as &mut dyn GradedSource).collect();
        let truth = all_grades(&mut refs, &Min);
        let mut grades: Vec<f64> = truth.values().map(|g| g.value()).collect();
        grades.sort_by(|x, y| y.total_cmp(x));
        let kth = grades[k - 1];
        for answer in &approx.answers {
            assert!(
                truth[&answer.id].value() * 1.5 + 1e-9 >= kth,
                "answer {} at {} violates the (1+θ) guarantee vs k-th {}",
                answer.id,
                truth[&answer.id],
                kth
            );
        }
    }

    #[test]
    fn invalid_theta_is_rejected() {
        let mut sources = independent_uniform(10, 2, 1);
        let mut refs: Vec<&mut dyn GradedSource> = sources
            .iter_mut()
            .map(|s| s as &mut dyn GradedSource)
            .collect();
        assert!(matches!(
            ApproxTa::new(-1.0).top_k(&mut refs, &Min, 2),
            Err(AlgoError::InvalidRequest(_))
        ));
        assert!(matches!(
            ApproxNra::new(f64::INFINITY).top_k(&mut refs, &Min, 2),
            Err(AlgoError::InvalidRequest(_))
        ));
    }
}
