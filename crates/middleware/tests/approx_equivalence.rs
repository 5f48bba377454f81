//! Property suite: the θ-approximate algorithms and CA keep their
//! contracts on random corpora (DESIGN.md §10).
//!
//! * **θ = 0 collapse** — `ApproxTa`/`ApproxNra` with zero slack are
//!   **bit-identical** to exact TA / NRA:
//!   same answers, same grades, same charged `sorted`/`random` counts.
//!   The θ ≤ 0 comparison path uses the exact `Score` ordering, so this
//!   is equality, not approximate equality.
//! * **θ > 0 guarantee** — every returned object's **true** grade `g(z)`
//!   satisfies `(1+θ)·g(z) ≥ y_k` (the true k-th grade). For `ApproxTa`
//!   the reported grades are additionally exact (TA only returns fully
//!   probed objects); `ApproxNra` reports certified lower bounds, so the
//!   guarantee is checked against the brute-force truth, not the report.
//! * **CA exactness** — CA with θ = 0 returns an
//!   oracle-valid exact top-k for every interleave depth the E5 cost
//!   ratios produce: the c_R/c_S knob tunes cost, never correctness.

use proptest::prelude::*;

use fmdb_core::scoring::tnorms::Min;
use fmdb_middleware::algorithms::{TopKAlgorithm, TopKResult};
use fmdb_middleware::oracle::{all_grades, verify_top_k};
use fmdb_middleware::planner::PhysicalPlan;
use fmdb_middleware::policy::ExecPolicy;
use fmdb_middleware::source::GradedSource;
use fmdb_middleware::stats::CostModel;
use fmdb_middleware::workload::independent_uniform;

mod support;
use support::Planned;

/// One randomly drawn approximate-vs-exact comparison.
#[derive(Debug, Clone, Copy)]
struct Scenario {
    n: usize,
    m: usize,
    k: usize,
    seed: u64,
    theta: f64,
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (
        (
            40usize..250,
            2usize..=4,
            prop_oneof![Just(1usize), Just(7usize), Just(25usize), Just(300usize)],
        ),
        (
            0u64..1_000_000,
            prop_oneof![Just(0.01f64), Just(0.1), Just(0.5)],
        ),
    )
        .prop_map(|((n, m, k), (seed, theta))| Scenario {
            n,
            m,
            k,
            seed,
            theta,
        })
}

fn run(algorithm: &dyn TopKAlgorithm, s: Scenario) -> TopKResult {
    let mut sources = independent_uniform(s.n, s.m, s.seed);
    let mut refs: Vec<&mut dyn GradedSource> = sources
        .iter_mut()
        .map(|src| src as &mut dyn GradedSource)
        .collect();
    algorithm
        .top_k(&mut refs, &Min, s.k)
        .expect("algorithm run must succeed")
}

/// The instance's true grades, descending.
fn truth_ranked(s: Scenario) -> Vec<(fmdb_middleware::source::Oid, fmdb_core::score::Score)> {
    let mut sources = independent_uniform(s.n, s.m, s.seed);
    let mut refs: Vec<&mut dyn GradedSource> = sources
        .iter_mut()
        .map(|src| src as &mut dyn GradedSource)
        .collect();
    let mut ranked: Vec<_> = all_grades(&mut refs, &Min).into_iter().collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    ranked
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// θ = 0 approximations collapse to the exact algorithms bit for
    /// bit — answers and charged access counts alike.
    #[test]
    fn zero_theta_is_bit_identical(s in scenario()) {
        let exact_ta = run(&Planned(PhysicalPlan::Ta, 0.0), s);
        let approx_ta = run(&Planned(PhysicalPlan::ApproxTa, 0.0), s);
        prop_assert_eq!(&exact_ta.answers, &approx_ta.answers);
        prop_assert_eq!(exact_ta.stats, approx_ta.stats);

        let exact_nra = run(&Planned(PhysicalPlan::Nra, 0.0), s);
        let approx_nra = run(&Planned(PhysicalPlan::ApproxNra, 0.0), s);
        prop_assert_eq!(&exact_nra.answers, &approx_nra.answers);
        prop_assert_eq!(exact_nra.stats, approx_nra.stats);
    }

    /// θ > 0 returns a θ-approximate top-k: every returned object's
    /// true grade is within the (1+θ) slack of the true k-th grade, and
    /// the answer count is unchanged.
    #[test]
    fn positive_theta_keeps_the_grade_guarantee(s in scenario()) {
        let ranked = truth_ranked(s);
        let expected = s.k.min(ranked.len());
        let kth = ranked[expected.saturating_sub(1)].1;

        for (name, result, reported_exact) in [
            ("approx-ta", run(&Planned(PhysicalPlan::ApproxTa, s.theta), s), true),
            ("approx-nra", run(&Planned(PhysicalPlan::ApproxNra, s.theta), s), false),
        ] {
            prop_assert_eq!(result.answers.len(), expected, "{} answer count", name);
            for answer in &result.answers {
                let true_grade = ranked
                    .iter()
                    .find(|(oid, _)| *oid == answer.id)
                    .map(|(_, g)| *g)
                    .expect("answer must exist in the universe");
                prop_assert!(
                    true_grade.value() * (1.0 + s.theta) >= kth.value() - 1e-12,
                    "{}: object {} true grade {} breaks the (1+θ) bound vs y_k {}",
                    name, answer.id, true_grade, kth
                );
                if reported_exact {
                    prop_assert_eq!(answer.grade, true_grade);
                } else {
                    prop_assert!(answer.grade <= true_grade, "NRA reports lower bounds");
                }
            }
        }
    }

    /// CA is exact at θ = 0 for every interleave depth the E5 cost
    /// ratios induce, and never beats TA's sorted-access volume by
    /// returning a wrong set.
    #[test]
    fn ca_is_exact_for_every_cost_ratio(s in scenario()) {
        for ratio in [0.1, 1.0, 10.0, 100.0] {
            let model = CostModel::random_to_sorted_ratio(ratio)
                .expect("test ratio is positive and finite");
            let h = ExecPolicy::new().cost_model(model).interleave();
            let result = run(&Planned(PhysicalPlan::Ca { h }, 0.0), s);
            let mut sources = independent_uniform(s.n, s.m, s.seed);
            let mut refs: Vec<&mut dyn GradedSource> = sources
                .iter_mut()
                .map(|src| src as &mut dyn GradedSource)
                .collect();
            prop_assert!(
                verify_top_k(&mut refs, &Min, &result.answers, s.k).is_ok(),
                "CA (h = {}) returned an invalid top-k at ratio {}",
                h,
                ratio
            );
        }
    }

    /// CA with slack keeps the same θ-guarantee as the approximations.
    #[test]
    fn ca_with_slack_keeps_the_grade_guarantee(s in scenario()) {
        let ranked = truth_ranked(s);
        let expected = s.k.min(ranked.len());
        let kth = ranked[expected.saturating_sub(1)].1;
        let result = run(&Planned(PhysicalPlan::Ca { h: 4 }, s.theta), s);
        prop_assert_eq!(result.answers.len(), expected);
        for answer in &result.answers {
            let true_grade = ranked
                .iter()
                .find(|(oid, _)| *oid == answer.id)
                .map(|(_, g)| *g)
                .expect("answer must exist in the universe");
            prop_assert!(
                true_grade.value() * (1.0 + s.theta) >= kth.value() - 1e-12,
                "CA object {} true grade {} breaks the (1+θ) bound vs y_k {}",
                answer.id, true_grade, kth
            );
        }
    }
}
