//! Property suite: the unified planner's regret is bounded (DESIGN.md
//! §11).
//!
//! On random independent-uniform instances with full statistics, the
//! plan [`choose_plan`] picks — once actually *executed* — charges at
//! most 2× the cheapest executed candidate strategy under the same
//! cost model. The comparison set is exactly the planner's own priced
//! candidate list (the engine-level, NRA-inclusive zoo), each run over
//! the same instance and priced through [`AccessStats::charged`].
//!
//! The PR-5 instance-optimality certificate ([`OptimalityOracle`])
//! anchors the scale from below: every executed candidate is a correct
//! algorithm, so its charged/certificate ratio is ≥ 1 — which makes
//! "2× the cheapest executed" a statement about real costs, not about
//! a denominator that could collapse to zero.

use proptest::prelude::*;

use fmdb_core::scoring::tnorms::Min;
use fmdb_core::stats::DEFAULT_HISTOGRAM_BINS;
use fmdb_middleware::algorithms::Cursor;
use fmdb_middleware::optimality::OptimalityOracle;
use fmdb_middleware::planner::{choose_plan, PhysicalPlan, PlanQuery, QueryStats};
use fmdb_middleware::policy::ExecPolicy;
use fmdb_middleware::source::{GradedSource, Subsystem, VecSource};
use fmdb_middleware::stats::{CostModel, SourceStats};
use fmdb_middleware::workload::independent_uniform;

/// One randomly drawn planning instance.
#[derive(Debug, Clone, Copy)]
struct Scenario {
    n: usize,
    m: usize,
    k: usize,
    seed: u64,
    ratio: f64,
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (
        (
            60usize..200,
            2usize..=4,
            prop_oneof![Just(1usize), Just(5), Just(20)],
        ),
        (
            0u64..1_000_000,
            prop_oneof![Just(1.0f64), Just(3.0), Just(10.0), Just(30.0)],
        ),
    )
        .prop_map(|((n, m, k), (seed, ratio))| Scenario {
            n,
            m,
            k,
            seed,
            ratio,
        })
}

/// Gathers the planner's statistics the way the engine does: one
/// equi-depth histogram per source, all-or-nothing.
fn stats_for(sources: &mut [VecSource]) -> QueryStats {
    let per: Vec<SourceStats> = sources
        .iter()
        .map(|s| {
            SourceStats::new(
                s.grade_histogram(DEFAULT_HISTOGRAM_BINS)
                    .expect("VecSource always builds a histogram"),
            )
        })
        .collect();
    QueryStats::new(per)
}

/// Runs `plan` over a fresh copy of the instance and returns its
/// charged cost under `model` (`None` for plans the middleware does
/// not run, or that refuse the query).
fn executed(plan: PhysicalPlan, sources: &[VecSource], k: usize, model: &CostModel) -> Option<f64> {
    let mut copies = sources.to_vec();
    let mut refs: Vec<&mut dyn Subsystem> =
        copies.iter_mut().map(|s| s as &mut dyn Subsystem).collect();
    let result = Cursor::once(plan, 0.0, &mut refs, &Min, k).ok()?;
    Some(result.stats.charged(model))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The pick's executed charged cost is within 2× of the cheapest
    /// executed candidate, under every cost-ratio the scenario sweeps.
    #[test]
    fn chosen_plan_regret_is_at_most_two(s in scenario()) {
        let model = CostModel::random_to_sorted_ratio(s.ratio).expect("valid ratio");
        let policy = ExecPolicy::new().cost_model(model);
        let mut sources = independent_uniform(s.n, s.m, s.seed);
        let stats = stats_for(&mut sources);
        let query = PlanQuery::fuzzy(s.n, s.m, s.k);
        let explain = choose_plan(&query, Some(&stats), &policy);

        let runs: Vec<(PhysicalPlan, f64)> = explain
            .candidates
            .iter()
            .filter_map(|&(plan, _)| {
                executed(plan, &sources, s.k, &model).map(|c| (plan, c))
            })
            .collect();
        prop_assert!(!runs.is_empty(), "no candidate executed");
        let chosen = runs
            .iter()
            .find(|(plan, _)| *plan == explain.chosen)
            .map(|&(_, c)| c)
            .expect("the chosen plan is always executable here");
        let best = runs.iter().map(|&(_, c)| c).fold(f64::INFINITY, f64::min);
        let regret = if best > 0.0 { chosen / best } else { 1.0 };
        prop_assert!(
            regret <= 2.0 + 1e-9,
            "regret {regret:.3} for {} (chosen {chosen}, best {best}) on \
             n={} m={} k={} seed={} ratio={}; runs: {runs:?}",
            explain.chosen, s.n, s.m, s.k, s.seed, s.ratio,
        );
    }

    /// Sanity anchor: the chosen plan, like every correct strategy,
    /// never beats the instance-optimality certificate.
    #[test]
    fn chosen_plan_respects_the_certificate(s in scenario()) {
        let model = CostModel::random_to_sorted_ratio(s.ratio).expect("valid ratio");
        let policy = ExecPolicy::new().cost_model(model);
        let mut sources = independent_uniform(s.n, s.m, s.seed);
        let stats = stats_for(&mut sources);
        let query = PlanQuery::fuzzy(s.n, s.m, s.k);
        let explain = choose_plan(&query, Some(&stats), &policy);
        let chosen = executed(explain.chosen, &sources, s.k, &model)
            .expect("the chosen plan is always executable here");

        let mut refs: Vec<&mut dyn GradedSource> = sources
            .iter_mut()
            .map(|s| s as &mut dyn GradedSource)
            .collect();
        let oracle = OptimalityOracle::build(&mut refs, &Min, s.k, 0.0).expect("valid instance");
        let ratio = oracle.ratio(chosen, &model);
        prop_assert!(
            ratio >= 1.0 - 1e-9,
            "chosen {} charged {chosen} beat the certificate (ratio {ratio:.3})",
            explain.chosen,
        );
    }
}
