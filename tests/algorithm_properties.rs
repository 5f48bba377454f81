//! Property-based tests: every top-k algorithm returns a *valid* top-k
//! (per the paper's definition — exact grades, nothing better left
//! behind) on arbitrary randomly-shaped instances.

use proptest::prelude::*;

use fuzzymm::core::scoring::conorms::Max;
use fuzzymm::core::scoring::means::ArithmeticMean;
use fuzzymm::core::scoring::tnorms::{Lukasiewicz, Product};
use fuzzymm::middleware::algorithms::cg_filter::CgFilter;
use fuzzymm::middleware::algorithms::{nra_intervals, TopKResult};
use fuzzymm::middleware::oracle::{all_grades, verify_top_k, verify_top_k_set};
use fuzzymm::middleware::source::GradedSource;
use fuzzymm::prelude::*;

/// Strategy: m grade lists over a shared dense universe.
fn grade_lists(max_n: usize, max_m: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    (2usize..=max_m, 1usize..=max_n).prop_flat_map(|(m, n)| {
        proptest::collection::vec(proptest::collection::vec(0.0f64..=1.0, n..=n), m..=m)
    })
}

fn to_sources(lists: &[Vec<f64>]) -> Vec<VecSource> {
    lists
        .iter()
        .enumerate()
        .map(|(i, grades)| {
            let scores: Vec<Score> = grades.iter().map(|&g| Score::clamped(g)).collect();
            VecSource::from_dense(format!("list-{i}"), &scores)
        })
        .collect()
}

/// Strategy: m lists over a shared universe, each with holes — a
/// negative grade stands for an object the list leaves out: never
/// streamed, grade 0 on a probe.
fn sparse_lists(max_n: usize, max_m: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    (2usize..=max_m, 1usize..=max_n).prop_flat_map(|(m, n)| {
        proptest::collection::vec(proptest::collection::vec(-0.5f64..=1.0, n..=n), m..=m)
    })
}

fn to_sparse_sources(lists: &[Vec<f64>]) -> Vec<VecSource> {
    lists
        .iter()
        .enumerate()
        .map(|(i, grades)| {
            let kept = grades
                .iter()
                .enumerate()
                .filter(|(_, &g)| g >= 0.0)
                .map(|(oid, &g)| (oid as Oid, Score::clamped(g)))
                .collect();
            VecSource::new(format!("sparse-{i}"), kept)
        })
        .collect()
}

/// Strategy: m lists over a shared dense universe, each grade one of
/// five levels, so ties are everywhere and the oid tie-break decides.
fn level_lists(max_n: usize, max_m: usize) -> impl Strategy<Value = Vec<Vec<u8>>> {
    (2usize..=max_m, 1usize..=max_n).prop_flat_map(|(m, n)| {
        proptest::collection::vec(proptest::collection::vec(0u8..=4, n..=n), m..=m)
    })
}

/// The lists with object `i` renamed `label(i)`.
fn to_labelled_sources(lists: &[Vec<u8>], label: impl Fn(Oid) -> Oid) -> Vec<VecSource> {
    lists
        .iter()
        .enumerate()
        .map(|(i, levels)| {
            let pairs = (0..)
                .zip(levels)
                .map(|(oid, &level)| (label(oid), Score::clamped(f64::from(level) / 4.0)))
                .collect();
            VecSource::new(format!("labelled-{i}"), pairs)
        })
        .collect()
}

fn subsystems(sources: &mut [VecSource]) -> Vec<&mut dyn Subsystem> {
    sources
        .iter_mut()
        .map(|s| s as &mut dyn Subsystem)
        .collect()
}

/// `plan`'s one-shot run.
fn once(
    plan: PlanKind,
    sources: &mut [VecSource],
    scoring: &dyn ScoringFunction,
    k: usize,
) -> TopKResult {
    Cursor::once(plan, 0.0, &mut subsystems(sources), scoring, k)
        .unwrap_or_else(|e| panic!("{plan}: {e}"))
}

/// The CG filter's run under its default schedule.
fn cg(sources: &mut [VecSource], scoring: &dyn ScoringFunction, k: usize) -> TopKResult {
    CgFilter::default()
        .run(&mut subsystems(sources), scoring, k)
        .unwrap_or_else(|e| panic!("cg-filter: {e}"))
        .result
}

fn check_valid(plan: PlanKind, lists: &[Vec<f64>], scoring: &dyn ScoringFunction, k: usize) {
    check_valid_on(to_sources(lists), plan, scoring, k);
}

fn check_valid_on(
    mut sources: Vec<VecSource>,
    plan: PlanKind,
    scoring: &dyn ScoringFunction,
    k: usize,
) {
    let result = once(plan, &mut sources, scoring, k);
    verify(&mut sources, scoring, &result, k, plan.name());
}

/// `result` is a valid top `k` of `sources` under `scoring`.
fn verify(
    sources: &mut [VecSource],
    scoring: &dyn ScoringFunction,
    result: &TopKResult,
    k: usize,
    name: &str,
) {
    let mut refs: Vec<&mut dyn GradedSource> = sources
        .iter_mut()
        .map(|s| s as &mut dyn GradedSource)
        .collect();
    verify_top_k(&mut refs, scoring, &result.answers, k)
        .unwrap_or_else(|v| panic!("{name} returned an invalid top-k: {v}"));
}

fn check_cg_valid_on(mut sources: Vec<VecSource>, scoring: &dyn ScoringFunction, k: usize) {
    let result = cg(&mut sources, scoring, k);
    verify(&mut sources, scoring, &result, k, "cg-filter");
}

const PRUNED: PlanKind = PlanKind::PrunedFa {
    short_circuit: true,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fa_is_always_valid_under_min(lists in grade_lists(60, 4), k in 1usize..=8) {
        check_valid(PlanKind::Fa, &lists, &Min, k);
    }

    #[test]
    fn fa_is_always_valid_under_product(lists in grade_lists(40, 3), k in 1usize..=5) {
        check_valid(PlanKind::Fa, &lists, &Product, k);
    }

    #[test]
    fn pruned_fa_is_always_valid(lists in grade_lists(60, 4), k in 1usize..=8) {
        check_valid(PRUNED, &lists, &Min, k);
        check_valid(PRUNED, &lists, &ArithmeticMean, k);
    }

    #[test]
    fn ta_is_always_valid(lists in grade_lists(60, 4), k in 1usize..=8) {
        check_valid(PlanKind::Ta, &lists, &Min, k);
        check_valid(PlanKind::Ta, &lists, &ArithmeticMean, k);
    }

    #[test]
    fn naive_is_always_valid(lists in grade_lists(60, 4), k in 1usize..=8) {
        check_valid(PlanKind::FullScan, &lists, &Lukasiewicz, k);
    }

    #[test]
    fn cg_filter_is_always_valid_for_tnorms(lists in grade_lists(40, 3), k in 1usize..=5) {
        check_cg_valid_on(to_sources(&lists), &Min, k);
        check_cg_valid_on(to_sources(&lists), &Product, k);
    }

    #[test]
    fn every_algorithm_is_valid_on_sparse_lists(lists in sparse_lists(60, 4), k in 1usize..=8) {
        let sparse = || to_sparse_sources(&lists);
        let exact = [
            PlanKind::FullScan,
            PlanKind::Fa,
            PRUNED,
            PlanKind::PrunedFa { short_circuit: false },
            PlanKind::Ta,
            PlanKind::Ca { h: 2 },
            PlanKind::ApproxTa,
        ];
        for plan in exact {
            check_valid_on(sparse(), plan, &Min, k);
            check_valid_on(sparse(), plan, &ArithmeticMean, k);
        }
        check_cg_valid_on(sparse(), &Min, k);
        check_cg_valid_on(sparse(), &Product, k);
        check_valid_on(sparse(), PlanKind::MaxMerge, &ConormScoring(Max), k);

        // NRA certifies the set; its grades are lower bounds, so the
        // oracle is shown the members under their true grades.
        let mut sources = sparse();
        let mut narrow: Vec<&mut dyn Subsystem> = sources
            .iter_mut()
            .map(|s| s as &mut dyn Subsystem)
            .collect();
        let nra = nra_intervals(&mut narrow, &ArithmeticMean, k).expect("valid run");
        let mut refs: Vec<&mut dyn GradedSource> = sources
            .iter_mut()
            .map(|s| s as &mut dyn GradedSource)
            .collect();
        let truth = all_grades(&mut refs, &ArithmeticMean);
        let members: Vec<ScoredObject<Oid>> = nra
            .answers
            .iter()
            .map(|a| ScoredObject::new(a.id, truth[&a.id]))
            .collect();
        verify_top_k_set(&mut refs, &ArithmeticMean, &members, k)
            .unwrap_or_else(|v| panic!("nra certified an invalid set: {v}"));
    }

    /// Renaming object `i` to `3·i + c` (most oids past the universe a
    /// list reports) or to `i + 2^33` (every oid past `u32`) preserves
    /// the oid order, so every algorithm must return the renamed answers
    /// at the same charge, however the book numbers the objects.
    #[test]
    fn oids_outside_the_dense_range_change_nothing(
        lists in level_lists(40, 4),
        k in 1usize..=8,
        c in 0u64..=2,
        wide in 0u8..=1,
    ) {
        let label = |oid: Oid| if wide == 1 { oid + (1 << 33) } else { 3 * oid + c };
        let max = ConormScoring(Max);
        let runs: [(PlanKind, &dyn ScoringFunction); 8] = [
            (PlanKind::FullScan, &Min),
            (PlanKind::Fa, &Min),
            (PRUNED, &Min),
            (PlanKind::MaxMerge, &max),
            (PlanKind::Ta, &Min),
            (PlanKind::Ta, &ArithmeticMean),
            (PlanKind::Nra, &ArithmeticMean),
            (PlanKind::Ca { h: 2 }, &Min),
        ];
        for (plan, scoring) in runs {
            let dense = once(plan, &mut to_labelled_sources(&lists, |oid| oid), scoring, k);
            let moved = once(plan, &mut to_labelled_sources(&lists, label), scoring, k);
            let renamed: Vec<ScoredObject<Oid>> = dense
                .answers
                .iter()
                .map(|a| ScoredObject::new(label(a.id), a.grade))
                .collect();
            prop_assert_eq!(&moved.answers, &renamed, "{} under {}", plan, scoring.name());
            prop_assert_eq!(moved.stats, dense.stats, "{} under {}", plan, scoring.name());
        }
    }

    #[test]
    fn fa_cost_never_exceeds_naive(lists in grade_lists(60, 3), k in 1usize..=5) {
        let m = lists.len() as u64;
        let n = lists[0].len() as u64;
        let fa = once(PlanKind::Fa, &mut to_sources(&lists), &Min, k);
        // A0's sorted phase can touch at most every list fully, and the
        // random phase at most fills every hole: cost ≤ 2·m·N.
        prop_assert!(fa.stats.database_access_cost() <= 2 * m * n);
    }

    #[test]
    fn pruned_fa_never_costs_more_than_fa(lists in grade_lists(60, 3), k in 1usize..=5) {
        let fa = once(PlanKind::Fa, &mut to_sources(&lists), &Min, k);
        let pruned = once(PRUNED, &mut to_sources(&lists), &Min, k);
        prop_assert_eq!(pruned.stats.sorted, fa.stats.sorted);
        prop_assert!(pruned.stats.random <= fa.stats.random);
    }

    #[test]
    fn max_merge_matches_naive_grades(lists in grade_lists(60, 4), k in 1usize..=8) {
        let scoring = ConormScoring(fuzzymm::core::scoring::conorms::Max);
        let mut s1 = to_sources(&lists);
        let merge = once(PlanKind::MaxMerge, &mut s1, &scoring, k);
        verify(&mut s1, &scoring, &merge, k, "max-merge");
        // And its cost promise: at most m·k sorted accesses.
        prop_assert!(merge.stats.sorted <= (lists.len() * k) as u64);
        prop_assert_eq!(merge.stats.random, 0);
    }

    #[test]
    fn fa_cursor_batches_are_disjoint_and_ordered(
        lists in grade_lists(60, 2),
        k in 1usize..=4,
    ) {
        let mut sources = to_sources(&lists);
        let mut refs: Vec<&mut dyn Subsystem> = sources
            .iter_mut()
            .map(|s| s as &mut dyn Subsystem)
            .collect();
        let mut cursor = Cursor::new(PlanKind::Fa, 0.0).expect("A0 keeps a book");
        let first = cursor.next_k(&mut refs, &Min, k).expect("valid batch");
        let second = cursor.next_k(&mut refs, &Min, k).expect("valid batch");
        for a in &first.answers {
            prop_assert!(!second.answers.iter().any(|b| b.id == a.id));
        }
        if let (Some(last), Some(next)) = (first.answers.last(), second.answers.first()) {
            prop_assert!(last.grade >= next.grade);
        }
    }
}
