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

mod support;
use support::Planned;

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

fn run_on(
    mut sources: Vec<VecSource>,
    algo: &dyn TopKAlgorithm,
    scoring: &dyn ScoringFunction,
    k: usize,
) -> TopKResult {
    let mut refs: Vec<&mut dyn GradedSource> = sources
        .iter_mut()
        .map(|s| s as &mut dyn GradedSource)
        .collect();
    algo.top_k(&mut refs, scoring, k)
        .unwrap_or_else(|e| panic!("{}: {e}", algo.name()))
}

fn check_valid(
    algo: &dyn TopKAlgorithm,
    lists: &[Vec<f64>],
    scoring: &dyn ScoringFunction,
    k: usize,
) {
    check_valid_on(to_sources(lists), algo, scoring, k);
}

fn check_valid_on(
    mut sources: Vec<VecSource>,
    algo: &dyn TopKAlgorithm,
    scoring: &dyn ScoringFunction,
    k: usize,
) {
    let mut refs: Vec<&mut dyn GradedSource> = sources
        .iter_mut()
        .map(|s| s as &mut dyn GradedSource)
        .collect();
    let result = algo
        .top_k(&mut refs, scoring, k)
        .unwrap_or_else(|e| panic!("{}: {e}", algo.name()));
    let mut refs2: Vec<&mut dyn GradedSource> = sources
        .iter_mut()
        .map(|s| s as &mut dyn GradedSource)
        .collect();
    verify_top_k(&mut refs2, scoring, &result.answers, k)
        .unwrap_or_else(|v| panic!("{} returned an invalid top-k: {v}", algo.name()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fa_is_always_valid_under_min(lists in grade_lists(60, 4), k in 1usize..=8) {
        check_valid(&Planned(PlanKind::Fa, 0.0), &lists, &Min, k);
    }

    #[test]
    fn fa_is_always_valid_under_product(lists in grade_lists(40, 3), k in 1usize..=5) {
        check_valid(&Planned(PlanKind::Fa, 0.0), &lists, &Product, k);
    }

    #[test]
    fn pruned_fa_is_always_valid(lists in grade_lists(60, 4), k in 1usize..=8) {
        check_valid(&PrunedFa::default(), &lists, &Min, k);
        check_valid(&PrunedFa::default(), &lists, &ArithmeticMean, k);
    }

    #[test]
    fn ta_is_always_valid(lists in grade_lists(60, 4), k in 1usize..=8) {
        check_valid(&Planned(PlanKind::Ta, 0.0), &lists, &Min, k);
        check_valid(&Planned(PlanKind::Ta, 0.0), &lists, &ArithmeticMean, k);
    }

    #[test]
    fn naive_is_always_valid(lists in grade_lists(60, 4), k in 1usize..=8) {
        check_valid(&Planned(PlanKind::FullScan, 0.0), &lists, &Lukasiewicz, k);
    }

    #[test]
    fn cg_filter_is_always_valid_for_tnorms(lists in grade_lists(40, 3), k in 1usize..=5) {
        check_valid(&CgFilter::default(), &lists, &Min, k);
        check_valid(&CgFilter::default(), &lists, &Product, k);
    }

    #[test]
    fn every_algorithm_is_valid_on_sparse_lists(lists in sparse_lists(60, 4), k in 1usize..=8) {
        let sparse = || to_sparse_sources(&lists);
        let exact: [&dyn TopKAlgorithm; 7] = [
            &Planned(PlanKind::FullScan, 0.0),
            &Planned(PlanKind::Fa, 0.0),
            &PrunedFa::default(),
            &PrunedFa::without_short_circuit(),
            &Planned(PlanKind::Ta, 0.0),
            &Planned(PlanKind::Ca { h: 2 }, 0.0),
            &Planned(PlanKind::ApproxTa, 0.0),
        ];
        for algo in exact {
            check_valid_on(sparse(), algo, &Min, k);
            check_valid_on(sparse(), algo, &ArithmeticMean, k);
        }
        check_valid_on(sparse(), &CgFilter::default(), &Min, k);
        check_valid_on(sparse(), &CgFilter::default(), &Product, k);
        check_valid_on(sparse(), &Planned(PlanKind::MaxMerge, 0.0), &ConormScoring(Max), k);

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
        let runs: [(&dyn TopKAlgorithm, &dyn ScoringFunction); 8] = [
            (&Planned(PlanKind::FullScan, 0.0), &Min),
            (&Planned(PlanKind::Fa, 0.0), &Min),
            (&PrunedFa::default(), &Min),
            (&Planned(PlanKind::MaxMerge, 0.0), &max),
            (&Planned(PlanKind::Ta, 0.0), &Min),
            (&Planned(PlanKind::Ta, 0.0), &ArithmeticMean),
            (&Planned(PlanKind::Nra, 0.0), &ArithmeticMean),
            (&Planned(PlanKind::Ca { h: 2 }, 0.0), &Min),
        ];
        for (algo, scoring) in runs {
            let dense = run_on(to_labelled_sources(&lists, |oid| oid), algo, scoring, k);
            let moved = run_on(to_labelled_sources(&lists, label), algo, scoring, k);
            let renamed: Vec<ScoredObject<Oid>> = dense
                .answers
                .iter()
                .map(|a| ScoredObject::new(label(a.id), a.grade))
                .collect();
            prop_assert_eq!(&moved.answers, &renamed, "{} under {}", algo.name(), scoring.name());
            prop_assert_eq!(moved.stats, dense.stats, "{} under {}", algo.name(), scoring.name());
        }
    }

    #[test]
    fn fa_cost_never_exceeds_naive(lists in grade_lists(60, 3), k in 1usize..=5) {
        let m = lists.len() as u64;
        let n = lists[0].len() as u64;
        let mut sources = to_sources(&lists);
        let mut refs: Vec<&mut dyn GradedSource> = sources
            .iter_mut()
            .map(|s| s as &mut dyn GradedSource)
            .collect();
        let fa = Planned(PlanKind::Fa, 0.0).top_k(&mut refs, &Min, k).expect("valid run");
        // A0's sorted phase can touch at most every list fully, and the
        // random phase at most fills every hole: cost ≤ 2·m·N.
        prop_assert!(fa.stats.database_access_cost() <= 2 * m * n);
    }

    #[test]
    fn pruned_fa_never_costs_more_than_fa(lists in grade_lists(60, 3), k in 1usize..=5) {
        let mut s1 = to_sources(&lists);
        let mut r1: Vec<&mut dyn GradedSource> =
            s1.iter_mut().map(|s| s as &mut dyn GradedSource).collect();
        let fa = Planned(PlanKind::Fa, 0.0).top_k(&mut r1, &Min, k).expect("valid run");
        let mut s2 = to_sources(&lists);
        let mut r2: Vec<&mut dyn GradedSource> =
            s2.iter_mut().map(|s| s as &mut dyn GradedSource).collect();
        let pruned = PrunedFa::default().top_k(&mut r2, &Min, k).expect("valid run");
        prop_assert_eq!(pruned.stats.sorted, fa.stats.sorted);
        prop_assert!(pruned.stats.random <= fa.stats.random);
    }

    #[test]
    fn max_merge_matches_naive_grades(lists in grade_lists(60, 4), k in 1usize..=8) {
        let scoring = ConormScoring(fuzzymm::core::scoring::conorms::Max);
        let mut s1 = to_sources(&lists);
        let mut r1: Vec<&mut dyn GradedSource> =
            s1.iter_mut().map(|s| s as &mut dyn GradedSource).collect();
        let merge = Planned(PlanKind::MaxMerge, 0.0).top_k(&mut r1, &scoring, k).expect("valid run");
        let mut r2: Vec<&mut dyn GradedSource> =
            s1.iter_mut().map(|s| s as &mut dyn GradedSource).collect();
        verify_top_k(&mut r2, &scoring, &merge.answers, k)
            .unwrap_or_else(|v| panic!("max-merge invalid: {v}"));
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
