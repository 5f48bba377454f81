//! The test oracle against corrupted answers. Every property suite here
//! trusts `verify_top_k` and `verify_top_k_set` to reject a wrong
//! answer, so each test below takes a real plan's answer on generated
//! lists, corrupts it one way, and checks that the oracle names the
//! fault — and that the set check lets through exactly what it should.

use fuzzymm::core::scoring::means::ArithmeticMean;
use fuzzymm::middleware::algorithms::nra_intervals;
use fuzzymm::middleware::oracle::{all_grades, verify_top_k, verify_top_k_set, TopKViolation};
use fuzzymm::middleware::source::GradedSource;
use fuzzymm::prelude::*;

/// Objects per list: large enough that `k + 1` outsiders exist.
const N: usize = 40;
const SEEDS: std::ops::Range<u64> = 0..8;

fn lists(seed: u64) -> Vec<VecSource> {
    independent_uniform(N, 3, seed)
}

fn refs(sources: &mut [VecSource]) -> Vec<&mut dyn GradedSource> {
    sources
        .iter_mut()
        .map(|s| s as &mut dyn GradedSource)
        .collect()
}

/// Every object with its true grade under the mean: best first, ties
/// by ascending oid.
fn ranking(seed: u64) -> Vec<ScoredObject<Oid>> {
    let mut sources = lists(seed);
    let mut ranked: Vec<ScoredObject<Oid>> = all_grades(&mut refs(&mut sources), &ArithmeticMean)
        .into_iter()
        .map(|(oid, grade)| ScoredObject::new(oid, grade))
        .collect();
    ranked.sort_by(|a, b| b.grade.cmp(&a.grade).then(a.id.cmp(&b.id)));
    ranked
}

/// TA's answer for the mean over `lists(seed)`.
fn ta_answer(seed: u64, k: usize) -> Vec<ScoredObject<Oid>> {
    let mut sources = lists(seed);
    let mut narrow: Vec<&mut dyn Subsystem> = sources
        .iter_mut()
        .map(|s| s as &mut dyn Subsystem)
        .collect();
    Cursor::once(PlanKind::Ta, 0.0, &mut narrow, &ArithmeticMean, k)
        .unwrap_or_else(|e| panic!("seed {seed}: {e}"))
        .answers
}

/// `(ranked check, set check)` of `answers` for `lists(seed)`.
type Verdicts = (Result<(), TopKViolation>, Result<(), TopKViolation>);

fn verdicts(seed: u64, answers: &[ScoredObject<Oid>], k: usize) -> Verdicts {
    let mut sources = lists(seed);
    let ranked = verify_top_k(&mut refs(&mut sources), &ArithmeticMean, answers, k);
    let set = verify_top_k_set(&mut refs(&mut sources), &ArithmeticMean, answers, k);
    (ranked, set)
}

#[test]
fn ta_answers_pass_both_checks() {
    for seed in SEEDS {
        for k in [1, 5, 10] {
            let answers = ta_answer(seed, k);
            assert_eq!(
                verdicts(seed, &answers, k),
                (Ok(()), Ok(())),
                "seed {seed}, k {k}"
            );
        }
    }
}

#[test]
fn an_appended_outsider_is_one_answer_too_many() {
    for seed in SEEDS {
        let k = 5;
        let mut answers = ta_answer(seed, k);
        answers.push(ranking(seed)[k]);
        let too_many = Err(TopKViolation::TooManyAnswers {
            got: k + 1,
            expected: k,
        });
        assert_eq!(verdicts(seed, &answers, k), (too_many.clone(), too_many));
    }
}

#[test]
fn a_dropped_answer_is_one_answer_too_few() {
    for seed in SEEDS {
        let k = 5;
        let mut answers = ta_answer(seed, k);
        answers.pop();
        let too_few = Err(TopKViolation::TooFewAnswers {
            got: k - 1,
            expected: k,
        });
        assert_eq!(verdicts(seed, &answers, k), (too_few.clone(), too_few));
    }
}

#[test]
fn a_swapped_pair_fails_only_the_ranked_check() {
    for seed in SEEDS {
        let k = 5;
        let mut answers = ta_answer(seed, k);
        assert!(
            answers[0].grade > answers[1].grade,
            "seed {seed}: distinct grades"
        );
        answers.swap(0, 1);
        assert_eq!(
            verdicts(seed, &answers, k),
            (Err(TopKViolation::OutOfOrder { position: 1 }), Ok(()))
        );
    }
}

#[test]
fn a_misreported_grade_is_caught_by_both_checks() {
    for seed in SEEDS {
        let k = 5;
        let mut answers = ta_answer(seed, k);
        let last = answers[k - 1];
        answers[k - 1] = ScoredObject::new(last.id, Score::clamped(last.grade.value() - 1e-6));
        let (ranked, set) = verdicts(seed, &answers, k);
        for verdict in [ranked, set] {
            assert!(
                matches!(verdict, Err(TopKViolation::WrongGrade { oid, .. }) if oid == last.id),
                "seed {seed}: {verdict:?}"
            );
        }
    }
}

#[test]
fn an_outsider_in_place_of_the_weakest_member_is_not_the_top_k() {
    for seed in SEEDS {
        let k = 5;
        let ranked = ranking(seed);
        let mut answers = ta_answer(seed, k);
        answers[k - 1] = ranked[k];
        let (by_rank, by_set) = verdicts(seed, &answers, k);
        for verdict in [by_rank, by_set] {
            assert!(
                matches!(verdict, Err(TopKViolation::NotTopK { better, .. }) if better == ranked[k - 1].id),
                "seed {seed}: {verdict:?}"
            );
        }
    }
}

#[test]
fn a_repeated_member_is_a_duplicate() {
    for seed in SEEDS {
        let k = 5;
        let mut answers = ta_answer(seed, k);
        answers[k - 1] = answers[k - 2];
        let duplicate = Err(TopKViolation::Duplicate(answers[k - 2].id));
        assert_eq!(verdicts(seed, &answers, k), (duplicate.clone(), duplicate));
    }
}

#[test]
fn k_beyond_the_universe_wants_every_object_once() {
    for seed in SEEDS {
        let everything = ranking(seed);
        assert_eq!(everything.len(), N);
        assert_eq!(
            verdicts(seed, &everything, N + 10),
            (Ok(()), Ok(())),
            "seed {seed}"
        );
        let short = &everything[..N - 1];
        assert!(matches!(
            verdicts(seed, short, N + 10).0,
            Err(TopKViolation::TooFewAnswers { got, expected: N }) if got == N - 1
        ));
    }
}

#[test]
fn either_side_of_a_tie_at_the_cut_passes() {
    // Objects 1 and 2 tie for second place under min; object 3 trails.
    let grades = |values: &[f64]| {
        values
            .iter()
            .map(|&v| Score::clamped(v))
            .collect::<Vec<_>>()
    };
    let make = || {
        [
            VecSource::from_dense("a", &grades(&[0.9, 0.5, 0.7, 0.2])),
            VecSource::from_dense("b", &grades(&[0.8, 0.6, 0.5, 0.9])),
        ]
    };
    let half = Score::clamped(0.5);
    for second in [1, 2] {
        let answers = [
            ScoredObject::new(0, Score::clamped(0.8)),
            ScoredObject::new(second, half),
        ];
        let mut sources = make();
        assert_eq!(
            verify_top_k(&mut refs(&mut sources), &Min, &answers, 2),
            Ok(())
        );
    }
    let trailing = [
        ScoredObject::new(0, Score::clamped(0.8)),
        ScoredObject::new(3, Score::clamped(0.2)),
    ];
    let mut sources = make();
    assert!(matches!(
        verify_top_k(&mut refs(&mut sources), &Min, &trailing, 2),
        Err(TopKViolation::NotTopK { weakest_returned, .. }) if weakest_returned == Score::clamped(0.2)
    ));
}

#[test]
fn nra_members_pass_the_set_check_in_any_order() {
    for seed in SEEDS {
        let k = 5;
        let mut sources = lists(seed);
        let mut narrow: Vec<&mut dyn Subsystem> = sources
            .iter_mut()
            .map(|s| s as &mut dyn Subsystem)
            .collect();
        let nra = nra_intervals(&mut narrow, &ArithmeticMean, k)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let truth = all_grades(&mut refs(&mut sources), &ArithmeticMean);
        let mut members: Vec<ScoredObject<Oid>> = nra
            .answers
            .iter()
            .map(|a| ScoredObject::new(a.id, truth[&a.id]))
            .collect();
        members.sort_by_key(|a| a.grade);
        let (ranked, set) = verdicts(seed, &members, k);
        assert_eq!(set, Ok(()), "seed {seed}");
        assert!(
            matches!(ranked, Err(TopKViolation::OutOfOrder { position: 1 })),
            "seed {seed}: {ranked:?}"
        );
    }
}

#[test]
fn verification_leaves_the_sources_rewound() {
    let mut fresh = lists(3);
    let heads: Vec<Option<ScoredObject<Oid>>> = refs(&mut fresh)
        .into_iter()
        .map(|s| s.sorted_next())
        .collect();
    let mut sources = lists(3);
    let answers = ta_answer(3, 4);
    assert_eq!(
        verify_top_k(&mut refs(&mut sources), &ArithmeticMean, &answers, 4),
        Ok(())
    );
    let after: Vec<Option<ScoredObject<Oid>>> = refs(&mut sources)
        .into_iter()
        .map(|s| s.sorted_next())
        .collect();
    assert_eq!(after, heads);
}
