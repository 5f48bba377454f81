//! Property suite: a [`Cursor`] resumes every plan it takes.
//!
//! Random lists — dense, with holes, and tie-heavy (grades on 2–9
//! levels) — × every plan a cursor takes × random batch schedules.
//! After each batch, the answers returned so far are checked against the
//! exhaustive oracle at the cumulative `k`: `verify_top_k` for the exact
//! plans, the `(1 + θ)` guarantee for the approximations, and set
//! validity for NRA, whose grades are lower bounds. Batch after batch,
//! the exact plans' grades are a one-shot run's at the cumulative `k`,
//! bit for bit, and a resumed TA has charged what a fresh TA at the
//! cumulative `k` charges.

use std::collections::{HashMap, HashSet};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use fmdb_core::score::{Score, ScoredObject};
use fmdb_core::scoring::conorms::Max;
use fmdb_core::scoring::means::ArithmeticMean;
use fmdb_core::scoring::tnorms::Min;
use fmdb_core::scoring::{ConormScoring, ScoringFunction};
use fmdb_middleware::algorithms::{Cursor, TopKResult};
use fmdb_middleware::oracle::{all_grades, verify_top_k};
use fmdb_middleware::planner::PhysicalPlan;
use fmdb_middleware::source::{GradedSource, Oid, Subsystem, VecSource};
use fmdb_middleware::workload::independent_uniform;

/// The lists a scenario runs on.
#[derive(Debug, Clone, Copy)]
enum Lists {
    /// `independent_uniform`: i.i.d. uniform grades.
    Dense,
    /// The same lists with holes: list `i` leaves out every object with
    /// `(oid + i) % 3 == 0`, which grades 0 there.
    Holes,
    /// Grades drawn uniformly from this many evenly spaced levels of
    /// `[0, 1]`: every list is mostly ties.
    Tied(usize),
}

#[derive(Debug, Clone)]
struct Scenario {
    lists: Lists,
    n: usize,
    m: usize,
    seed: u64,
    /// 0: min, 1: the arithmetic mean, 2: max.
    scoring: usize,
    /// CA's interleave depth.
    h: usize,
    /// The approximations' slack.
    theta: f64,
    /// The batch sizes, in order.
    schedule: Vec<usize>,
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (
        (
            prop_oneof![
                Just(Lists::Dense),
                Just(Lists::Holes),
                (2usize..=9).prop_map(Lists::Tied)
            ],
            20usize..200,
            2usize..=4,
        ),
        (0u64..1_000_000, 0usize..3, 1usize..=10),
        (
            prop_oneof![Just(0.05), Just(0.1), Just(0.5)],
            proptest::collection::vec(1usize..=8, 1..=5),
        ),
    )
        .prop_map(
            |((lists, n, m), (seed, scoring, h), (theta, schedule))| Scenario {
                lists,
                n,
                m,
                seed,
                scoring,
                h,
                theta,
                schedule,
            },
        )
}

fn sources(s: &Scenario) -> Vec<VecSource> {
    match s.lists {
        Lists::Dense => independent_uniform(s.n, s.m, s.seed),
        Lists::Holes => independent_uniform(s.n, s.m, s.seed)
            .into_iter()
            .enumerate()
            .map(|(i, mut list)| {
                let kept = std::iter::from_fn(|| Subsystem::sorted_next(&mut list).unwrap())
                    .filter(|so| !(so.id + i as Oid).is_multiple_of(3))
                    .map(|so| (so.id, so.grade))
                    .collect();
                VecSource::new(format!("holes-{i}"), kept)
            })
            .collect(),
        Lists::Tied(levels) => {
            let mut rng = StdRng::seed_from_u64(s.seed);
            (0..s.m)
                .map(|i| {
                    let grades: Vec<Score> = (0..s.n)
                        .map(|_| {
                            Score::clamped(rng.gen_range(0..levels) as f64 / (levels - 1) as f64)
                        })
                        .collect();
                    VecSource::from_dense(format!("tied-{i}"), &grades)
                })
                .collect()
        }
    }
}

/// What a plan promises of the answers so far.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Promise {
    /// A valid top set with exact grades, those of a one-shot run.
    Exact,
    /// Every returned object's true grade times `1 + θ` ties or beats
    /// every other object's.
    Within(f64),
    /// A valid top set; the grades are lower bounds.
    Set,
}

/// Every plan a cursor takes, with its slack and its promise. The max
/// merge runs under max whatever the scenario's function.
fn plans(s: &Scenario) -> Vec<(PhysicalPlan, f64, Promise)> {
    let h = s.h;
    vec![
        (PhysicalPlan::Fa, 0.0, Promise::Exact),
        (
            PhysicalPlan::PrunedFa {
                short_circuit: true,
            },
            0.0,
            Promise::Exact,
        ),
        (
            PhysicalPlan::PrunedFa {
                short_circuit: false,
            },
            0.0,
            Promise::Exact,
        ),
        (PhysicalPlan::Ta, 0.0, Promise::Exact),
        (PhysicalPlan::Ca { h }, 0.0, Promise::Exact),
        (PhysicalPlan::MaxMerge, 0.0, Promise::Exact),
        (PhysicalPlan::FullScan, 0.0, Promise::Exact),
        (PhysicalPlan::Nra, 0.0, Promise::Set),
        (PhysicalPlan::ApproxTa, s.theta, Promise::Within(s.theta)),
        (PhysicalPlan::ApproxNra, s.theta, Promise::Within(s.theta)),
        (PhysicalPlan::Ca { h }, s.theta, Promise::Within(s.theta)),
    ]
}

fn scoring(which: usize) -> Box<dyn ScoringFunction> {
    match which {
        0 => Box::new(Min),
        1 => Box::new(ArithmeticMean),
        _ => Box::new(ConormScoring(Max)),
    }
}

fn subsystems(lists: &mut [VecSource]) -> Vec<&mut dyn Subsystem> {
    lists.iter_mut().map(|s| s as &mut dyn Subsystem).collect()
}

fn old_trait(lists: &mut [VecSource]) -> Vec<&mut dyn GradedSource> {
    lists
        .iter_mut()
        .map(|s| s as &mut dyn GradedSource)
        .collect()
}

/// A fresh one-shot run of `plan` at `k`.
fn one_shot(
    plan: PhysicalPlan,
    theta: f64,
    s: &Scenario,
    scoring: &dyn ScoringFunction,
    k: usize,
) -> TopKResult {
    let mut lists = sources(s);
    Cursor::once(plan, theta, &mut subsystems(&mut lists), scoring, k)
        .expect("a one-shot run succeeds")
}

/// Whether `answers` — distinct, `min(k, N)` of them — hold every
/// object whose true grade beats `1 + θ` times the weakest returned
/// one's, and report no grade above the truth.
fn within(
    truth: &HashMap<Oid, Score>,
    answers: &[ScoredObject<Oid>],
    k: usize,
    theta: f64,
) -> Result<(), String> {
    if answers.len() != k.min(truth.len()) {
        return Err(format!("{} answers at k = {k}", answers.len()));
    }
    let ids: HashSet<Oid> = answers.iter().map(|a| a.id).collect();
    if ids.len() != answers.len() {
        return Err("an object was returned twice".to_owned());
    }
    let grade = |oid: &Oid| truth.get(oid).copied().unwrap_or(Score::ZERO).value();
    for a in answers {
        if a.grade.value() > grade(&a.id) + 1e-9 {
            return Err(format!(
                "{} reported above its grade {}",
                a.id,
                grade(&a.id)
            ));
        }
    }
    let weakest = answers
        .iter()
        .map(|a| grade(&a.id))
        .fold(f64::INFINITY, f64::min);
    for (oid, g) in truth {
        if !ids.contains(oid) && g.value() > (1.0 + theta) * weakest + 1e-9 {
            return Err(format!("{oid} ({g}) beats the returned floor {weakest}"));
        }
    }
    Ok(())
}

fn bits(answers: &[ScoredObject<Oid>]) -> Vec<u64> {
    answers.iter().map(|a| a.grade.value().to_bits()).collect()
}

fn check(s: &Scenario) -> Result<(), String> {
    for (plan, theta, promise) in plans(s) {
        let scoring = scoring(if plan == PhysicalPlan::MaxMerge {
            2
        } else {
            s.scoring
        });
        let scoring = scoring.as_ref();
        let mut truth_lists = sources(s);
        let truth = all_grades(&mut old_trait(&mut truth_lists), scoring);

        let mut lists = sources(s);
        let mut refs = subsystems(&mut lists);
        let mut cursor = Cursor::new(plan, theta).map_err(|e| e.to_string())?;
        let mut so_far = Vec::new();
        let mut k = 0;
        for &batch in &s.schedule {
            let at = format!("{plan} θ={theta} after {k} + {batch}");
            let got = cursor
                .next_k(&mut refs, scoring, batch)
                .map_err(|e| format!("{at}: {e}"))?;
            if got.answers.len() > batch {
                return Err(format!("{at}: a batch of {}", got.answers.len()));
            }
            let charged = (got.stats.sorted, got.stats.random);
            so_far.extend(got.answers);
            k += batch;
            if cursor.emitted() != so_far.len() {
                return Err(format!("{at}: emitted {}", cursor.emitted()));
            }
            match promise {
                Promise::Exact => {
                    verify_top_k(&mut old_trait(&mut truth_lists), scoring, &so_far, k)
                        .map_err(|v| format!("{at}: {v}"))?;
                    let fresh = one_shot(plan, theta, s, scoring, k);
                    if bits(&so_far) != bits(&fresh.answers) {
                        return Err(format!("{at}: grades differ from a one-shot run's"));
                    }
                    let fresh_charged = (fresh.stats.sorted, fresh.stats.random);
                    if plan == PhysicalPlan::Ta && charged != fresh_charged {
                        return Err(format!(
                            "{at}: TA charged {charged:?} where a fresh run charges {fresh_charged:?}"
                        ));
                    }
                }
                Promise::Within(theta) => {
                    within(&truth, &so_far, k, theta).map_err(|v| format!("{at}: {v}"))?;
                }
                Promise::Set => {
                    within(&truth, &so_far, k, 0.0).map_err(|v| format!("{at}: {v}"))?
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn every_prefix_of_a_cursor_is_a_valid_top_k(s in scenario()) {
        let verdict = check(&s);
        prop_assert!(verdict.is_ok(), "{:?}: {}", s, verdict.unwrap_err());
    }
}

/// A batch of zero, a cursor with no book to keep, a bad slack and a
/// second batch over other lists are refused.
#[test]
fn a_cursor_refuses_what_it_cannot_resume() {
    use fmdb_middleware::algorithms::AlgoError;

    assert!(matches!(
        Cursor::new(PhysicalPlan::CrispFilter, 0.0),
        Err(AlgoError::InvalidRequest(_))
    ));
    assert!(matches!(
        Cursor::new(PhysicalPlan::ApproxTa, -1.0),
        Err(AlgoError::InvalidRequest(_))
    ));
    let mut lists = independent_uniform(50, 3, 1);
    let mut refs = subsystems(&mut lists);
    let mut cursor = Cursor::new(PhysicalPlan::Ta, 0.0).unwrap();
    assert_eq!(cursor.next_k(&mut refs, &Min, 0), Err(AlgoError::ZeroK));
    cursor.next_k(&mut refs, &Min, 3).unwrap();
    assert!(matches!(
        cursor.next_k(&mut refs[..2], &Min, 3),
        Err(AlgoError::InvalidRequest(_))
    ));
    assert_eq!(cursor.emitted(), 3);
    assert!(matches!(
        Cursor::new(PhysicalPlan::MaxMerge, 0.0)
            .unwrap()
            .next_k(&mut refs, &Min, 3),
        Err(AlgoError::UnsupportedScoring { .. })
    ));
}
