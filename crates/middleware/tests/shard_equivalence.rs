//! Property suite: the sharded engine path against the serial engine
//! and the brute-force oracle.
//!
//! For random corpora of two shapes — `independent_uniform` (tie-free
//! in practice) and tie-heavy lists (grades from 2–9 levels) — shard
//! counts ∈ {1, 2, 3, 8}, and k up to (and beyond) the corpus size:
//!
//! * **TA**, the one algorithm with a shard kernel — on tie-free lists
//!   the sharded answers equal the serial answers **bit for bit** (same
//!   objects, same exact grades, same order). Where objects tie at the
//!   k-th grade, which of them TA reports depends on how deep it read,
//!   and every shard reads its lists to its own depth: on tie-heavy
//!   lists the sharded answers are oracle-valid with the serial
//!   answers' grades, not necessarily the serial objects.
//! * **Every other policy** (FA, NRA, CA, θ-TA, θ-NRA) has no shard
//!   kernel: under `sharded_over(p)` it runs serial, spawns no thread,
//!   and returns the serial `TopKResult` bit for bit, ties included.
//!
//! `shards: 1` is exercised on purpose: the engine must fall back to
//! the serial path (sharding needs ≥ 2 effective shards), proving a
//! one-shard policy degrades to the serial engine rather than to a
//! third behaviour.

use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use fmdb_core::score::Score;
use fmdb_core::scoring::means::ArithmeticMean;
use fmdb_core::scoring::tnorms::Min;
use fmdb_middleware::algorithms::ta::ThresholdAlgorithm;
use fmdb_middleware::algorithms::{TopKAlgorithm, TopKResult};
use fmdb_middleware::engine::Engine;
use fmdb_middleware::oracle::verify_top_k;
use fmdb_middleware::policy::{Algo, ExecPolicy};
use fmdb_middleware::request::{SharedScoring, TopKQuery, TopKRequest};
use fmdb_middleware::source::{GradedSource, VecSource};
use fmdb_middleware::workload::independent_uniform;

/// The lists a scenario runs on.
#[derive(Debug, Clone, Copy)]
enum Lists {
    /// `independent_uniform`: i.i.d. uniform grades.
    Uniform,
    /// Grades drawn uniformly from this many evenly spaced levels of
    /// `[0, 1]`: every list is mostly ties.
    Tied(usize),
}

/// One randomly drawn sharded-vs-serial comparison.
#[derive(Debug, Clone, Copy)]
struct Scenario {
    lists: Lists,
    n: usize,
    m: usize,
    k: usize,
    mean: bool,
    seed: u64,
    shards: usize,
}

fn scenario(lists: impl Strategy<Value = Lists>) -> impl Strategy<Value = Scenario> {
    (
        lists,
        (
            40usize..300,
            2usize..=4,
            prop_oneof![Just(1usize), Just(7usize), Just(25usize), Just(400usize)],
        ),
        prop_oneof![Just(false), Just(true)],
        0u64..1_000_000,
        prop_oneof![Just(1usize), Just(2usize), Just(3usize), Just(8usize)],
    )
        .prop_map(|(lists, (n, m, k), mean, seed, shards)| Scenario {
            lists,
            n,
            m,
            k,
            mean,
            seed,
            shards,
        })
}

fn tied() -> impl Strategy<Value = Lists> {
    (2usize..=9).prop_map(Lists::Tied)
}

fn any_lists() -> impl Strategy<Value = Lists> {
    prop_oneof![Just(Lists::Uniform), tied()]
}

fn sources(s: Scenario) -> Vec<VecSource> {
    let Lists::Tied(levels) = s.lists else {
        return independent_uniform(s.n, s.m, s.seed);
    };
    let mut rng = StdRng::seed_from_u64(s.seed);
    (0..s.m)
        .map(|i| {
            let grades: Vec<Score> = (0..s.n)
                .map(|_| Score::clamped(rng.gen_range(0..levels) as f64 / (levels - 1) as f64))
                .collect();
            VecSource::from_dense(format!("tied-{i}"), &grades)
        })
        .collect()
}

fn scoring(s: Scenario) -> SharedScoring {
    if s.mean {
        Arc::new(ArithmeticMean)
    } else {
        Arc::new(Min)
    }
}

fn request(s: Scenario, policy: ExecPolicy) -> TopKRequest {
    TopKQuery::compose()
        .sources(sources(s))
        .shared_scoring(scoring(s))
        .k(s.k)
        .policy(policy)
        .request()
        .expect("request must validate")
}

fn run(algorithm: &dyn TopKAlgorithm, s: Scenario, policy: ExecPolicy) -> TopKResult {
    Engine::default()
        .run_algorithm(algorithm, &request(s, policy))
        .expect("engine run must succeed")
}

/// `sharded_over` never vetoes sharding on corpus size: the suite wants
/// the shard kernel exercised even on its smallest corpora.
fn sharded(shards: usize) -> ExecPolicy {
    ExecPolicy::new().sharded_over(shards)
}

fn assert_oracle(s: Scenario, result: &TopKResult) -> Result<(), TestCaseError> {
    let mut sources = sources(s);
    let mut refs: Vec<&mut dyn GradedSource> = sources
        .iter_mut()
        .map(|src| src as &mut dyn GradedSource)
        .collect();
    let verdict = verify_top_k(&mut refs, &*scoring(s), &result.answers, s.k);
    prop_assert!(
        verdict.is_ok(),
        "oracle rejected sharded answers under {:?}: {:?}",
        s,
        verdict
    );
    Ok(())
}

fn grades(result: &TopKResult) -> Vec<Score> {
    result.answers.iter().map(|a| a.grade).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Sharded TA ≡ serial TA on tie-free lists, answer lists compared
    /// bit for bit, and both validated against the oracle.
    #[test]
    fn sharded_ta_equals_serial_ta_and_the_oracle(s in scenario(Just(Lists::Uniform))) {
        let serial = run(&ThresholdAlgorithm, s, ExecPolicy::new());
        let sharded = run(&ThresholdAlgorithm, s, sharded(s.shards));
        prop_assert_eq!(
            &sharded.answers,
            &serial.answers,
            "TA answers diverged under {:?}",
            s
        );
        assert_oracle(s, &sharded)?;
    }

    /// Sharded TA on tie-heavy lists: oracle-valid, and the same
    /// true-grade multiset as serial TA (its grades are exact and in
    /// output order, so the reported grade lists are equal).
    #[test]
    fn sharded_ta_on_ties_is_valid_with_the_serial_grades(s in scenario(tied())) {
        let serial = run(&ThresholdAlgorithm, s, ExecPolicy::new());
        let sharded = run(&ThresholdAlgorithm, s, sharded(s.shards));
        assert_oracle(s, &sharded)?;
        prop_assert_eq!(grades(&sharded), grades(&serial), "grades diverged under {:?}", s);
    }

    /// No other policy shards: `sharded_over(p)` leaves FA, NRA, CA and
    /// both θ-approximations on the serial path, result for result.
    #[test]
    fn non_ta_policies_ignore_sharding(s in scenario(any_lists())) {
        let engine = Engine::default();
        for policy in [
            ExecPolicy::new().algo(Algo::Fa),
            ExecPolicy::new().algo(Algo::Nra),
            ExecPolicy::new().algo(Algo::Ca),
            ExecPolicy::new().algo(Algo::Ta).theta(0.1),
            ExecPolicy::new().algo(Algo::Nra).theta(0.1),
        ] {
            let serial = engine.run(&request(s, policy)).expect("serial run");
            let sharded = engine
                .run(&request(s, policy.sharded_over(s.shards)))
                .expect("sharded run");
            prop_assert_eq!(sharded.stats.worker_spawns, 0, "{:?} under {:?}", policy, s);
            prop_assert_eq!(&sharded, &serial, "{:?} under {:?}", policy, s);
        }
    }
}

/// k ≥ corpus size must return the whole universe from every path.
#[test]
fn k_at_least_corpus_size_returns_everything() {
    for shards in [1usize, 2, 3, 8] {
        for (n, k) in [(24usize, 24usize), (24, 25), (30, 1000)] {
            let s = Scenario {
                lists: Lists::Uniform,
                n,
                m: 2,
                k,
                mean: false,
                seed: 5,
                shards,
            };
            let ta = run(&ThresholdAlgorithm, s, sharded(shards));
            assert_eq!(ta.answers.len(), n, "TA n={n} k={k} p={shards}");
            let serial = run(&ThresholdAlgorithm, s, ExecPolicy::new());
            assert_eq!(ta.answers, serial.answers, "TA n={n} k={k} p={shards}");
        }
    }
}

/// More shards than objects: every non-empty shard still cooperates
/// through the shared threshold and the merge stays exact.
#[test]
fn more_shards_than_objects_still_exact() {
    let s = Scenario {
        lists: Lists::Uniform,
        n: 5,
        m: 2,
        k: 3,
        mean: false,
        seed: 11,
        shards: 8,
    };
    let sharded = run(&ThresholdAlgorithm, s, sharded(8));
    let serial = run(&ThresholdAlgorithm, s, ExecPolicy::new());
    assert_eq!(sharded.answers, serial.answers);
}
