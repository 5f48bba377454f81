//! Property suite: the sharded engine path is equivalent to the serial
//! engine and to the brute-force oracle.
//!
//! For random corpora, shard counts ∈ {1, 2, 3, 8}, and k up to (and
//! beyond) the corpus size:
//!
//! * **TA** — the sharded answers must equal the serial answers **bit
//!   for bit** (same objects, same exact grades, same order). Both
//!   paths break ties by ascending oid, so the lists are comparable
//!   directly.
//! * **NRA** — the sharded kernel stops only on collapsed intervals, so
//!   its grades are exact where the serial path may report lower
//!   bounds; ties at the k-th grade may therefore resolve to different
//!   (equally correct) objects. Equivalence is checked as: oracle
//!   validity of the returned *set*, exactness of every returned grade,
//!   and equality of the **true-grade multisets** against the serial
//!   run.
//!
//! `shards: 1` is exercised on purpose: the engine must fall back to
//! the serial path (sharding needs ≥ 2 effective shards), proving a
//! one-shard policy degrades to the serial engine rather than to a
//! third behaviour.

use proptest::prelude::*;

use fmdb_core::score::Score;
use fmdb_core::scoring::tnorms::Min;
use fmdb_middleware::algorithms::nra::NraLowerBound;
use fmdb_middleware::algorithms::ta::ThresholdAlgorithm;
use fmdb_middleware::algorithms::{TopKAlgorithm, TopKResult};
use fmdb_middleware::engine::Engine;
use fmdb_middleware::oracle::{all_grades, verify_top_k};
use fmdb_middleware::policy::ExecPolicy;
use fmdb_middleware::request::{TopKQuery, TopKRequest};
use fmdb_middleware::source::GradedSource;
use fmdb_middleware::workload::independent_uniform;

/// One randomly drawn sharded-vs-serial comparison.
#[derive(Debug, Clone, Copy)]
struct Scenario {
    n: usize,
    m: usize,
    k: usize,
    seed: u64,
    shards: usize,
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (
        (
            40usize..300,
            2usize..=4,
            prop_oneof![Just(1usize), Just(7usize), Just(25usize), Just(400usize)],
        ),
        (
            0u64..1_000_000,
            prop_oneof![Just(1usize), Just(2usize), Just(3usize), Just(8usize)],
        ),
    )
        .prop_map(|((n, m, k), (seed, shards))| Scenario {
            n,
            m,
            k,
            seed,
            shards,
        })
}

fn request(s: Scenario, policy: ExecPolicy) -> TopKRequest {
    TopKQuery::compose()
        .sources(independent_uniform(s.n, s.m, s.seed))
        .scoring(Min)
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

/// The default policy: the kernel runs on the caller's thread.
fn serial() -> ExecPolicy {
    ExecPolicy::new()
}

/// `sharded_over` never vetoes sharding on corpus size: the suite wants
/// the sharded kernels exercised even on its smallest corpora.
fn sharded(shards: usize) -> ExecPolicy {
    ExecPolicy::new().sharded_over(shards)
}

fn true_grades(s: Scenario) -> std::collections::HashMap<u64, Score> {
    let mut sources = independent_uniform(s.n, s.m, s.seed);
    let mut refs: Vec<&mut dyn GradedSource> = sources
        .iter_mut()
        .map(|src| src as &mut dyn GradedSource)
        .collect();
    all_grades(&mut refs, &Min)
}

fn assert_oracle(s: Scenario, result: &TopKResult) -> Result<(), TestCaseError> {
    let mut sources = independent_uniform(s.n, s.m, s.seed);
    let mut refs: Vec<&mut dyn GradedSource> = sources
        .iter_mut()
        .map(|src| src as &mut dyn GradedSource)
        .collect();
    let verdict = verify_top_k(&mut refs, &Min, &result.answers, s.k);
    prop_assert!(
        verdict.is_ok(),
        "oracle rejected sharded answers under {:?}: {:?}",
        s,
        verdict
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Sharded TA ≡ serial TA, answer lists compared bit for bit, and
    /// both validated against the oracle.
    #[test]
    fn sharded_ta_equals_serial_ta_and_the_oracle(s in scenario()) {
        let serial = run(&ThresholdAlgorithm, s, serial());
        let sharded = run(&ThresholdAlgorithm, s, sharded(s.shards));
        prop_assert_eq!(
            &sharded.answers,
            &serial.answers,
            "TA answers diverged under {:?}",
            s
        );
        assert_oracle(s, &sharded)?;
    }

    /// Sharded NRA returns an oracle-valid set of exactly graded
    /// objects whose true-grade multiset equals the serial NRA set's.
    #[test]
    fn sharded_nra_is_an_exact_valid_set_matching_serial(s in scenario()) {
        let serial = run(&NraLowerBound, s, serial());
        let sharded = run(&NraLowerBound, s, sharded(s.shards));
        assert_oracle(s, &sharded)?;
        prop_assert_eq!(sharded.answers.len(), serial.answers.len());

        let truth = true_grades(s);
        // Every sharded grade is exact (the kernel stops only on
        // collapsed intervals); serial grades are lower bounds.
        for a in &sharded.answers {
            prop_assert!(
                a.grade.approx_eq(truth[&a.id], 1e-9),
                "sharded NRA reported inexact grade for {} under {:?}",
                a.id,
                s
            );
        }
        // Same true-grade multiset: ties may pick different objects,
        // never different quality.
        let mut got: Vec<Score> = sharded.answers.iter().map(|a| truth[&a.id]).collect();
        let mut want: Vec<Score> = serial.answers.iter().map(|a| truth[&a.id]).collect();
        got.sort();
        want.sort();
        for (x, y) in got.iter().zip(&want) {
            prop_assert!(x.approx_eq(*y, 1e-9), "grade multisets diverged under {:?}", s);
        }
    }
}

/// k ≥ corpus size must return the whole universe from every path.
#[test]
fn k_at_least_corpus_size_returns_everything() {
    for shards in [1usize, 2, 3, 8] {
        for (n, k) in [(24usize, 24usize), (24, 25), (30, 1000)] {
            let s = Scenario {
                n,
                m: 2,
                k,
                seed: 5,
                shards,
            };
            let ta = run(&ThresholdAlgorithm, s, sharded(shards));
            assert_eq!(ta.answers.len(), n, "TA n={n} k={k} p={shards}");
            let serial = run(&ThresholdAlgorithm, s, serial());
            assert_eq!(ta.answers, serial.answers, "TA n={n} k={k} p={shards}");
            let nra = run(&NraLowerBound, s, sharded(shards));
            assert_eq!(nra.answers.len(), n, "NRA n={n} k={k} p={shards}");
            let truth = true_grades(s);
            for a in &nra.answers {
                assert!(a.grade.approx_eq(truth[&a.id], 1e-9));
            }
        }
    }
}

/// More shards than objects: every non-empty shard still cooperates
/// through the shared threshold and the merge stays exact.
#[test]
fn more_shards_than_objects_still_exact() {
    let s = Scenario {
        n: 5,
        m: 2,
        k: 3,
        seed: 11,
        shards: 8,
    };
    let sharded = run(&ThresholdAlgorithm, s, sharded(8));
    let serial = run(&ThresholdAlgorithm, s, serial());
    assert_eq!(sharded.answers, serial.answers);
}
