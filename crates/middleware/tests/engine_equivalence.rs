//! Property suite: the batched [`Engine`] is observationally
//! identical to the scalar reference algorithms.
//!
//! For seeded workloads spanning m ∈ {2, 3, 4} and k ∈ {1, 10, 50},
//! and for *any* engine batch size, the engine must return the same
//! answers — same objects, same grades, same order — and charge
//! exactly the same `sorted`/`random` access counts as the scalar
//! `FaginsAlgorithm` / `ThresholdAlgorithm` / `Nra` run. Answers are
//! additionally checked against the exhaustive oracle, so a bug that
//! broke engine and scalar paths identically would still be caught.

use std::sync::{Arc, Mutex};

use proptest::prelude::*;

use fmdb_core::score::{Score, ScoredObject};
use fmdb_core::scoring::tnorms::Min;
use fmdb_middleware::algorithms::fa::FaginsAlgorithm;
use fmdb_middleware::algorithms::nra::NraLowerBound;
use fmdb_middleware::algorithms::ta::ThresholdAlgorithm;
use fmdb_middleware::algorithms::{TopKAlgorithm, TopKResult};
use fmdb_middleware::engine::{Engine, EngineConfig};
use fmdb_middleware::oracle::{all_grades, verify_top_k};
use fmdb_middleware::request::TopKQuery;
use fmdb_middleware::source::{GradedSource, Oid, SourceInfo, VecSource};
use fmdb_middleware::workload::independent_uniform;

/// One randomly drawn engine-vs-scalar comparison.
#[derive(Debug, Clone, Copy)]
struct Scenario {
    n: usize,
    m: usize,
    k: usize,
    seed: u64,
    batch_size: usize,
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (
        (
            60usize..400,
            2usize..=4,
            prop_oneof![Just(1usize), Just(10usize), Just(50usize)],
        ),
        (0u64..1_000_000, 1usize..=130),
    )
        .prop_map(|((n, m, k), (seed, batch_size))| Scenario {
            n,
            m,
            k,
            seed,
            batch_size,
        })
}

fn scalar_run(algorithm: &dyn TopKAlgorithm, s: Scenario) -> TopKResult {
    let mut sources = independent_uniform(s.n, s.m, s.seed);
    let mut refs: Vec<&mut dyn GradedSource> = sources
        .iter_mut()
        .map(|src| src as &mut dyn GradedSource)
        .collect();
    algorithm
        .top_k(&mut refs, &Min, s.k)
        .expect("scalar reference run must succeed")
}

fn engine_run(algorithm: &dyn TopKAlgorithm, s: Scenario) -> TopKResult {
    let engine = Engine::new(EngineConfig {
        batch_size: s.batch_size,
    });
    let request = TopKQuery::compose()
        .sources(independent_uniform(s.n, s.m, s.seed))
        .scoring(Min)
        .k(s.k)
        .request()
        .expect("request must validate");
    engine
        .run_algorithm(algorithm, &request)
        .expect("engine run must succeed")
}

/// Engine answers and charged counts must match the scalar reference
/// bit for bit.
fn assert_equivalent(
    algorithm: &dyn TopKAlgorithm,
    s: Scenario,
) -> Result<(TopKResult, TopKResult), TestCaseError> {
    let scalar = scalar_run(algorithm, s);
    let engine = engine_run(algorithm, s);
    prop_assert_eq!(
        &engine.answers,
        &scalar.answers,
        "{} answers diverged under {:?}",
        algorithm.name(),
        s
    );
    prop_assert_eq!(engine.stats.sorted, scalar.stats.sorted);
    prop_assert_eq!(engine.stats.random, scalar.stats.random);
    Ok((scalar, engine))
}

/// Oracle check for exact-grade algorithms (FA, TA).
fn assert_oracle_exact(s: Scenario, result: &TopKResult) -> Result<(), TestCaseError> {
    let mut sources = independent_uniform(s.n, s.m, s.seed);
    let mut refs: Vec<&mut dyn GradedSource> = sources
        .iter_mut()
        .map(|src| src as &mut dyn GradedSource)
        .collect();
    let verdict = verify_top_k(&mut refs, &Min, &result.answers, s.k);
    prop_assert!(
        verdict.is_ok(),
        "oracle rejected answers under {:?}: {:?}",
        s,
        verdict
    );
    Ok(())
}

/// Oracle check for NRA: reported grades are certified *lower* bounds,
/// so verify the answer **set** instead — every returned object's true
/// grade must be at least the k-th best true grade (tie-tolerant).
fn assert_oracle_set(s: Scenario, result: &TopKResult) -> Result<(), TestCaseError> {
    let mut sources = independent_uniform(s.n, s.m, s.seed);
    let mut refs: Vec<&mut dyn GradedSource> = sources
        .iter_mut()
        .map(|src| src as &mut dyn GradedSource)
        .collect();
    let truth = all_grades(&mut refs, &Min);
    let mut grades: Vec<_> = truth.values().copied().collect();
    grades.sort_by(|a, b| b.partial_cmp(a).expect("grades are ordered"));
    let expected = s.k.min(grades.len());
    prop_assert_eq!(result.answers.len(), expected);
    let kth = grades[expected - 1];
    let mut seen = std::collections::HashSet::new();
    for answer in &result.answers {
        prop_assert!(seen.insert(answer.id), "duplicate answer {:?}", answer.id);
        let true_grade = truth[&answer.id];
        prop_assert!(
            true_grade >= kth,
            "object {:?} (true grade {:?}) is not in the top {} under {:?}",
            answer.id,
            true_grade,
            s.k,
            s
        );
        prop_assert!(answer.grade <= true_grade, "lower bound exceeds truth");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn engine_fa_matches_scalar_fa_and_the_oracle(s in scenario()) {
        let (_, engine) = assert_equivalent(&FaginsAlgorithm, s)?;
        assert_oracle_exact(s, &engine)?;
    }

    #[test]
    fn engine_ta_matches_scalar_ta_and_the_oracle(s in scenario()) {
        let (_, engine) = assert_equivalent(&ThresholdAlgorithm, s)?;
        assert_oracle_exact(s, &engine)?;
    }

    #[test]
    fn engine_nra_matches_scalar_nra_and_the_oracle(s in scenario()) {
        let (_, engine) = assert_equivalent(&NraLowerBound, s)?;
        assert_oracle_set(s, &engine)?;
    }
}

/// The ISSUE's named grid, pinned explicitly so the exact combinations
/// m ∈ {2,3,4} × k ∈ {1,10,50} are always exercised even if the random
/// scenarios happen to skirt one.
#[test]
fn engine_matches_scalar_on_the_full_named_grid() {
    for m in [2usize, 3, 4] {
        for k in [1usize, 10, 50] {
            for batch_size in [1, 7, 64, 1000] {
                let s = Scenario {
                    n: 256,
                    m,
                    k,
                    seed: 41 * m as u64 + k as u64,
                    batch_size,
                };
                let scalar = scalar_run(&FaginsAlgorithm, s);
                let engine = engine_run(&FaginsAlgorithm, s);
                assert_eq!(engine.answers, scalar.answers, "m={m} k={k}");
                assert_eq!(engine.stats.sorted, scalar.stats.sorted, "m={m} k={k}");
                assert_eq!(engine.stats.random, scalar.stats.random, "m={m} k={k}");
            }
        }
    }
}

/// What random access asked of one list.
#[derive(Debug, Default)]
struct Probes {
    scalar: usize,
    batch_lengths: Vec<usize>,
}

/// A list that logs its random accesses where the test can read them
/// after the request has taken the list.
struct Recording {
    inner: VecSource,
    probes: Arc<Mutex<Probes>>,
}

impl GradedSource for Recording {
    fn sorted_next(&mut self) -> Option<ScoredObject<Oid>> {
        self.inner.sorted_next()
    }
    fn random_access(&mut self, oid: Oid) -> Score {
        self.probes.lock().expect("probe log").scalar += 1;
        self.inner.random_access(oid)
    }
    fn random_batch(&mut self, oids: &[Oid]) -> Vec<Score> {
        let mut probes = self.probes.lock().expect("probe log");
        probes.batch_lengths.push(oids.len());
        self.inner.random_batch(oids)
    }
    fn rewind(&mut self) {
        self.inner.rewind();
    }
    fn info(&self) -> SourceInfo {
        self.inner.info()
    }
}

/// `fa::tests::phase_two_is_one_batch_per_list`, held through the
/// engine: A₀'s phase 2 reaches each subsystem as one `random_batch`,
/// never as scalar probes.
#[test]
fn engine_fa_phase_two_is_one_batch_per_list() {
    let logs: Vec<Arc<Mutex<Probes>>> = (0..3).map(|_| Arc::default()).collect();
    let mut query = TopKQuery::compose();
    for (inner, probes) in independent_uniform(400, 3, 7).into_iter().zip(&logs) {
        query = query.source(Recording {
            inner,
            probes: Arc::clone(probes),
        });
    }
    let request = query.scoring(Min).k(5).request().expect("valid request");
    let result = Engine::default()
        .run_algorithm(&FaginsAlgorithm, &request)
        .expect("engine run must succeed");
    let mut batched = 0;
    for log in &logs {
        let probes = log.lock().expect("probe log");
        assert_eq!(probes.scalar, 0);
        assert!(probes.batch_lengths.len() <= 1, "{probes:?}");
        batched += probes.batch_lengths.iter().sum::<usize>();
    }
    assert!(batched > 0, "the fixture leaves holes to probe");
    assert_eq!(result.stats.random, batched as u64);
}
