//! Property suite: the batched [`Engine`] is observationally
//! identical to the scalar reference algorithms.
//!
//! For seeded workloads spanning m ∈ {2, 3, 4}, k ∈ {1, 10, 50} and
//! k beyond the universe, uniform and tie-heavy lists (grades on 2–9
//! levels), `min` and the arithmetic mean, and for *any* engine batch
//! size, the engine must return the same answers — same objects, same
//! grades, same order — and charge exactly the same `sorted`/`random`
//! access counts as the scalar A₀ / TA / NRA runs. Answers are additionally checked against the exhaustive
//! oracle, so a bug that broke engine and scalar paths identically
//! would still be caught.

use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use fmdb_core::score::{Score, ScoredObject};
use fmdb_core::scoring::means::ArithmeticMean;
use fmdb_core::scoring::tnorms::Min;
use fmdb_middleware::algorithms::{Cursor, TopKResult};
use fmdb_middleware::engine::{Engine, EngineConfig, EngineError};
use fmdb_middleware::oracle::{all_grades, verify_top_k};
use fmdb_middleware::planner::PhysicalPlan;
use fmdb_middleware::policy::ExecPolicy;
use fmdb_middleware::request::{
    shared_source, SharedScoring, SharedSource, TopKQuery, TopKRequest,
};
use fmdb_middleware::source::{GradedSource, Oid, SourceError, SourceInfo, Subsystem, VecSource};
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

/// One randomly drawn engine-vs-scalar comparison.
#[derive(Debug, Clone, Copy)]
struct Scenario {
    lists: Lists,
    n: usize,
    m: usize,
    k: usize,
    /// The arithmetic mean instead of `min`.
    mean: bool,
    seed: u64,
    batch_size: usize,
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (
        (
            prop_oneof![Just(Lists::Uniform), (2usize..=9).prop_map(Lists::Tied)],
            prop_oneof![Just(false), Just(true)],
        ),
        (
            60usize..400,
            2usize..=4,
            // 400 is beyond every universe: the answer is all of it.
            prop_oneof![Just(1usize), Just(10usize), Just(50usize), Just(400usize)],
        ),
        (0u64..1_000_000, 1usize..=130),
    )
        .prop_map(|((lists, mean), (n, m, k), (seed, batch_size))| Scenario {
            lists,
            n,
            m,
            k,
            mean,
            seed,
            batch_size,
        })
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

fn scalar_run(plan: PhysicalPlan, s: Scenario) -> TopKResult {
    let mut sources = sources(s);
    let mut refs: Vec<&mut dyn Subsystem> = sources
        .iter_mut()
        .map(|src| src as &mut dyn Subsystem)
        .collect();
    Cursor::once(plan, 0.0, &mut refs, &*scoring(s), s.k)
        .expect("scalar reference run must succeed")
}

fn engine_run(plan: PhysicalPlan, s: Scenario) -> TopKResult {
    let engine = Engine::new(EngineConfig {
        batch_size: s.batch_size,
    });
    let request = TopKQuery::compose()
        .sources(sources(s))
        .shared_scoring(scoring(s))
        .k(s.k)
        .policy(ExecPolicy::new().plan(plan))
        .request()
        .expect("request must validate");
    engine.run(&request).expect("engine run must succeed")
}

/// Engine answers and charged counts must match the scalar reference
/// bit for bit.
fn assert_equivalent(
    plan: PhysicalPlan,
    s: Scenario,
) -> Result<(TopKResult, TopKResult), TestCaseError> {
    let scalar = scalar_run(plan, s);
    let engine = engine_run(plan, s);
    prop_assert_eq!(
        &engine.answers,
        &scalar.answers,
        "{} answers diverged under {:?}",
        plan,
        s
    );
    prop_assert_eq!(engine.stats.sorted, scalar.stats.sorted);
    prop_assert_eq!(engine.stats.random, scalar.stats.random);
    Ok((scalar, engine))
}

/// Oracle check for exact-grade algorithms (FA, TA).
fn assert_oracle_exact(s: Scenario, result: &TopKResult) -> Result<(), TestCaseError> {
    let mut sources = sources(s);
    let mut refs: Vec<&mut dyn GradedSource> = sources
        .iter_mut()
        .map(|src| src as &mut dyn GradedSource)
        .collect();
    let verdict = verify_top_k(&mut refs, &*scoring(s), &result.answers, s.k);
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
    let mut sources = sources(s);
    let mut refs: Vec<&mut dyn GradedSource> = sources
        .iter_mut()
        .map(|src| src as &mut dyn GradedSource)
        .collect();
    let truth = all_grades(&mut refs, &*scoring(s));
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
        let (_, engine) = assert_equivalent(PhysicalPlan::Fa, s)?;
        assert_oracle_exact(s, &engine)?;
    }

    #[test]
    fn engine_pruned_fa_matches_scalar_pruned_fa_and_the_oracle(s in scenario()) {
        let plan = PhysicalPlan::PrunedFa { short_circuit: true };
        let (_, engine) = assert_equivalent(plan, s)?;
        assert_oracle_exact(s, &engine)?;
    }

    #[test]
    fn engine_ta_matches_scalar_ta_and_the_oracle(s in scenario()) {
        let (_, engine) = assert_equivalent(PhysicalPlan::Ta, s)?;
        assert_oracle_exact(s, &engine)?;
    }

    #[test]
    fn engine_nra_matches_scalar_nra_and_the_oracle(s in scenario()) {
        let (_, engine) = assert_equivalent(PhysicalPlan::Nra, s)?;
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
                    lists: Lists::Uniform,
                    n: 256,
                    m,
                    k,
                    mean: false,
                    seed: 41 * m as u64 + k as u64,
                    batch_size,
                };
                let scalar = scalar_run(PhysicalPlan::Fa, s);
                let engine = engine_run(PhysicalPlan::Fa, s);
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

impl Subsystem for Recording {
    fn sorted_batch(&mut self, n: usize) -> Result<Vec<ScoredObject<Oid>>, SourceError> {
        Subsystem::sorted_batch(&mut self.inner, n)
    }
    fn random_access(&mut self, oid: Oid) -> Result<Score, SourceError> {
        self.probes.lock().expect("probe log").scalar += 1;
        Subsystem::random_access(&mut self.inner, oid)
    }
    fn random_batch(&mut self, oids: &[Oid]) -> Result<Vec<Score>, SourceError> {
        let mut probes = self.probes.lock().expect("probe log");
        probes.batch_lengths.push(oids.len());
        Subsystem::random_batch(&mut self.inner, oids)
    }
    fn rewind(&mut self) {
        Subsystem::rewind(&mut self.inner);
    }
    fn info(&self) -> SourceInfo {
        Subsystem::info(&self.inner)
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
    let request = query
        .scoring(Min)
        .k(5)
        .policy(ExecPolicy::new().plan(PhysicalPlan::Fa))
        .request()
        .expect("valid request");
    let result = Engine::default()
        .run(&request)
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

/// One request over shared handles: which handles, in what conjunct
/// order, under which algorithm, for how many answers — or a clone of
/// the request before it.
#[derive(Debug, Clone, Copy)]
struct SharedSpec {
    conjuncts: usize,
    algo: usize,
    k: usize,
    clone: bool,
}

/// A batch of requests over 2–3 source handles that they share.
#[derive(Debug, Clone)]
struct SharedBatch {
    seed: u64,
    handles: usize,
    specs: Vec<SharedSpec>,
}

/// Conjunct orders over two and over three handles. The first two
/// requests of a batch take the first two rows: both orders of one pair.
const OVER_TWO: [&[usize]; 2] = [&[0, 1], &[1, 0]];
const OVER_THREE: [&[usize]; 6] = [&[0, 1], &[1, 0], &[1, 2], &[2, 0], &[0, 1, 2], &[2, 1, 0]];

/// Lists long enough that a request streams many batches, so requests
/// sharing a cursor overlap whenever the engine lets them.
const SHARED_N: usize = 20_000;

fn shared_batch() -> impl Strategy<Value = SharedBatch> {
    let spec = (0usize..6, 0usize..3, 0usize..3, 0usize..4).prop_map(|(conjuncts, algo, k, c)| {
        SharedSpec {
            conjuncts,
            algo,
            k,
            clone: c == 0,
        }
    });
    (
        0u64..1_000_000,
        2usize..=3,
        proptest::collection::vec(spec, 4..=8),
    )
        .prop_map(|(seed, handles, specs)| SharedBatch {
            seed,
            handles,
            specs,
        })
}

/// The plan a forced policy names.
fn forced(algo: usize) -> PhysicalPlan {
    match algo {
        0 => PhysicalPlan::Ta,
        1 => PhysicalPlan::Fa,
        _ => PhysicalPlan::Nra,
    }
}

/// Every request of the batch, and the scalar run of each over fresh
/// copies of its lists in its conjunct order.
fn shared_requests(batch: &SharedBatch) -> Vec<(TopKRequest, TopKResult)> {
    let lists = independent_uniform(SHARED_N, batch.handles, batch.seed);
    let handles: Vec<SharedSource> = lists.iter().map(|l| shared_source(l.clone())).collect();
    let orders: &[&[usize]] = if batch.handles == 2 {
        &OVER_TWO
    } else {
        &OVER_THREE
    };
    let mut out: Vec<(TopKRequest, TopKResult)> = Vec::new();
    for (i, spec) in batch.specs.iter().enumerate() {
        if let (true, Some(last)) = (spec.clone && i >= 2, out.last()) {
            out.push(last.clone());
            continue;
        }
        let order = orders[if i < 2 {
            i
        } else {
            spec.conjuncts % orders.len()
        }];
        let algo = forced(spec.algo);
        let k = [1, 10, 50][spec.k];
        let mut query = TopKQuery::compose();
        for &h in order {
            query = query.shared_source(Arc::clone(&handles[h]));
        }
        let request = query
            .scoring(Min)
            .k(k)
            .policy(ExecPolicy::new().plan(algo))
            .request()
            .expect("request must validate");
        let mut copies: Vec<VecSource> = order.iter().map(|&h| lists[h].clone()).collect();
        let mut refs: Vec<&mut dyn Subsystem> = copies
            .iter_mut()
            .map(|src| src as &mut dyn Subsystem)
            .collect();
        let scalar =
            Cursor::once(algo, 0.0, &mut refs, &Min, k).expect("scalar reference run must succeed");
        out.push((request, scalar));
    }
    out
}

/// One engine answer against its request's scalar run: same answers,
/// same charged `sorted` and `random` counts.
fn assert_as_scalar(
    how: &str,
    i: usize,
    got: &Result<TopKResult, EngineError>,
    scalar: &TopKResult,
) -> Result<(), TestCaseError> {
    let Ok(got) = got else {
        return Err(TestCaseError::fail(format!(
            "{how}: request {i} failed: {got:?}"
        )));
    };
    prop_assert_eq!(
        &got.answers,
        &scalar.answers,
        "{}: request {} answers",
        how,
        i
    );
    prop_assert_eq!(
        got.stats.sorted,
        scalar.stats.sorted,
        "{}: request {}",
        how,
        i
    );
    prop_assert_eq!(
        got.stats.random,
        scalar.stats.random,
        "{}: request {}",
        how,
        i
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Requests sharing source handles — both conjunct orders, clones
    /// of one request — answer and charge exactly as each would alone,
    /// whether `run_many`'s pool or two client threads race them.
    #[test]
    fn requests_sharing_handles_answer_as_if_alone(batch in shared_batch()) {
        let runs = shared_requests(&batch);
        let requests: Vec<TopKRequest> = runs.iter().map(|(r, _)| r.clone()).collect();
        let engine = Engine::default();
        for (i, got) in engine.run_many(&requests).iter().enumerate() {
            assert_as_scalar("run_many", i, got, &runs[i].1)?;
        }
        // The clients start together, one from each end of the batch.
        let start = std::sync::Barrier::new(2);
        let client = |order: &mut dyn Iterator<Item = &TopKRequest>| {
            start.wait();
            order.map(|r| engine.run(r)).collect::<Vec<_>>()
        };
        #[expect(
            clippy::disallowed_methods,
            reason = "two client threads racing over shared handles are what this test is about"
        )]
        let (forward, backward) = std::thread::scope(|scope| {
            let forward = scope.spawn(|| client(&mut requests.iter()));
            let backward = scope.spawn(|| client(&mut requests.iter().rev()));
            (
                forward.join().expect("client thread"),
                backward.join().expect("client thread"),
            )
        });
        for (i, got) in forward.iter().enumerate() {
            assert_as_scalar("thread A", i, got, &runs[i].1)?;
        }
        for (i, got) in backward.iter().rev().enumerate() {
            assert_as_scalar("thread B", i, got, &runs[i].1)?;
        }
    }
}
