//! A source that fails an access fails the query with a typed error.
//!
//! Two lists are persisted to paged stores with small pages and a small
//! pool, and one of them is damaged: either its first sorted-run page,
//! which every strategy reads, or every page of its random table, which
//! every strategy that probes reads. Each strategy then runs through
//! the engine ([`Engine::run`] where a policy names it,
//! [`Engine::run_algorithm`] otherwise) and through scalar
//! [`TopKAlgorithm::top_k`]. A run that meets the damage returns
//! [`EngineError::Source`] / [`AlgoError::Source`], naming the damaged
//! list, with the store's checksum error as the cause; a run that never
//! touches it answers exactly what the in-memory lists answer. No run
//! may answer short or mis-ranked.

use fmdb_middleware::planner::PhysicalPlan;
use std::path::PathBuf;
use std::sync::Arc;

use fmdb_core::scoring::conorms::Max;
use fmdb_core::scoring::tnorms::Min;
use fmdb_core::scoring::{ConormScoring, ScoringFunction};
use fmdb_middleware::algorithms::cg_filter::CgFilter;
use fmdb_middleware::algorithms::pruned_fa::PrunedFa;
use fmdb_middleware::algorithms::{AlgoError, TopKAlgorithm, TopKResult};
use fmdb_middleware::engine::{Engine, EngineError};
use fmdb_middleware::policy::ExecPolicy;
use fmdb_middleware::request::{SharedScoring, TopKQuery, TopKRequest};
use fmdb_middleware::source::{GradedSource, SourceError, Subsystem, VecSource};
use fmdb_middleware::store::{
    build_store_from_source, BuildConfig, PagedSource, PagedStore, StoreError, StoreOptions,
};
use fmdb_middleware::workload::independent_uniform;

mod support;
use support::Planned;

const N: usize = 600;
const K: usize = 10;
const PAGE_SIZE: usize = 256;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Damage {
    /// The first page of list 0's sorted run.
    SortedHead,
    /// Every page of list 0's random table.
    RandomTable,
}

fn lists() -> Vec<VecSource> {
    independent_uniform(N, 2, 11)
}

/// The two lists as stores over a pool of four frames, list 0 damaged;
/// `tag` keeps the files of concurrent tests apart.
fn stores(damage: Damage, tag: &str) -> Vec<PagedStore> {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    lists()
        .iter_mut()
        .enumerate()
        .map(|(i, list)| {
            let path = dir.join(format!("source-failures-{tag}-{damage:?}-{i}.fmdb"));
            let config = BuildConfig::with_page_size(PAGE_SIZE);
            build_store_from_source(&path, list, &config).expect("build store");
            if i == 0 {
                let header = PagedStore::open(&path, StoreOptions::DEFAULT)
                    .expect("open store")
                    .header()
                    .clone();
                let pages = match damage {
                    Damage::SortedHead => header.sorted_start()..header.sorted_start() + 1,
                    Damage::RandomTable => {
                        header.random_start()..header.random_start() + header.random_pages
                    }
                };
                let mut bytes = std::fs::read(&path).expect("read store");
                for page in pages {
                    bytes[page as usize * PAGE_SIZE + 100] ^= 0x20;
                }
                std::fs::write(&path, bytes).expect("damage store");
            }
            PagedStore::open(&path, StoreOptions::with_pool_pages(4)).expect("open is page-local")
        })
        .collect()
}

/// A strategy, its scoring, the plan that names it (if one does) and
/// whether it makes random accesses.
type Strategy = (
    Box<dyn TopKAlgorithm>,
    SharedScoring,
    Option<PhysicalPlan>,
    bool,
);

fn strategies() -> Vec<Strategy> {
    vec![
        (
            Box::new(Planned(PhysicalPlan::FullScan, 0.0)),
            Arc::new(Min),
            Some(PhysicalPlan::FullScan),
            false,
        ),
        (
            Box::new(Planned(PhysicalPlan::Fa, 0.0)),
            Arc::new(Min),
            Some(PhysicalPlan::Fa),
            true,
        ),
        (Box::new(PrunedFa::default()), Arc::new(Min), None, true),
        (
            Box::new(Planned(PhysicalPlan::Ta, 0.0)),
            Arc::new(Min),
            Some(PhysicalPlan::Ta),
            true,
        ),
        (
            Box::new(Planned(PhysicalPlan::Nra, 0.0)),
            Arc::new(Min),
            Some(PhysicalPlan::Nra),
            false,
        ),
        (
            Box::new(Planned(PhysicalPlan::Ca { h: 1 }, 0.0)),
            Arc::new(Min),
            Some(PhysicalPlan::Ca { h: 1 }),
            true,
        ),
        (
            Box::new(Planned(PhysicalPlan::MaxMerge, 0.0)),
            Arc::new(ConormScoring(Max)),
            Some(PhysicalPlan::MaxMerge),
            false,
        ),
        (Box::new(CgFilter::default()), Arc::new(Min), None, false),
    ]
}

/// The answer over the undamaged in-memory lists.
fn in_memory(algorithm: &dyn TopKAlgorithm, scoring: &dyn ScoringFunction) -> TopKResult {
    let mut lists = lists();
    let mut refs: Vec<&mut dyn Subsystem> = lists.iter_mut().map(|l| l as _).collect();
    algorithm
        .evaluate(&mut refs, scoring, K)
        .expect("in-memory lists never fail")
}

/// The request over fresh cursors of `stores`.
fn request(
    stores: &[PagedStore],
    scoring: &SharedScoring,
    plan: Option<PhysicalPlan>,
) -> TopKRequest {
    let mut query = TopKQuery::compose();
    for store in stores {
        query = query.source(store.source());
    }
    query
        .shared_scoring(Arc::clone(scoring))
        .k(K)
        .policy(ExecPolicy {
            plan,
            ..ExecPolicy::new()
        })
        .request()
        .expect("valid request")
}

/// The label of list 0 and whether `cause` is its checksum failure.
fn is_damage(stream: &str, cause: &SourceError) -> bool {
    stream == Subsystem::info(&lists()[0]).label
        && matches!(
            cause.cause().downcast_ref(),
            Some(StoreError::ChecksumMismatch { .. })
        )
}

#[test]
fn a_damaged_page_fails_every_strategy_that_reads_it() {
    let engine = Engine::default();
    for damage in [Damage::SortedHead, Damage::RandomTable] {
        let stores = stores(damage, "each");
        for (algorithm, scoring, plan, probes) in strategies() {
            let name = algorithm.name();
            let at = format!("{name} over {damage:?}");
            let reads_damage = damage == Damage::SortedHead || probes;
            let want = in_memory(algorithm.as_ref(), scoring.as_ref());

            let mut cursors: Vec<PagedSource> = stores.iter().map(PagedStore::source).collect();
            let mut refs: Vec<&mut dyn GradedSource> = cursors.iter_mut().map(|c| c as _).collect();
            match algorithm.top_k(&mut refs, scoring.as_ref(), K) {
                Err(AlgoError::Source { stream, cause }) if reads_damage => {
                    assert!(is_damage(&stream, &cause), "{at}: {stream}: {cause}");
                }
                Ok(got) if !reads_damage => assert_eq!(got, want, "{at}"),
                other => panic!("{at}: scalar top_k returned {other:?}"),
            }

            let mut runs =
                vec![engine.run_algorithm(algorithm.as_ref(), &request(&stores, &scoring, None))];
            if plan.is_some() {
                runs.push(engine.run(&request(&stores, &scoring, plan)));
            }
            for run in runs {
                match run {
                    Err(EngineError::Source { stream, cause }) if reads_damage => {
                        assert!(is_damage(&stream, &cause), "{at}: {stream}: {cause}");
                    }
                    Ok(got) if !reads_damage => {
                        assert_eq!(
                            (got.answers, got.stats.sorted),
                            (want.answers.clone(), want.stats.sorted),
                            "{at}"
                        );
                    }
                    other => panic!("{at}: the engine returned {other:?}"),
                }
            }
        }
    }
}

/// Under `run_many` the failing request fails alone: its neighbours,
/// sharing the pool, answer as they would alone.
#[test]
fn a_failing_request_fails_alone_under_run_many() {
    let damaged = stores(Damage::SortedHead, "many");
    let healthy: Vec<TopKRequest> = (0..4)
        .map(|seed| {
            TopKQuery::compose()
                .sources(independent_uniform(N, 2, seed))
                .scoring(Min)
                .k(K)
                .policy(ExecPolicy::new().plan(PhysicalPlan::Ta))
                .request()
                .expect("valid request")
        })
        .collect();
    let mut requests = healthy.clone();
    requests.insert(
        2,
        request(
            &damaged,
            &(Arc::new(Min) as SharedScoring),
            Some(PhysicalPlan::Ta),
        ),
    );
    let engine = Engine::default();
    let results = engine.run_many(&requests);
    assert_eq!(results.len(), 5);
    for (i, result) in results.into_iter().enumerate() {
        if i == 2 {
            assert!(
                matches!(&result, Err(EngineError::Source { stream, cause }) if is_damage(stream, cause)),
                "{result:?}"
            );
            continue;
        }
        let alone = engine
            .run(&healthy[if i < 2 { i } else { i - 1 }])
            .expect("healthy request");
        let got = result.expect("a neighbour of the failing request");
        assert_eq!(
            (got.answers, got.stats.sorted, got.stats.random),
            (alone.answers, alone.stats.sorted, alone.stats.random)
        );
    }
}
