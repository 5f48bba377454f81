//! A source that fails an access fails the query with a typed error.
//!
//! Two dense lists are persisted to paged stores with small pages and a
//! small pool, and one of them is damaged: its first sorted-run page,
//! which every strategy reads, gets a flipped bit, or every page of its
//! random table (grades alone) gets a flipped bit or, under a valid
//! checksum, a NaN in every slot; every strategy that probes reads
//! those. Each plan then runs through the engine ([`Engine::run`]) and
//! through its scalar [`Cursor::once`], and the CG filter, which no
//! plan names, through [`CgFilter::run`]. A run that meets the damage
//! returns [`EngineError::Source`] / [`AlgoError::Source`], naming the
//! damaged list, with the store's typed error as the cause
//! ([`StoreError::ChecksumMismatch`], [`StoreError::InvalidGrade`] for
//! the NaN); a run that never touches it answers exactly what the
//! in-memory lists answer. No run may answer short or mis-ranked.

use fmdb_middleware::planner::PhysicalPlan;
use std::path::PathBuf;
use std::sync::Arc;

use fmdb_core::scoring::conorms::Max;
use fmdb_core::scoring::tnorms::Min;
use fmdb_core::scoring::{ConormScoring, ScoringFunction};
use fmdb_middleware::algorithms::cg_filter::CgFilter;
use fmdb_middleware::algorithms::{AlgoError, Cursor, TopKResult};
use fmdb_middleware::engine::{Engine, EngineError};
use fmdb_middleware::policy::ExecPolicy;
use fmdb_middleware::request::{SharedScoring, TopKQuery, TopKRequest};
use fmdb_middleware::source::{SourceError, Subsystem, VecSource};
use fmdb_middleware::store::format::{crc32, GRADE_BYTES, PAGE_HEADER_BYTES};
use fmdb_middleware::store::{
    build_store_from_source, BuildConfig, PagedSource, PagedStore, RandomTable, StoreError,
    StoreOptions,
};
use fmdb_middleware::workload::independent_uniform;

const N: usize = 600;
const K: usize = 10;
const PAGE_SIZE: usize = 256;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Damage {
    /// The first page of list 0's sorted run.
    SortedHead,
    /// A flipped bit in every page of list 0's random table.
    RandomTable,
    /// A NaN in every slot of every page of list 0's random table,
    /// each page re-sealed so that its checksum holds.
    RandomNan,
}

impl Damage {
    const ALL: [Damage; 3] = [Damage::SortedHead, Damage::RandomTable, Damage::RandomNan];
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
                assert!(matches!(
                    header.random_table,
                    RandomTable::Grades { first: 0 }
                ));
                let pages = match damage {
                    Damage::SortedHead => header.sorted_start()..header.sorted_start() + 1,
                    _ => header.random_start()..header.random_start() + header.random_pages,
                };
                let mut bytes = std::fs::read(&path).expect("read store");
                for page in pages {
                    let frame = &mut bytes[page as usize * PAGE_SIZE..][..PAGE_SIZE];
                    if damage == Damage::RandomNan {
                        let count = u32::from_le_bytes([frame[4], frame[5], frame[6], frame[7]]);
                        for slot in 0..count as usize {
                            let at = PAGE_HEADER_BYTES + slot * GRADE_BYTES;
                            frame[at..at + 8].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
                        }
                        let crc = crc32(&frame[4..]);
                        frame[..4].copy_from_slice(&crc.to_le_bytes());
                    } else {
                        frame[100] ^= 0x20;
                    }
                }
                std::fs::write(&path, bytes).expect("damage store");
            }
            PagedStore::open(&path, StoreOptions::with_pool_pages(4)).expect("open is page-local")
        })
        .collect()
}

/// A plan (`None` for the CG filter, which no plan names), its
/// scoring and whether it makes random accesses.
type Strategy = (Option<PhysicalPlan>, SharedScoring, bool);

fn strategies() -> Vec<Strategy> {
    vec![
        (Some(PhysicalPlan::FullScan), Arc::new(Min), false),
        (Some(PhysicalPlan::Fa), Arc::new(Min), true),
        (
            Some(PhysicalPlan::PrunedFa {
                short_circuit: true,
            }),
            Arc::new(Min),
            true,
        ),
        (Some(PhysicalPlan::Ta), Arc::new(Min), true),
        (Some(PhysicalPlan::Nra), Arc::new(Min), false),
        (Some(PhysicalPlan::Ca { h: 1 }), Arc::new(Min), true),
        (
            Some(PhysicalPlan::MaxMerge),
            Arc::new(ConormScoring(Max)),
            false,
        ),
        (None, Arc::new(Min), false),
    ]
}

/// The strategy's scalar run over `sources`.
fn scalar(
    plan: Option<PhysicalPlan>,
    sources: &mut [&mut dyn Subsystem],
    scoring: &dyn ScoringFunction,
) -> Result<TopKResult, AlgoError> {
    match plan {
        Some(plan) => Cursor::once(plan, 0.0, sources, scoring, K),
        None => CgFilter::default()
            .run(sources, scoring, K)
            .map(|run| run.result),
    }
}

/// The answer over the undamaged in-memory lists.
fn in_memory(plan: Option<PhysicalPlan>, scoring: &dyn ScoringFunction) -> TopKResult {
    let mut lists = lists();
    let mut refs: Vec<&mut dyn Subsystem> = lists.iter_mut().map(|l| l as _).collect();
    scalar(plan, &mut refs, scoring).expect("in-memory lists never fail")
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

/// Whether `cause` is the typed error `damage` is read as: a failed
/// checksum, or an invalid grade for the NaN.
fn is_cause(damage: Damage, cause: &SourceError) -> bool {
    match cause.cause().downcast_ref() {
        Some(StoreError::InvalidGrade { .. }) => damage == Damage::RandomNan,
        Some(StoreError::ChecksumMismatch { .. }) => damage != Damage::RandomNan,
        _ => false,
    }
}

/// Whether `stream` is list 0 and `cause` the typed error of `damage`.
fn is_damage(damage: Damage, stream: &str, cause: &SourceError) -> bool {
    stream == Subsystem::info(&lists()[0]).label && is_cause(damage, cause)
}

#[test]
fn a_damaged_page_fails_every_strategy_that_reads_it() {
    let engine = Engine::default();
    for damage in Damage::ALL {
        let stores = stores(damage, "each");
        for (plan, scoring, probes) in strategies() {
            let name = plan.map_or("cg-filter", |plan| plan.name());
            let at = format!("{name} over {damage:?}");
            let reads_damage = damage == Damage::SortedHead || probes;
            let want = in_memory(plan, scoring.as_ref());

            let mut cursors: Vec<PagedSource> = stores.iter().map(PagedStore::source).collect();
            let mut refs: Vec<&mut dyn Subsystem> = cursors.iter_mut().map(|c| c as _).collect();
            match scalar(plan, &mut refs, scoring.as_ref()) {
                Err(AlgoError::Source { stream, cause }) if reads_damage => {
                    assert!(
                        is_damage(damage, &stream, &cause),
                        "{at}: {stream}: {cause}"
                    );
                }
                Ok(got) if !reads_damage => assert_eq!(got, want, "{at}"),
                other => panic!("{at}: the scalar run returned {other:?}"),
            }

            if plan.is_some() {
                match engine.run(&request(&stores, &scoring, plan)) {
                    Err(EngineError::Source { stream, cause }) if reads_damage => {
                        assert!(
                            is_damage(damage, &stream, &cause),
                            "{at}: {stream}: {cause}"
                        );
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

/// Every probe form of the damaged list — scalar, batch and bounded —
/// fails with the typed error of a damaged random page, on every oid.
#[test]
fn every_probe_of_a_damaged_random_page_fails_typed() {
    for damage in [Damage::RandomTable, Damage::RandomNan] {
        let stores = stores(damage, "probes");
        let oids: Vec<u64> = (0..N as u64).step_by(37).collect();
        let mut src = stores[0].source();
        for &oid in &oids {
            let scalar = Subsystem::random_access(&mut src, oid);
            let bounded = src.random_access_bounded(oid, fmdb_core::score::Score::ZERO);
            for (form, probe) in [("scalar", scalar), ("bounded", bounded)] {
                assert!(
                    probe.as_ref().is_err_and(|e| is_cause(damage, e)),
                    "{damage:?}: {form} probe of {oid} returned {probe:?}"
                );
            }
        }
        let batch = Subsystem::random_batch(&mut src, &oids);
        assert!(
            batch.as_ref().is_err_and(|e| is_cause(damage, e)),
            "{damage:?}: {batch:?}"
        );
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
                matches!(&result, Err(EngineError::Source { stream, cause }) if is_damage(Damage::SortedHead, stream, cause)),
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
