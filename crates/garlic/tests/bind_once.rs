//! One materialisation per atom, whatever the plan.
//!
//! Grading an atomic query is the subsystem's one-off job (§4); the
//! middleware then pays only sorted and random accesses. These tests
//! put a counting wrapper around both repositories and assert that
//! every entry point of [`Garlic`] asks a repository to grade each
//! *distinct* atom exactly once — statistics for the optimizer and the
//! lists the plan runs on come from the same call.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use fmdb_core::query::{AtomicQuery, Query, Target};
use fmdb_garlic::catalog::{Catalog, CatalogError};
use fmdb_garlic::demo::ARTISTS;
use fmdb_garlic::executor::{AlgoChoice, ExecError, Garlic, QueryResult};
use fmdb_garlic::object::{Oid, Value};
use fmdb_garlic::planner::PlanKind;
use fmdb_garlic::repository::{
    AttributeKind, QbicRepository, RepoError, Repository, TableRepository,
};
use fmdb_media::synth::{SynthConfig, SyntheticDb};
use fmdb_middleware::policy::ExecPolicy;
use fmdb_middleware::source::VecSource;
use fmdb_middleware::stats::CostModel;

/// Calls made to the wrapped repositories, all repositories together.
#[derive(Default)]
struct Calls {
    source_for: AtomicUsize,
    crisp_matches: AtomicUsize,
}

impl Calls {
    /// `(source_for, crisp_matches)` since the last take.
    fn take(&self) -> (usize, usize) {
        (
            self.source_for.swap(0, Ordering::Relaxed),
            self.crisp_matches.swap(0, Ordering::Relaxed),
        )
    }
}

struct Counting {
    inner: Box<dyn Repository>,
    calls: Arc<Calls>,
}

impl Repository for Counting {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn attributes(&self) -> Vec<(String, AttributeKind)> {
        self.inner.attributes()
    }
    fn universe_size(&self) -> usize {
        self.inner.universe_size()
    }
    fn source_for(&self, query: &AtomicQuery) -> Result<VecSource, RepoError> {
        self.calls.source_for.fetch_add(1, Ordering::Relaxed);
        self.inner.source_for(query)
    }
    fn crisp_matches(&self, query: &AtomicQuery) -> Result<Option<Vec<Oid>>, RepoError> {
        self.calls.crisp_matches.fetch_add(1, Ordering::Relaxed);
        self.inner.crisp_matches(query)
    }
}

const N: usize = 60;

/// The cd-store of `demo::cd_store`, both repositories counted.
fn counted_store() -> (Garlic, Arc<Calls>) {
    let calls = Arc::new(Calls::default());
    let mut table = TableRepository::new("store", N as u64);
    for i in 0..N {
        table.set(i as u64, "Artist", Value::text(ARTISTS[i % ARTISTS.len()]));
    }
    let db = SyntheticDb::generate(&SynthConfig {
        count: N,
        bins_per_channel: 3,
        seed: 11,
        ..SynthConfig::default()
    });
    let mut catalog = Catalog::new();
    for inner in [
        Box::new(table) as Box<dyn Repository>,
        Box::new(QbicRepository::new("qbic", db)),
    ] {
        let counted = Counting {
            inner,
            calls: Arc::clone(&calls),
        };
        catalog.register(Box::new(counted)).unwrap();
    }
    (Garlic::new(catalog), calls)
}

fn similar(attribute: &str, target: &str) -> Query {
    Query::atomic(attribute, Target::Similar(target.into()))
}

fn beatles() -> Query {
    Query::atomic("Artist", Target::Text("Beatles".into()))
}

/// Runs `run`, then checks the plan it reports and the calls it made:
/// `distinct` gradings, at most `crisp` match-set lookups.
fn check(
    what: &str,
    plan: PlanKind,
    distinct: usize,
    crisp: usize,
    run: impl FnOnce(&Garlic) -> Result<QueryResult, ExecError>,
) {
    let (garlic, calls) = counted_store();
    let result = run(&garlic).unwrap_or_else(|e| panic!("{what}: {e}"));
    assert_eq!(result.plan, plan, "{what}: {}", result.explanation);
    let (graded, matched) = calls.take();
    assert_eq!(graded, distinct, "{what}: source_for calls");
    assert!(matched <= crisp, "{what}: {matched} crisp_matches calls");
}

#[test]
fn every_plan_grades_each_distinct_atom_once() {
    let fuzzy = || Query::and(vec![similar("Color", "red"), similar("Texture", "coarse")]);
    check("ta", PlanKind::Ta, 2, 0, |g| g.top_k(&fuzzy(), 5));

    let pricey = ExecPolicy::new().cost_model(CostModel::random_to_sorted_ratio(10.0).unwrap());
    let (garlic, calls) = counted_store();
    let ca = garlic.top_k_policy(&fuzzy(), 5, pricey).unwrap();
    assert!(
        matches!(ca.plan, PlanKind::Ca { .. }),
        "c_R/c_S = 10 should interleave: {}",
        ca.explanation
    );
    assert_eq!(calls.take(), (2, 0), "ca");

    check("forced a0", PlanKind::Fa, 2, 0, |g| {
        g.top_k_with(&fuzzy(), 5, AlgoChoice::Fa)
    });

    let either = Query::or(vec![similar("Color", "blue"), similar("Texture", "fine")]);
    check("max-merge", PlanKind::MaxMerge, 2, 0, |g| {
        g.top_k(&either, 5)
    });

    // 12 of the 60 albums are Beatles records: k = 5 is answered from
    // the survivors, k = 20 drains the crisp list for grade-0 padding.
    let filtered = || Query::and(vec![beatles(), similar("Color", "red")]);
    check("crisp-filter", PlanKind::CrispFilter, 2, 1, |g| {
        g.top_k(&filtered(), 5)
    });
    check("crisp-filter, padded", PlanKind::CrispFilter, 2, 1, |g| {
        let padded = g.top_k(&filtered(), 20)?;
        assert_eq!(padded.answers.len(), 20);
        assert!(padded.answers[12..].iter().all(|a| a.grade.value() == 0.0));
        Ok(padded)
    });

    let negated = Query::and(vec![
        similar("Color", "pink"),
        Query::not(similar("Texture", "rough")),
    ]);
    check("negated leaf", PlanKind::Ta, 2, 0, |g| g.top_k(&negated, 5));
    let compound = Query::not(Query::and(vec![
        similar("Color", "pink"),
        similar("Texture", "rough"),
    ]));
    check("full-scan", PlanKind::FullScan, 2, 0, |g| {
        g.top_k(&compound, 5)
    });

    check("policy", PlanKind::Ca { h: 10 }, 2, 0, |g| {
        let policy = ExecPolicy::new()
            .plan(PlanKind::Ca { h: 1 })
            .cost_model(CostModel::random_to_sorted_ratio(10.0).unwrap());
        g.top_k_policy(&fuzzy(), 5, policy)
    });
}

#[test]
fn a_cursor_grades_once_for_all_its_batches() {
    let (garlic, calls) = counted_store();
    let q = Query::and(vec![similar("Color", "red"), similar("Shape", "round")]);
    let mut cursor = garlic.cursor(&q).unwrap();
    assert_eq!(cursor.next_batch(4).unwrap().answers.len(), 4);
    assert_eq!(cursor.next_batch(4).unwrap().answers.len(), 4);
    assert_eq!(calls.take(), (2, 0));
}

#[test]
fn a_repeated_atom_is_graded_once() {
    let twice = || Query::and(vec![similar("Color", "red"), similar("Color", "red")]);
    let (garlic, calls) = counted_store();
    let both = garlic.top_k(&twice(), 5).unwrap();
    assert_eq!(calls.take(), (1, 0));
    // min(g, g) = g: the answer is the single list's top 5.
    let single = garlic.top_k(&similar("Color", "red"), 5).unwrap();
    assert_eq!(both.answers, single.answers);

    let negated = Query::and(vec![twice(), Query::not(similar("Color", "red"))]);
    calls.take();
    assert_eq!(garlic.top_k(&negated, 5).unwrap().plan, PlanKind::Ta);
    assert_eq!(calls.take(), (1, 0));
}

/// The planner used to swallow a repository's refusal, price a
/// statistics-free plan, and leave the error to the executor's second
/// grading of the same atom.
#[test]
fn a_refused_atom_fails_the_query_at_its_first_grading() {
    let (garlic, calls) = counted_store();
    let unknown = similar("Color", "chartreuse-ish");
    assert!(matches!(
        garlic.top_k(&unknown, 5),
        Err(ExecError::Catalog(CatalogError::Repo(
            RepoError::UnknownTarget(_)
        )))
    ));
    assert_eq!(calls.take(), (1, 0));

    let mismatch = Query::and(vec![
        Query::atomic("Artist", Target::Similar("red".into())),
        similar("Color", "red"),
    ]);
    assert!(matches!(
        garlic.top_k(&mismatch, 5),
        Err(ExecError::Catalog(CatalogError::Repo(
            RepoError::TargetMismatch { .. }
        )))
    ));
    assert_eq!(calls.take(), (1, 0));

    assert!(matches!(
        garlic.top_k(&similar("Luminance", "bright"), 5),
        Err(ExecError::Catalog(CatalogError::UnknownAttribute(_)))
    ));
    assert_eq!(calls.take(), (0, 0));
}
