//! Wrapper conformance: a wrapper around a [`Subsystem`] must pass
//! every trait method through to the source it wraps, or say why not.
//!
//! `Subsystem` has provided methods, so a wrapper that forgets one
//! still compiles — and silently drops, say, a paged source's page
//! counters and histogram (`caps`) on the floor. This suite calls every
//! method on each wrapper over a [`RecordingSource`] and checks that the
//! call reached the inner source — a scalar access as itself or as the
//! batch of one its default makes — or that the pair sits in
//! [`ALLOWED`] with its reason. An allow-listed method that *does*
//! reach the inner source fails too, so the list cannot go stale.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use fmdb_core::score::{Score, ScoredObject};
use fmdb_core::scoring::tnorms::Min;
use fmdb_core::scoring::ScoringFunction;
use fmdb_core::stats::DEFAULT_HISTOGRAM_BINS;
use fmdb_middleware::algorithms::{AlgoError, TopKAlgorithm, TopKResult};
use fmdb_middleware::engine::Engine;
use fmdb_middleware::request::TopKQuery;
use fmdb_middleware::source::{
    Caps, CountingSource, Oid, SourceError, SourceInfo, Subsystem, ValidatingSource, VecSource,
};
use fmdb_middleware::stats::AccessStats;
use fmdb_middleware::store::{build_store_from_source, BuildConfig, PagedStore, StoreOptions};
use fmdb_middleware::workload::independent_uniform;

/// One call of a trait method; only the inner calls it causes matter.
type Call = fn(&mut dyn Subsystem);

fn ignore<T>(_: T) {}

/// Every method of the trait with a call of it and the inner calls
/// that count as reaching the source, in the order [`exercise`] makes
/// them: the batch before the scalar pull (a buffering wrapper refills
/// on the first), the rewind last (only a used stream has to be
/// rewound).
const METHODS: [(&str, &[&str], Call); 7] = [
    ("info", &["info"], |s| ignore(s.info())),
    ("caps", &["caps"], |s| ignore(s.caps())),
    ("sorted_batch", &["sorted_batch"], |s| {
        ignore(s.sorted_batch(3))
    }),
    ("sorted_next", &["sorted_next", "sorted_batch"], |s| {
        ignore(s.sorted_next())
    }),
    ("random_access", &["random_access", "random_batch"], |s| {
        ignore(s.random_access(1))
    }),
    ("random_batch", &["random_batch"], |s| {
        ignore(s.random_batch(&[2, 3]))
    }),
    ("rewind", &["rewind"], |s| s.rewind()),
];

/// `(wrapper, method, why the inner source is not reached)`.
const ALLOWED: [(&str, &str, &str); 1] = [(
    "engine",
    "sorted_next",
    "served from batch refills: the inner source sees one `sorted_batch` per batch",
)];

type Log = Arc<Mutex<Vec<&'static str>>>;

/// A `VecSource` that logs the name of every trait method called on it.
struct RecordingSource {
    inner: VecSource,
    log: Log,
}

impl RecordingSource {
    fn new(log: &Log) -> RecordingSource {
        RecordingSource {
            inner: independent_uniform(64, 1, 5).remove(0),
            log: Arc::clone(log),
        }
    }

    fn note(&self, method: &'static str) {
        self.log.lock().expect("log lock").push(method);
    }
}

impl Subsystem for RecordingSource {
    fn sorted_batch(&mut self, n: usize) -> Result<Vec<ScoredObject<Oid>>, SourceError> {
        self.note("sorted_batch");
        self.inner.sorted_batch(n)
    }
    fn random_batch(&mut self, oids: &[Oid]) -> Result<Vec<Score>, SourceError> {
        self.note("random_batch");
        self.inner.random_batch(oids)
    }
    fn rewind(&mut self) {
        self.note("rewind");
        self.inner.rewind();
    }
    fn info(&self) -> SourceInfo {
        self.note("info");
        self.inner.info()
    }
    fn caps(&self) -> Caps<'_> {
        self.note("caps");
        self.inner.caps()
    }
    fn sorted_next(&mut self) -> Result<Option<ScoredObject<Oid>>, SourceError> {
        self.note("sorted_next");
        self.inner.sorted_next()
    }
    fn random_access(&mut self, oid: Oid) -> Result<Score, SourceError> {
        self.note("random_access");
        self.inner.random_access(oid)
    }
}

/// What the inner source saw during each method called on the wrapper.
type Reached = BTreeMap<&'static str, Vec<&'static str>>;

/// Calls every trait method on `wrapper`, in [`METHODS`] order, and
/// returns the inner calls each one caused.
fn exercise(wrapper: &mut dyn Subsystem, log: &Log) -> Reached {
    log.lock().expect("log lock").clear();
    METHODS
        .into_iter()
        .map(|(method, _, call)| {
            call(wrapper);
            (method, std::mem::take(&mut *log.lock().expect("log lock")))
        })
        .collect()
}

/// A "kernel" that exercises its first source and keeps what it saw —
/// the only way to reach the engine's private proxy.
struct Probe {
    log: Log,
    reached: Mutex<Option<Reached>>,
}

impl TopKAlgorithm for Probe {
    fn name(&self) -> &'static str {
        "conformance-probe"
    }
    fn evaluate(
        &self,
        sources: &mut [&mut dyn Subsystem],
        _: &dyn ScoringFunction,
        _: usize,
    ) -> Result<TopKResult, AlgoError> {
        let reached = exercise(&mut *sources[0], &self.log);
        *self.reached.lock().expect("probe lock") = Some(reached);
        Ok(TopKResult {
            answers: Vec::new(),
            stats: AccessStats::ZERO,
        })
    }
}

fn through_engine(log: &Log) -> Reached {
    let probe = Probe {
        log: Arc::clone(log),
        reached: Mutex::new(None),
    };
    let request = TopKQuery::compose()
        .source(RecordingSource::new(log))
        .scoring(Min)
        .k(1)
        .request()
        .expect("request must validate");
    Engine::default()
        .run_algorithm(&probe, &request)
        .expect("probe run must succeed");
    let reached = probe.reached.lock().expect("probe lock").take();
    reached.expect("the engine ran the probe")
}

#[test]
fn every_wrapper_forwards_every_method_or_says_why_not() {
    let log: Log = Arc::default();
    let wrappers: [(&str, Reached); 3] = [
        (
            "counting",
            exercise(&mut CountingSource::new(RecordingSource::new(&log)), &log),
        ),
        (
            "validating",
            exercise(&mut ValidatingSource::new(RecordingSource::new(&log)), &log),
        ),
        ("engine", through_engine(&log)),
    ];
    let mut failures = Vec::new();
    for (wrapper, reached) in &wrappers {
        for (method, reaching, _) in METHODS {
            let inner = &reached[method];
            let forwarded = reaching.iter().any(|name| inner.contains(name));
            let allowed = ALLOWED
                .iter()
                .find(|(w, m, _)| w == wrapper && *m == method);
            match (forwarded, allowed) {
                (true, None) | (false, Some(_)) => {}
                (false, None) => failures.push(format!(
                    "{wrapper}: `{method}` never reached the inner source (it saw {inner:?})"
                )),
                (true, Some((_, _, why))) => failures.push(format!(
                    "{wrapper}: `{method}` is allow-listed ({why}) but is forwarded"
                )),
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// A paged source's histogram and page counters survive wrapping:
/// both wrappers report the `caps()` of the bare source, before and
/// after the counters move.
#[test]
fn wrappers_report_the_caps_of_a_paged_source() {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("wrapper-caps.fmdb");
    let mut list = independent_uniform(2_000, 1, 9).remove(0);
    build_store_from_source(&path, &mut list, &BuildConfig::DEFAULT).expect("build store");
    let store = PagedStore::open(&path, StoreOptions::with_pool_pages(4)).expect("open store");
    let seen = |caps: Caps<'_>| (caps.histogram(DEFAULT_HISTOGRAM_BINS), caps.page_io);
    let mut counting = CountingSource::new(store.source());
    let validating = ValidatingSource::new(store.source());
    for _ in 0..2 {
        let bare = store.source();
        let want = seen(bare.caps());
        assert!(want.0.is_some() && want.1.is_some(), "{want:?}");
        assert_eq!(seen(counting.caps()), want);
        assert_eq!(seen(validating.caps()), want);
        // Move the pool's counters for the second round.
        counting.sorted_batch(600).expect("no page fails");
        counting
            .random_batch(&[1, 900, 1_999])
            .expect("no page fails");
    }
    std::fs::remove_file(&path).expect("remove store");
}
