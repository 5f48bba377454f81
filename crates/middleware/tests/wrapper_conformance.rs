//! Wrapper conformance: a wrapper around a [`GradedSource`] must pass
//! every trait method through to the source it wraps, or say why not.
//!
//! `GradedSource` has default methods, so a wrapper that forgets one
//! still compiles — and silently drops, say, the kernel's threshold
//! feed or a paged source's page counters on the floor. This suite
//! calls every method on each wrapper over a [`RecordingSource`] and
//! checks that the call of the same name reached the inner source, or
//! that the pair sits in [`ALLOWED`] with its reason. An allow-listed
//! method that *does* reach the inner source fails too, so the list
//! cannot go stale.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use fmdb_core::score::{Score, ScoredObject};
use fmdb_core::scoring::tnorms::Min;
use fmdb_core::scoring::ScoringFunction;
use fmdb_core::stats::GradeHistogram;
use fmdb_middleware::algorithms::{AlgoError, TopKAlgorithm, TopKResult};
use fmdb_middleware::engine::Engine;
use fmdb_middleware::request::TopKQuery;
use fmdb_middleware::source::{
    CountingSource, GradedSource, Oid, SourceInfo, ValidatingSource, VecSource,
};
use fmdb_middleware::stats::{AccessStats, PageIoStats};
use fmdb_middleware::workload::independent_uniform;

/// One call of a trait method; only the inner calls it causes matter.
type Call = fn(&mut dyn GradedSource);

fn ignore<T>(_: T) {}

fn bound() -> Score {
    Score::clamped(0.5)
}

/// Every method of the trait with a call of it, in the order
/// [`exercise`] makes them: the batch before the scalar pull (a
/// buffering wrapper refills on the first), the rewind last (only a
/// used stream has to be rewound). The hidden `partition` shim is not
/// here: its argument type has no values, so nothing can call it.
const METHODS: [(&str, Call); 11] = [
    ("info", |s| ignore(s.info())),
    ("grade_histogram", |s| ignore(s.grade_histogram(4))),
    ("page_io", |s| ignore(s.page_io())),
    ("sorted_batch", |s| ignore(s.sorted_batch(3))),
    ("sorted_next", |s| ignore(s.sorted_next())),
    ("note_threshold", |s| s.note_threshold(bound())),
    ("sorted_drain_bounded", |s| {
        ignore(s.sorted_drain_bounded(bound()))
    }),
    ("random_access", |s| ignore(s.random_access(1))),
    ("random_batch", |s| ignore(s.random_batch(&[2, 3]))),
    ("random_access_bounded", |s| {
        ignore(s.random_access_bounded(4, bound()))
    }),
    ("rewind", |s| s.rewind()),
];

/// `(wrapper, method, why the inner method of that name is not
/// reached)`.
const ALLOWED: [(&str, &str, &str); 9] = [
    (
        "validating",
        "sorted_batch",
        "batches validate item by item through `sorted_next`",
    ),
    (
        "validating",
        "random_batch",
        "batches validate item by item through `random_access`",
    ),
    (
        "validating",
        "sorted_drain_bounded",
        "declines (`None`), so the caller's scalar loop validates item by item",
    ),
    (
        "validating",
        "random_access_bounded",
        "validates the exact grade through `random_access`, then clamps",
    ),
    (
        "engine",
        "info",
        "snapshotted once when the proxy is built: the kernel reads the copy, a panic report its label",
    ),
    (
        "engine",
        "grade_histogram",
        "planner-time metadata: `Engine::explain` reads it from the source, no kernel asks a proxy",
    ),
    (
        "engine",
        "page_io",
        "the engine diffs the source's counters around the run itself; no kernel asks a proxy",
    ),
    (
        "engine",
        "sorted_next",
        "served from batch refills: the inner source sees `sorted_batch`",
    ),
    (
        "engine",
        "sorted_drain_bounded",
        "declines (`None`): the read-ahead buffer has moved the inner cursor past the proxy's",
    ),
];

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

impl GradedSource for RecordingSource {
    fn sorted_next(&mut self) -> Option<ScoredObject<Oid>> {
        self.note("sorted_next");
        self.inner.sorted_next()
    }
    fn random_access(&mut self, oid: Oid) -> Score {
        self.note("random_access");
        self.inner.random_access(oid)
    }
    fn rewind(&mut self) {
        self.note("rewind");
        self.inner.rewind();
    }
    fn info(&self) -> SourceInfo {
        self.note("info");
        self.inner.info()
    }
    fn sorted_batch(&mut self, n: usize) -> Vec<ScoredObject<Oid>> {
        self.note("sorted_batch");
        self.inner.sorted_batch(n)
    }
    fn random_batch(&mut self, oids: &[Oid]) -> Vec<Score> {
        self.note("random_batch");
        self.inner.random_batch(oids)
    }
    fn grade_histogram(&self, bins: usize) -> Option<GradeHistogram> {
        self.note("grade_histogram");
        self.inner.grade_histogram(bins)
    }
    fn page_io(&self) -> Option<PageIoStats> {
        self.note("page_io");
        self.inner.page_io()
    }
    fn note_threshold(&mut self, bound: Score) {
        self.note("note_threshold");
        self.inner.note_threshold(bound);
    }
    fn sorted_drain_bounded(&mut self, bound: Score) -> Option<Vec<ScoredObject<Oid>>> {
        self.note("sorted_drain_bounded");
        self.inner.sorted_drain_bounded(bound)
    }
    fn random_access_bounded(&mut self, oid: Oid, bound: Score) -> Score {
        self.note("random_access_bounded");
        self.inner.random_access_bounded(oid, bound)
    }
}

/// What the inner source saw during each method called on the wrapper.
type Reached = BTreeMap<&'static str, Vec<&'static str>>;

/// Calls every trait method on `wrapper`, in [`METHODS`] order, and
/// returns the inner calls each one caused.
fn exercise(wrapper: &mut dyn GradedSource, log: &Log) -> Reached {
    log.lock().expect("log lock").clear();
    METHODS
        .into_iter()
        .map(|(method, call)| {
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
    fn top_k(
        &self,
        sources: &mut [&mut dyn GradedSource],
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
        for (method, _) in METHODS {
            let inner = &reached[method];
            let forwarded = inner.contains(&method);
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
