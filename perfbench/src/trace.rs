//! Outside-in tracing: spans recorded by the harness around every call
//! it makes into a layer's public functions, and by [`TimedSource`] /
//! [`TimedRepository`] around every call the program makes back into a
//! source or repository the harness handed it.
//!
//! Spans stay in memory until the run ends. A layer's self time is its
//! span's duration minus the union of its children's intervals; worker
//! threads (engine prefetch) attach their spans to whatever span the
//! client thread has open, so overlap with the client is subtracted
//! once, not twice.
//!
//! Scalar source calls (`sorted_next`, `random_access`, …) cost a few
//! nanoseconds and come by the hundred thousand per op, so a span each
//! would measure the clock, not the call. They are counted all, timed
//! one in [`SCALAR_SAMPLE`], and folded into one record per method
//! under the span that was open, with the busy time scaled up from the
//! sample.

use std::cell::RefCell;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use fmdb_core::query::AtomicQuery;
use fmdb_core::score::{Score, ScoredObject};
use fmdb_core::stats::GradeHistogram;
use fmdb_garlic::object::Oid as GarlicOid;
use fmdb_garlic::repository::{AttributeKind, RepoError, Repository};
use fmdb_middleware::source::{
    GradedSource, Oid, ShardedSource, SourceInfo, SourcePartitioner, VecSource,
};
use fmdb_middleware::stats::PageIoStats;

use crate::stats::union_length;

/// The layers of the program, named after its modules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// The op's root span: time inside it that no layer span covers is
    /// the harness's own (digesting nothing — digests run outside).
    Harness,
    GarlicSql,
    GarlicPlanner,
    GarlicCatalog,
    /// `Repository::source_for` / `crisp_matches`, media kernels
    /// included: the harness cannot see below the repository boundary.
    GarlicRepository,
    GarlicExecutor,
    Engine,
    Algorithms,
    Source,
    Store,
}

impl Layer {
    pub const ALL: [Layer; 10] = [
        Layer::Harness,
        Layer::GarlicSql,
        Layer::GarlicPlanner,
        Layer::GarlicCatalog,
        Layer::GarlicRepository,
        Layer::GarlicExecutor,
        Layer::Engine,
        Layer::Algorithms,
        Layer::Source,
        Layer::Store,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Harness => "bench.harness",
            Layer::GarlicSql => "garlic.sql",
            Layer::GarlicPlanner => "garlic.planner",
            Layer::GarlicCatalog => "garlic.catalog",
            Layer::GarlicRepository => "garlic.repository+media",
            Layer::GarlicExecutor => "garlic.executor",
            Layer::Engine => "middleware.engine",
            Layer::Algorithms => "middleware.algorithms",
            Layer::Source => "middleware.source",
            Layer::Store => "middleware.store+pool",
        }
    }
}

pub type SpanId = u32;
pub const NO_SPAN: SpanId = u32::MAX;

/// One scalar source call in this many is timed.
pub const SCALAR_SAMPLE: u64 = 16;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: SpanId,
    pub parent: SpanId,
    /// The op (index into the run's executed ops) this span belongs to.
    pub op: u32,
    pub layer: Layer,
    pub name: &'static str,
    pub thread: u32,
    /// Nanoseconds since the tracer's epoch.
    pub start: u64,
    pub end: u64,
    /// True for the root of a replay: a public call repeated beside the
    /// op to see one level further down. Replays are not op time.
    pub replay: bool,
    /// Calls this record stands for: 1 for a span, the number of scalar
    /// calls for a folded record.
    pub calls: u64,
    /// `Some(busy)` marks a folded record of scalar calls: `busy` is
    /// their estimated total time, and `start..end` is only the
    /// parent's start, not an interval to take a union over.
    pub folded_busy: Option<u64>,
}

/// Scalar calls of one method seen while one span was innermost.
#[derive(Debug, Clone, Copy)]
struct Scalars {
    layer: Layer,
    name: &'static str,
    calls: u64,
    sampled: u64,
    sampled_ns: u64,
}

/// An open span of this thread and the scalar calls made under it.
#[derive(Debug)]
struct Frame {
    id: SpanId,
    scalars: Vec<Scalars>,
}

thread_local! {
    /// Open spans of this thread, innermost last.
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
    /// Dense per-thread number for the trace file.
    static THREAD_NO: RefCell<Option<u32>> = const { RefCell::new(None) };
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    next_id: AtomicU32,
    next_thread: AtomicU32,
    /// The client thread's innermost open span: the parent of spans
    /// recorded on worker threads, which have no stack of their own.
    client_top: AtomicU32,
    /// The current op number, stamped on every span.
    op: AtomicU32,
    /// What reading the clock twice costs, taken off every sampled
    /// scalar call: at a few nanoseconds per call the reading would
    /// otherwise be most of the sample.
    clock_ns: u64,
}

impl Tracer {
    pub fn new() -> Arc<Tracer> {
        let mut pairs: Vec<u64> = (0..1001)
            .map(|_| Instant::now().elapsed().as_nanos() as u64)
            .collect();
        pairs.sort_unstable();
        Arc::new(Tracer {
            clock_ns: pairs[pairs.len() / 2],
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            next_id: AtomicU32::new(0),
            next_thread: AtomicU32::new(0),
            client_top: AtomicU32::new(NO_SPAN),
            op: AtomicU32::new(0),
        })
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn set_op(&self, op: u32) {
        // ordering(SeqCst): worker threads stamp their spans with the
        // op the client last published; one total order keeps a span
        // from carrying an op number older than its parent's.
        self.op.store(op, Ordering::SeqCst);
    }

    /// Opens a span on the client thread (the thread running the op
    /// loop). Closed when the guard drops.
    pub fn enter(&self, layer: Layer, name: &'static str) -> SpanGuard<'_> {
        self.open(layer, name, false, true)
    }

    /// Opens the root span of a replay on the client thread.
    pub fn enter_replay(&self, layer: Layer, name: &'static str) -> SpanGuard<'_> {
        self.open(layer, name, true, true)
    }

    /// Opens a span from a callback, on whichever thread the program
    /// makes the call.
    fn enter_callback(&self, layer: Layer, name: &'static str) -> SpanGuard<'_> {
        self.open(layer, name, false, false)
    }

    fn open(&self, layer: Layer, name: &'static str, replay: bool, client: bool) -> SpanGuard<'_> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let own_parent = STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let parent = stack.last().map(|f| f.id);
            stack.push(Frame {
                id,
                scalars: Vec::new(),
            });
            parent
        });
        // A callback on the client thread nests under the client's own
        // stack; on a worker thread the stack is empty and the span
        // hangs under whatever the client has open.
        let on_client = client || own_parent.is_some();
        let parent = match own_parent {
            Some(p) => p,
            None if client => NO_SPAN,
            // ordering(SeqCst): pairs with the stores below; a worker
            // must see the span the client opened before handing it
            // the source it is now calling.
            None => self.client_top.load(Ordering::SeqCst),
        };
        if on_client {
            // ordering(SeqCst): see the load above.
            self.client_top.store(id, Ordering::SeqCst);
        }
        SpanGuard {
            tracer: self,
            span: Span {
                id,
                parent,
                // ordering(SeqCst): see `set_op`.
                op: self.op.load(Ordering::SeqCst),
                layer,
                name,
                thread: self.thread_no(),
                start: self.now(),
                end: 0,
                replay,
                calls: 1,
                folded_busy: None,
            },
            on_client,
        }
    }

    /// Runs a scalar source call, counting it under the innermost open
    /// span of this thread and timing one call in [`SCALAR_SAMPLE`]. On
    /// a thread with no open span the call gets a span of its own.
    fn scalar<T>(&self, layer: Layer, name: &'static str, call: impl FnOnce() -> T) -> T {
        let sample = STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let frame = stack.last_mut()?;
            let at = match frame
                .scalars
                .iter()
                .position(|x| x.layer == layer && x.name == name)
            {
                Some(at) => at,
                None => {
                    frame.scalars.push(Scalars {
                        layer,
                        name,
                        calls: 0,
                        sampled: 0,
                        sampled_ns: 0,
                    });
                    frame.scalars.len() - 1
                }
            };
            let seen = &mut frame.scalars[at];
            seen.calls += 1;
            Some((at, seen.calls % SCALAR_SAMPLE == 1))
        });
        match sample {
            None => {
                let _span = self.enter_callback(layer, name);
                call()
            }
            Some((_, false)) => call(),
            Some((at, true)) => {
                let start = Instant::now();
                let value = call();
                let nanos = (start.elapsed().as_nanos() as u64).saturating_sub(self.clock_ns);
                STACK.with(|s| {
                    if let Some(seen) = s
                        .borrow_mut()
                        .last_mut()
                        .and_then(|f| f.scalars.get_mut(at))
                    {
                        seen.sampled += 1;
                        seen.sampled_ns += nanos;
                    }
                });
                value
            }
        }
    }

    fn thread_no(&self) -> u32 {
        THREAD_NO.with(|t| {
            *t.borrow_mut()
                .get_or_insert_with(|| self.next_thread.fetch_add(1, Ordering::Relaxed))
        })
    }

    /// Takes every span recorded so far.
    pub fn drain(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

#[derive(Debug)]
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    span: Span,
    on_client: bool,
}

#[cfg(test)]
impl SpanGuard<'_> {
    fn id(&self) -> SpanId {
        self.span.id
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.span.end = self.tracer.now();
        let (frame, top) = STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let frame = stack.pop();
            (frame, stack.last().map(|f| f.id))
        });
        if self.on_client {
            let top = top.unwrap_or(NO_SPAN);
            // ordering(SeqCst): see `Tracer::open`.
            self.tracer.client_top.store(top, Ordering::SeqCst);
        }
        let mut spans = self
            .tracer
            .spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        spans.push(self.span);
        for seen in frame.iter().flat_map(|f| &f.scalars) {
            spans.push(Span {
                id: self.tracer.next_id.fetch_add(1, Ordering::Relaxed),
                parent: self.span.id,
                layer: seen.layer,
                name: seen.name,
                end: self.span.start,
                replay: false,
                calls: seen.calls,
                // The sample's mean, scaled to every call.
                folded_busy: Some(seen.sampled_ns * seen.calls / seen.sampled.max(1)),
                ..self.span
            });
        }
    }
}

/// Self time of every span: duration minus the union of its children's
/// intervals clipped to it, minus the busy time of the scalar calls
/// folded under it. A folded record's self time is its busy time,
/// scaled down where the estimates under one parent add up to more
/// than the parent has left. Returned in the order of `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let max_id = spans
        .iter()
        .map(|s| s.id)
        .max()
        .map_or(0, |m| m as usize + 1);
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); max_id];
    let mut folded: Vec<u64> = vec![0; max_id];
    for s in spans.iter().filter(|s| s.parent != NO_SPAN) {
        let parent = s.parent as usize;
        match s.folded_busy {
            Some(busy) => {
                if let Some(slot) = folded.get_mut(parent) {
                    *slot += busy;
                }
            }
            None => {
                if let Some(slot) = children.get_mut(parent) {
                    slot.push((s.start, s.end));
                }
            }
        }
    }
    // What each span has left for itself and its folded calls.
    let mut left: Vec<u64> = vec![0; max_id];
    for s in spans.iter().filter(|s| s.folded_busy.is_none()) {
        let covered = union_length(&mut children[s.id as usize], s.start, s.end);
        left[s.id as usize] = (s.end - s.start).saturating_sub(covered);
    }
    spans
        .iter()
        .map(|s| match s.folded_busy {
            None => left[s.id as usize].saturating_sub(folded[s.id as usize]),
            Some(busy) => {
                let (left, claimed) = match s.parent {
                    NO_SPAN => (busy, busy),
                    p => (left[p as usize], folded[p as usize]),
                };
                if claimed > left {
                    (busy as u128 * left as u128 / claimed as u128) as u64
                } else {
                    busy
                }
            }
        })
        .collect()
}

/// Writes the trace as JSON: one record per span, and one per folded
/// group of scalar calls (`calls`, and `busy` for the estimated time).
/// Batch callbacks are folded the same way per (parent, method, thread)
/// so the file stays small.
pub fn write_trace(path: &Path, workload: &str, spans: &[Span]) -> Result<(), String> {
    use std::collections::BTreeMap;
    use std::io::Write;

    let has_children: std::collections::HashSet<SpanId> = spans.iter().map(|s| s.parent).collect();
    let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = std::io::BufWriter::new(file);
    let io = |e: std::io::Error| format!("{}: {e}", path.display());
    writeln!(
        out,
        "{{\"workload\": {}, \"unit\": \"ns\", \"spans\": [",
        crate::json::quote(workload)
    )
    .map_err(io)?;
    /// Callback spans of one method under one parent on one thread.
    struct Folded {
        op: u32,
        calls: u64,
        busy: u64,
        start: u64,
        end: u64,
    }
    let mut folded: BTreeMap<(SpanId, Layer, &'static str, u32), Folded> = BTreeMap::new();
    let mut first = true;
    let mut sep = |out: &mut std::io::BufWriter<std::fs::File>| -> std::io::Result<()> {
        if !std::mem::replace(&mut first, false) {
            writeln!(out, ",")?;
        }
        Ok(())
    };
    for s in spans {
        let callback = matches!(
            s.layer,
            Layer::Source | Layer::Store | Layer::GarlicRepository
        ) && !has_children.contains(&s.id);
        if callback {
            let f = folded
                .entry((s.parent, s.layer, s.name, s.thread))
                .or_insert(Folded {
                    op: s.op,
                    calls: 0,
                    busy: 0,
                    start: u64::MAX,
                    end: 0,
                });
            f.calls += s.calls;
            f.busy += s.folded_busy.unwrap_or(s.end - s.start);
            f.start = f.start.min(s.start);
            f.end = f.end.max(s.end);
            continue;
        }
        sep(&mut out).map_err(io)?;
        write!(
            out,
            "{{\"id\": {}, \"parent\": {}, \"op\": {}, \"layer\": \"{}\", \"name\": \"{}\", \"thread\": {}, \"start\": {}, \"end\": {}, \"replay\": {}}}",
            s.id,
            if s.parent == NO_SPAN { -1 } else { i64::from(s.parent) },
            s.op, s.layer.name(), s.name, s.thread, s.start, s.end, s.replay
        )
        .map_err(io)?;
    }
    for ((parent, layer, name, thread), f) in folded {
        sep(&mut out).map_err(io)?;
        write!(
            out,
            "{{\"parent\": {}, \"op\": {}, \"layer\": \"{}\", \"name\": \"{name}\", \"thread\": {thread}, \"calls\": {}, \"busy\": {}, \"start\": {}, \"end\": {}}}",
            if parent == NO_SPAN { -1 } else { i64::from(parent) },
            f.op, layer.name(), f.calls, f.busy, f.start, f.end
        )
        .map_err(io)?;
    }
    writeln!(out, "\n]}}").map_err(io)?;
    out.flush().map_err(io)
}

/// A [`GradedSource`] that records a span around every call and
/// forwards all 13 trait methods — including the optional ones a
/// wrapper that relies on the trait's defaults silently drops
/// (`partition`, `grade_histogram`, `page_io`, `note_threshold`,
/// `sorted_drain_bounded`, `random_access_bounded`).
#[derive(Debug)]
pub struct TimedSource<S> {
    inner: S,
    tracer: Arc<Tracer>,
    layer: Layer,
}

impl<S: GradedSource> TimedSource<S> {
    pub fn new(inner: S, tracer: Arc<Tracer>, layer: Layer) -> TimedSource<S> {
        TimedSource {
            inner,
            tracer,
            layer,
        }
    }
}

impl<S: GradedSource> GradedSource for TimedSource<S> {
    fn sorted_next(&mut self) -> Option<ScoredObject<Oid>> {
        let inner = &mut self.inner;
        self.tracer
            .scalar(self.layer, "sorted_next", || inner.sorted_next())
    }

    fn random_access(&mut self, oid: Oid) -> Score {
        let inner = &mut self.inner;
        self.tracer
            .scalar(self.layer, "random_access", || inner.random_access(oid))
    }

    fn rewind(&mut self) {
        let _span = self.tracer.enter_callback(self.layer, "rewind");
        self.inner.rewind();
    }

    fn info(&self) -> SourceInfo {
        let _span = self.tracer.enter_callback(self.layer, "info");
        self.inner.info()
    }

    fn sorted_batch(&mut self, n: usize) -> Vec<ScoredObject<Oid>> {
        let _span = self.tracer.enter_callback(self.layer, "sorted_batch");
        self.inner.sorted_batch(n)
    }

    fn random_batch(&mut self, oids: &[Oid]) -> Vec<Score> {
        let _span = self.tracer.enter_callback(self.layer, "random_batch");
        self.inner.random_batch(oids)
    }

    fn partition(
        &self,
        partitioner: SourcePartitioner,
        shards: usize,
    ) -> Option<Vec<ShardedSource>> {
        let _span = self.tracer.enter_callback(self.layer, "partition");
        self.inner.partition(partitioner, shards)
    }

    fn grade_histogram(&self, bins: usize) -> Option<GradeHistogram> {
        let _span = self.tracer.enter_callback(self.layer, "grade_histogram");
        self.inner.grade_histogram(bins)
    }

    fn page_io(&self) -> Option<PageIoStats> {
        let _span = self.tracer.enter_callback(self.layer, "page_io");
        self.inner.page_io()
    }

    fn note_threshold(&mut self, bound: Score) {
        let inner = &mut self.inner;
        self.tracer
            .scalar(self.layer, "note_threshold", || inner.note_threshold(bound));
    }

    fn sorted_drain_bounded(&mut self, bound: Score) -> Option<Vec<ScoredObject<Oid>>> {
        let _span = self
            .tracer
            .enter_callback(self.layer, "sorted_drain_bounded");
        self.inner.sorted_drain_bounded(bound)
    }

    fn random_access_bounded(&mut self, oid: Oid, bound: Score) -> Score {
        let inner = &mut self.inner;
        self.tracer.scalar(self.layer, "random_access_bounded", || {
            inner.random_access_bounded(oid, bound)
        })
    }
}

/// A [`Repository`] that records a span around `source_for` and
/// `crisp_matches`, so gradings made inside `Garlic::top_k` show up as
/// children of the harness's `top_k` span.
pub struct TimedRepository {
    inner: Box<dyn Repository>,
    tracer: Arc<Tracer>,
}

impl TimedRepository {
    pub fn new(inner: Box<dyn Repository>, tracer: Arc<Tracer>) -> TimedRepository {
        TimedRepository { inner, tracer }
    }
}

impl Repository for TimedRepository {
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
        let _span = self
            .tracer
            .enter_callback(Layer::GarlicRepository, "source_for");
        self.inner.source_for(query)
    }

    fn crisp_matches(&self, query: &AtomicQuery) -> Result<Option<Vec<GarlicOid>>, RepoError> {
        let _span = self
            .tracer
            .enter_callback(Layer::GarlicRepository, "crisp_matches");
        self.inner.crisp_matches(query)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            op: 0,
            layer: Layer::Harness,
            name: "t",
            thread: 0,
            start,
            end,
            replay: false,
            calls: 1,
            folded_busy: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Root [0,100]; children [10,40] and [30,60] overlap (worker
        // threads), [90,120] sticks out past the parent; a grandchild
        // must not be subtracted from the root twice.
        let spans = vec![
            span(0, NO_SPAN, 0, 100),
            span(1, 0, 10, 40),
            span(2, 0, 30, 60),
            span(3, 0, 90, 120),
            span(4, 1, 15, 20),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], 100 - 50 - 10);
        assert_eq!(selfs[1], 30 - 5);
        assert_eq!(selfs[2], 30);
        assert_eq!(selfs[4], 5);
    }

    #[test]
    fn folded_scalar_calls_come_off_their_parent_and_never_exceed_it() {
        let folded = |id, parent, busy| Span {
            folded_busy: Some(busy),
            calls: 100,
            ..span(id, parent, 0, 0)
        };
        let spans = vec![
            span(0, NO_SPAN, 0, 100),
            span(1, 0, 10, 30),
            folded(2, 0, 50),
            // Two estimates that claim 60 of a parent with 20 left.
            folded(3, 1, 45),
            folded(4, 1, 15),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs, vec![100 - 20 - 50, 0, 50, 15, 5]);
        assert_eq!(selfs.iter().sum::<u64>(), 100);
    }

    #[test]
    fn scalar_calls_are_counted_all_and_folded_under_the_open_span() {
        let tracer = Tracer::new();
        let mut source = TimedSource::new(
            VecSource::from_dense("t", &[Score::ONE; 100]),
            Arc::clone(&tracer),
            Layer::Source,
        );
        {
            let _root = tracer.enter(Layer::Harness, "op");
            while source.sorted_next().is_some() {}
            source.random_access(3);
            source.sorted_batch(8);
        }
        let spans = tracer.drain();
        let named =
            |name: &str| -> Vec<&Span> { spans.iter().filter(|s| s.name == name).collect() };
        // 100 entries and the `None` that ends the stream.
        assert_eq!(named("sorted_next").len(), 1);
        assert_eq!(named("sorted_next")[0].calls, 101);
        assert!(named("sorted_next")[0].folded_busy.is_some());
        assert_eq!(named("random_access")[0].calls, 1);
        assert_eq!(named("sorted_batch")[0].folded_busy, None);
        let root = named("op")[0].id;
        assert!(spans.iter().all(|s| s.id == root || s.parent == root));
    }

    #[test]
    fn spans_nest_on_the_client_and_hang_workers_under_it() {
        let tracer = Tracer::new();
        tracer.set_op(7);
        let (root_id, child_parent, worker_parent);
        {
            let root = tracer.enter(Layer::Harness, "op");
            root_id = root.id();
            {
                let child = tracer.enter(Layer::Engine, "run");
                child_parent = child.id();
                let t = Arc::clone(&tracer);
                worker_parent = std::thread::spawn(move || {
                    let g = t.enter_callback(Layer::Source, "sorted_batch");
                    g.id()
                })
                .join()
                .unwrap();
            }
        }
        let spans = tracer.drain();
        let by_id = |id| spans.iter().find(|s| s.id == id).unwrap();
        assert_eq!(by_id(root_id).parent, NO_SPAN);
        assert_eq!(by_id(child_parent).parent, root_id);
        assert_eq!(by_id(worker_parent).parent, child_parent);
        assert_ne!(by_id(worker_parent).thread, by_id(root_id).thread);
        assert!(spans.iter().all(|s| s.op == 7 && s.end >= s.start));
    }
}
