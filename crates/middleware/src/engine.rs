//! The batched top-k execution engine.
//!
//! The paper's algorithms are specified — and implemented in
//! [`crate::algorithms`] — as strictly sequential consumers of sorted
//! and random access. A real middleware system (Garlic over QBIC et
//! al., §4) would not call a remote subsystem one object at a time: it
//! would *batch*. The [`Engine`] adds exactly that **without changing a
//! single answer or a single charged access**:
//!
//! * **Batched sorted access** — each stream is drained through
//!   [`Subsystem::sorted_batch`] in chunks of
//!   [`EngineConfig::batch_size`] instead of per-object calls, lazily,
//!   on the caller's thread: one subsystem round-trip serves a whole
//!   batch.
//! * **Random access as the kernel asks for it** — a probe is one call
//!   to the subsystem; a kernel that probes in batches (A₀'s phase 2)
//!   reaches the subsystem's [`Subsystem::random_batch`] whole. The
//!   engine memoizes no grades: every kernel remembers the fields it
//!   has seen, so no list is asked for the same object twice within a
//!   query (`tests/no_kernel_asks_a_list_twice.rs`), and across queries
//!   a memo could only hit for requests sharing one source handle,
//!   which no caller but a benchmark loop does (`DESIGN.md` §18).
//!
//! There is one execution path. A request first locks every source
//! handle it names, once and in one order, and holds them to its end:
//! planning, the page-counter snapshot and the kernel all read cursors
//! no other request can move, and requests sharing a handle run one
//! after the other. It then runs its kernel — the existing scalar
//! algorithm, so correctness is inherited — on the calling thread over
//! one proxy per source. The engine spawns threads in one place only,
//! [`Engine::run_many`]'s request pool. A source is in memory or reads
//! its pages on demand ([`crate::store`]); against a subsystem that
//! charges per call it is batching that pays: one call per
//! [`EngineConfig::batch_size`] objects instead of one per object (E19,
//! `engine_vs_scalar_sorted_calls`).
//!
//! Because batching preserves per-stream order and only moves *when*
//! items are fetched (never *which* or *in what order* the algorithm
//! consumes them), the engine's results are **bit-identical** to the
//! scalar reference: same answer ids, same grades, same
//! `sorted`/`random` counts.
//!
//! One engine value serves any number of concurrent [`TopKRequest`]s —
//! `run` takes `&self`, and [`Engine::run_many`] evaluates a batch of
//! requests on a bounded thread pool. Requests share nothing through
//! the engine but its cumulative [`Engine::access_totals`].
//!
//! A subsystem access that fails fails its request with
//! [`EngineError::Source`], naming the stream; one that panics, with
//! [`EngineError::WorkerPanicked`]. Under [`Engine::run_many`] either
//! fails that request alone.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::thread;

use fmdb_core::score::{Score, ScoredObject};
use fmdb_core::scoring::ScoringFunction;

use crate::algorithms::{AlgoError, Cursor, TopKAlgorithm, TopKResult};
use crate::frozen::Narrowed;
use crate::planner::{Explain, PhysicalPlan, PlanQuery, QueryStats};
use crate::request::{lock_all, TopKRequest};
use crate::source::{Caps, Oid, SourceError, SourceInfo, Subsystem};
use crate::stats::{AccessStats, PageIoStats};

/// Failures the engine can surface for a request.
///
/// The engine must never take down a whole process mid-query: a
/// subsystem panicking under the kernel (or a request thread dying
/// under [`Engine::run_many`]) is reported as a value, so the caller
/// can fail that one request and keep serving others. This is the
/// error path `clippy::unwrap_used`, `expect_used` and `panic` point
/// library code at.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// Algorithm-level validation or execution error, unchanged from
    /// the scalar path.
    Algo(AlgoError),
    /// A subsystem failed an access: `stream` is its
    /// [`SourceInfo::label`], `cause` what it reported.
    Source {
        /// The failing source.
        stream: String,
        /// Its error.
        cause: SourceError,
    },
    /// A subsystem, the kernel or a worker thread panicked while
    /// serving the request. `stream` names the source whose subsystem
    /// was being called (its [`SourceInfo::label`]), the algorithm when
    /// no subsystem call was in flight, or the request slot under
    /// [`Engine::run_many`]; `message` is the panic payload when it was
    /// a string.
    WorkerPanicked {
        /// Which stream or request died.
        stream: String,
        /// The panic message, best effort.
        message: String,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Algo(e) => write!(f, "{e}"),
            EngineError::Source { stream, cause } => write!(f, "source {stream} failed: {cause}"),
            EngineError::WorkerPanicked { stream, message } => {
                write!(f, "worker for {stream} panicked mid-query: {message}")
            }
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Algo(e) => Some(e),
            EngineError::Source { cause, .. } => Some(cause),
            EngineError::WorkerPanicked { .. } => None,
        }
    }
}

impl From<AlgoError> for EngineError {
    fn from(e: AlgoError) -> EngineError {
        match e {
            AlgoError::Source { stream, cause } => EngineError::Source { stream, cause },
            e => EngineError::Algo(e),
        }
    }
}

impl From<EngineError> for AlgoError {
    fn from(e: EngineError) -> AlgoError {
        match e {
            EngineError::Algo(e) => e,
            EngineError::Source { stream, cause } => AlgoError::Source { stream, cause },
            other @ EngineError::WorkerPanicked { .. } => AlgoError::Engine(other.to_string()),
        }
    }
}

/// Renders a caught panic payload as text, best effort.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// The one size an [`Engine`] is built with. How a *request* runs —
/// algorithm, cost model, θ — is the request's
/// [`crate::policy::ExecPolicy`], not engine configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Objects fetched per [`Subsystem::sorted_batch`] call.
    /// Clamped to at least 1.
    pub batch_size: usize,
}

impl EngineConfig {
    /// The default: batches of 64.
    pub const DEFAULT: EngineConfig = EngineConfig { batch_size: 64 };
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig::DEFAULT
    }
}

/// Locks tolerating poison: the engine's totals and `run_many`'s result
/// slots, whose updates are single assignments. A request that panics
/// fails with [`EngineError::WorkerPanicked`], and the engine must keep
/// serving the requests that follow. (Source handles are locked in one
/// place only, `request::lock_all`.)
pub(crate) fn lock<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The engine's view of one source, which the request holds locked:
/// sorted access is served from lazily refilled batches; every other
/// call goes straight to the subsystem, as the kernel makes it. The
/// kernels run on top of it unchanged — and charge exactly the accesses
/// they would charge against the raw source.
struct EngineSource<'a> {
    source: &'a mut dyn Subsystem,
    /// Read once when the proxy is built: a panic report names the
    /// stream by it.
    label: String,
    batch: usize,
    buffer: std::vec::IntoIter<ScoredObject<Oid>>,
    drained: bool,
    /// Set for the duration of every call into the subsystem, so a
    /// panic caught around the kernel can name the stream it came from.
    in_flight: bool,
}

impl EngineSource<'_> {
    /// Runs `call` on the subsystem, flagged as in flight.
    fn call<R>(&mut self, call: impl FnOnce(&mut dyn Subsystem) -> R) -> R {
        self.in_flight = true;
        let out = call(&mut *self.source);
        self.in_flight = false;
        out
    }
}

impl Subsystem for EngineSource<'_> {
    // Entry by entry off the refilled stream: the subsystem sees the
    // same batches whatever the kernel asks for.
    fn sorted_batch(&mut self, n: usize) -> Result<Vec<ScoredObject<Oid>>, SourceError> {
        let mut out = Vec::with_capacity(n.min(self.batch));
        while out.len() < n {
            match self.sorted_next()? {
                Some(item) => out.push(item),
                None => break,
            }
        }
        Ok(out)
    }

    fn random_batch(&mut self, oids: &[Oid]) -> Result<Vec<Score>, SourceError> {
        self.call(|s| s.random_batch(oids))
    }

    fn rewind(&mut self) {
        self.call(|s| s.rewind());
        self.buffer = Vec::new().into_iter();
        self.drained = false;
    }

    fn info(&self) -> SourceInfo {
        self.source.info()
    }

    fn caps(&self) -> Caps<'_> {
        self.source.caps()
    }

    fn sorted_next(&mut self) -> Result<Option<ScoredObject<Oid>>, SourceError> {
        if self.buffer.as_slice().is_empty() && !self.drained {
            let batch = self.batch;
            let items = self.call(|s| s.sorted_batch(batch))?;
            self.drained = items.len() < batch;
            self.buffer = items.into_iter();
        }
        Ok(self.buffer.next())
    }

    fn random_access(&mut self, oid: Oid) -> Result<Score, SourceError> {
        self.call(|s| s.random_access(oid))
    }
}

/// A request's locked sources, seen through [`Subsystem`].
fn narrow<'a>(guards: &'a mut [crate::request::SourceGuard<'_>]) -> Vec<Narrowed<'a>> {
    guards
        .iter_mut()
        .map(|guard| Narrowed::new(&mut **guard))
        .collect()
}

/// The batched execution engine. See the [module docs](crate::engine)
/// for the design.
///
/// `run` takes `&self`: share one engine (e.g. behind an `Arc`) and
/// issue any number of requests concurrently. Each holds its source
/// handles for its whole run, so requests sharing a handle run one
/// after the other.
#[derive(Debug)]
pub struct Engine {
    config: EngineConfig,
    /// Cumulative stats over every successful request, for cross-run
    /// telemetry (`BENCH_engine.json`).
    totals: Mutex<AccessStats>,
}

impl Default for Engine {
    fn default() -> Engine {
        Engine::new(EngineConfig::DEFAULT)
    }
}

impl Engine {
    /// Creates an engine with the given configuration.
    pub fn new(config: EngineConfig) -> Engine {
        Engine {
            config,
            totals: Mutex::new(AccessStats::ZERO),
        }
    }

    /// Cumulative [`AccessStats`] folded over every *successful*
    /// request this engine has served. Monotone; diff two snapshots to
    /// meter a workload.
    pub fn access_totals(&self) -> AccessStats {
        *lock(&self.totals)
    }

    /// Evaluates a request as its [`crate::policy::ExecPolicy`]
    /// prescribes, running the plan through its [`Cursor`] — the one
    /// door to every plan's kernel.
    ///
    /// A policy that names a plan runs it ([`crate::policy::ExecPolicy::resolve`]).
    /// One that names none routes through the unified cost-based
    /// planner ([`crate::planner::choose_plan`]): the engine gathers
    /// per-source grade histograms via [`Subsystem::caps`], prices
    /// every applicable strategy under the policy's cost model, and
    /// executes the cheapest. When any source cannot provide
    /// statistics, the planner's documented static fallback
    /// (NRA-or-TA, never A₀) applies. [`Engine::explain`] exposes the
    /// same decision without executing it.
    pub fn run(&self, request: &TopKRequest) -> Result<TopKResult, EngineError> {
        let mut guards = lock_all(request.sources());
        let mut sources = narrow(&mut guards);
        let plan = self.resolve(request, &sources)?;
        let theta = request.policy().theta;
        self.execute(
            plan.name(),
            |refs, scoring, k| Cursor::once(plan, theta, refs, scoring, k),
            request,
            &mut sources,
        )
    }

    /// The planner's decision record for `request` — the plan
    /// [`Engine::run`] would execute, every candidate's estimated
    /// charged cost, and the statistics it was based on — without
    /// running the query or charging any accesses. For a policy that
    /// names a plan the record reflects that forced choice.
    pub fn explain(&self, request: &TopKRequest) -> Result<Explain, EngineError> {
        // Surface invalid-knob errors exactly like `run`.
        let forced = request.policy().resolve()?;
        let mut explain = self.plan(request, &narrow(&mut lock_all(request.sources())));
        if request.policy().plan.is_some() {
            explain.chosen = forced;
        }
        Ok(explain)
    }

    /// The plan `run` executes: the one the policy names, or the
    /// cost-based planner's.
    fn resolve(
        &self,
        request: &TopKRequest,
        sources: &[Narrowed<'_>],
    ) -> Result<PhysicalPlan, EngineError> {
        let policy = request.policy();
        // Always resolve statically first: it validates the policy
        // knobs (θ, cost units) and is the documented fallback.
        let plan = policy.resolve()?;
        Ok(match policy.plan {
            None => self.plan(request, sources).chosen,
            Some(_) => plan,
        })
    }

    /// Gathers statistics from the held `sources` and runs the planner
    /// for `request` under its policy, treating the query as a plain
    /// fuzzy top-k (the engine has no crisp-predicate structure; the
    /// Garlic layer adds that).
    fn plan(&self, request: &TopKRequest, sources: &[Narrowed<'_>]) -> Explain {
        let m = sources.len();
        let sizes = sources.iter().map(|s| s.get_ref().info().universe_size);
        let n = sizes.max().unwrap_or(0);
        let stats = QueryStats::from_sources(sources.iter().map(Narrowed::get_ref));
        let combiner = crate::planner::classify_combiner(request.scoring().as_ref(), m.max(1));
        let query = PlanQuery::fuzzy(n, m, request.k()).combiner(combiner);
        crate::planner::choose_plan(&query, stats.as_ref(), request.policy())
    }

    /// Evaluates a request with a scalar [`TopKAlgorithm`] — a
    /// strategy no plan names — as the merge strategy. The algorithm's
    /// code path is unchanged — it consumes engine-buffered proxies
    /// instead of raw sources — so the result (answers *and* charged
    /// `sorted`/`random` counts) is bit-identical to the scalar run
    /// over the same sources, read from where their cursors stand
    /// (every algorithm here rewinds first); the engine only adds the
    /// page traffic of paged sources ([`AccessStats::page_reads`] and
    /// friends).
    pub fn run_algorithm(
        &self,
        algorithm: &dyn TopKAlgorithm,
        request: &TopKRequest,
    ) -> Result<TopKResult, EngineError> {
        let mut guards = lock_all(request.sources());
        self.execute(
            algorithm.name(),
            |refs, scoring, k| algorithm.evaluate(refs, scoring, k),
            request,
            &mut narrow(&mut guards),
        )
    }

    /// The one execution path: the kernel `name` names runs on the
    /// caller's thread over batch-refilled proxies of the request's held
    /// `sources` — no thread is spawned, so `stats.worker_spawns` stays
    /// 0 — and the sources' page traffic is folded into its result.
    fn execute(
        &self,
        name: &str,
        kernel: impl FnOnce(
            &mut [&mut dyn Subsystem],
            &dyn ScoringFunction,
            usize,
        ) -> Result<TopKResult, AlgoError>,
        request: &TopKRequest,
        sources: &mut [Narrowed<'_>],
    ) -> Result<TopKResult, EngineError> {
        let page_io = |s: &Narrowed<'_>| s.get_ref().caps().page_io;
        let page_before: Vec<Option<PageIoStats>> = sources.iter().map(page_io).collect();
        let scoring = request.scoring();
        let batch = self.config.batch_size.max(1);
        let mut proxies: Vec<EngineSource> = sources
            .iter_mut()
            .map(|source| {
                let source = source.get();
                EngineSource {
                    label: source.info().label,
                    source,
                    batch,
                    buffer: Vec::new().into_iter(),
                    drained: false,
                    in_flight: false,
                }
            })
            .collect();

        // A subsystem (or a user scoring function) panicking under the
        // kernel fails this request, never the caller's thread.
        let outcome = {
            let mut refs: Vec<&mut dyn Subsystem> = proxies
                .iter_mut()
                .map(|p| p as &mut dyn Subsystem)
                .collect();
            catch_unwind(AssertUnwindSafe(|| {
                kernel(&mut refs, &*scoring, request.k())
            }))
        };
        let mut result = match outcome {
            Ok(result) => result?,
            Err(payload) => {
                let stream = proxies
                    .iter()
                    .find(|p| p.in_flight)
                    .map_or_else(|| name.to_owned(), |p| p.label.clone());
                return Err(EngineError::WorkerPanicked {
                    stream,
                    message: panic_message(payload.as_ref()),
                });
            }
        };

        // Fold the page-traffic delta of every paged source into the
        // request's stats. Sources sharing one store's pool would be
        // double counted — each query source is expected to map to its
        // own store file.
        for (source, before) in sources.iter().zip(page_before) {
            if let (Some(now), Some(before)) = (page_io(source), before) {
                let delta = now - before;
                result.stats.page_reads += delta.reads;
                result.stats.page_hits += delta.hits;
                result.stats.page_evictions += delta.evictions;
                result.stats.pages_skipped += delta.skipped;
            }
        }
        *lock(&self.totals) += result.stats;
        Ok(result)
    }

    /// Evaluates several requests concurrently on a scoped worker
    /// *pool*. Results are returned in request order. A request that
    /// panics yields [`EngineError::WorkerPanicked`] in its slot — one
    /// bad request never takes down its batch. Requests sharing a source
    /// handle take turns on it, each answering as it would alone.
    ///
    /// The pool has `min(available_parallelism, requests.len())`
    /// workers that claim request slots from a shared counter, instead
    /// of one thread per request: the calling thread, whose book table
    /// is already warm, and one spawned thread for each of the others —
    /// a batch of 10 000 requests costs a handful of spawns, not 10 000,
    /// and a batch on one core none. The spawns are charged as
    /// [`AccessStats::worker_spawns`] to the batch's first successful
    /// result — every spawned worker, including one that found the
    /// queue already drained.
    pub fn run_many(&self, requests: &[TopKRequest]) -> Vec<Result<TopKResult, EngineError>> {
        if requests.is_empty() {
            return Vec::new();
        }
        let workers = thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(requests.len());
        let next = std::sync::atomic::AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<Result<TopKResult, EngineError>>>> =
            requests.iter().map(|_| Mutex::new(None)).collect();
        #[expect(
            clippy::disallowed_methods,
            reason = "the request pool: the library's one thread site, joined before the results are read"
        )]
        thread::scope(|scope| {
            let serve = || loop {
                // ordering(Relaxed): a work-claim ticket — the
                // read-modify-write hands each index to exactly one
                // worker whatever the ordering; results travel
                // through the slot mutexes and the scope's join.
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let Some(request) = requests.get(i) else {
                    break;
                };
                // `run` contains panics under the kernel; this
                // net also catches one raised while resolving
                // the request (a subsystem exploding under the
                // planner's histogram call, say).
                let outcome = match catch_unwind(AssertUnwindSafe(|| self.run(request))) {
                    Ok(result) => result,
                    Err(payload) => Err(EngineError::WorkerPanicked {
                        stream: format!("request {i}"),
                        message: panic_message(payload.as_ref()),
                    }),
                };
                *lock(&slots[i]) = Some(outcome);
            };
            for _ in 1..workers {
                scope.spawn(serve);
            }
            // The caller serves too: its thread's book table is warm.
            serve();
        });
        let mut results: Vec<Result<TopKResult, EngineError>> = slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap_or_else(PoisonError::into_inner)
                    .unwrap_or_else(|| {
                        // Unreachable: every slot index below
                        // requests.len() is claimed exactly once and
                        // written before its worker exits.
                        Err(EngineError::WorkerPanicked {
                            stream: "request pool".to_owned(),
                            message: "request slot never served".to_owned(),
                        })
                    })
            })
            .collect();
        // Charged here, after the join, so the count states what was
        // spawned whichever worker happened to serve which request.
        let spawned = workers as u64 - 1;
        lock(&self.totals).worker_spawns += spawned;
        if let Some(first) = results.iter_mut().flatten().next() {
            first.stats.worker_spawns += spawned;
        }
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::tests::Planned;
    use crate::oracle::verify_top_k;
    use crate::policy::ExecPolicy;
    use crate::request::TopKQuery;
    use crate::source::GradedSource;
    use crate::stats::CostModel;
    use crate::workload::independent_uniform;
    use fmdb_core::scoring::tnorms::Min;

    /// Scalar reference run over a fresh copy of the same workload.
    fn scalar(algo: &dyn TopKAlgorithm, n: usize, m: usize, seed: u64, k: usize) -> TopKResult {
        let mut sources = independent_uniform(n, m, seed);
        let mut refs: Vec<&mut dyn GradedSource> = sources
            .iter_mut()
            .map(|s| s as &mut dyn GradedSource)
            .collect();
        algo.top_k(&mut refs, &Min, k).unwrap()
    }

    /// A request pinned to Fagin's A₀ — the bit-identity tests compare
    /// against scalar A₀ runs, so the planner must not re-route them.
    fn request(n: usize, m: usize, seed: u64, k: usize) -> TopKRequest {
        TopKQuery::compose()
            .sources(independent_uniform(n, m, seed))
            .scoring(Min)
            .k(k)
            .policy(ExecPolicy::new().plan(PhysicalPlan::Fa))
            .request()
            .unwrap()
    }

    /// The default policy (no plan named) routes through the unified
    /// cost-based planner: sources provide histograms, every strategy
    /// is priced, and the executed algorithm is the planner's choice —
    /// NRA for independent-uniform grades under uniform costs (its
    /// sorted-only cost is roughly half of TA's or A₀'s).
    #[test]
    fn default_auto_routes_through_the_planner() {
        let engine = Engine::default();
        let req = TopKQuery::compose()
            .sources(independent_uniform(300, 3, 7))
            .scoring(Min)
            .k(10)
            .request()
            .unwrap();
        let explain = engine.explain(&req).unwrap();
        assert_eq!(explain.chosen.name(), "nra-lower-bound", "{explain}");
        assert!(matches!(
            explain.basis,
            crate::planner::StatsBasis::Histograms { sources: 3 }
        ));
        assert!(explain.candidates.len() >= 3, "{explain}");
        // The run executes exactly the explained plan: NRA performs no
        // random accesses, unlike the old Auto → A₀ default.
        let result = engine.run(&req).unwrap();
        assert_eq!(result.stats.random, 0, "NRA is sorted-only");
        verify_top_k(
            &mut independent_uniform(300, 3, 7)
                .iter_mut()
                .map(|s| s as &mut dyn GradedSource)
                .collect::<Vec<_>>(),
            &Min,
            &result.answers,
            10,
        )
        .unwrap();
        // Explicit policies are untouched by the planner.
        let forced = engine.explain(&request(300, 3, 7, 10)).unwrap();
        assert_eq!(forced.chosen.name(), "fagin-a0");
    }

    #[test]
    fn engine_fa_is_bit_identical_to_scalar_fa() {
        for &(n, m, k) in &[(500usize, 2usize, 5usize), (300, 3, 10), (200, 4, 7)] {
            let reference = scalar(&Planned(PhysicalPlan::Fa, 0.0), n, m, 99, k);
            for config in [
                EngineConfig::DEFAULT,
                EngineConfig { batch_size: 1 },
                EngineConfig { batch_size: 1000 },
            ] {
                let engine = Engine::new(config);
                let got = engine.run(&request(n, m, 99, k)).unwrap();
                assert_eq!(got.answers, reference.answers, "{config:?}");
                assert_eq!(got.stats.sorted, reference.stats.sorted, "{config:?}");
                assert_eq!(got.stats.random, reference.stats.random, "{config:?}");
            }
        }
    }

    /// A probe algorithm: pulls `pulls` items from the first stream,
    /// rewinds it, and answers with the item that comes next.
    struct RewindAfter {
        pulls: usize,
    }

    impl TopKAlgorithm for RewindAfter {
        fn name(&self) -> &'static str {
            "rewind-after"
        }
        fn evaluate(
            &self,
            sources: &mut [&mut dyn Subsystem],
            _: &dyn fmdb_core::scoring::ScoringFunction,
            _: usize,
        ) -> Result<TopKResult, AlgoError> {
            let first = &mut sources[0];
            for _ in 0..self.pulls {
                first.sorted_next().unwrap();
            }
            first.rewind();
            Ok(TopKResult {
                answers: first.sorted_next().unwrap().into_iter().collect(),
                stats: AccessStats::default(),
            })
        }
    }

    /// A mid-run rewind must reach the subsystem wherever the proxy's
    /// buffer stands — also right after a batch was consumed to its
    /// last item, when the buffer is empty but the subsystem's cursor
    /// sits one batch down the list.
    #[test]
    fn proxy_rewind_reaches_the_subsystem_after_an_exactly_consumed_batch() {
        let batch_size = 8;
        let engine = Engine::new(EngineConfig { batch_size });
        let top = GradedSource::sorted_next(&mut independent_uniform(100, 1, 5).remove(0));
        for pulls in 0..=2 * batch_size {
            let got = engine
                .run_algorithm(&RewindAfter { pulls }, &request(100, 1, 5, 1))
                .unwrap();
            assert_eq!(got.answers.first().copied(), top, "after {pulls} pulls");
        }
    }

    #[test]
    fn engine_results_verify_against_the_oracle() {
        let engine = Engine::default();
        let result = engine.run(&request(400, 3, 7, 12)).unwrap();
        let mut sources = independent_uniform(400, 3, 7);
        let mut refs: Vec<&mut dyn GradedSource> = sources
            .iter_mut()
            .map(|s| s as &mut dyn GradedSource)
            .collect();
        verify_top_k(&mut refs, &Min, &result.answers, 12).unwrap();
    }

    /// A₀'s phase 2 reaches a store behind the engine as one batch per
    /// list, so a cold pool far smaller than the file reads each probed
    /// page once — hole by hole, in sighting order, it thrashes.
    #[test]
    fn engine_fa_reads_each_probed_page_once() {
        use crate::store::{build_store_from_source, BuildConfig, PagedStore, StoreOptions};
        let (n, k) = (1 << 14, 10);
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/store-tests");
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        let paths: Vec<_> = independent_uniform(n, 2, 31)
            .iter_mut()
            .zip(0..)
            .map(|(list, i)| {
                let path = dir.join(format!("engine-fa-{i}.fmdb"));
                build_store_from_source(&path, list, &BuildConfig::DEFAULT).expect("build");
                path
            })
            .collect();
        // Fresh stores, so every run starts from a cold pool of 8
        // frames over a file of well over a hundred pages.
        let cold = || {
            paths.iter().map(|path| {
                let store = PagedStore::open(path, StoreOptions::with_pool_pages(8)).expect("open");
                assert!(store.header().total_pages() > 100);
                store.source()
            })
        };

        let mut lists: Vec<_> = cold().collect();
        let mut refs: Vec<&mut dyn GradedSource> = lists
            .iter_mut()
            .map(|s| s as &mut dyn GradedSource)
            .collect();
        let scalar = Planned(PhysicalPlan::Fa, 0.0)
            .top_k(&mut refs, &Min, k)
            .unwrap();
        let scalar_reads: u64 = lists
            .iter()
            .map(|s| s.page_io().expect("paged").reads)
            .sum();

        let mut query = TopKQuery::compose();
        for list in cold() {
            query = query.source(list);
        }
        let request = query.scoring(Min).k(k).request().unwrap();
        let engine = Engine::default()
            .run_algorithm(&Planned(PhysicalPlan::Fa, 0.0), &request)
            .unwrap();
        assert_eq!(engine.answers, scalar.answers);
        assert_eq!(engine.stats.sorted, scalar.stats.sorted);
        assert_eq!(engine.stats.random, scalar.stats.random);
        // A sorted page holds more entries than a batch, so fetching
        // ahead by at most one batch turns at most one page per list.
        assert!(
            engine.stats.page_reads <= scalar_reads + lists.len() as u64,
            "engine read {} pages, scalar {scalar_reads}, for {} probes",
            engine.stats.page_reads,
            scalar.stats.random
        );
        assert!(scalar_reads * 2 < scalar.stats.random, "fixture must batch");
    }

    /// Requests whose cursors share two stores, each with a pool of
    /// four frames, run through `run_many` and from two client threads:
    /// every answer and charge is the one the request gets alone.
    #[test]
    fn cursors_on_one_pool_answer_as_if_alone() {
        use crate::store::{build_store_from_source, BuildConfig, PagedStore, StoreOptions};
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/store-tests");
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        let paths: Vec<_> = independent_uniform(4096, 2, 43)
            .iter_mut()
            .zip(0..)
            .map(|(list, i)| {
                let path = dir.join(format!("shared-pool-{i}.fmdb"));
                build_store_from_source(&path, list, &BuildConfig::DEFAULT).expect("build");
                path
            })
            .collect();
        let open = |pool_pages| -> Vec<PagedStore> {
            let options = StoreOptions::with_pool_pages(pool_pages);
            paths
                .iter()
                .map(|path| PagedStore::open(path, options).expect("open"))
                .collect()
        };
        let requests = |stores: &[PagedStore]| -> Vec<TopKRequest> {
            [
                PhysicalPlan::Fa,
                PhysicalPlan::Ta,
                PhysicalPlan::Nra,
                PhysicalPlan::Ca { h: 1 },
            ]
            .into_iter()
            .flat_map(|plan| {
                [[0, 1], [1, 0]].map(|order| {
                    let query = order.iter().fold(TopKQuery::compose(), |query, &i| {
                        query.source(stores[i].source())
                    });
                    let policy = ExecPolicy::new().plan(plan);
                    query.scoring(Min).k(10).policy(policy).request().unwrap()
                })
            })
            .collect()
        };
        let outcome = |result: Result<TopKResult, EngineError>| {
            let result = result.unwrap();
            (result.answers, result.stats.sorted, result.stats.random)
        };
        let engine = Engine::default();

        // One request at a time, over pools that hold a whole file:
        // each page the batch touches is read once.
        let roomy = open(1 << 10);
        let serial: Vec<_> = requests(&roomy)
            .iter()
            .map(|r| outcome(engine.run(r)))
            .collect();

        let stores = open(4);
        let shared = requests(&stores);
        let many: Vec<_> = engine.run_many(&shared).into_iter().map(outcome).collect();
        assert_eq!(many, serial, "run_many");
        // The clients start together, one from each end of the batch.
        let start = std::sync::Barrier::new(2);
        let client = |order: &mut dyn Iterator<Item = &TopKRequest>| {
            start.wait();
            order.map(|r| outcome(engine.run(r))).collect::<Vec<_>>()
        };
        #[expect(
            clippy::disallowed_methods,
            reason = "two client threads sharing one pool are what this test is about"
        )]
        let (forward, mut backward) = std::thread::scope(|scope| {
            let forward = scope.spawn(|| client(&mut shared.iter()));
            let backward = scope.spawn(|| client(&mut shared.iter().rev()));
            (
                forward.join().expect("client thread"),
                backward.join().expect("client thread"),
            )
        });
        backward.reverse();
        assert_eq!(forward, serial, "thread A");
        assert_eq!(backward, serial, "thread B");

        drop(shared);
        let every_oid: Vec<Oid> = (0..4096).collect();
        for (store, alone) in stores.iter().zip(&roomy) {
            let (reads, touched) = (store.page_io().reads, alone.page_io().reads);
            assert!(
                reads >= touched,
                "{reads} reads of {touched} distinct pages"
            );
            // Pins dropped with the cursors give their frames back at
            // the next miss: probing every oid makes some.
            Subsystem::random_batch(&mut store.source(), &every_oid).unwrap();
            assert!(store.resident_pages() <= 4, "{}", store.resident_pages());
        }
    }

    #[test]
    fn other_merge_strategies_run_through_the_engine() {
        for plan in [PhysicalPlan::FullScan, PhysicalPlan::Ta] {
            let reference = scalar(&Planned(plan, 0.0), 250, 3, 5, 9);
            let engine = Engine::default();
            let query = request(250, 3, 5, 9).query().clone();
            let got = engine
                .run(&query.into_request(ExecPolicy::new().plan(plan)))
                .unwrap();
            assert_eq!(got.answers, reference.answers, "{plan}");
            assert_eq!(got.stats.sorted, reference.stats.sorted);
            assert_eq!(got.stats.random, reference.stats.random);
        }
    }

    #[test]
    fn run_many_serves_concurrent_requests() {
        let engine = Engine::default();
        let requests: Vec<TopKRequest> = (0..6).map(|i| request(300, 2, i as u64, 1 + i)).collect();
        let results = engine.run_many(&requests);
        assert_eq!(results.len(), 6);
        for (i, result) in results.into_iter().enumerate() {
            let reference = scalar(&Planned(PhysicalPlan::Fa, 0.0), 300, 2, i as u64, 1 + i);
            assert_eq!(result.unwrap().answers, reference.answers, "request {i}");
        }
    }

    #[derive(Debug)]
    struct NotMonotone;
    impl fmdb_core::scoring::ScoringFunction for NotMonotone {
        fn name(&self) -> String {
            "not-monotone".into()
        }
        fn combine(&self, grades: &[Score]) -> Score {
            grades.first().copied().unwrap_or(Score::ZERO)
        }
        fn is_strict(&self) -> bool {
            false
        }
        fn is_monotone(&self) -> bool {
            false
        }
    }

    #[test]
    fn engine_propagates_validation_errors() {
        let engine = Engine::default();
        let non_monotone = TopKQuery::compose()
            .sources(independent_uniform(50, 2, 1))
            .scoring(NotMonotone)
            .k(3)
            .request()
            .unwrap();
        assert!(matches!(
            engine.run(&non_monotone),
            Err(EngineError::Algo(AlgoError::NonMonotoneScoring(_)))
        ));
    }

    /// A subsystem that serves a few batches, then panics mid-stream.
    #[derive(Debug)]
    struct ExplodingSource {
        inner: crate::source::VecSource,
        served: usize,
        fuse: usize,
    }

    impl Subsystem for ExplodingSource {
        fn sorted_batch(&mut self, n: usize) -> Result<Vec<ScoredObject<Oid>>, SourceError> {
            let items = Subsystem::sorted_batch(&mut self.inner, n)?;
            for _ in &items {
                assert!(self.served < self.fuse, "subsystem exploded mid-stream");
                self.served += 1;
            }
            Ok(items)
        }
        fn random_batch(&mut self, oids: &[Oid]) -> Result<Vec<Score>, SourceError> {
            Subsystem::random_batch(&mut self.inner, oids)
        }
        fn rewind(&mut self) {
            Subsystem::rewind(&mut self.inner);
        }
        fn info(&self) -> SourceInfo {
            Subsystem::info(&self.inner)
        }
    }

    #[test]
    fn worker_panic_fails_the_request_not_the_process() {
        let mut sources = independent_uniform(400, 2, 21);
        let healthy = sources.pop().expect("workload has two sources");
        let exploding = ExplodingSource {
            inner: sources.pop().expect("workload has two sources"),
            served: 0,
            fuse: 5,
        };
        let label = Subsystem::info(&exploding).label;
        let bad = TopKQuery::compose()
            .source(exploding)
            .source(healthy)
            .scoring(Min)
            .k(50)
            .request()
            .unwrap();
        let engine = Engine::default();
        match engine.run(&bad) {
            Err(EngineError::WorkerPanicked { stream, message }) => {
                assert_eq!(stream, label, "names the stream that exploded");
                assert!(message.contains("exploded"), "got: {message}");
            }
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
        // The engine survives and keeps serving healthy requests.
        let ok = engine.run(&request(300, 2, 1, 5)).unwrap();
        assert_eq!(ok.answers.len(), 5);
    }

    /// A panic raised with no subsystem call in flight (here: by the
    /// scoring function) is contained too, and names the algorithm.
    #[test]
    fn panic_in_the_kernel_itself_names_the_algorithm() {
        #[derive(Debug)]
        struct ExplodingScore;
        impl fmdb_core::scoring::ScoringFunction for ExplodingScore {
            fn name(&self) -> String {
                "exploding".into()
            }
            fn combine(&self, _: &[Score]) -> Score {
                panic!("scoring exploded")
            }
            fn is_strict(&self) -> bool {
                true
            }
        }
        let bad = TopKQuery::compose()
            .sources(independent_uniform(50, 2, 1))
            .scoring(ExplodingScore)
            .k(3)
            .policy(ExecPolicy::new().plan(PhysicalPlan::Ta))
            .request()
            .unwrap();
        match Engine::default().run(&bad) {
            Err(EngineError::WorkerPanicked { stream, message }) => {
                assert_eq!(stream, "threshold-ta");
                assert!(message.contains("scoring exploded"), "got: {message}");
            }
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
    }

    #[test]
    fn run_many_contains_panicking_requests() {
        let mut sources = independent_uniform(200, 2, 33);
        let healthy = sources.pop().expect("workload has two sources");
        let exploding = ExplodingSource {
            inner: sources.pop().expect("workload has two sources"),
            served: 0,
            fuse: 3,
        };
        let bad = TopKQuery::compose()
            .source(exploding)
            .source(healthy)
            .scoring(Min)
            .k(40)
            .request()
            .unwrap();
        let good = request(150, 2, 2, 4);
        let results = Engine::default().run_many(&[bad, good]);
        assert!(matches!(
            results[0],
            Err(EngineError::WorkerPanicked { .. })
        ));
        assert_eq!(results[1].as_ref().unwrap().answers.len(), 4);
    }

    #[test]
    fn access_totals_accumulate_across_requests() {
        let engine = Engine::default();
        let first = engine.run(&request(200, 2, 3, 4)).unwrap();
        let after_first = engine.access_totals();
        assert_eq!(after_first.sorted, first.stats.sorted);
        assert_eq!(after_first.random, first.stats.random);
        assert_eq!(after_first.worker_spawns, first.stats.worker_spawns);
        let second = engine.run(&request(250, 3, 4, 6)).unwrap();
        let after_second = engine.access_totals();
        assert_eq!(
            after_second.sorted,
            first.stats.sorted + second.stats.sorted
        );
        assert_eq!(
            after_second.random,
            first.stats.random + second.stats.random
        );
    }

    #[test]
    fn a_single_request_runs_on_the_callers_thread() {
        let engine = Engine::default();
        let result = engine.run(&request(200, 3, 9, 5)).unwrap();
        assert_eq!(result.stats.worker_spawns, 0);
        let result = engine
            .run_algorithm(&Planned(PhysicalPlan::Ta, 0.0), &request(200, 3, 9, 5))
            .unwrap();
        assert_eq!(result.stats.worker_spawns, 0);
        assert_eq!(engine.access_totals().worker_spawns, 0);
    }

    #[test]
    fn run_many_reuses_a_bounded_worker_pool() {
        // Total spawns must equal the pool size less the caller, not the
        // batch size.
        let engine = Engine::default();
        let requests: Vec<TopKRequest> = (0..12).map(|i| request(120, 2, i as u64, 3)).collect();
        let results = engine.run_many(&requests);
        let spawns: u64 = results
            .iter()
            .map(|r| r.as_ref().map(|x| x.stats.worker_spawns).unwrap_or(0))
            .sum();
        let pool = thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(requests.len()) as u64;
        let spawned = pool - 1;
        assert_eq!(
            spawns, spawned,
            "one charge per spawned worker, not per request"
        );
        assert_eq!(engine.access_totals().worker_spawns, spawned);
    }

    /// One plan table: `explain` and `resolve` read
    /// [`ExecPolicy::resolve`]. The sources hide their histograms, so a
    /// policy naming no plan takes the documented static fallback — the
    /// one case where the planner's choice and the policy's stats-free
    /// plan must coincide.
    #[test]
    fn explain_and_resolve_follow_the_policy_plan() {
        let ratio10 = CostModel::random_to_sorted_ratio(10.0).unwrap();
        // (plan, [exact/uniform, exact/10, θ/uniform, θ/10]); "" = rejected.
        let names: [(Option<PhysicalPlan>, [&str; 4]); 5] = [
            (
                None,
                ["threshold-ta", "nra-lower-bound", "approx-ta", "approx-nra"],
            ),
            (Some(PhysicalPlan::Fa), ["fagin-a0", "fagin-a0", "", ""]),
            (
                Some(PhysicalPlan::Ta),
                ["threshold-ta", "threshold-ta", "approx-ta", "approx-ta"],
            ),
            (
                Some(PhysicalPlan::Nra),
                [
                    "nra-lower-bound",
                    "nra-lower-bound",
                    "approx-nra",
                    "approx-nra",
                ],
            ),
            (Some(PhysicalPlan::Ca { h: 1 }), ["combined-ca"; 4]),
        ];
        let engine = Engine::default();
        for (named, want) in names {
            for (cell, want) in want.into_iter().enumerate() {
                let mut policy = ExecPolicy {
                    plan: named,
                    ..ExecPolicy::new()
                };
                if cell % 2 == 1 {
                    policy = policy.cost_model(ratio10);
                }
                if cell >= 2 {
                    policy = policy.theta(0.1);
                }
                let mut query = TopKQuery::compose();
                for inner in independent_uniform(300, 2, 3) {
                    query = query.source(ExplodingSource {
                        inner,
                        served: 0,
                        fuse: usize::MAX,
                    });
                }
                let req = query.scoring(Min).k(5).policy(policy).request().unwrap();
                if want.is_empty() {
                    assert!(policy.resolve().is_err(), "{policy:?}");
                    assert!(engine.explain(&req).is_err(), "{policy:?}");
                    assert!(engine.run(&req).is_err(), "{policy:?}");
                    continue;
                }
                let plan = policy.resolve().unwrap();
                assert_eq!(plan.name(), want, "{policy:?}");
                if let PhysicalPlan::Ca { h } = plan {
                    assert_eq!(h, policy.interleave(), "{policy:?}");
                }
                assert_eq!(engine.explain(&req).unwrap().chosen, plan, "{policy:?}");
                let resolved = engine
                    .resolve(&req, &narrow(&mut lock_all(req.sources())))
                    .unwrap();
                assert_eq!(resolved, plan, "{policy:?}");
            }
        }
    }

    /// One rule for a named plan under θ, at every door: the policy
    /// resolves to what the table says runs, the engine runs it, and
    /// the plan's cursor — whose first batch is the engine's run — is
    /// refused exactly where the engine is.
    #[test]
    fn every_door_applies_the_plans_rule_for_theta() {
        use fmdb_core::scoring::conorms::Max;
        use fmdb_core::scoring::ConormScoring;
        use PhysicalPlan as P;

        // (named, what runs under θ = 0.25). θ = 0 runs the named plan;
        // θ = −1 and NaN run nothing.
        let table = [
            (P::Fa, None),
            (P::Ta, Some(P::ApproxTa)),
            (P::Nra, Some(P::ApproxNra)),
            (P::Ca { h: 1 }, Some(P::Ca { h: 1 })),
            (P::ApproxTa, Some(P::ApproxTa)),
            (P::ApproxNra, Some(P::ApproxNra)),
            (P::CrispFilter, Some(P::CrispFilter)),
            (P::MaxMerge, Some(P::MaxMerge)),
            (P::FullScan, Some(P::FullScan)),
        ];
        let engine = Engine::default();
        for (named, approximate) in table {
            for theta in [0.0, 0.25, -1.0, f64::NAN] {
                let want = if theta > 0.0 {
                    approximate
                } else {
                    (theta == 0.0).then_some(named)
                };
                let at = format!("{named} under θ = {theta}");
                let policy = ExecPolicy::new().plan(named).theta(theta);
                assert_eq!(policy.resolve().ok(), want, "{at}");

                let query = TopKQuery::compose().sources(independent_uniform(200, 2, 5));
                let query = if named == P::MaxMerge {
                    query.scoring(ConormScoring(Max))
                } else {
                    query.scoring(Min)
                };
                let request = query.k(5).policy(policy).request().unwrap();
                let ran = engine.run(&request);
                let cursor = Cursor::new(named, theta);
                let runs = want.filter(|&plan| plan != P::CrispFilter);
                assert_eq!(ran.is_ok(), runs.is_some(), "{at}: {ran:?}");
                assert_eq!(cursor.is_ok(), runs.is_some(), "{at}: {cursor:?}");
                let (Ok(ran), Ok(mut cursor)) = (ran, cursor) else {
                    continue;
                };
                let mut lists = independent_uniform(200, 2, 5);
                let mut refs: Vec<&mut dyn Subsystem> =
                    lists.iter_mut().map(|s| s as &mut dyn Subsystem).collect();
                let first = cursor.next_k(&mut refs, &*request.scoring(), 5).unwrap();
                assert_eq!(ran, first, "{at}");
                assert_eq!(
                    engine.explain(&request).unwrap().chosen,
                    want.unwrap(),
                    "{at}"
                );
            }
        }
    }

    /// `Engine::run` resolves the policy's algorithm: CA and the
    /// θ-approximations are reachable without naming an algorithm value.
    #[test]
    fn policy_algorithms_run_through_the_engine() {
        let engine = Engine::default();
        let query = request(400, 2, 23, 10).query().clone();

        let ca = query.clone().into_request(
            ExecPolicy::new()
                .plan(PhysicalPlan::Ca { h: 1 })
                .cost_model(CostModel::random_to_sorted_ratio(10.0).unwrap()),
        );
        let exact = engine.run(&ca).unwrap();
        let mut check = independent_uniform(400, 2, 23);
        let mut refs: Vec<&mut dyn GradedSource> = check
            .iter_mut()
            .map(|s| s as &mut dyn GradedSource)
            .collect();
        verify_top_k(&mut refs, &Min, &exact.answers, 10).unwrap();

        let approx = query.into_request(ExecPolicy::new().theta(0.1));
        let relaxed = engine.run(&approx).unwrap();
        assert_eq!(relaxed.answers.len(), 10);
        assert!(
            relaxed.stats.database_access_cost() <= exact.stats.database_access_cost() * 4,
            "θ-approximation stayed in the same cost regime"
        );
    }
}
