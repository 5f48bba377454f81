//! The top-k request: *what* to compute ([`TopKQuery`]) paired with
//! *how* to compute it ([`ExecPolicy`]).
//!
//! Historically each evaluation strategy had its own ad-hoc signature
//! (one `top_k` per algorithm struct, NRA's own `evaluate`, …), so
//! neither the Garlic planner nor a service layer could drive them
//! uniformly. The first unification was a single monolithic
//! `TopKRequest` builder; it left no room for algorithm choice, cost
//! models, or approximation, so the API is now split:
//!
//! * [`TopKQuery`] — graded sources, a scoring function, `k`, and
//!   optional Fagin–Wimmers weights. Built with [`TopKQuery::compose`].
//! * [`ExecPolicy`] — the plan, [`crate::stats::CostModel`], θ-slack.
//!   Built with [`ExecPolicy::new`].
//! * [`TopKRequest`] — the pair, accepted by every algorithm and by
//!   the batched [`crate::engine::Engine`].
//!
//! ```
//! use fmdb_core::scoring::tnorms::Min;
//! use fmdb_middleware::planner::PhysicalPlan;
//! use fmdb_middleware::policy::ExecPolicy;
//! use fmdb_middleware::request::TopKQuery;
//! use fmdb_middleware::workload::independent_uniform;
//!
//! let request = TopKQuery::compose()
//!     .sources(independent_uniform(100, 2, 7))
//!     .scoring(Min)
//!     .k(5)
//!     .policy(ExecPolicy::new().plan(PhysicalPlan::Ta))
//!     .request()
//!     .unwrap();
//! assert_eq!(request.k(), 5);
//! ```
//!
//! Sources are held as [`SharedSource`] (`Arc<Mutex<…>>`) so that
//! [`crate::engine::Engine::run_many`]'s pool can hand requests to its
//! workers by reference and requests may share a handle
//! ([`TopKQueryBuilder::shared_source`]). A run holds every handle of
//! its request from start to end: the engine and
//! [`TopKQuery::with_sources`] lock them once, in one order, and the
//! kernel drives the locked sources from a single thread. So a handle may
//! appear once per query, and concurrent requests that share a handle
//! run one after the other — the only correct schedule for a single
//! cursor.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use fmdb_core::scoring::ScoringFunction;
use fmdb_core::weights::{Weighted, Weighting};

use crate::algorithms::AlgoError;
use crate::policy::ExecPolicy;
use crate::source::{GradedSource, Subsystem};

/// A shareable, lockable handle to one graded source. Its type names
/// the trait perfbench spells ([`crate::frozen`]); every [`Subsystem`]
/// is one, and the engine reads it as the subsystem it is.
pub type SharedSource = Arc<Mutex<dyn GradedSource + Send>>;

/// A shareable scoring function.
pub type SharedScoring = Arc<dyn ScoringFunction + Send + Sync>;

/// One locked [`SharedSource`], held for the length of a run.
pub(crate) type SourceGuard<'a> = MutexGuard<'a, dyn GradedSource + Send + 'static>;

/// Locks every handle of one request and returns the guards in
/// conjunct order — the one place a [`SharedSource`] is locked. Handles
/// are locked in address order, so two runs over overlapping handles
/// cannot deadlock; a handle named twice would deadlock on itself,
/// which is why [`TopKQueryBuilder::build`] refuses one. A handle
/// poisoned by an earlier run's panic is taken as it stands: that run
/// failed, the source did not.
pub(crate) fn lock_all(sources: &[SharedSource]) -> Vec<SourceGuard<'_>> {
    let mut by_address: Vec<(usize, &SharedSource)> = sources.iter().enumerate().collect();
    by_address.sort_unstable_by_key(|(_, handle)| Arc::as_ptr(handle).cast::<()>());
    let mut guards: Vec<(usize, SourceGuard<'_>)> = by_address
        .into_iter()
        .map(|(i, handle)| (i, handle.lock().unwrap_or_else(PoisonError::into_inner)))
        .collect();
    guards.sort_unstable_by_key(|(i, _)| *i);
    guards.into_iter().map(|(_, guard)| guard).collect()
}

/// Wraps a concrete source into a [`SharedSource`] handle (any
/// [`Subsystem`] that is `Send + 'static`).
pub fn shared_source(source: impl GradedSource + Send + 'static) -> SharedSource {
    Arc::new(Mutex::new(source))
}

/// One fully-specified top-k *query*: `m` graded sources, the scoring
/// function combining their grades, how many answers, and optional
/// subquery weights. Execution knobs live in [`ExecPolicy`], not here.
///
/// Build with [`TopKQuery::compose`]. When weights are present the
/// scoring function exposed by [`TopKQuery::scoring`] is already the
/// Fagin–Wimmers weighted combination (§5), so algorithms need no
/// weight-awareness of their own.
#[derive(Clone)]
pub struct TopKQuery {
    sources: Vec<SharedSource>,
    scoring: SharedScoring,
    k: usize,
    weights: Option<Weighting>,
}

impl std::fmt::Debug for TopKQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TopKQuery")
            .field("sources", &self.sources.len())
            .field("scoring", &self.scoring.name())
            .field("k", &self.k())
            .field("weights", &self.weights().map(Weighting::weights))
            .finish()
    }
}

impl TopKQuery {
    /// Starts composing a query.
    pub fn compose() -> TopKQueryBuilder {
        TopKQueryBuilder::default()
    }

    /// The source handles, in conjunct order.
    pub fn sources(&self) -> &[SharedSource] {
        &self.sources
    }

    /// The number of conjuncts `m`.
    pub fn arity(&self) -> usize {
        self.sources.len()
    }

    /// How many answers are requested.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The normalized subquery weights, if the query is weighted.
    pub fn weights(&self) -> Option<&Weighting> {
        self.weights.as_ref().filter(|w| !w.is_uniform())
    }

    /// The effective scoring function: the one supplied to the
    /// builder, wrapped in the Fagin–Wimmers weighting when weights
    /// were given.
    pub fn scoring(&self) -> SharedScoring {
        Arc::clone(&self.scoring)
    }

    /// Locks every source for the length of `f` and hands it the scalar
    /// view `&mut [&mut dyn GradedSource]` — the bridge from the shared,
    /// thread-safe representation to the paper's sequential access
    /// model, in the old trait's form ([`crate::frozen`]).
    pub fn with_sources<R>(&self, f: impl FnOnce(&mut [&mut dyn GradedSource]) -> R) -> R {
        let mut guards = lock_all(&self.sources);
        let mut refs: Vec<&mut dyn GradedSource> = guards
            .iter_mut()
            .map(|g| &mut **g as &mut dyn GradedSource)
            .collect();
        f(&mut refs)
    }

    /// Pairs the query with an execution policy.
    pub fn into_request(self, policy: ExecPolicy) -> TopKRequest {
        TopKRequest {
            query: self,
            policy,
        }
    }
}

/// A [`TopKQuery`] paired with the [`ExecPolicy`] that should evaluate
/// it — the unit every algorithm and the engine accept.
///
/// The query accessors (`sources`, `k`, `scoring`, …) are delegated so
/// algorithm code reads the same as before the split.
#[derive(Clone)]
pub struct TopKRequest {
    query: TopKQuery,
    policy: ExecPolicy,
}

impl std::fmt::Debug for TopKRequest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TopKRequest")
            .field("query", &self.query)
            .field("policy", &self.policy)
            .finish()
    }
}

impl From<TopKQuery> for TopKRequest {
    /// Pairs the query with the default policy (`Auto`, uniform costs,
    /// exact).
    fn from(query: TopKQuery) -> TopKRequest {
        query.into_request(ExecPolicy::DEFAULT)
    }
}

impl TopKRequest {
    /// Pairs a composed query with an execution policy.
    pub fn new(query: TopKQuery, policy: ExecPolicy) -> TopKRequest {
        query.into_request(policy)
    }

    /// The query half: what to compute.
    pub fn query(&self) -> &TopKQuery {
        &self.query
    }

    /// The policy half: how to compute it.
    pub fn policy(&self) -> &ExecPolicy {
        &self.policy
    }

    /// The source handles, in conjunct order.
    pub fn sources(&self) -> &[SharedSource] {
        self.query.sources()
    }

    /// The number of conjuncts `m`.
    pub fn arity(&self) -> usize {
        self.query.arity()
    }

    /// How many answers are requested.
    pub fn k(&self) -> usize {
        self.query.k()
    }

    /// The normalized subquery weights, if the query is weighted.
    pub fn weights(&self) -> Option<&Weighting> {
        self.query.weights()
    }

    /// The effective scoring function (weight-wrapped when weighted).
    pub fn scoring(&self) -> SharedScoring {
        self.query.scoring()
    }

    /// Locks every source and hands the scalar view to `f`; see
    /// [`TopKQuery::with_sources`].
    pub fn with_sources<R>(&self, f: impl FnOnce(&mut [&mut dyn GradedSource]) -> R) -> R {
        self.query.with_sources(f)
    }
}

/// Builder for [`TopKQuery`]; see [`TopKQuery::compose`].
#[derive(Default)]
pub struct TopKQueryBuilder {
    sources: Vec<SharedSource>,
    scoring: Option<SharedScoring>,
    k: usize,
    weights: Option<Vec<f64>>,
    policy: Option<ExecPolicy>,
}

// The shared sources/scoring are `dyn` trait objects without a `Debug`
// bound; a shape summary satisfies `missing_debug_implementations`.
impl std::fmt::Debug for TopKQueryBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TopKQueryBuilder")
            .field("sources", &self.sources.len())
            .field("has_scoring", &self.scoring.is_some())
            .field("k", &self.k)
            .field("weights", &self.weights)
            .field("policy", &self.policy)
            .finish()
    }
}

impl TopKQueryBuilder {
    /// Appends one owned source as the next conjunct.
    pub fn source(mut self, source: impl Subsystem + Send + 'static) -> Self {
        self.sources.push(shared_source(source));
        self
    }

    /// Appends an already-shared source handle (e.g. one also held by
    /// another concurrent request). A handle may appear once per query
    /// — [`TopKQueryBuilder::build`] refuses a second conjunct on it —
    /// and requests sharing one run one after the other, since each run
    /// holds its handles from start to end.
    pub fn shared_source(mut self, source: SharedSource) -> Self {
        self.sources.push(source);
        self
    }

    /// Appends every source of an iterator.
    pub fn sources<S: Subsystem + Send + 'static>(
        mut self,
        sources: impl IntoIterator<Item = S>,
    ) -> Self {
        self.sources.extend(
            sources
                .into_iter()
                .map(|s| shared_source(s) as SharedSource),
        );
        self
    }

    /// Sets the scoring function combining conjunct grades.
    pub fn scoring(mut self, scoring: impl ScoringFunction + Send + Sync + 'static) -> Self {
        self.scoring = Some(Arc::new(scoring));
        self
    }

    /// Sets an already-shared scoring function.
    pub fn shared_scoring(mut self, scoring: SharedScoring) -> Self {
        self.scoring = Some(scoring);
        self
    }

    /// Sets how many answers to return.
    pub fn k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Weights the conjuncts' importance (arbitrary nonnegative
    /// ratios; normalized at build time). One weight per source.
    pub fn weights(mut self, ratios: &[f64]) -> Self {
        self.weights = Some(ratios.to_vec());
        self
    }

    /// Sets the execution policy [`TopKQueryBuilder::request`] will
    /// attach (ignored by [`TopKQueryBuilder::build`], which yields
    /// the bare query).
    pub fn policy(mut self, policy: ExecPolicy) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Validates and assembles the query.
    pub fn build(self) -> Result<TopKQuery, AlgoError> {
        if self.sources.is_empty() {
            return Err(AlgoError::NoSources);
        }
        if self.k == 0 {
            return Err(AlgoError::ZeroK);
        }
        let weights = self
            .weights
            .map(|ratios| Weighting::from_ratios(&ratios))
            .transpose()
            .map_err(|w| AlgoError::InvalidRequest(format!("invalid weights: {w}")))?;
        // An unweighted query fits any arity; a weighted one only its own.
        if let Some(w) = weights.as_ref().filter(|w| w.arity() != self.sources.len()) {
            return Err(AlgoError::InvalidRequest(format!(
                "{} weights for {} sources",
                w.arity(),
                self.sources.len()
            )));
        }
        // Two conjuncts on one handle would share one cursor, and a run
        // locking both would wait on itself.
        let sources = &self.sources;
        if (1..sources.len()).any(|i| sources[..i].iter().any(|s| Arc::ptr_eq(s, &sources[i]))) {
            return Err(AlgoError::InvalidRequest(
                "a source handle is named by two conjuncts".to_owned(),
            ));
        }
        let base = self
            .scoring
            .ok_or_else(|| AlgoError::InvalidRequest("no scoring function supplied".to_owned()))?;
        let scoring = match &weights {
            // Uniform weights are the unweighted rule (property D1) —
            // skip the wrapper so counts and grades match the plain
            // scoring exactly.
            Some(w) if !w.is_uniform() => Arc::new(Weighted::new(base, w.clone())) as SharedScoring,
            _ => base,
        };
        Ok(TopKQuery {
            sources: self.sources,
            scoring,
            k: self.k,
            weights,
        })
    }

    /// Validates the query and pairs it with the policy set via
    /// [`TopKQueryBuilder::policy`] (default policy when unset).
    pub fn request(self) -> Result<TopKRequest, AlgoError> {
        let policy = self.policy.unwrap_or(ExecPolicy::DEFAULT);
        Ok(self.build()?.into_request(policy))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::PhysicalPlan;
    use crate::source::VecSource;
    use fmdb_core::score::Score;
    use fmdb_core::scoring::tnorms::Min;

    fn s(v: f64) -> Score {
        Score::clamped(v)
    }

    fn src(grades: &[f64]) -> VecSource {
        let scores: Vec<Score> = grades.iter().map(|&g| s(g)).collect();
        VecSource::from_dense("t", &scores)
    }

    #[test]
    fn compose_assembles_a_query() {
        let query = TopKQuery::compose()
            .source(src(&[0.1, 0.9]))
            .source(src(&[0.8, 0.2]))
            .scoring(Min)
            .k(2)
            .build()
            .unwrap();
        assert_eq!(query.arity(), 2);
        assert_eq!(query.k(), 2);
        assert!(query.weights().is_none());
        assert_eq!(query.scoring().name(), "min");
    }

    #[test]
    fn request_pairs_query_and_policy() {
        let req = TopKQuery::compose()
            .source(src(&[0.1, 0.9]))
            .scoring(Min)
            .k(1)
            .policy(ExecPolicy::new().plan(PhysicalPlan::Ta).theta(0.25))
            .request()
            .unwrap();
        assert_eq!(req.policy().plan, Some(PhysicalPlan::Ta));
        assert_eq!(req.policy().theta, 0.25);
        assert_eq!(req.query().k(), 1);
        // Without an explicit policy the default rides along.
        let plain: TopKRequest = TopKQuery::compose()
            .source(src(&[0.5]))
            .scoring(Min)
            .k(1)
            .build()
            .unwrap()
            .into();
        assert_eq!(*plain.policy(), ExecPolicy::DEFAULT);
    }

    #[test]
    fn compose_rejects_bad_queries() {
        assert!(matches!(
            TopKQuery::compose().scoring(Min).k(1).build(),
            Err(AlgoError::NoSources)
        ));
        assert!(matches!(
            TopKQuery::compose()
                .source(src(&[0.5]))
                .scoring(Min)
                .k(0)
                .build(),
            Err(AlgoError::ZeroK)
        ));
        assert!(matches!(
            TopKQuery::compose().source(src(&[0.5])).k(1).build(),
            Err(AlgoError::InvalidRequest(_))
        ));
        assert!(matches!(
            TopKQuery::compose()
                .source(src(&[0.5]))
                .scoring(Min)
                .k(1)
                .weights(&[0.5, 0.5])
                .build(),
            Err(AlgoError::InvalidRequest(_))
        ));
        // Bad weight vectors: negative, empty, all-zero.
        for bad in [&[-1.0][..], &[], &[0.0]] {
            assert!(matches!(
                TopKQuery::compose()
                    .source(src(&[0.5]))
                    .scoring(Min)
                    .k(1)
                    .weights(bad)
                    .build(),
                Err(AlgoError::InvalidRequest(_))
            ));
        }
        // A zero k is reported before anything about the weights.
        assert!(matches!(
            TopKQuery::compose()
                .source(src(&[0.5]))
                .scoring(Min)
                .k(0)
                .weights(&[])
                .build(),
            Err(AlgoError::ZeroK)
        ));
    }

    #[test]
    fn weighted_queries_wrap_the_scoring() {
        let query = TopKQuery::compose()
            .source(src(&[0.2, 0.9]))
            .source(src(&[0.9, 0.3]))
            .scoring(Min)
            .k(1)
            .weights(&[2.0, 1.0])
            .build()
            .unwrap();
        // Ratios are normalised to sum to 1.
        let w = query.weights().expect("skewed weights are kept");
        assert_eq!(w.arity(), 2);
        assert!((w.weights()[0] - 2.0 / 3.0).abs() < 1e-12);
        // Weighted-min of (1.0, 0.0) under θ=(2/3, 1/3): the formula
        // gives θ₁−θ₂ + 2θ₂·min = 1/3 ≠ plain min = 0.
        let g = query.scoring().combine(&[s(1.0), s(0.0)]);
        assert!(g.approx_eq(s(1.0 / 3.0), 1e-9), "{g}");
    }

    #[test]
    fn uniform_weights_degrade_to_plain_scoring() {
        let query = TopKQuery::compose()
            .source(src(&[0.2]))
            .source(src(&[0.9]))
            .scoring(Min)
            .k(1)
            .weights(&[1.0, 1.0])
            .build()
            .unwrap();
        // D1: uniform weighting IS the unweighted rule; the query
        // reports itself unweighted and uses the plain function.
        assert!(query.weights().is_none());
        assert_eq!(query.scoring().name(), "min");
    }

    #[test]
    fn with_sources_grants_scalar_access() {
        let query = TopKQuery::compose()
            .source(src(&[0.1, 0.9]))
            .scoring(Min)
            .k(1)
            .build()
            .unwrap();
        let first = query.with_sources(|refs| refs[0].sorted_next().unwrap());
        assert_eq!(first.id, 1);
        // The cursor advanced inside the shared handle.
        let second = query.with_sources(|refs| refs[0].sorted_next().unwrap());
        assert_eq!(second.id, 0);
    }

    #[test]
    fn a_handle_named_twice_is_refused() {
        let handle = shared_source(src(&[0.4, 0.6]));
        let twice = TopKQuery::compose()
            .shared_source(Arc::clone(&handle))
            .source(src(&[0.5, 0.5]))
            .shared_source(Arc::clone(&handle))
            .scoring(Min)
            .k(1)
            .build();
        assert!(
            matches!(&twice, Err(AlgoError::InvalidRequest(why)) if why.contains("two conjuncts")),
            "{twice:?}"
        );
        // Two handles on equal data are two sources.
        let once = TopKQuery::compose()
            .shared_source(handle)
            .source(src(&[0.4, 0.6]))
            .scoring(Min)
            .k(1)
            .build();
        assert!(once.is_ok());
    }

    #[test]
    fn lock_all_returns_the_guards_in_conjunct_order() {
        let handles: Vec<SharedSource> = (0..5)
            .map(|i| shared_source(VecSource::from_dense(format!("s{i}"), &[s(0.5)])))
            .collect();
        // Whatever order the handles' addresses fall in, the guards come
        // back in the order the conjuncts name them.
        for order in [[4, 3, 2, 1, 0], [2, 4, 0, 3, 1]] {
            let sources: Vec<SharedSource> =
                order.iter().map(|&i| Arc::clone(&handles[i])).collect();
            let labels: Vec<String> = lock_all(&sources).iter().map(|g| g.info().label).collect();
            let want: Vec<String> = order.iter().map(|i| format!("s{i}")).collect();
            assert_eq!(labels, want);
        }
    }

    #[test]
    fn shared_sources_can_serve_two_requests() {
        let handle = shared_source(src(&[0.4, 0.6]));
        let a = TopKQuery::compose()
            .shared_source(Arc::clone(&handle))
            .scoring(Min)
            .k(1)
            .build()
            .unwrap();
        let b = TopKQuery::compose()
            .shared_source(handle)
            .scoring(Min)
            .k(1)
            .build()
            .unwrap();
        a.with_sources(|refs| {
            let _ = refs[0].sorted_next();
        });
        // b sees the same underlying cursor — it is the same source.
        let next = b.with_sources(|refs| refs[0].sorted_next().unwrap());
        assert_eq!(next.id, 0);
    }
}
