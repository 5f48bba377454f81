//! The query executor: runs planner-chosen strategies against catalog
//! sources, metering every database access.

use std::collections::HashMap;
use std::fmt;

use fmdb_core::graded_set::GradedSet;
use fmdb_core::query::{Query, QueryError, ScoringHandle};
use fmdb_core::score::{Score, ScoredObject};
use fmdb_core::scoring::ScoringFunction;
use fmdb_middleware::algorithms::{AlgoError, Cursor};
use fmdb_middleware::engine::{Engine, EngineError};
use fmdb_middleware::policy::ExecPolicy;
use fmdb_middleware::request::TopKQuery;
use fmdb_middleware::source::{SourceError, Subsystem};
use fmdb_middleware::stats::{AccessStats, CostModel};

use crate::catalog::{Catalog, CatalogError};
use crate::object::{Oid, SubObjectIndex};
use crate::planner::{bind, optimize, plan_costed, BoundQuery, Plan, PlanKind};
use crate::repository::BoundSource;

/// Which top-k algorithm executes a query monotone in its leaves (the
/// override [`Garlic::top_k_with`] takes; used by the experiments).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AlgoChoice {
    /// Let the planner decide.
    #[default]
    Auto,
    /// Force plain A₀ ([`PlanKind::Fa`]).
    Fa,
    /// Force A₀ with pruned random access
    /// ([`PlanKind::PrunedFa`], short circuit on).
    PrunedFa,
    /// Force the Threshold Algorithm ([`PlanKind::Ta`]).
    Ta,
    /// Force the naive full drain, which grades every object under the
    /// compiled query ([`PlanKind::FullScan`]).
    Naive,
}

impl AlgoChoice {
    /// The plan the choice forces; `None` lets the planner choose.
    fn plan(self) -> Option<PlanKind> {
        match self {
            AlgoChoice::Auto => None,
            AlgoChoice::Fa => Some(PlanKind::Fa),
            AlgoChoice::PrunedFa => Some(PlanKind::PrunedFa {
                short_circuit: true,
            }),
            AlgoChoice::Ta => Some(PlanKind::Ta),
            AlgoChoice::Naive => Some(PlanKind::FullScan),
        }
    }
}

/// Error raised during execution.
#[derive(Debug)]
pub enum ExecError {
    /// Catalog/repository failure.
    Catalog(CatalogError),
    /// Algorithm-level failure, a subsystem's failed access included
    /// ([`AlgoError::Source`], whichever layer read the source).
    Algo(AlgoError),
    /// The query does not compile ([`Query::compile`]): an empty
    /// combination.
    Query(QueryError),
    /// A planner invariant was violated — a bug in the planner, not
    /// the query; reported instead of panicking the caller.
    Internal(&'static str),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Catalog(e) => write!(f, "{e}"),
            ExecError::Algo(e) => write!(f, "{e}"),
            ExecError::Query(e) => write!(f, "{e}"),
            ExecError::Internal(msg) => write!(f, "internal planner invariant violated: {msg}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<CatalogError> for ExecError {
    fn from(e: CatalogError) -> Self {
        ExecError::Catalog(e)
    }
}

impl From<AlgoError> for ExecError {
    fn from(e: AlgoError) -> Self {
        ExecError::Algo(e)
    }
}

impl From<EngineError> for ExecError {
    fn from(e: EngineError) -> Self {
        ExecError::Algo(AlgoError::from(e))
    }
}

/// `source` failed an access the executor made itself.
fn failed(source: &dyn Subsystem, cause: SourceError) -> ExecError {
    ExecError::Algo(AlgoError::Source {
        stream: source.info().label,
        cause,
    })
}

impl From<QueryError> for ExecError {
    fn from(e: QueryError) -> Self {
        ExecError::Query(e)
    }
}

/// The `k` [`Garlic::explain`] prices and [`Garlic::cursor`] plans
/// for: the paper's "top 10 objects".
const NOMINAL_K: usize = 10;

/// The answers, cost, and plan of one executed query.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Top-k answers, descending grade (ties by ascending oid).
    pub answers: Vec<ScoredObject<Oid>>,
    /// Total database accesses across all sources and rounds.
    pub stats: AccessStats,
    /// The strategy that produced the result.
    pub plan: PlanKind,
    /// The planner's explanation.
    pub explanation: String,
}

impl QueryResult {
    /// The answers as a graded set.
    pub fn graded_set(&self) -> GradedSet<Oid> {
        self.answers.iter().map(|a| (a.id, a.grade)).collect()
    }
}

/// A resumable top-k cursor over one query; see [`Garlic::cursor`].
pub struct QueryCursor {
    /// The bound sources, in the scoring function's argument order.
    sources: Vec<BoundSource>,
    scoring: ScoringHandle,
    cursor: Cursor,
    /// The plan every batch runs, and why.
    plan: Plan,
}

// The scoring handle is a `dyn` function without a `Debug` bound.
impl fmt::Debug for QueryCursor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QueryCursor")
            .field("plan", &self.plan.kind)
            .field("cursor", &self.cursor)
            .finish_non_exhaustive()
    }
}

impl QueryCursor {
    /// The next `batch` best answers (those ranked after everything
    /// already returned), with the cumulative statistics of every
    /// batch so far.
    pub fn next_batch(&mut self, batch: usize) -> Result<QueryResult, ExecError> {
        let mut sources: Vec<&mut dyn Subsystem> = self
            .sources
            .iter_mut()
            .map(|source| &mut **source as &mut dyn Subsystem)
            .collect();
        let result = self.cursor.next_k(&mut sources, &*self.scoring, batch)?;
        Ok(QueryResult {
            answers: result.answers,
            stats: result.stats,
            plan: self.plan.kind,
            explanation: self.plan.explanation.clone(),
        })
    }

    /// Answers already returned across batches.
    pub fn emitted(&self) -> usize {
        self.cursor.emitted()
    }
}

/// The Garlic facade: a catalog plus query execution.
///
/// Every plan but the crisp filter runs through the middleware's
/// batched [`Engine`]; answers and charged access counts are
/// bit-identical to the scalar algorithms.
pub struct Garlic {
    catalog: Catalog,
    engine: Engine,
}

impl fmt::Debug for Garlic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Garlic({:?})", self.catalog)
    }
}

impl Garlic {
    /// Wraps a catalog, executing through a default-configured engine.
    pub fn new(catalog: Catalog) -> Garlic {
        Garlic {
            catalog,
            engine: Engine::default(),
        }
    }

    /// The catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The execution engine serving this facade's plans.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Explains how a query would be executed, without running it:
    /// the unified planner's decision record for a nominal `k` of 10
    /// (plan chosen, per-candidate estimated costs, statistics basis):
    /// the plan [`Garlic::cursor`] runs, the crisp filter aside.
    pub fn explain(&self, query: &Query) -> String {
        let p = plan_costed(query, &self.catalog, NOMINAL_K, &CostModel::UNIFORM);
        format!("{}: {}", p.kind, p.explanation)
    }

    /// Finds the top `k` answers under the default [`ExecPolicy`]: the
    /// cost-based choice under the paper's uniform cost measure.
    pub fn top_k(&self, query: &Query, k: usize) -> Result<QueryResult, ExecError> {
        self.top_k_policy(query, k, ExecPolicy::default())
    }

    /// Finds the top `k` answers with an explicit algorithm override
    /// (used by the experiments): [`Garlic::top_k_policy`] under a
    /// policy naming the choice's plan.
    pub fn top_k_with(
        &self,
        query: &Query,
        k: usize,
        choice: AlgoChoice,
    ) -> Result<QueryResult, ExecError> {
        let policy = ExecPolicy::new();
        let policy = choice.plan().map_or(policy, |plan| policy.plan(plan));
        self.top_k_policy(query, k, policy)
    }

    /// Finds the top `k` answers under an explicit [`ExecPolicy`]: the
    /// query is compiled and every atom graded once ([`bind`]),
    /// [`optimize`] picks the strategy the policy names — or, for a
    /// policy naming none, prices the candidates under its cost model
    /// and θ on those lists — and the winner runs on them.
    /// A query that is not monotone in its leaves (a negated compound,
    /// a non-monotone node) runs the naive scan whatever the policy
    /// says.
    pub fn top_k_policy(
        &self,
        query: &Query,
        k: usize,
        policy: ExecPolicy,
    ) -> Result<QueryResult, ExecError> {
        if k == 0 {
            return Err(AlgoError::ZeroK.into());
        }
        let bound = bind(query, &self.catalog)?;
        let p = optimize(&bound, k, &policy)?;
        if p.kind == PlanKind::CrispFilter {
            // The strategy above the algorithm layer.
            return self.run_crisp_filter(bound, k, p.explanation);
        }
        self.run(bound, k, p, policy)
    }

    /// Runs `p`'s plan over the bound lists through the engine.
    fn run(
        &self,
        bound: BoundQuery,
        k: usize,
        p: Plan,
        policy: ExecPolicy,
    ) -> Result<QueryResult, ExecError> {
        let request = TopKQuery::compose()
            .sources(bound.leaves.into_iter().map(|leaf| leaf.source))
            .shared_scoring(bound.scoring)
            .k(k)
            .policy(policy.plan(p.kind))
            .request()?;
        let result = self.engine.run(&request)?;
        Ok(QueryResult {
            answers: result.answers,
            stats: result.stats,
            plan: p.kind,
            explanation: p.explanation,
        })
    }

    /// The Beatles strategy (§4.1): resolve crisp conjuncts to a match
    /// set S, then random-access only S's fuzzy grades.
    fn run_crisp_filter(
        &self,
        mut bound: BoundQuery,
        k: usize,
        explanation: String,
    ) -> Result<QueryResult, ExecError> {
        let mut stats = AccessStats::ZERO;
        // The match sets arrive ascending, and so does their
        // intersection.
        let mut survivors: Option<Vec<Oid>> = None;
        let mut first_crisp = None;
        for (at, leaf) in bound.leaves.iter().enumerate() {
            if let Some(matches) = &leaf.matches {
                // Cost model: streaming the grade-1 prefix under sorted
                // access costs |matches| accesses, plus one more to
                // observe the stream dropping to grade 0.
                let listed = leaf.source.info().universe_size as u64;
                stats.sorted += (matches.len() as u64 + 1).min(listed);
                survivors = Some(match survivors {
                    None => matches.clone(),
                    Some(mut prev) => {
                        prev.retain(|oid| matches.binary_search(oid).is_ok());
                        prev
                    }
                });
                first_crisp = first_crisp.or(Some(at));
            }
        }
        let (Some(survivors), Some(first_crisp)) = (survivors, first_crisp) else {
            return Err(ExecError::Internal(
                "crisp-filter plans have >= 1 crisp conjunct",
            ));
        };

        // Random-access every fuzzy conjunct for each survivor.
        let mut answers: Vec<ScoredObject<Oid>> = Vec::with_capacity(survivors.len());
        let mut grades = vec![Score::ONE; bound.leaves.len()];
        for &oid in &survivors {
            for (grade, leaf) in grades.iter_mut().zip(&mut bound.leaves) {
                if leaf.matches.is_none() {
                    *grade = leaf
                        .source
                        .random_access(oid)
                        .map_err(|cause| failed(&*leaf.source, cause))?;
                    stats.random += 1;
                } // else: crisp conjunct matched, grade stays 1
            }
            answers.push(ScoredObject::new(oid, bound.scoring.combine(&grades)));
        }
        answers.sort_by(|a, b| b.grade.cmp(&a.grade).then(a.id.cmp(&b.id)));
        answers.truncate(k);

        // If the filter kept fewer than k objects, pad with grade-0
        // objects from outside S (the combiner is zero-absorbing, so
        // their overall grade is exactly 0). Padding costs a drain of
        // one crisp source's universe. Every answer so far is in S, and
        // a list streams an object once, so "outside S" is the whole
        // test.
        if answers.len() < k {
            let src = &mut bound.leaves[first_crisp].source;
            src.rewind();
            while answers.len() < k {
                let next = src.sorted_next().map_err(|cause| failed(&*src, cause))?;
                let Some(so) = next else { break };
                stats.sorted += 1;
                if survivors.binary_search(&so.id).is_err() {
                    answers.push(ScoredObject::new(so.id, Score::ZERO));
                }
            }
        }

        Ok(QueryResult {
            answers,
            stats,
            plan: PlanKind::CrispFilter,
            explanation,
        })
    }

    /// Opens a **resumable cursor** over a query monotone in its
    /// leaves: each [`QueryCursor::next_batch`] call returns the next
    /// best answers, continuing where the last batch left off — the
    /// paper's "ask the subsystem for, say, the top 10 objects …, then
    /// request the next 10, etc." (§4).
    ///
    /// The query is bound once and planned under the default
    /// [`ExecPolicy`] at the nominal `k` [`Garlic::explain`] prices, so
    /// every batch runs the plan `explain` names — but the crisp
    /// filter, which keeps no book to resume from: its query runs A₀.
    /// A query that is not monotone in its leaves is rejected; run it
    /// through [`Garlic::top_k`] instead.
    pub fn cursor(&self, query: &Query) -> Result<QueryCursor, ExecError> {
        let bound = bind(query, &self.catalog)?;
        if !bound.scoring.is_monotone() {
            return Err(AlgoError::NonMonotoneScoring(bound.scoring.name()).into());
        }
        let policy = ExecPolicy::new();
        let mut plan = optimize(&bound, NOMINAL_K, &policy)?;
        if plan.kind == PlanKind::CrispFilter {
            plan = Plan {
                kind: PlanKind::Fa,
                explanation: format!(
                    "{}; the crisp filter keeps no book, so A0 resumes",
                    plan.explanation
                ),
            };
        }
        Ok(QueryCursor {
            cursor: Cursor::new(plan.kind, policy.theta)?,
            sources: bound.leaves.into_iter().map(|leaf| leaf.source).collect(),
            scoring: bound.scoring,
            plan,
        })
    }

    /// Lifts a sub-object result to parent objects (§4.2's
    /// Advertisement/AdPhoto case): a parent's grade is the max over
    /// its sub-objects' grades under `role`; shared sub-objects
    /// contribute to every parent.
    pub fn lift_to_parents(
        result: &QueryResult,
        index: &SubObjectIndex,
        role: &str,
        k: usize,
    ) -> Vec<ScoredObject<Oid>> {
        let mut best: HashMap<Oid, Score> = HashMap::new();
        for sub in &result.answers {
            for &parent in index.parents_of(role, sub.id) {
                let entry = best.entry(parent).or_insert(Score::ZERO);
                *entry = (*entry).max(sub.grade);
            }
        }
        let mut out: Vec<ScoredObject<Oid>> = best
            .into_iter()
            .map(|(id, grade)| ScoredObject::new(id, grade))
            .collect();
        out.sort_by(|a, b| b.grade.cmp(&a.grade).then(a.id.cmp(&b.id)));
        out.truncate(k);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::Value;
    use crate::repository::{QbicRepository, TableRepository};
    use fmdb_core::query::Target;
    use fmdb_media::synth::{SynthConfig, SyntheticDb};

    fn demo_garlic(n: usize) -> Garlic {
        let db = SyntheticDb::generate(&SynthConfig {
            count: n,
            bins_per_channel: 3,
            seed: 5,
            ..SynthConfig::default()
        });
        let mut table = TableRepository::new("cds", n as u64);
        for i in 0..n as u64 {
            let artist = if i % 5 == 0 { "Beatles" } else { "Various" };
            table.set(i, "Artist", Value::text(artist));
        }
        let mut catalog = Catalog::new();
        catalog.register(Box::new(table)).unwrap();
        catalog
            .register(Box::new(QbicRepository::new("qbic", db)))
            .unwrap();
        Garlic::new(catalog)
    }

    /// A catalog and the middleware over it can be shared between
    /// threads: every repository is `Send + Sync`. Checked when the
    /// test compiles.
    #[test]
    fn a_garlic_and_its_catalog_are_send_and_sync() {
        fn shareable<T: Send + Sync>() {}
        shareable::<Catalog>();
        shareable::<Garlic>();
    }

    fn beatles_and_red() -> Query {
        Query::and(vec![
            Query::atomic("Artist", Target::Text("Beatles".into())),
            Query::atomic("Color", Target::Similar("red".into())),
        ])
    }

    #[test]
    fn crisp_filter_returns_only_beatles_with_color_order() {
        let g = demo_garlic(50);
        let r = g.top_k(&beatles_and_red(), 5).unwrap();
        assert_eq!(r.plan, PlanKind::CrispFilter);
        assert_eq!(r.answers.len(), 5);
        // (a) nonzero grades only for Beatles albums,
        for a in &r.answers {
            if a.grade > Score::ZERO {
                assert_eq!(a.id % 5, 0, "object {} is not a Beatles album", a.id);
            }
        }
        // (b) descending by color grade.
        for w in r.answers.windows(2) {
            assert!(w[0].grade >= w[1].grade);
        }
    }

    #[test]
    fn crisp_filter_agrees_with_full_reference_scan() {
        let g = demo_garlic(40);
        let q = beatles_and_red();
        let fast = g.top_k(&q, 6).unwrap();
        let slow = g.top_k_with(&q, 6, AlgoChoice::Naive).unwrap();
        let fg: Vec<Score> = fast.answers.iter().map(|a| a.grade).collect();
        let sg: Vec<Score> = slow.answers.iter().map(|a| a.grade).collect();
        assert_eq!(fg, sg);
        assert!(
            fast.stats.database_access_cost() < slow.stats.database_access_cost(),
            "crisp filter {} should beat naive {}",
            fast.stats,
            slow.stats
        );
    }

    #[test]
    fn fuzzy_conjunction_runs_costed_plan_and_matches_naive() {
        let g = demo_garlic(40);
        let q = Query::and(vec![
            Query::atomic("Color", Target::Similar("red".into())),
            Query::atomic("Shape", Target::Similar("round".into())),
        ]);
        let fa = g.top_k(&q, 5).unwrap();
        // The unified cost model prices TA's shallower stopping depth
        // below A₀'s Theorem-4.1 law for this two-conjunct instance.
        assert_eq!(fa.plan, PlanKind::Ta);
        let naive = g.top_k_with(&q, 5, AlgoChoice::Naive).unwrap();
        assert_eq!(fa.answers, naive.answers);
        for choice in [AlgoChoice::PrunedFa, AlgoChoice::Ta] {
            let alt = g.top_k_with(&q, 5, choice).unwrap();
            let alt_g: Vec<Score> = alt.answers.iter().map(|a| a.grade).collect();
            let ref_g: Vec<Score> = naive.answers.iter().map(|a| a.grade).collect();
            assert_eq!(alt_g, ref_g, "{choice:?}");
        }
    }

    /// `sharded_over` is an inert shim (`fmdb_middleware::frozen`): a
    /// policy with it is the policy without it, and runs as that policy
    /// does, on the caller's thread, through the engine and the facade.
    #[test]
    fn sharded_over_changes_nothing() {
        use fmdb_core::scoring::tnorms::Min;
        use fmdb_middleware::workload::independent_uniform;

        let request = |policy| {
            TopKQuery::compose()
                .sources(independent_uniform(400, 3, 77))
                .scoring(Min)
                .k(7)
                .policy(policy)
                .request()
                .unwrap()
        };
        let q = Query::and(vec![
            Query::atomic("Color", Target::Similar("red".into())),
            Query::atomic("Shape", Target::Similar("round".into())),
        ]);
        let g = small_qbic_garlic();
        let engine = Engine::default();
        let serial = ExecPolicy::new().plan(PlanKind::Ta);
        let want = engine.run(&request(serial)).unwrap();
        let want_facade = g.top_k_policy(&q, 6, serial).unwrap();
        for p in [0usize, 1, 2, 8] {
            let policy = ExecPolicy::new().plan(PlanKind::Ta).sharded_over(p);
            assert_eq!(policy, serial, "p={p}");
            let got = engine.run(&request(policy)).unwrap();
            assert_eq!(got, want, "engine, p={p}");
            assert_eq!(got.stats.worker_spawns, 0, "engine, p={p}");
            let got = g.top_k_policy(&q, 6, policy).unwrap();
            assert_eq!(got.answers, want_facade.answers, "facade, p={p}");
            assert_eq!(got.stats, want_facade.stats, "facade, p={p}");
            assert_eq!(got.stats.worker_spawns, 0, "facade, p={p}");
        }
    }

    #[test]
    fn exec_policy_threads_through_the_facade() {
        use fmdb_middleware::stats::CostModel;

        let q = Query::and(vec![
            Query::atomic("Color", Target::Similar("red".into())),
            Query::atomic("Shape", Target::Similar("round".into())),
        ]);
        let g = small_qbic_garlic();
        let reference = g.top_k(&q, 6).unwrap();

        // CA under an expensive-random-access cost model: same answer
        // grades as the planner's default A0 path.
        let ca = g
            .top_k_policy(
                &q,
                6,
                ExecPolicy::new()
                    .plan(PlanKind::Ca { h: 1 })
                    .cost_model(CostModel::random_to_sorted_ratio(10.0).unwrap()),
            )
            .unwrap();
        assert!(ca.explanation.contains("combined-ca"), "{}", ca.explanation);
        let ca_grades: Vec<_> = ca.answers.iter().map(|a| a.grade).collect();
        let ref_grades: Vec<_> = reference.answers.iter().map(|a| a.grade).collect();
        assert_eq!(ca_grades, ref_grades);

        // A θ-approximate policy still returns a full answer set.
        let approx = g.top_k_policy(&q, 6, ExecPolicy::new().theta(0.1)).unwrap();
        assert_eq!(approx.answers.len(), 6);
    }

    #[test]
    fn every_door_reports_the_plan_that_ran() {
        let fuzzy = Query::and(vec![
            Query::atomic("Color", Target::Similar("red".into())),
            Query::atomic("Shape", Target::Similar("round".into())),
        ]);
        let negated = Query::not(fuzzy.clone());
        let g = small_qbic_garlic();
        let auto = g.top_k(&fuzzy, 4).unwrap().plan;
        assert_eq!(auto, PlanKind::Ta);

        for (choice, ran) in [
            (AlgoChoice::Auto, auto),
            (AlgoChoice::Fa, PlanKind::Fa),
            (AlgoChoice::Ta, PlanKind::Ta),
            (
                AlgoChoice::PrunedFa,
                PlanKind::PrunedFa {
                    short_circuit: true,
                },
            ),
            (AlgoChoice::Naive, PlanKind::FullScan),
        ] {
            let flat = g.top_k_with(&fuzzy, 4, choice).unwrap();
            assert_eq!(flat.plan, ran, "{choice:?}");
            let scanned = g.top_k_with(&negated, 4, choice).unwrap();
            assert_eq!(scanned.plan, PlanKind::FullScan, "{choice:?}, negated");
        }
        // The naive drain reads both 60-object lists to the end.
        let naive = g.top_k_with(&fuzzy, 4, AlgoChoice::Naive).unwrap();
        assert_eq!((naive.stats.sorted, naive.stats.random), (120, 0));

        let nra = ExecPolicy::new().plan(PlanKind::Nra);
        for (policy, ran) in [
            (ExecPolicy::new(), auto),
            (nra, PlanKind::Nra),
            (nra.theta(0.1), PlanKind::ApproxNra),
            (ExecPolicy::new().theta(0.1), PlanKind::ApproxTa),
            (
                ExecPolicy::new().plan(PlanKind::Ca { h: 1 }),
                PlanKind::Ca { h: 1 },
            ),
        ] {
            let flat = g.top_k_policy(&fuzzy, 4, policy).unwrap();
            assert_eq!(flat.plan, ran, "{policy:?}");
            let scanned = g.top_k_policy(&negated, 4, policy).unwrap();
            assert_eq!(scanned.plan, PlanKind::FullScan, "{policy:?}, negated");
        }
    }

    fn small_qbic_garlic() -> Garlic {
        let db = SyntheticDb::generate(&SynthConfig {
            count: 60,
            bins_per_channel: 3,
            seed: 5,
            ..SynthConfig::default()
        });
        let mut catalog = Catalog::new();
        catalog
            .register(Box::new(QbicRepository::new("qbic", db)))
            .unwrap();
        Garlic::new(catalog)
    }

    #[test]
    fn disjunction_uses_max_merge() {
        let g = demo_garlic(40);
        let q = Query::or(vec![
            Query::atomic("Color", Target::Similar("red".into())),
            Query::atomic("Color", Target::Similar("blue".into())),
        ]);
        let r = g.top_k(&q, 5).unwrap();
        assert_eq!(r.plan, PlanKind::MaxMerge);
        // m·k sorted accesses, no random.
        assert_eq!(r.stats.sorted, 10);
        assert_eq!(r.stats.random, 0);
    }

    #[test]
    fn negated_atom_merges_its_complement_with_correct_semantics() {
        let g = demo_garlic(30);
        let q = Query::not(Query::atomic("Color", Target::Similar("red".into())));
        let r = g.top_k(&q, 3).unwrap();
        // The complement list's 3-prefix.
        assert_eq!(r.plan, PlanKind::MaxMerge);
        assert_eq!((r.stats.sorted, r.stats.random), (3, 0));
        // The best anti-red object has grade = 1 − (lowest red grade).
        let red = g
            .top_k(&Query::atomic("Color", Target::Similar("red".into())), 30)
            .unwrap();
        let least_red = red.answers.last().unwrap();
        assert_eq!(
            r.answers[0],
            ScoredObject::new(least_red.id, least_red.grade.negate())
        );
    }

    #[test]
    fn explain_names_the_plan() {
        let g = demo_garlic(20);
        assert!(g.explain(&beatles_and_red()).starts_with("crisp-filter"));
        let neg = Query::not(beatles_and_red());
        assert!(g.explain(&neg).starts_with("full-scan"));
    }

    #[test]
    fn zero_k_rejected() {
        let g = demo_garlic(10);
        assert!(matches!(
            g.top_k(&beatles_and_red(), 0),
            Err(ExecError::Algo(AlgoError::ZeroK))
        ));
        let mut cursor = g.cursor(&beatles_and_red()).unwrap();
        assert!(matches!(
            cursor.next_batch(0),
            Err(ExecError::Algo(AlgoError::ZeroK))
        ));
    }

    #[test]
    fn crisp_filter_pads_when_selectivity_is_too_low() {
        let db = SyntheticDb::generate(&SynthConfig {
            count: 10,
            bins_per_channel: 3,
            seed: 5,
            ..SynthConfig::default()
        });
        let mut table = TableRepository::new("cds", 10);
        table.set(0, "Artist", Value::text("Beatles")); // just one match
        let mut catalog = Catalog::new();
        catalog.register(Box::new(table)).unwrap();
        catalog
            .register(Box::new(QbicRepository::new("qbic", db)))
            .unwrap();
        let g = Garlic::new(catalog);
        let r = g.top_k(&beatles_and_red(), 4).unwrap();
        assert_eq!(r.answers.len(), 4);
        assert!(r.answers[0].grade > Score::ZERO);
        assert!(r.answers[1..].iter().all(|a| a.grade == Score::ZERO));
    }

    #[test]
    fn cursor_batches_stitch_into_the_one_shot_ranking() {
        let g = demo_garlic(40);
        let q = Query::and(vec![
            Query::atomic("Color", Target::Similar("red".into())),
            Query::atomic("Shape", Target::Similar("round".into())),
        ]);
        let mut cursor = g.cursor(&q).unwrap();
        let b1 = cursor.next_batch(4).unwrap();
        let b2 = cursor.next_batch(4).unwrap();
        assert_eq!(cursor.emitted(), 8);
        let stitched: Vec<_> = b1.answers.iter().chain(&b2.answers).cloned().collect();
        let oneshot = g.top_k_with(&q, 8, AlgoChoice::Fa).unwrap();
        assert_eq!(stitched, oneshot.answers);
        // Batches never overlap and are globally ordered.
        for w in stitched.windows(2) {
            assert!(w[0].grade >= w[1].grade);
        }
    }

    #[test]
    fn cursor_rejects_queries_not_monotone_in_their_leaves() {
        let g = demo_garlic(10);
        let red = Query::atomic("Color", Target::Similar("red".into()));
        assert!(g.cursor(&Query::not(red.clone())).is_ok());
        let round = Query::atomic("Shape", Target::Similar("round".into()));
        let q = Query::not(Query::and(vec![red, round]));
        assert!(matches!(
            g.cursor(&q),
            Err(ExecError::Algo(AlgoError::NonMonotoneScoring(_)))
        ));
    }

    #[test]
    fn lift_to_parents_takes_max_over_shared_subs() {
        use crate::object::ComplexObject;
        let mut ad1 = ComplexObject::new(100);
        ad1.attach("AdPhoto", 0);
        ad1.attach("AdPhoto", 1);
        let mut ad2 = ComplexObject::new(200);
        ad2.attach("AdPhoto", 1); // shared with ad1
        let idx = SubObjectIndex::build([&ad1, &ad2]);
        let result = QueryResult {
            answers: vec![
                ScoredObject::new(0, Score::clamped(0.4)),
                ScoredObject::new(1, Score::clamped(0.9)),
            ],
            stats: AccessStats::ZERO,
            plan: PlanKind::MaxMerge,
            explanation: String::new(),
        };
        let parents = Garlic::lift_to_parents(&result, &idx, "AdPhoto", 10);
        assert_eq!(parents.len(), 2);
        assert_eq!(parents[0].id, 100); // max(0.4, 0.9) = 0.9, ties → lower oid
        assert!(parents[0].grade.approx_eq(Score::clamped(0.9), 1e-12));
        assert!(parents[1].grade.approx_eq(Score::clamped(0.9), 1e-12));
    }
}
