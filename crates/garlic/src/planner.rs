//! Query planning (§4.1–§4.2).
//!
//! Garlic's implementers "ultimately decided to treat A₀ as a join";
//! picking the right physical strategy for a fuzzy query is exactly a
//! planning problem, and the paper describes three regimes:
//!
//! * a conjunction with a selective **crisp** conjunct (the Beatles
//!   example): evaluate the crisp predicate first, then random-access
//!   the fuzzy grades of the survivors — cost proportional to the
//!   selectivity, not to N^(1/2);
//! * a monotone conjunction of fuzzy conjuncts: **algorithm A₀**;
//! * a disjunction under max: the **m·k merge**;
//! * anything else (negation, nested mixes, non-monotone scoring):
//!   fall back to a **full scan** with reference semantics.
//!
//! The planner cannot introspect a user-supplied scoring function
//! symbolically, so — like Garlic, which had to "somehow guarantee
//! monotonicity" — it *probes* the function numerically before
//! committing to a plan that depends on an algebraic property.
//!
//! Planning is two steps. [`bind`] hands every distinct atom to its
//! subsystem once and keeps the graded lists; [`optimize`] prices the
//! strategies on those lists (their histograms are the statistics) and
//! the executor runs the winner on the same lists. [`plan`] is the
//! statistics-free shape ladder above, for callers that force an
//! algorithm.

use fmdb_core::query::{AtomicQuery, Query, ScoringHandle};
use fmdb_core::score::Score;
use fmdb_core::scoring::ScoringFunction;
use fmdb_core::stats::DEFAULT_HISTOGRAM_BINS;
use fmdb_core::weights::Weighting;
use fmdb_middleware::planner::{choose_plan, CombinerKind, PhysicalPlan, PlanQuery, QueryStats};
use fmdb_middleware::policy::ExecPolicy;
use fmdb_middleware::source::{GradedSource, VecSource};
use fmdb_middleware::stats::SourceStats;

use crate::catalog::{Catalog, CatalogError};
use crate::cost::CostEstimator;
use crate::object::Oid;
use crate::repository::AttributeKind;

/// How the flat query combines its atoms' grades.
#[derive(Clone)]
pub enum Combiner {
    /// Plain m-ary scoring function.
    Plain(ScoringHandle),
    /// Fagin–Wimmers weighted rule.
    Weighted(ScoringHandle, Weighting),
}

// `ScoringHandle` is a `dyn` function without a `Debug` bound, but it
// does carry a display name — render that.
impl std::fmt::Debug for Combiner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Combiner::Plain(s) => f.debug_tuple("Plain").field(&s.name()).finish(),
            Combiner::Weighted(s, w) => {
                f.debug_tuple("Weighted").field(&s.name()).field(w).finish()
            }
        }
    }
}

impl Combiner {
    /// Evaluates the combiner on a grade tuple.
    pub fn combine(&self, grades: &[Score]) -> Score {
        match self {
            Combiner::Plain(f) => f.combine(grades),
            Combiner::Weighted(f, theta) => {
                fmdb_core::weights::weighted_combine(&**f, theta, grades)
            }
        }
    }

    /// Display name.
    pub fn name(&self) -> String {
        match self {
            Combiner::Plain(f) => f.name(),
            Combiner::Weighted(f, theta) => {
                format!("weighted({}, {:?})", f.name(), theta.weights())
            }
        }
    }

    /// Monotonicity as declared by the underlying function.
    pub fn is_monotone(&self) -> bool {
        match self {
            Combiner::Plain(f) => f.is_monotone(),
            Combiner::Weighted(f, _) => f.is_monotone(),
        }
    }
}

/// A query flattened to one combination level over atomic children.
#[derive(Debug, Clone)]
pub struct FlatQuery {
    /// The atomic subqueries in positional order.
    pub atoms: Vec<AtomicQuery>,
    /// The grade combiner.
    pub combiner: Combiner,
}

/// Flattens a query if it is a single And/Or/Weighted (or bare atom)
/// over atomic children; returns `None` for nested or negated shapes.
pub fn flatten(query: &Query) -> Option<FlatQuery> {
    let (children, combiner) = match query {
        Query::Atomic(a) => {
            return Some(FlatQuery {
                atoms: vec![a.clone()],
                combiner: Combiner::Plain(std::sync::Arc::new(fmdb_core::scoring::tnorms::Min)),
            })
        }
        Query::And { children, scoring } | Query::Or { children, scoring } => {
            (children, Combiner::Plain(scoring.clone()))
        }
        Query::Weighted {
            children,
            scoring,
            weighting,
        } => (
            children,
            Combiner::Weighted(scoring.clone(), weighting.clone()),
        ),
        Query::Not(_) => return None,
    };
    let atoms = children
        .iter()
        .map(|c| match c {
            Query::Atomic(a) => Some(a.clone()),
            _ => None,
        })
        .collect::<Option<Vec<_>>>()?;
    if atoms.is_empty() {
        return None;
    }
    Some(FlatQuery { atoms, combiner })
}

/// The physical strategies the executor implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanKind {
    /// Crisp conjuncts filter; fuzzy grades fetched by random access.
    CrispFilter,
    /// Algorithm A₀ over all conjuncts.
    FaginA0,
    /// The Threshold Algorithm over all conjuncts.
    Ta,
    /// The Combined Algorithm with interleave depth `h`.
    Ca {
        /// One random-access round per `h` sorted rounds.
        h: usize,
    },
    /// The m·k disjunction merge.
    MaxMerge,
    /// Full scan with reference semantics.
    FullScan,
}

impl PlanKind {
    /// Maps a unified-planner choice onto a Garlic-executable plan.
    /// `None` for the NRA family: Garlic's result grades are
    /// user-facing, so the planner is always asked for exact grades
    /// and never picks those.
    pub fn from_physical(plan: PhysicalPlan) -> Option<PlanKind> {
        match plan {
            PhysicalPlan::Fa => Some(PlanKind::FaginA0),
            PhysicalPlan::Ta => Some(PlanKind::Ta),
            PhysicalPlan::Ca { h } => Some(PlanKind::Ca { h }),
            PhysicalPlan::CrispFilter => Some(PlanKind::CrispFilter),
            PhysicalPlan::MaxMerge => Some(PlanKind::MaxMerge),
            PhysicalPlan::FullScan => Some(PlanKind::FullScan),
            PhysicalPlan::Nra | PhysicalPlan::ApproxTa | PhysicalPlan::ApproxNra => None,
        }
    }
}

impl std::fmt::Display for PlanKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanKind::CrispFilter => write!(f, "crisp-filter"),
            PlanKind::FaginA0 => write!(f, "fagin-a0"),
            PlanKind::Ta => write!(f, "threshold-ta"),
            PlanKind::Ca { .. } => write!(f, "combined-ca"),
            PlanKind::MaxMerge => write!(f, "max-merge"),
            PlanKind::FullScan => write!(f, "full-scan"),
        }
    }
}

/// A chosen plan plus the flattened query it applies to (absent for
/// full scans of non-flat queries).
#[derive(Debug)]
pub struct Plan {
    /// The strategy.
    pub kind: PlanKind,
    /// The flattened query, when one exists.
    pub flat: Option<FlatQuery>,
    /// Human-readable explanation of the choice.
    pub explanation: String,
}

/// Sample grid used by the numeric probes.
const PROBE_SAMPLES: [f64; 4] = [0.15, 0.5, 0.85, 1.0];

/// Probes whether a grade of 0 in any position forces the combined
/// grade to 0 — the property the crisp-filter plan needs (true for
/// every t-norm, false for means and for weighted rules with unequal
/// weights).
pub fn probe_zero_absorbing(combiner: &Combiner, arity: usize) -> bool {
    if arity == 0 {
        return false;
    }
    let mut args = vec![Score::ZERO; arity];
    for pos in 0..arity {
        for &fill in &PROBE_SAMPLES {
            for (i, a) in args.iter_mut().enumerate() {
                *a = if i == pos {
                    Score::ZERO
                } else {
                    Score::clamped(fill)
                };
            }
            if combiner.combine(&args) != Score::ZERO {
                return false;
            }
        }
    }
    true
}

/// Probes whether the combiner behaves like max (the disjunction merge
/// requirement).
pub fn probe_max_like(combiner: &Combiner, arity: usize) -> bool {
    if arity == 0 {
        return false;
    }
    let mut args = vec![Score::ZERO; arity];
    for &hi in &PROBE_SAMPLES {
        for pos in 0..arity {
            for (i, a) in args.iter_mut().enumerate() {
                *a = if i == pos {
                    Score::clamped(hi)
                } else {
                    Score::clamped(hi * 0.4)
                };
            }
            let expect = args.iter().copied().fold(Score::ZERO, Score::max);
            if !combiner.combine(&args).approx_eq(expect, 1e-9) {
                return false;
            }
        }
    }
    true
}

/// Chooses a plan for `query` against `catalog` by shape alone.
pub fn plan(query: &Query, catalog: &Catalog) -> Plan {
    plan_flat(flatten(query), |atom| {
        catalog.attribute_kind(&atom.attribute) == Some(AttributeKind::Crisp)
    })
}

/// The shape rules, over an already flattened query.
fn plan_flat(flat: Option<FlatQuery>, is_crisp: impl Fn(&AtomicQuery) -> bool) -> Plan {
    let Some(flat) = flat else {
        return Plan {
            kind: PlanKind::FullScan,
            flat: None,
            explanation: "query is nested or negated; falling back to full scan".to_owned(),
        };
    };
    let arity = flat.atoms.len();

    if !flat.combiner.is_monotone() {
        return Plan {
            kind: PlanKind::FullScan,
            flat: Some(flat),
            explanation: "scoring function is not monotone; A0 would be incorrect".to_owned(),
        };
    }

    if probe_max_like(&flat.combiner, arity) {
        return Plan {
            kind: PlanKind::MaxMerge,
            flat: Some(flat),
            explanation: format!("disjunction under max: m·k merge over {arity} lists"),
        };
    }

    // Crisp filter applies when some conjunct is crisp and a 0 grade
    // annihilates the combination.
    let has_crisp = flat.atoms.iter().any(is_crisp);
    if has_crisp && arity > 1 && probe_zero_absorbing(&flat.combiner, arity) {
        return Plan {
            kind: PlanKind::CrispFilter,
            flat: Some(flat),
            explanation:
                "selective crisp conjunct filters candidates; fuzzy grades fetched by random access"
                    .to_owned(),
        };
    }

    Plan {
        kind: PlanKind::FaginA0,
        flat: Some(flat),
        explanation: format!("monotone combination of {arity} graded lists: algorithm A0"),
    }
}

/// One distinct atom of a query, graded: what the subsystem returned
/// for it, in global ids.
#[derive(Debug)]
pub struct BoundAtom {
    pub(crate) atom: AtomicQuery,
    /// The atom's graded list — the only materialisation of this atom
    /// the query pays for.
    pub(crate) source: VecSource,
    /// The exact match set, for crisp attributes of flat queries.
    pub(crate) matches: Option<Vec<Oid>>,
}

/// A query whose atoms have been handed to their subsystems (§4: "ask
/// each subsystem for a graded list"): the one-off grading job is
/// done, and everything downstream — optimizer statistics, then
/// execution — pays only sorted and random accesses against these
/// lists.
#[derive(Debug)]
pub struct BoundQuery {
    /// The flattened query, when one exists.
    pub(crate) flat: Option<FlatQuery>,
    /// The distinct atoms of `Query::atoms()`, in first-occurrence
    /// order.
    pub(crate) atoms: Vec<BoundAtom>,
    /// For each atom occurrence, left to right (the flat query's
    /// positional order), its index in `atoms`.
    pub(crate) positions: Vec<usize>,
    /// The catalog's `N`.
    universe: usize,
}

impl BoundQuery {
    /// The flat query's combiner and its sources in positional order.
    /// An atom's first occurrence takes its list; a repeat clones the
    /// one already placed.
    pub(crate) fn into_flat(self) -> Option<(Combiner, Vec<VecSource>)> {
        let combiner = self.flat?.combiner;
        let mut bound: Vec<Option<VecSource>> =
            self.atoms.into_iter().map(|a| Some(a.source)).collect();
        let mut sources: Vec<VecSource> = Vec::with_capacity(self.positions.len());
        for &at in &self.positions {
            let source = match bound.get_mut(at)?.take() {
                Some(first) => first,
                None => {
                    let first = self.positions.iter().position(|&p| p == at)?;
                    sources.get(first)?.clone()
                }
            };
            sources.push(source);
        }
        Some((combiner, sources))
    }
}

/// Grades every distinct atom of `query` exactly once: one
/// `Repository::source_for` per atom and, for the crisp attributes of
/// a flat query, one `crisp_matches`. A repository's refusal
/// (`UnknownTarget`, `TargetMismatch`, an unmapped id, …) surfaces
/// here, before any plan is priced.
pub fn bind(query: &Query, catalog: &Catalog) -> Result<BoundQuery, CatalogError> {
    let flat = flatten(query);
    let mut atoms: Vec<BoundAtom> = Vec::new();
    let mut positions = Vec::new();
    for atom in query.atoms() {
        let known = atoms.iter().position(|bound| &bound.atom == atom);
        positions.push(known.unwrap_or(atoms.len()));
        if known.is_some() {
            continue;
        }
        let crisp = catalog.attribute_kind(&atom.attribute) == Some(AttributeKind::Crisp);
        atoms.push(BoundAtom {
            atom: atom.clone(),
            source: catalog.source_for(atom)?,
            matches: if crisp && flat.is_some() {
                catalog.crisp_matches(atom)?
            } else {
                None
            },
        });
    }
    Ok(BoundQuery {
        flat,
        atoms,
        positions,
        universe: catalog.universe_size(),
    })
}

/// Chooses a plan for a bound query by *estimated cost* (§4.2's
/// optimizer), routing through the unified cost-based planner
/// ([`fmdb_middleware::planner::choose_plan`]) — the same decision
/// procedure `ExecPolicy::Algo::Auto` uses at the engine level.
///
/// The statistics are read from the bound sources themselves — per-atom
/// grade histograms and exact crisp match counts — so pricing a plan
/// costs no grading beyond what execution needs anyway. Garlic's result
/// grades are user-facing, so the planner is asked for **exact
/// grades** — the NRA family is never chosen here. Queries that are
/// not flat or not monotone get [`plan`]'s full scan.
pub fn optimize(bound: &BoundQuery, k: usize, estimator: &CostEstimator) -> Plan {
    let Some(flat) = bound.flat.as_ref().filter(|f| f.combiner.is_monotone()) else {
        // Both of `plan`'s full-scan rules fire before it looks at an
        // attribute's kind.
        return plan_flat(bound.flat.clone(), |_| false);
    };
    let arity = flat.atoms.len();
    // An empty catalog makes every estimate 0; keep the formulas
    // meaningful with a floor of one object.
    let n = bound.universe.max(1);
    let positional = || bound.positions.iter().filter_map(|&at| bound.atoms.get(at));

    // Crisp statistics: our in-memory repositories can afford exact
    // counts where a real optimizer would consult stored statistics.
    let mut crisp_count = 0usize;
    let mut survivors: Option<u64> = None;
    for matches in positional().filter_map(|atom| atom.matches.as_ref()) {
        crisp_count += 1;
        let count = matches.len() as u64;
        survivors = Some(survivors.map_or(count, |s| s.min(count)));
    }

    // Classify the combiner with the numeric probes (max-like first:
    // at arity 1 both probes accept, and the k-prefix merge is then
    // the cheapest correct plan).
    let combiner = if probe_max_like(&flat.combiner, arity) {
        CombinerKind::MaxLike
    } else if probe_zero_absorbing(&flat.combiner, arity) {
        CombinerKind::ZeroAbsorbing
    } else {
        CombinerKind::Other
    };

    let mut pq = PlanQuery::fuzzy(n, arity, k)
        .combiner(combiner)
        .exact_grades()
        .fa_constant(estimator.fa_constant);
    if crisp_count > 0 && arity > 1 {
        if let Some(s) = survivors {
            pq = pq.crisp(crisp_count, s);
        }
    }

    // Per-source equi-depth histograms, all-or-nothing: partial
    // statistics would skew the comparison between plans.
    let stats: Option<QueryStats> = positional()
        .map(|atom| {
            atom.source
                .grade_histogram(DEFAULT_HISTOGRAM_BINS)
                .map(SourceStats::new)
        })
        .collect::<Option<Vec<_>>>()
        .map(QueryStats::new);

    let policy = ExecPolicy::new().cost_model(estimator.cost_model);
    let explain = choose_plan(&pq, stats.as_ref(), &policy);
    let kind = PlanKind::from_physical(explain.chosen)
        // Unreachable under `exact_grades`, but never panic on it.
        .unwrap_or(PlanKind::FullScan);
    Plan {
        kind,
        flat: Some(flat.clone()),
        explanation: format!("cost-based choice: {explain}"),
    }
}

/// [`bind`] then [`optimize`], with the graded lists dropped: the plan
/// [`crate::executor::Garlic::top_k`] would run, without running it.
/// When a subsystem refuses an atom there is nothing to price, and the
/// answer is [`plan`]'s shape rules.
pub fn plan_costed(query: &Query, catalog: &Catalog, k: usize, estimator: &CostEstimator) -> Plan {
    match bind(query, catalog) {
        Ok(bound) => optimize(&bound, k, estimator),
        Err(_) => plan(query, catalog),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::Value;
    use crate::repository::{QbicRepository, RepoError, TableRepository};
    use fmdb_core::query::Target;
    use fmdb_core::scoring::conorms::Max;
    use fmdb_core::scoring::means::ArithmeticMean;
    use fmdb_core::scoring::tnorms::Min;
    use fmdb_core::scoring::ConormScoring;
    use fmdb_media::synth::{SynthConfig, SyntheticDb};
    use std::sync::Arc;

    fn catalog_with_crisp_artist() -> Catalog {
        let mut t = TableRepository::new("cds", 3);
        t.set(0, "Artist", Value::text("Beatles"));
        let mut c = Catalog::new();
        c.register(Box::new(t)).unwrap();
        c
    }

    fn artist() -> Query {
        Query::atomic("Artist", Target::Text("Beatles".into()))
    }

    fn color() -> Query {
        Query::atomic("AlbumColor", Target::Similar("red".into()))
    }

    #[test]
    fn beatles_query_gets_crisp_filter() {
        let c = catalog_with_crisp_artist();
        let q = Query::and(vec![artist(), color()]);
        let p = plan(&q, &c);
        assert_eq!(p.kind, PlanKind::CrispFilter);
    }

    #[test]
    fn fuzzy_conjunction_gets_fa() {
        let c = Catalog::new();
        let q = Query::and(vec![
            color(),
            Query::atomic("Shape", Target::Similar("round".into())),
        ]);
        assert_eq!(plan(&q, &c).kind, PlanKind::FaginA0);
    }

    #[test]
    fn mean_conjunction_with_crisp_cannot_use_crisp_filter() {
        // The arithmetic mean is not zero-absorbing, so filtering on
        // the crisp conjunct would drop objects with positive grades.
        let c = catalog_with_crisp_artist();
        let q = Query::and_with(vec![artist(), color()], Arc::new(ArithmeticMean));
        assert_eq!(plan(&q, &c).kind, PlanKind::FaginA0);
    }

    #[test]
    fn weighted_min_cannot_use_crisp_filter() {
        let c = catalog_with_crisp_artist();
        let theta = Weighting::from_ratios(&[2.0, 1.0]).unwrap();
        let q = Query::weighted(vec![artist(), color()], Arc::new(Min), theta).unwrap();
        // f_θ(0.9, 0) > 0 under weighted min, so crisp filtering is
        // unsound; the planner must pick A0 instead.
        assert_eq!(plan(&q, &c).kind, PlanKind::FaginA0);
    }

    #[test]
    fn uniform_weighted_min_is_zero_absorbing_again() {
        let c = catalog_with_crisp_artist();
        let theta = Weighting::uniform(2).unwrap();
        let q = Query::weighted(vec![artist(), color()], Arc::new(Min), theta).unwrap();
        assert_eq!(plan(&q, &c).kind, PlanKind::CrispFilter);
    }

    #[test]
    fn disjunction_gets_max_merge() {
        let c = Catalog::new();
        let q = Query::or(vec![color(), artist()]);
        assert_eq!(plan(&q, &c).kind, PlanKind::MaxMerge);
    }

    #[test]
    fn non_max_disjunction_gets_fa() {
        let c = Catalog::new();
        let q = Query::or_with(
            vec![color(), artist()],
            Arc::new(ConormScoring(fmdb_core::scoring::conorms::ProbabilisticSum)),
        );
        assert_eq!(plan(&q, &c).kind, PlanKind::FaginA0);
    }

    #[test]
    fn negation_and_nesting_get_full_scan() {
        let c = Catalog::new();
        assert_eq!(plan(&Query::not(color()), &c).kind, PlanKind::FullScan);
        let nested = Query::and(vec![color(), Query::or(vec![artist(), color()])]);
        assert_eq!(plan(&nested, &c).kind, PlanKind::FullScan);
    }

    #[test]
    fn bare_atom_is_planned_as_single_list_merge() {
        // At arity 1 every monotone combiner degenerates to the
        // identity, which the max probe accepts — and the m·k merge is
        // then exactly "read the top k of the one list", the cheapest
        // correct plan.
        let c = Catalog::new();
        let p = plan(&color(), &c);
        assert_eq!(p.kind, PlanKind::MaxMerge);
        assert_eq!(p.flat.unwrap().atoms.len(), 1);
    }

    /// `n` albums whose first `beatles` rows are Beatles records, with
    /// QBIC-graded `AlbumColor`.
    fn album_catalog(n: usize, beatles: usize) -> Catalog {
        let mut t = TableRepository::new("cds", n as u64);
        for i in 0..beatles as u64 {
            t.set(i, "Artist", Value::text("Beatles"));
        }
        let db = SyntheticDb::generate(&SynthConfig {
            count: n,
            bins_per_channel: 3,
            seed: 5,
            ..SynthConfig::default()
        });
        let mut c = Catalog::new();
        c.register(Box::new(t)).unwrap();
        c.register(Box::new(
            QbicRepository::new("covers", db).with_attribute_prefix("Album"),
        ))
        .unwrap();
        c
    }

    #[test]
    fn costed_planner_picks_crisp_filter_only_when_selective() {
        let estimator = CostEstimator::default();
        let q = Query::and(vec![artist(), color()]);
        // Selective crisp conjunct (1 of 30 objects): crisp filter wins.
        let p = plan_costed(&q, &album_catalog(30, 1), 2, &estimator);
        assert_eq!(p.kind, PlanKind::CrispFilter, "{}", p.explanation);

        // Unselective crisp conjunct (everything matches): A0 or scan
        // should win over filtering.
        let p2 = plan_costed(&q, &album_catalog(1000, 1000), 2, &estimator);
        assert_ne!(p2.kind, PlanKind::CrispFilter, "{}", p2.explanation);
    }

    #[test]
    fn bind_grades_each_distinct_atom_once_and_reports_refusals() {
        let c = album_catalog(30, 3);
        let twice = Query::and(vec![color(), artist(), color()]);
        let bound = bind(&twice, &c).unwrap();
        assert_eq!(bound.atoms.len(), 2);
        assert_eq!(bound.positions, vec![0, 1, 0]);
        assert_eq!(bound.atoms[1].matches.as_deref(), Some(&[0, 1, 2][..]));
        assert!(bound.atoms[0].matches.is_none());
        let (_, sources) = bound.into_flat().unwrap();
        assert_eq!(sources.len(), 3);
        assert_eq!(sources[0].info().label, sources[2].info().label);

        // A non-flat query needs no match sets.
        let negated = Query::and(vec![artist(), Query::not(color())]);
        let bound = bind(&negated, &c).unwrap();
        assert!(bound.flat.is_none());
        assert!(bound.atoms.iter().all(|a| a.matches.is_none()));

        // The repository's refusal is the planner's error, not a
        // statistics-free plan.
        let unknown = Query::atomic("AlbumColor", Target::Similar("chartreuse-ish".into()));
        assert!(matches!(
            bind(&unknown, &c),
            Err(CatalogError::Repo(RepoError::UnknownTarget(_)))
        ));
        // The infallible entry point answers with the shape rules.
        assert_eq!(
            plan_costed(&unknown, &c, 5, &CostEstimator::default()).kind,
            plan(&unknown, &c).kind
        );
    }

    #[test]
    fn costed_planner_prefers_merge_for_disjunctions() {
        let estimator = CostEstimator::default();
        // A realistic universe: the m·k merge (10 accesses) must beat
        // A0's ≈ 4·√(kN) estimate.
        let mut c = Catalog::new();
        c.register(Box::new(TableRepository::new("rows", 1000)))
            .unwrap();
        let q = Query::or(vec![color(), artist()]);
        let p = plan_costed(&q, &c, 5, &estimator);
        assert_eq!(p.kind, PlanKind::MaxMerge, "{}", p.explanation);
    }

    #[test]
    fn costed_planner_falls_back_for_non_flat_queries() {
        let estimator = CostEstimator::default();
        let c = Catalog::new();
        let q = Query::not(color());
        assert_eq!(plan_costed(&q, &c, 5, &estimator).kind, PlanKind::FullScan);
    }

    #[test]
    fn probes_classify_shipped_functions() {
        let min = Combiner::Plain(Arc::new(Min));
        assert!(probe_zero_absorbing(&min, 3));
        assert!(!probe_max_like(&min, 3));
        let mean = Combiner::Plain(Arc::new(ArithmeticMean));
        assert!(!probe_zero_absorbing(&mean, 3));
        let max = Combiner::Plain(Arc::new(ConormScoring(Max)));
        assert!(probe_max_like(&max, 3));
        assert!(!probe_zero_absorbing(&max, 3));
    }
}
