//! Query planning (§4.1–§4.2).
//!
//! Garlic's implementers "ultimately decided to treat A₀ as a join";
//! picking the right physical strategy for a fuzzy query is exactly a
//! planning problem, and the paper describes these regimes:
//!
//! * a conjunction with a selective **crisp** conjunct (the Beatles
//!   example): evaluate the crisp predicate first, then random-access
//!   the fuzzy grades of the survivors — cost proportional to the
//!   selectivity, not to N^(1/2);
//! * a query monotone in its leaves — any tree of monotone nodes whose
//!   negations apply directly to atoms: **algorithm A₀** and its
//!   threshold-family successors;
//! * a query whose function is max: the **m·k merge**;
//! * anything else (a negated compound, a non-monotone node): the
//!   **naive scan**, which grades every object and so is correct for
//!   any function.
//!
//! Planning is two steps. [`bind`] compiles the query into one scoring
//! function over its distinct leaves ([`Query::compile`]), hands every
//! distinct atom to its subsystem once and keeps the graded lists — a
//! negated leaf reads the complement of its atom's list. [`optimize`]
//! describes the bound query in [`fmdb_middleware::planner`]'s terms —
//! a [`PlanQuery`], [`QueryStats`] read off the lists, the function as
//! classified by [`classify_combiner`] — and lets [`choose_plan`] price
//! the strategies under the caller's [`ExecPolicy`]. The executor runs
//! the winner on the same lists. This module owns no plan enum, cost
//! formula or property probe of its own.

use std::fmt;

use fmdb_core::query::{Query, ScoringHandle};
use fmdb_core::score::Score;
use fmdb_core::scoring::ScoringFunction;
use fmdb_middleware::algorithms::AlgoError;
use fmdb_middleware::planner::{
    choose_plan, classify_combiner, CombinerKind, PlanQuery, QueryStats,
};
use fmdb_middleware::policy::{Algo, ExecPolicy};
use fmdb_middleware::source::VecSource;
use fmdb_middleware::stats::CostModel;

use crate::catalog::Catalog;
use crate::executor::ExecError;
use crate::object::Oid;
use crate::repository::AttributeKind;

/// The physical strategies: the unified planner's own enum.
pub use fmdb_middleware::planner::PhysicalPlan as PlanKind;

/// A chosen plan and why.
#[derive(Debug)]
pub struct Plan {
    /// The strategy.
    pub kind: PlanKind,
    /// Human-readable explanation of the choice.
    pub explanation: String,
}

impl Plan {
    fn full_scan(why: impl fmt::Display) -> Plan {
        Plan {
            kind: PlanKind::FullScan,
            explanation: format!("{why}; falling back to full scan"),
        }
    }
}

/// One argument of a bound query, graded: its list in global ids.
#[derive(Debug)]
pub struct BoundLeaf {
    /// The atom's graded list, or that list's complement for a negated
    /// leaf — the only materialisation of this leaf the query pays for.
    pub(crate) source: VecSource,
    /// The exact match set, for the crisp atoms of a flat query.
    pub(crate) matches: Option<Vec<Oid>>,
}

/// A query compiled into one scoring function whose arguments have
/// been handed to their subsystems (§4: "ask each subsystem for a
/// graded list"): the one-off grading job is done, and everything
/// downstream — optimizer statistics, then execution — pays only
/// sorted and random accesses against these lists.
pub struct BoundQuery {
    /// The query as one function of `leaves` ([`Query::compile`]).
    pub(crate) scoring: ScoringHandle,
    /// The function's arguments, in its order.
    pub(crate) leaves: Vec<BoundLeaf>,
    /// The catalog's `N`.
    universe: usize,
}

// `ScoringHandle` is a `dyn` function without a `Debug` bound, but it
// does carry a display name — render that.
impl fmt::Debug for BoundQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BoundQuery")
            .field("scoring", &self.scoring.name())
            .field("leaves", &self.leaves)
            .finish_non_exhaustive()
    }
}

/// Compiles `query` ([`Query::compile`]) and grades every distinct atom
/// exactly once: one `Repository::source_for` per atom and, for the
/// crisp atoms of a flat query (one node over atoms), one
/// `crisp_matches`. A negated leaf's list is the complement of its
/// atom's over every object a bound list streams: an object the atom's
/// list lacks grades 1 there. A repository's refusal (`UnknownTarget`,
/// `TargetMismatch`, an unmapped id, …) surfaces here, before any plan
/// is priced.
pub fn bind(query: &Query, catalog: &Catalog) -> Result<BoundQuery, ExecError> {
    let (leaves, scoring) = query.compile()?;
    let atomic = |c: &Query| matches!(c, Query::Atomic(_));
    let flat = query.children().iter().all(atomic);
    // Leaf `i`'s atom is graded into `lists[first(i)]`: at its first leaf.
    let first = |i: usize| {
        leaves
            .iter()
            .position(|l| l.atom == leaves[i].atom)
            .unwrap_or(i)
    };
    let mut lists = Vec::with_capacity(leaves.len());
    for (i, leaf) in leaves.iter().enumerate() {
        let graded = (first(i) == i).then(|| catalog.source_for(&leaf.atom));
        lists.push(graded.transpose()?);
    }
    // Complements first: a plain leaf then takes its atom's list.
    let complements: Vec<Option<VecSource>> = (0..leaves.len())
        .map(|i| match &lists[first(i)] {
            Some(list) if leaves[i].negated => Some(list.complement(lists.iter().flatten())),
            _ => None,
        })
        .collect();
    let mut bound = Vec::with_capacity(leaves.len());
    for (i, (leaf, complement)) in leaves.iter().zip(complements).enumerate() {
        let crisp = catalog.attribute_kind(&leaf.atom.attribute) == Some(AttributeKind::Crisp);
        let source = complement.or_else(|| lists[first(i)].take());
        bound.push(BoundLeaf {
            source: source.ok_or(ExecError::Internal("an atom has one plain leaf"))?,
            matches: if crisp && flat && !leaf.negated {
                catalog.crisp_matches(&leaf.atom)?
            } else {
                None
            },
        });
    }
    Ok(BoundQuery {
        scoring,
        leaves: bound,
        universe: catalog.universe_size(),
    })
}

/// How `combiner` behaves over `arity` lists, for the cost model. The
/// m·k merge answers with the lists' own grades, so it is max-like only
/// where it *is* max — over one list, the identity — bit for bit
/// ([`is_max`]): `product(a, a)` over the one list of `a` is `a²`.
fn combiner_kind(combiner: &dyn ScoringFunction, arity: usize) -> CombinerKind {
    match classify_combiner(combiner, arity) {
        kind if arity > 1 && kind != CombinerKind::MaxLike => kind,
        _ if is_max(combiner, arity) => CombinerKind::MaxLike,
        CombinerKind::MaxLike => CombinerKind::Other,
        kind => kind,
    }
}

/// Whether `f` returns its largest argument exactly, on a grid of one
/// argument `hi` over the rest at `lo ≤ hi`.
fn is_max(f: &dyn ScoringFunction, arity: usize) -> bool {
    let grid = (0..=20u8).map(|i| Score::clamped(f64::from(i) / 20.0));
    let mut args = vec![Score::ZERO; arity];
    grid.clone().all(|hi| {
        grid.clone().filter(|&lo| lo <= hi).all(|lo| {
            (0..arity).all(|at| {
                args.fill(lo);
                args[at] = hi;
                f.combine(&args) == hi
            })
        })
    })
}

/// The one planner (§4.2's optimizer): chooses the strategy for a
/// bound query under the caller's `policy`.
///
/// * A query that is not monotone in its leaves gets the naive scan,
///   which grades every object — whatever the policy says.
/// * A policy naming an algorithm gets [`ExecPolicy::plan`].
/// * [`Algo::Auto`] is priced by [`choose_plan`] — the same decision
///   procedure `Engine::run` uses — under the policy's cost model and
///   θ. The statistics are read from the bound sources themselves
///   (per-leaf grade histograms, exact crisp match counts), so pricing
///   costs no grading beyond what execution needs anyway. Garlic's
///   result grades are user-facing, so the planner is asked for
///   **exact grades** — the NRA family is never chosen here.
///
/// Fails only on a policy [`ExecPolicy::plan`] rejects (bad θ or cost
/// units).
pub fn optimize(bound: &BoundQuery, k: usize, policy: &ExecPolicy) -> Result<Plan, AlgoError> {
    if !bound.scoring.is_monotone() {
        return Ok(Plan::full_scan(
            "query is not monotone in its leaves (A0 would be incorrect)",
        ));
    }
    // Validates the policy's knobs even when `Auto` overrides the pick.
    let forced = policy.plan()?;
    if policy.algo != Algo::Auto {
        return Ok(Plan {
            kind: forced,
            explanation: format!("execution policy names {forced}"),
        });
    }

    let arity = bound.leaves.len();
    // An empty catalog makes every estimate 0; keep the formulas
    // meaningful with a floor of one object.
    let mut pq = PlanQuery::fuzzy(bound.universe.max(1), arity, k)
        .combiner(combiner_kind(&*bound.scoring, arity))
        .exact_grades();
    // Crisp statistics: our in-memory repositories can afford exact
    // counts where a real optimizer would consult stored statistics.
    let crisp = bound.leaves.iter().filter_map(|leaf| leaf.matches.as_ref());
    let fewest = crisp.clone().map(|m| m.len() as u64).min();
    if let Some(survivors) = fewest.filter(|_| arity > 1) {
        pq = pq.crisp(crisp.count(), survivors);
    }
    let stats = QueryStats::from_sources(bound.leaves.iter().map(|leaf| &leaf.source));
    let explain = choose_plan(&pq, stats.as_ref(), policy);
    Ok(Plan {
        kind: explain.chosen,
        explanation: format!("cost-based choice: {explain}"),
    })
}

/// [`bind`] then [`optimize`] under `cost`, with the graded lists
/// dropped: the plan [`crate::executor::Garlic::top_k_policy`] would
/// run under `ExecPolicy::new().cost_model(*cost)`, without running
/// it. A query no subsystem will grade (or a cost model the policy
/// rejects) has nothing to price: the answer is a full-scan plan whose
/// explanation carries the error.
pub fn plan_costed(query: &Query, catalog: &Catalog, k: usize, cost: &CostModel) -> Plan {
    let policy = ExecPolicy::new().cost_model(*cost);
    let plan = bind(query, catalog).and_then(|bound| Ok(optimize(&bound, k, &policy)?));
    plan.unwrap_or_else(Plan::full_scan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::CatalogError;
    use crate::object::Value;
    use crate::repository::{QbicRepository, RepoError, TableRepository};
    use fmdb_core::query::Target;
    use fmdb_core::score::Score;
    use fmdb_core::scoring::conorms::{
        BoundedSum, DrasticSum, EinsteinSum, Max, ProbabilisticSum, YagerSum,
    };
    use fmdb_core::scoring::means::{ArithmeticMean, GeometricMean, HarmonicMean};
    use fmdb_core::scoring::tnorms::{
        Drastic, Einstein, Hamacher, Lukasiewicz, Min, Product, Yager,
    };
    use fmdb_core::scoring::ConormScoring;
    use fmdb_core::weights::{Weighted, Weighting};
    use fmdb_media::synth::{SynthConfig, SyntheticDb};
    use fmdb_middleware::source::GradedSource;
    use std::sync::Arc;

    fn artist() -> Query {
        Query::atomic("Artist", Target::Text("Beatles".into()))
    }

    fn color() -> Query {
        Query::atomic("AlbumColor", Target::Similar("red".into()))
    }

    fn shape() -> Query {
        Query::atomic("AlbumShape", Target::Similar("round".into()))
    }

    /// `n` albums whose first `beatles` rows are Beatles records, with
    /// QBIC-graded `AlbumColor` / `AlbumShape` / `AlbumTexture`.
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

    /// The plan for `q` where one album in 30 is a Beatles record: a
    /// crisp conjunct as selective as it gets, so the crisp filter
    /// wins wherever it applies.
    fn selective(q: &Query) -> Plan {
        plan_costed(q, &album_catalog(30, 1), 2, &CostModel::UNIFORM)
    }

    #[test]
    fn crisp_filter_applies_only_under_zero_absorbing_combiners() {
        let min = selective(&Query::and(vec![artist(), color()]));
        assert_eq!(min.kind, PlanKind::CrispFilter, "{}", min.explanation);

        // The arithmetic mean is not zero-absorbing, so filtering on
        // the crisp conjunct would drop objects with positive grades.
        let mean = selective(&Query::and_with(
            vec![artist(), color()],
            Arc::new(ArithmeticMean),
        ));
        assert_ne!(mean.kind, PlanKind::CrispFilter, "{}", mean.explanation);

        // f_θ(0.9, 0) > 0 under skew-weighted min: filtering is unsound…
        let skew = Weighting::from_ratios(&[2.0, 1.0]).unwrap();
        let q = Query::weighted(vec![artist(), color()], Arc::new(Min), skew).unwrap();
        let skewed = selective(&q);
        assert_ne!(skewed.kind, PlanKind::CrispFilter, "{}", skewed.explanation);

        // …and sound again under uniform weights (D1: the plain rule).
        let uniform = Weighting::uniform(2).unwrap();
        let q = Query::weighted(vec![artist(), color()], Arc::new(Min), uniform).unwrap();
        let even = selective(&q);
        assert_eq!(even.kind, PlanKind::CrispFilter, "{}", even.explanation);
    }

    #[test]
    fn crisp_filter_loses_when_unselective() {
        // Everything matches: A0's family or a scan beats filtering.
        let q = Query::and(vec![artist(), color()]);
        let p = plan_costed(&q, &album_catalog(1000, 1000), 2, &CostModel::UNIFORM);
        assert_ne!(p.kind, PlanKind::CrispFilter, "{}", p.explanation);
    }

    #[test]
    fn fuzzy_conjunction_gets_an_exact_threshold_family_plan() {
        let p = selective(&Query::and(vec![color(), shape()]));
        assert!(
            matches!(p.kind, PlanKind::Fa | PlanKind::Ta | PlanKind::Ca { .. }),
            "{}",
            p.explanation
        );
    }

    #[test]
    fn only_max_disjunctions_get_the_merge() {
        // A realistic universe: the m·k merge (10 accesses) must beat
        // every other estimate.
        let c = album_catalog(1000, 10);
        let max = plan_costed(
            &Query::or(vec![color(), artist()]),
            &c,
            5,
            &CostModel::UNIFORM,
        );
        assert_eq!(max.kind, PlanKind::MaxMerge, "{}", max.explanation);

        let q = Query::or_with(
            vec![color(), artist()],
            Arc::new(ConormScoring(ProbabilisticSum)),
        );
        let other = plan_costed(&q, &c, 5, &CostModel::UNIFORM);
        assert_ne!(other.kind, PlanKind::MaxMerge, "{}", other.explanation);
        assert_ne!(other.kind, PlanKind::FullScan, "{}", other.explanation);
    }

    #[test]
    fn only_a_tree_not_monotone_in_its_leaves_gets_the_full_scan() {
        // Monotone in their leaves: a negated atom, a nested mix.
        let nested = Query::and(vec![color(), Query::or(vec![artist(), color()])]);
        for q in [Query::not(color()), nested] {
            let p = selective(&q);
            assert!(
                !matches!(p.kind, PlanKind::FullScan | PlanKind::CrispFilter),
                "{q}: {}",
                p.explanation
            );
        }
        let negated_compound = Query::not(Query::and(vec![color(), shape()]));
        assert_eq!(selective(&negated_compound).kind, PlanKind::FullScan);
    }

    #[test]
    fn bare_atom_is_planned_as_single_list_merge() {
        // A one-list query is a k-prefix read: the m·k merge over the
        // one list is the cheapest correct plan.
        assert_eq!(color().compile().unwrap().0.len(), 1);
        assert_eq!(selective(&color()).kind, PlanKind::MaxMerge);
    }

    #[test]
    fn a_forced_policy_is_the_plan_where_an_algorithm_may_run() {
        let c = album_catalog(30, 3);
        let forced = ExecPolicy::new().algo(Algo::Nra).theta(0.1);
        let flat = bind(&Query::and(vec![artist(), color()]), &c).unwrap();
        assert_eq!(
            optimize(&flat, 5, &forced).unwrap().kind,
            PlanKind::ApproxNra
        );
        let negated = bind(&Query::not(Query::and(vec![artist(), color()])), &c).unwrap();
        assert_eq!(
            optimize(&negated, 5, &forced).unwrap().kind,
            PlanKind::FullScan
        );
        // Bad knobs are the caller's error, under `Auto` too.
        assert!(optimize(&flat, 5, &ExecPolicy::new().theta(-1.0)).is_err());
    }

    #[test]
    fn bind_grades_each_distinct_atom_once_and_reports_refusals() {
        let c = album_catalog(30, 3);
        let twice = Query::and(vec![color(), artist(), color()]);
        let bound = bind(&twice, &c).unwrap();
        assert_eq!(bound.leaves.len(), 2);
        assert_eq!(bound.leaves[1].matches.as_deref(), Some(&[0, 1, 2][..]));
        assert!(bound.leaves[0].matches.is_none());
        assert_eq!(
            bound.scoring.combine(&[Score::HALF, Score::ONE]),
            Score::HALF
        );

        // A non-flat query needs no match sets; a negated leaf reads
        // its atom's complement.
        let negated = Query::and(vec![artist(), Query::not(color())]);
        let mut bound = bind(&negated, &c).unwrap();
        assert!(bound.leaves.iter().all(|a| a.matches.is_none()));
        let red = c.source_for(&color().atoms()[0].clone()).unwrap();
        let top = bound.leaves[1].source.sorted_next().unwrap();
        assert_eq!(top.grade, red.min_grade().unwrap().negate());

        // The repository's refusal is the planner's error, not a
        // statistics-free plan.
        let unknown = Query::atomic("AlbumColor", Target::Similar("chartreuse-ish".into()));
        assert!(matches!(
            bind(&unknown, &c),
            Err(ExecError::Catalog(CatalogError::Repo(
                RepoError::UnknownTarget(_)
            )))
        ));
        // The infallible entry point has nothing to price and says why.
        let p = plan_costed(&unknown, &c, 5, &CostModel::UNIFORM);
        assert_eq!(p.kind, PlanKind::FullScan);
        assert!(
            p.explanation.contains("chartreuse-ish"),
            "{}",
            p.explanation
        );
    }

    /// The shipped scoring functions, in the order of the tables below.
    fn shipped() -> Vec<ScoringHandle> {
        vec![
            Arc::new(Min),
            Arc::new(Product),
            Arc::new(Lukasiewicz),
            Arc::new(Drastic),
            Arc::new(Einstein),
            Arc::new(Hamacher::new(0.5).unwrap()),
            Arc::new(Yager::new(2.0).unwrap()),
            Arc::new(ConormScoring(Max)),
            Arc::new(ConormScoring(ProbabilisticSum)),
            Arc::new(ConormScoring(BoundedSum)),
            Arc::new(ConormScoring(DrasticSum)),
            Arc::new(ConormScoring(EinsteinSum)),
            Arc::new(ConormScoring(YagerSum::new(2.0).unwrap())),
            Arc::new(ArithmeticMean),
            Arc::new(GeometricMean),
            Arc::new(HarmonicMean),
        ]
    }

    /// Skewed weight ratios; the first `m` weight an `m`-ary query.
    const SKEW: [f64; 4] = [4.0, 3.0, 2.0, 1.0];

    fn weighted(f: &ScoringHandle, weighting: Weighting) -> ScoringHandle {
        Arc::new(Weighted::new(f.clone(), weighting))
    }

    /// What garlic's own two probes (max-like first, then
    /// zero-absorbing) answered at 02d7b6e, before they were deleted
    /// for [`classify_combiner`]: per function, arity 1–4 ×
    /// (plain, uniform-weighted, `SKEW`-weighted); `M`ax-like,
    /// `Z`ero-absorbing, `O`ther. Except at arity 1 for lukasiewicz,
    /// yager(2) and harm-mean, `MMM` then: over one argument they round
    /// (`1 + 0.15 − 1 ≠ 0.15`), so the merge would not return their
    /// grades ([`is_max`]).
    const KINDS: [(&str, &str); 16] = [
        ("min", "MMM ZZO ZZO ZZO"),
        ("product", "MMM ZZO ZZO ZZO"),
        ("lukasiewicz", "ZZZ ZZO ZZO ZZO"),
        ("drastic", "MMM ZZO ZZO ZZO"),
        ("einstein", "MMM ZZO ZZO ZZO"),
        ("hamacher(0.5)", "MMM ZZO ZZO ZZO"),
        ("yager(2)", "ZZZ ZZO ZZO ZZO"),
        ("max", "MMM MMO MMO MMO"),
        ("prob-sum", "MMM OOO OOO OOO"),
        ("bounded-sum", "MMM OOO OOO OOO"),
        ("drastic-sum", "MMM OOO OOO OOO"),
        ("einstein-sum", "MMM OOO OOO OOO"),
        ("yager-sum(2)", "MMM OOO OOO OOO"),
        ("arith-mean", "MMM OOO OOO OOO"),
        ("geo-mean", "MMM ZZO ZZO ZZO"),
        ("harm-mean", "ZZZ ZZO ZZO ZZO"),
    ];

    #[test]
    fn classification_matches_the_deleted_probes() {
        for (f, (name, want)) in shipped().iter().zip(KINDS) {
            assert_eq!(f.name(), name);
            let mut got = String::new();
            for arity in 1..=4usize {
                let uniform = Weighting::uniform(arity).unwrap();
                let skew = Weighting::from_ratios(&SKEW[..arity]).unwrap();
                for combiner in [f.clone(), weighted(f, uniform), weighted(f, skew)] {
                    got.push(match combiner_kind(&combiner, arity) {
                        CombinerKind::MaxLike => 'M',
                        CombinerKind::ZeroAbsorbing => 'Z',
                        CombinerKind::Other => 'O',
                    });
                }
                got.push(' ');
            }
            assert_eq!(got.trim_end(), want, "{name}");
        }
    }

    /// FNV-1a digests of the deleted `Combiner::Weighted(f, SKEW)`'s
    /// grade bits over `{0, .15, .5, .85, 1}^m` (first argument
    /// fastest) for m = 2 then m = 3, captured at 02d7b6e.
    const WEIGHTED_DIGESTS: [u64; 16] = [
        0xa734_17d0_4c21_65cc,
        0xf9c7_1155_f537_4c78,
        0xdfc7_f23c_3ac9_5829,
        0xf435_1f12_b8f1_1a73,
        0x3eb3_4189_36d7_bc29,
        0xf26b_ec04_3ea4_5195,
        0x1cbe_8420_4c1c_1f3d,
        0xee2d_8e39_06fa_3fa8,
        0xc2a2_ec1e_c4cf_809b,
        0xc55b_0090_a3d7_9630,
        0xff43_d16b_7873_a43e,
        0x0027_8ba7_3303_8ce8,
        0xe573_2d93_539c_deb3,
        0x7057_a3de_2190_6465,
        0x918d_bcaf_ae93_ffc1,
        0xec30_6625_71b4_ede8,
    ];

    #[test]
    fn a_weighted_query_combines_as_the_deleted_combiner_did() {
        const GRID: [f64; 5] = [0.0, 0.15, 0.5, 0.85, 1.0];
        for (f, want) in shipped().iter().zip(WEIGHTED_DIGESTS) {
            let mut digest = 0xcbf2_9ce4_8422_2325u64;
            for arity in 2..=3usize {
                // Through `compile`, as a query's function is built.
                let weighting = Weighting::from_ratios(&SKEW[..arity]).unwrap();
                let atoms = [color(), shape(), artist()];
                let q = Query::weighted(atoms[..arity].to_vec(), f.clone(), weighting).unwrap();
                let combiner = q.compile().unwrap().1;
                for point in 0..GRID.len().pow(arity as u32) {
                    let grades: Vec<Score> = (0..arity as u32)
                        .map(|i| Score::clamped(GRID[point / GRID.len().pow(i) % GRID.len()]))
                        .collect();
                    for byte in combiner.combine(&grades).value().to_bits().to_le_bytes() {
                        digest = (digest ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
                    }
                }
            }
            assert_eq!(digest, want, "{}", f.name());
        }
        let q = Query::weighted(
            vec![artist(), color()],
            Arc::new(Min),
            Weighting::from_ratios(&[2.0, 1.0]).unwrap(),
        )
        .unwrap();
        let combiner = q.compile().unwrap().1;
        assert_eq!(
            combiner.name(),
            "weighted(min, [0.6666666666666666, 0.3333333333333333])"
        );
        let third = combiner.combine(&[Score::ONE, Score::ZERO]).value();
        assert_eq!(third.to_bits(), 0x3fd5_5555_5555_5555);
    }
}
