//! A query tree is one scoring function of its leaves (§3), and the
//! threshold family runs it (§4.1).
//!
//! Random trees — depth ≤ 3 over a pool of ≤ 3 atoms, so repeated atoms
//! are common; nodes min, max, product, the arithmetic and geometric
//! means and skew-weighted min; `NOT` on atoms and on compounds — run
//! on `demo::cd_store(300, seed)` with k ∈ {1, 5, 20} under every
//! `AlgoChoice` and under `PlanKind::Ca`. Every answer must equal
//! `Query::grade` evaluated over every object of the atoms' lists: ids
//! and grade bits, ties in oid order. For a tree monotone in its leaves
//! a cursor's batches, concatenated, are those answers too.
//!
//! One freedom is left, the paper's own ("ties may be broken
//! arbitrarily", §4.1): where the k-th grade ties the next one, an
//! algorithm that halts early may return other tied objects than the
//! smallest oids — TA, CA and pruned A₀ do, on the crisp atom's ties,
//! for flat queries as much as for trees (ROADMAP item 23). There the
//! answers must still carry the reference grades bit for bit, each its
//! own object's grade, in oid order within a grade.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use fmdb_core::query::{AtomicQuery, Query, ScoringHandle, Target};
use fmdb_core::score::Score;
use fmdb_core::scoring::conorms::Max;
use fmdb_core::scoring::means::{ArithmeticMean, GeometricMean};
use fmdb_core::scoring::tnorms::{Min, Product};
use fmdb_core::scoring::ConormScoring;
use fmdb_core::weights::Weighting;
use fmdb_garlic::catalog::Catalog;
use fmdb_garlic::demo::{cd_store, ARTISTS};
use fmdb_garlic::executor::{AlgoChoice, Garlic};
use fmdb_garlic::object::{Oid, Value};
use fmdb_garlic::planner::PlanKind;
use fmdb_garlic::repository::{QbicRepository, TableRepository};
use fmdb_garlic::sql::parse;
use fmdb_media::synth::{SynthConfig, SyntheticDb};
use fmdb_middleware::policy::ExecPolicy;
use fmdb_middleware::source::Subsystem;

/// `(oid, grade bits)`, best first.
type Answers = Vec<(Oid, u64)>;

/// The atoms a tree's pool is drawn from: fuzzy lists, a crisp one
/// (grades 0 and 1 only: ties everywhere) and a query by example.
const MENU: [(&str, &str); 6] = [
    ("Color", "red"),
    ("Color", "blue"),
    ("Shape", "round"),
    ("Texture", "coarse"),
    ("Artist", "Beatles"),
    ("Color", "#12"),
];

fn atom(at: usize) -> Query {
    let (attribute, target) = MENU[at % MENU.len()];
    let target = match attribute {
        "Artist" => Target::Text(target.into()),
        _ => Target::Similar(target.into()),
    };
    Query::atomic(attribute, target)
}

/// A tree of depth ≤ `depth` over the atoms of `pool`.
fn tree(rng: &mut StdRng, depth: usize, pool: &[usize]) -> Query {
    let node = if depth == 0 || rng.gen_bool(0.3) {
        atom(pool[rng.gen_range(0..pool.len())])
    } else {
        let children: Vec<Query> = (0..rng.gen_range(1..=3usize))
            .map(|_| tree(rng, depth - 1, pool))
            .collect();
        let rule: ScoringHandle = match rng.gen_range(0..5u8) {
            0 => Arc::new(Min),
            1 => Arc::new(ConormScoring(Max)),
            2 => Arc::new(Product),
            3 => Arc::new(ArithmeticMean),
            _ => Arc::new(GeometricMean),
        };
        if rng.gen_bool(0.2) {
            let skew = Weighting::from_ratios(&[3.0, 2.0, 1.0][..children.len()]).unwrap();
            Query::weighted(children, Arc::new(Min), skew).unwrap()
        } else if rng.gen_bool(0.5) {
            Query::and_with(children, rule)
        } else {
            Query::or_with(children, rule)
        }
    };
    if rng.gen_bool(0.25) {
        Query::not(node)
    } else {
        node
    }
}

/// `Query::grade` over every object of the query's atom lists, grade
/// descending, ties by ascending oid.
fn reference(garlic: &Garlic, query: &Query) -> Answers {
    let mut lists: Vec<(&AtomicQuery, BTreeMap<Oid, Score>)> = Vec::new();
    for atom in query.atoms() {
        let mut source = garlic.catalog().source_for(atom).unwrap();
        let entries = Subsystem::sorted_batch(&mut source, usize::MAX).unwrap();
        lists.push((atom, entries.iter().map(|so| (so.id, so.grade)).collect()));
    }
    let objects: BTreeMap<Oid, ()> = lists
        .iter()
        .flat_map(|(_, list)| list.keys().map(|&oid| (oid, ())))
        .collect();
    let mut graded: Vec<(Oid, Score)> = objects
        .keys()
        .map(|&oid| {
            let grade = query.grade(&|a: &AtomicQuery| {
                let list = &lists.iter().find(|(b, _)| *b == a)?.1;
                Some(list.get(&oid).copied().unwrap_or(Score::ZERO))
            });
            (oid, grade.unwrap())
        })
        .collect();
    graded.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    graded
        .into_iter()
        .map(|(oid, grade)| (oid, grade.value().to_bits()))
        .collect()
}

/// Whether `got` is the top `k` of `all` (the reference, best first),
/// up to the choice among objects tied at a k-th grade that the next
/// object ties too.
fn is_top_k(got: &Answers, all: &Answers, k: usize) -> bool {
    let want = &all[..k.min(all.len())];
    let tied = all.len() > k && want.last().map(|w| w.1) == all.get(k).map(|next| next.1);
    let ordered = got.windows(2).all(|w| w[0].1 != w[1].1 || w[0].0 < w[1].0);
    got == want
        || tied
            && ordered
            && got.iter().map(|a| a.1).eq(want.iter().map(|w| w.1))
            && got.iter().all(|answer| all.contains(answer))
}

fn bits(answers: &[fmdb_core::score::ScoredObject<Oid>]) -> Answers {
    answers
        .iter()
        .map(|a| (a.id, a.grade.value().to_bits()))
        .collect()
}

/// The random tree of `seed` on `cd_store(300, seed % 4)`: every plan
/// answers as the tree grades, and a cursor's two batches, joined, are
/// such an answer.
fn plans_answer_as_the_tree_grades(seed: u64) -> Result<(), TestCaseError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let pool: Vec<usize> = (0..rng.gen_range(1..=3usize))
        .map(|_| rng.gen_range(0..MENU.len()))
        .collect();
    let query = tree(&mut rng, 3, &pool);
    let garlic = cd_store(300, seed % 4);
    let monotone = query.compile().unwrap().1.is_monotone();
    let all = reference(&garlic, &query);
    for k in [1usize, 5, 20] {
        for choice in [
            AlgoChoice::Auto,
            AlgoChoice::Fa,
            AlgoChoice::PrunedFa,
            AlgoChoice::Ta,
            AlgoChoice::Naive,
        ] {
            let got = garlic.top_k_with(&query, k, choice).unwrap();
            let what = format!("{query} k={k} {choice:?}: {}", got.explanation);
            prop_assert!(is_top_k(&bits(&got.answers), &all, k), "{}", what);
            let scanned = got.plan == PlanKind::FullScan;
            prop_assert_eq!(
                scanned,
                !monotone || choice == AlgoChoice::Naive,
                "{}",
                what
            );
        }
        let ca = garlic
            .top_k_policy(&query, k, ExecPolicy::new().plan(PlanKind::Ca { h: 1 }))
            .unwrap();
        prop_assert!(
            is_top_k(&bits(&ca.answers), &all, k),
            "{} k={} CA",
            query,
            k
        );
        if monotone {
            let mut cursor = garlic.cursor(&query).unwrap();
            let mut stitched = bits(&cursor.next_batch(k.div_ceil(2)).unwrap().answers);
            if k > 1 {
                stitched.extend(bits(&cursor.next_batch(k / 2).unwrap().answers));
            }
            prop_assert!(is_top_k(&stitched, &all, k), "{} k={} cursor", query, k);
        } else {
            prop_assert!(garlic.cursor(&query).is_err(), "{}", query);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn every_plan_answers_as_the_tree_grades(seed in 0u64..1_000_000) {
        plans_answer_as_the_tree_grades(seed)?;
    }
}

/// Trees that failed under other seeds than the default, each pinned.
/// Each is max over its leaves only to rounding — `WEIGHTED[min; 0.6,
/// 0.4](x, x)` grades `0.2x + 0.8x`, an ulp off `x` — and max-merge
/// answered with a list's grade instead of the tree's: over one leaf
/// (813773, 645791, 554427, 868963), and over two, for an object one
/// list had not revealed (987851, 140748).
#[test]
fn pinned_trees_answer_as_the_tree_grades() {
    for seed in [813773, 645791, 554427, 868963, 987851, 140748] {
        plans_answer_as_the_tree_grades(seed).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

/// `Color~'red' AND Color~'red' USING product` has one leaf and grades
/// it x²: the one-list shortcut, the m·k merge under max, would answer
/// with x.
#[test]
fn a_repeated_atom_under_product_is_not_merged() {
    let garlic = cd_store(200, 7);
    let statement = parse("SELECT TOP 5 WHERE Color~'red' AND Color~'red' USING product").unwrap();
    let got = garlic.top_k(&statement.query, statement.k).unwrap();
    assert_ne!(got.plan, PlanKind::MaxMerge, "{}", got.explanation);
    assert_eq!(
        bits(&got.answers),
        reference(&garlic, &statement.query)[..5]
    );
    let red = garlic.top_k(&atom(0), 5).unwrap();
    for (squared, plain) in got.answers.iter().zip(&red.answers) {
        assert_eq!(squared.id, plain.id);
        assert_eq!(
            squared.grade.value(),
            plain.grade.value() * plain.grade.value()
        );
    }
}

/// A 40-row table beside 60 images: objects 40–59 are absent from the
/// `Artist` list, so `NOT Artist='Beatles'` grades them 1. The answers
/// are the literals `Garlic::full_scan` returned at 0b7e31d, before it
/// was deleted.
#[test]
fn a_negated_atom_grades_objects_its_list_lacks_one() {
    let mut table = TableRepository::new("store", 40);
    for i in 0..40u64 {
        table.set(
            i,
            "Artist",
            Value::text(ARTISTS[i as usize % ARTISTS.len()]),
        );
    }
    let db = SyntheticDb::generate(&SynthConfig {
        count: 60,
        bins_per_channel: 4,
        seed: 3,
        ..SynthConfig::default()
    });
    let mut catalog = Catalog::new();
    catalog.register(Box::new(table)).unwrap();
    catalog
        .register(Box::new(QbicRepository::new("qbic", db)))
        .unwrap();
    let garlic = Garlic::new(catalog);
    let cases: [(&str, Answers); 2] = [
        (
            "SELECT TOP 12 WHERE Color~'red' AND NOT Artist='Beatles'",
            vec![
                (48, 0x3fe9b7d167c498a8),
                (13, 0x3fe8ff2e7dbf2c3e),
                (14, 0x3fe8bd5cac9cfdd2),
                (38, 0x3fe8a9a5b68536f6),
                (58, 0x3fe85dd1c0ec1851),
                (26, 0x3fe458a0e6c3398f),
                (6, 0x3fdfaca141b2cd28),
                (17, 0x3fdf2922337c07ac),
                (45, 0x3fde7025210671d6),
                (51, 0x3fd929e717fdd00e),
                (41, 0x3fd70547f51c0dfa),
                (55, 0x3fd5f84e0d630e12),
            ],
        ),
        (
            "SELECT TOP 12 WHERE NOT Artist='Kinks' AND NOT Color~'green'",
            vec![
                (39, 0x3ff0000000000000),
                (23, 0x3fefa85af7677670),
                (3, 0x3fef62963640e2a9),
                (48, 0x3feeaad60d1959e4),
                (37, 0x3fee104352376ff3),
                (38, 0x3fedcfd87a75a073),
                (24, 0x3fedc2d7be337d11),
                (9, 0x3fedb429675ac5a4),
                (13, 0x3fedaf0fad9eccd4),
                (56, 0x3feda224db01f26f),
                (4, 0x3fed994f22b97fc3),
                (58, 0x3fed8b272301b625),
            ],
        ),
    ];
    for (sql, want) in cases {
        let statement = parse(sql).unwrap();
        for choice in [AlgoChoice::Auto, AlgoChoice::Ta, AlgoChoice::Naive] {
            let got = garlic
                .top_k_with(&statement.query, statement.k, choice)
                .unwrap();
            assert_eq!(bits(&got.answers), want, "{sql} {choice:?}");
        }
        let auto = garlic.top_k(&statement.query, statement.k).unwrap();
        assert_ne!(auto.plan, PlanKind::FullScan, "{sql}");
        assert!(
            auto.stats.database_access_cost() < 100,
            "{sql}: {}",
            auto.stats
        );
    }
}
