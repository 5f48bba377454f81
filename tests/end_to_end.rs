//! End-to-end integration: SQL text → parser → planner → executor →
//! answers, across every plan kind, checked against the full-scan
//! reference semantics.

use fuzzymm::garlic::demo::{ad_database, cd_store};
use fuzzymm::garlic::executor::{AlgoChoice, Garlic};
use fuzzymm::garlic::planner::PlanKind;
use fuzzymm::garlic::sql::parse;
use fuzzymm::prelude::*;

/// Runs a SQL query both through the planner and through the forced
/// naive reference, asserting the grade sequences agree.
fn check_against_reference(garlic: &Garlic, sql: &str) -> (PlanKind, AccessStats) {
    let stmt = parse(sql).unwrap_or_else(|e| panic!("parse '{sql}': {e}"));
    let fast = garlic
        .top_k(&stmt.query, stmt.k)
        .unwrap_or_else(|e| panic!("execute '{sql}': {e}"));
    // FullScan *is* the reference; compare plans only when there is a
    // faster path.
    if fast.plan != PlanKind::FullScan {
        let slow = garlic
            .top_k_with(&stmt.query, stmt.k, AlgoChoice::Naive)
            .unwrap_or_else(|e| panic!("naive '{sql}': {e}"));
        let fast_grades: Vec<Score> = fast.answers.iter().map(|a| a.grade).collect();
        let slow_grades: Vec<Score> = slow.answers.iter().map(|a| a.grade).collect();
        for (f, s) in fast_grades.iter().zip(&slow_grades) {
            assert!(
                f.approx_eq(*s, 1e-9),
                "'{sql}': plan {} grade {f} != reference {s}",
                fast.plan
            );
        }
        assert_eq!(fast_grades.len(), slow_grades.len(), "'{sql}'");
    }
    (fast.plan, fast.stats)
}

#[test]
fn all_plan_kinds_agree_with_reference_semantics() {
    let garlic = cd_store(200, 77);
    let cases: Vec<(&str, PlanKind)> = vec![
        (
            "SELECT TOP 10 WHERE Artist='Beatles' AND Color~'red'",
            PlanKind::CrispFilter,
        ),
        // The cost-based planner prices TA's shallower stopping depth
        // below A₀'s for these fuzzy conjunctions (DESIGN.md §11).
        (
            "SELECT TOP 10 WHERE Color~'red' AND Shape~'round'",
            PlanKind::Ta,
        ),
        (
            "SELECT TOP 10 WHERE Color~'red' AND Shape~'round' AND Color~'yellow'",
            PlanKind::Ta,
        ),
        (
            "SELECT TOP 10 WHERE Color~'red' OR Color~'blue'",
            PlanKind::MaxMerge,
        ),
        ("SELECT TOP 10 WHERE Color~'red'", PlanKind::MaxMerge),
        (
            "SELECT TOP 10 WHERE Color~'red' AND Shape~'round' WEIGHTS 3, 1",
            PlanKind::Ta,
        ),
        ("SELECT TOP 10 WHERE NOT Color~'red'", PlanKind::FullScan),
        (
            "SELECT TOP 10 WHERE Color~'red' AND (Shape~'round' OR Shape~'boxy')",
            PlanKind::FullScan,
        ),
    ];
    for (sql, expected_plan) in cases {
        let (plan, _) = check_against_reference(&garlic, sql);
        assert_eq!(plan, expected_plan, "'{sql}'");
    }
}

#[test]
fn plans_cost_less_than_the_reference() {
    let garlic = cd_store(400, 3);
    for sql in [
        "SELECT TOP 5 WHERE Artist='Beatles' AND Color~'red'",
        "SELECT TOP 5 WHERE Color~'red' OR Color~'blue'",
    ] {
        let stmt = parse(sql).expect("well-formed");
        let fast = garlic.top_k(&stmt.query, stmt.k).expect("runs");
        let slow = garlic
            .top_k_with(&stmt.query, stmt.k, AlgoChoice::Naive)
            .expect("runs");
        assert!(
            fast.stats.database_access_cost() < slow.stats.database_access_cost() / 2,
            "'{sql}': {} vs naive {}",
            fast.stats,
            slow.stats
        );
    }
}

#[test]
fn algorithm_overrides_return_the_same_grades() {
    let garlic = cd_store(150, 9);
    let stmt = parse("SELECT TOP 8 WHERE Color~'red' AND Shape~'spiky'").expect("well-formed");
    let reference = garlic
        .top_k_with(&stmt.query, stmt.k, AlgoChoice::Naive)
        .expect("runs");
    for choice in [
        AlgoChoice::Auto,
        AlgoChoice::Fa,
        AlgoChoice::PrunedFa,
        AlgoChoice::Ta,
    ] {
        let r = garlic
            .top_k_with(&stmt.query, stmt.k, choice)
            .expect("runs");
        let got: Vec<Score> = r.answers.iter().map(|a| a.grade).collect();
        let want: Vec<Score> = reference.answers.iter().map(|a| a.grade).collect();
        for (g, w) in got.iter().zip(&want) {
            assert!(g.approx_eq(*w, 1e-9), "{choice:?}");
        }
    }
}

#[test]
fn year_and_artist_double_crisp_filter() {
    let garlic = cd_store(100, 11);
    // Two crisp conjuncts + one fuzzy: survivors must satisfy both.
    let stmt = parse("SELECT TOP 5 WHERE Artist='Beatles' AND Year=1960 AND Color~'red'")
        .expect("well-formed");
    let r = garlic.top_k(&stmt.query, stmt.k).expect("runs");
    assert_eq!(r.plan, PlanKind::CrispFilter);
    for a in &r.answers {
        if a.grade > Score::ZERO {
            // Artist rotates mod 5, year rotates mod 10; both hit at
            // multiples of 10.
            assert_eq!(a.id % 10, 0, "object {}", a.id);
        }
    }
}

#[test]
fn purely_crisp_conjunctions_work_through_the_crisp_filter() {
    // No fuzzy conjunct at all: the filter plan degenerates to a
    // relational conjunctive query; matches grade 1, the rest 0.
    let garlic = cd_store(100, 53);
    let stmt = parse("SELECT TOP 4 WHERE Artist='Beatles' AND Year=1960").expect("ok");
    let fast = garlic.top_k(&stmt.query, stmt.k).expect("runs");
    assert_eq!(fast.plan, PlanKind::CrispFilter);
    let slow = garlic
        .top_k_with(&stmt.query, stmt.k, AlgoChoice::Naive)
        .expect("runs");
    let fg: Vec<Score> = fast.answers.iter().map(|a| a.grade).collect();
    let sg: Vec<Score> = slow.answers.iter().map(|a| a.grade).collect();
    assert_eq!(fg, sg);
    // Album ids divisible by lcm(5 artists, 10 years) = 10 match both.
    for a in &fast.answers {
        if a.grade == Score::ONE {
            assert_eq!(a.id % 10, 0);
        }
    }
}

#[test]
fn complex_object_query_lifts_to_advertisements() {
    let (garlic, ads, index) = ad_database(60, 15, 5);
    let stmt = parse("SELECT TOP 10 WHERE Color~'blue'").expect("well-formed");
    let photos = garlic.top_k(&stmt.query, stmt.k).expect("runs");
    let lifted = Garlic::lift_to_parents(&photos, &index, "AdPhoto", 5);
    assert!(!lifted.is_empty());
    let ad_ids: Vec<u64> = ads.iter().map(|a| a.id).collect();
    for p in &lifted {
        assert!(ad_ids.contains(&p.id));
    }
    // A parent's grade equals the max of its photos' grades among the
    // returned photo set.
    for parent in &lifted {
        let ad = ads.iter().find(|a| a.id == parent.id).expect("is an ad");
        let expected = photos
            .answers
            .iter()
            .filter(|p| ad.subs("AdPhoto").contains(&p.id))
            .map(|p| p.grade)
            .max()
            .expect("lifted parents have at least one returned photo");
        assert_eq!(parent.grade, expected);
    }
}

#[test]
fn query_by_example_via_sql() {
    // §2: "selecting an image I … and asking for other images whose
    // colors are 'close to' that of image I."
    let garlic = cd_store(80, 17);
    let stmt = parse("SELECT TOP 3 WHERE Color~'#12'").expect("well-formed");
    let r = garlic.top_k(&stmt.query, stmt.k).expect("runs");
    assert_eq!(r.answers[0].id, 12, "the example matches itself best");
    assert_eq!(r.answers[0].grade, Score::ONE);
}

#[test]
fn qbic_sources_honor_the_access_contract() {
    // Wrap every source the catalog produces in a ValidatingSource and
    // drain it with interleaved random accesses: the sorted stream must
    // be non-increasing, duplicate-free, and consistent with random
    // access (§4's contract, on which A₀'s correctness proof leans).
    use fuzzymm::core::query::{AtomicQuery, Target};
    use fuzzymm::middleware::source::ValidatingSource;
    let garlic = cd_store(60, 23);
    let atoms = [
        AtomicQuery::new("Artist", Target::Text("Beatles".into())),
        AtomicQuery::new("Color", Target::Similar("red".into())),
        AtomicQuery::new("Shape", Target::Similar("round".into())),
        AtomicQuery::new("Texture", Target::Similar("coarse".into())),
        AtomicQuery::new("Color", Target::Similar("#3".into())),
    ];
    for atom in &atoms {
        let source = garlic.catalog().source_for(atom).expect("source builds");
        let mut validated = ValidatingSource::new(source);
        let mut ids = Vec::new();
        while let Some(so) = validated.sorted_next().unwrap() {
            ids.push(so.id);
        }
        for id in ids {
            validated.random_access(id).unwrap();
        }
        assert!(
            validated.is_clean(),
            "{atom:?} violated the contract: {:?}",
            validated.violations()
        );
    }
}

#[test]
fn using_clause_changes_the_ranking_rule_end_to_end() {
    let garlic = cd_store(120, 31);
    let min_q = parse("SELECT TOP 5 WHERE Color~'red' AND Shape~'round'").expect("ok");
    let prod_q =
        parse("SELECT TOP 5 WHERE Color~'red' AND Shape~'round' USING product").expect("ok");
    let r_min = garlic.top_k(&min_q.query, 5).expect("runs");
    let r_prod = garlic.top_k(&prod_q.query, 5).expect("runs");
    // Product grades are bounded by min grades pointwise on the same
    // object set; top grades must differ unless degenerate.
    assert!(r_prod.answers[0].grade <= r_min.answers[0].grade);
    // And both agree with their own naive reference.
    let n_prod = garlic
        .top_k_with(&prod_q.query, 5, AlgoChoice::Naive)
        .expect("runs");
    for (a, b) in r_prod.answers.iter().zip(&n_prod.answers) {
        assert!(a.grade.approx_eq(b.grade, 1e-9));
    }
}

#[test]
fn full_scan_handles_repeated_atoms_and_nested_weighted_nodes() {
    use fuzzymm::core::weights::Weighting;
    use std::sync::Arc;
    let garlic = cd_store(60, 41);
    // The same atom appears twice; idempotence of max makes
    // (red ∨ red) ≡ red, and the executor must not double-drain it.
    let red = || {
        fuzzymm::core::query::Query::atomic(
            "Color",
            fuzzymm::core::query::Target::Similar("red".into()),
        )
    };
    let round = || {
        fuzzymm::core::query::Query::atomic(
            "Shape",
            fuzzymm::core::query::Target::Similar("round".into()),
        )
    };
    let doubled =
        fuzzymm::core::query::Query::not(fuzzymm::core::query::Query::or(vec![red(), red()]));
    let single = fuzzymm::core::query::Query::not(red());
    let a = garlic.top_k(&doubled, 5).expect("runs");
    let b = garlic.top_k(&single, 5).expect("runs");
    for (x, y) in a.answers.iter().zip(&b.answers) {
        assert!(x.grade.approx_eq(y.grade, 1e-9));
    }
    // A weighted node *nested* under a disjunction forces the full
    // scan; grades must follow the reference semantics.
    let weighted = fuzzymm::core::query::Query::weighted(
        vec![red(), round()],
        Arc::new(fuzzymm::core::scoring::tnorms::Min),
        Weighting::from_ratios(&[2.0, 1.0]).expect("positive ratios"),
    )
    .expect("arity matches");
    let nested = fuzzymm::core::query::Query::or(vec![weighted, round()]);
    let r = garlic.top_k(&nested, 5).expect("runs");
    assert_eq!(r.plan, PlanKind::FullScan);
    assert_eq!(r.answers.len(), 5);
    for w in r.answers.windows(2) {
        assert!(w[0].grade >= w[1].grade);
    }
}

#[test]
fn optimizer_and_heuristic_agree_on_answers() {
    use fuzzymm::garlic::cost::CostEstimator;
    let garlic = cd_store(150, 47);
    let estimator = CostEstimator::default();
    for sql in [
        "SELECT TOP 6 WHERE Artist='Beatles' AND Color~'red'",
        "SELECT TOP 6 WHERE Color~'red' AND Shape~'round'",
        "SELECT TOP 6 WHERE Color~'red' OR Color~'blue'",
    ] {
        let stmt = parse(sql).expect("well-formed");
        let heuristic = garlic.top_k(&stmt.query, stmt.k).expect("runs");
        let optimized = garlic
            .top_k_policy(&stmt.query, stmt.k, ExecPolicy::new().cost_model(estimator))
            .expect("runs");
        let hg: Vec<Score> = heuristic.answers.iter().map(|a| a.grade).collect();
        let og: Vec<Score> = optimized.answers.iter().map(|a| a.grade).collect();
        for (h, o) in hg.iter().zip(&og) {
            assert!(h.approx_eq(*o, 1e-9), "'{sql}'");
        }
    }
}

#[test]
fn explain_is_stable_and_informative() {
    let garlic = cd_store(50, 13);
    let stmt = parse("SELECT TOP 3 WHERE Artist='Beatles' AND Color~'red'").expect("well-formed");
    let text = garlic.explain(&stmt.query);
    assert!(text.contains("crisp-filter"), "{text}");
    // The decision record lists every priced candidate (DESIGN.md §11).
    assert!(text.contains("cost-based choice"), "{text}");
    assert!(text.contains("candidates:"), "{text}");
}
