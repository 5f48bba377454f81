//! A cursor runs the plan `Garlic::explain` names.
//!
//! `Garlic::cursor` binds a query once and plans it at the nominal
//! k = 10 that `explain` prices, so every batch runs
//! `plan_costed(q, …, 10, UNIFORM).kind` — but the crisp filter, which
//! keeps no book to resume from: its query runs A₀. The statements
//! below reach the crisp filter, A₀, TA and the max merge across three
//! store sizes; each cursor's batches, appended, carry the grades of a
//! one-shot run at their total, bit for bit.

use fmdb_garlic::demo::cd_store;
use fmdb_garlic::planner::{plan_costed, PlanKind};
use fmdb_garlic::sql::parse;
use fmdb_middleware::stats::CostModel;

const STATEMENTS: [&str; 8] = [
    "SELECT TOP 10 WHERE Artist = 'Beatles' AND Color ~ 'red'",
    "SELECT TOP 10 WHERE Color ~ 'red' AND Texture ~ 'coarse'",
    "SELECT TOP 10 WHERE Color ~ 'yellow' OR Texture ~ 'rough'",
    "SELECT TOP 10 WHERE Color ~ 'red' AND Shape ~ 'round' USING product",
    "SELECT TOP 10 WHERE Color ~ 'red' AND Shape ~ 'round' USING mean",
    "SELECT TOP 10 WHERE Color ~ 'red' AND (Shape ~ 'round' OR Color ~ 'blue')",
    "SELECT TOP 10 WHERE Color ~ 'red' AND NOT Color ~ 'blue'",
    "SELECT TOP 10 WHERE Artist = 'Beatles' OR Color ~ 'red'",
];

#[test]
fn a_cursor_runs_the_plan_explain_names() {
    let mut ran = Vec::new();
    for n in [12, 30, 300] {
        let garlic = cd_store(n, 11);
        for sql in STATEMENTS {
            let query = parse(sql).unwrap().query;
            let named = plan_costed(&query, garlic.catalog(), 10, &CostModel::UNIFORM).kind;
            assert!(garlic.explain(&query).starts_with(named.name()), "{sql}");
            let expected = match named {
                PlanKind::CrispFilter => PlanKind::Fa,
                kind => kind,
            };
            let mut cursor = garlic.cursor(&query).unwrap();
            let mut stitched = Vec::new();
            for batch in [4, 3, 5] {
                let page = cursor.next_batch(batch).unwrap();
                assert_eq!(page.plan, expected, "n={n} {sql}");
                stitched.extend(page.answers);
            }
            let total = 4 + 3 + 5;
            let once = garlic.top_k(&query, total).unwrap();
            let bits = |answers: &[fmdb_core::score::ScoredObject<u64>]| -> Vec<u64> {
                answers.iter().map(|a| a.grade.value().to_bits()).collect()
            };
            assert_eq!(bits(&stitched), bits(&once.answers), "n={n} {sql}");
            ran.push((named, expected));
        }
    }
    for pair in [
        (PlanKind::CrispFilter, PlanKind::Fa),
        (PlanKind::Fa, PlanKind::Fa),
        (PlanKind::Ta, PlanKind::Ta),
        (PlanKind::MaxMerge, PlanKind::MaxMerge),
    ] {
        assert!(
            ran.contains(&pair),
            "no statement planned {pair:?}: {ran:?}"
        );
    }
}
