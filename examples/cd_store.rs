//! The paper's running example: a store that sells compact disks.
//!
//! `Artist='Beatles'` is a traditional crisp predicate answered by a
//! relational repository; `AlbumColor='red'` is a fuzzy predicate
//! answered by a QBIC-like image subsystem. The middleware merges them
//! — and its planner picks the crisp-filter strategy of §4.1.
//!
//! ```sh
//! cargo run --example cd_store
//! ```

use fuzzymm::garlic::demo::cd_store;
use fuzzymm::garlic::executor::AlgoChoice;
use fuzzymm::garlic::sql::parse;

fn main() {
    let store = cd_store(500, 1998);

    for sql in [
        // The paper's conjunction of a crisp and a fuzzy predicate.
        "SELECT TOP 5 WHERE Artist='Beatles' AND Color~'red'",
        // Two fuzzy conjuncts: (Color='red') ∧ (Shape='round').
        "SELECT TOP 5 WHERE Color~'red' AND Shape~'round'",
        // A disjunction — max admits the m·k algorithm.
        "SELECT TOP 5 WHERE Color~'red' OR Color~'blue'",
        // Weighted: care twice as much about color as shape (§5).
        "SELECT TOP 5 WHERE Color~'red' AND Shape~'round' WEIGHTS 2, 1",
        // A negated atom reads its complement list.
        "SELECT TOP 5 WHERE NOT Color~'red'",
        // A tree is one monotone scoring function (§3): TA runs it.
        "SELECT TOP 5 WHERE Color~'red' AND (Shape~'round' OR Color~'blue')",
        "SELECT TOP 5 WHERE Color~'red' AND NOT Color~'blue'",
        // A negated compound is not monotone: the naive scan.
        "SELECT TOP 5 WHERE NOT (Color~'red' AND Shape~'round')",
    ] {
        let stmt = parse(sql).expect("well-formed demo query");
        println!("query : {sql}");
        println!("plan  : {}", store.explain(&stmt.query));
        let result = store.top_k(&stmt.query, stmt.k).expect("query runs");
        print!("top   :");
        for a in &result.answers {
            print!("  #{}({})", a.id, a.grade);
        }
        println!("\ncost  : {}\n", result.stats);
    }

    // Paging through results: "ask for the top 10 … then request the
    // next 10" (§4) — the cursor runs the plan `explain` names (A₀ for
    // a crisp filter) and continues it where it left off, over any
    // query monotone in its leaves.
    for sql in [
        "SELECT TOP 3 WHERE Color~'red' AND Shape~'round'",
        "SELECT TOP 3 WHERE Color~'red' AND (Shape~'round' OR Color~'blue')",
        "SELECT TOP 3 WHERE Color~'red' AND NOT Color~'blue'",
    ] {
        let stmt = parse(sql).expect("well-formed demo query");
        let mut cursor = store.cursor(&stmt.query).expect("monotone query");
        println!("cursor: {sql}");
        for batch in 1..=3 {
            let page = cursor.next_batch(3).expect("next batch");
            let ids: Vec<String> = page.answers.iter().map(|a| format!("#{}", a.id)).collect();
            let (ids, cost) = (ids.join(" "), page.stats);
            println!("page {batch}: {ids}   ({}, cumulative {cost})", page.plan);
        }
        println!();
    }

    // How much did the planner save? Compare against a forced naive run.
    let stmt = parse("SELECT TOP 5 WHERE Artist='Beatles' AND Color~'red'")
        .expect("well-formed demo query");
    let smart = store.top_k(&stmt.query, stmt.k).expect("query runs");
    let naive = store
        .top_k_with(&stmt.query, stmt.k, AlgoChoice::Naive)
        .expect("query runs");
    println!(
        "crisp-filter cost {} vs naive {} — {:.1}x cheaper",
        smart.stats.database_access_cost(),
        naive.stats.database_access_cost(),
        naive.stats.database_access_cost() as f64 / smart.stats.database_access_cost() as f64
    );
}
