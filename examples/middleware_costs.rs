//! Watch Theorem 4.1 happen: database access cost of A₀ vs the naive
//! algorithm as N grows, plus A₀'s "next k" through a cursor and the
//! mk disjunction merge.
//!
//! ```sh
//! cargo run --release --example middleware_costs
//! ```

use fuzzymm::core::scoring::conorms::Max;
use fuzzymm::middleware::algorithms::max_merge::MaxMerge;
use fuzzymm::middleware::workload::independent_uniform;
use fuzzymm::prelude::*;

fn run(
    algo: &dyn TopKAlgorithm,
    sources: &mut [VecSource],
    scoring: &dyn ScoringFunction,
    k: usize,
) -> AccessStats {
    let mut refs: Vec<&mut dyn Subsystem> = sources
        .iter_mut()
        .map(|s| s as &mut dyn Subsystem)
        .collect();
    algo.evaluate(&mut refs, scoring, k)
        .expect("valid query")
        .stats
}

fn main() {
    let k = 10;
    println!("top-{k} of a two-conjunct query (min), independent grades:\n");
    println!(
        "{:>9} {:>12} {:>12} {:>10}",
        "N", "A0 cost", "naive cost", "ratio"
    );
    for exp in [10u32, 12, 14, 16, 18] {
        let n = 1usize << exp;
        let mut s1 = independent_uniform(n, 2, 5);
        let fa = run(&FaginsAlgorithm, &mut s1, &Min, k);
        let mut s2 = independent_uniform(n, 2, 5);
        let naive = run(&Naive, &mut s2, &Min, k);
        println!(
            "{:>9} {:>12} {:>12} {:>9.1}%",
            n,
            fa.database_access_cost(),
            naive.database_access_cost(),
            100.0 * fa.database_access_cost() as f64 / naive.database_access_cost() as f64
        );
    }

    println!("\nthe same under max (disjunction): cost mk, independent of N:");
    for exp in [10u32, 14, 18] {
        let n = 1usize << exp;
        let mut s = independent_uniform(n, 2, 5);
        let cost = run(&MaxMerge, &mut s, &ConormScoring(Max), k);
        println!("  N = {:>7}: {}", n, cost);
    }

    println!("\nA0 resumed by a cursor (\"continue where we left off\", §4.1):");
    let n = 1 << 16;
    let mut sources = independent_uniform(n, 2, 5);
    let mut refs: Vec<&mut dyn Subsystem> = sources
        .iter_mut()
        .map(|s| s as &mut dyn Subsystem)
        .collect();
    let mut cursor = Cursor::new(PlanKind::Fa, 0.0).expect("A0 keeps a book");
    for batch in 1..=3 {
        let result = cursor.next_k(&mut refs, &Min, 5).expect("valid batch");
        let ids: Vec<String> = result
            .answers
            .iter()
            .map(|a| format!("#{}", a.id))
            .collect();
        println!(
            "  batch {batch}: {}  (cumulative cost {})",
            ids.join(" "),
            result.stats.database_access_cost()
        );
    }
}
