//! Quickstart: grade objects, combine grades, and run Fagin's
//! algorithm by hand.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use fuzzymm::prelude::*;

fn main() {
    // 1. Grades live in [0, 1]; graded sets generalize sets and sorted
    //    lists (§3 of the paper).
    let mut reds: GradedSet<&str> = GradedSet::new();
    reds.insert("sunset.jpg", Score::clamped(0.93));
    reds.insert("ocean.jpg", Score::clamped(0.12));
    reds.insert("barn.jpg", Score::clamped(0.71));
    println!("reddest object: {:?}", reds.best());

    // 2. Scoring functions combine grades of subqueries. The standard
    //    fuzzy conjunction is min; product and friends are t-norms too.
    let color = Score::clamped(0.8);
    let shape = Score::clamped(0.5);
    println!("min-conjunction  = {}", Min.combine(&[color, shape]));
    println!("product-conjunction = {}", Product.combine(&[color, shape]));

    // 3. Care twice as much about color? The Fagin–Wimmers formula
    //    weights any rule (§5).
    let theta = Weighting::from_ratios(&[2.0, 1.0]).expect("positive ratios");
    println!(
        "weighted min (2:1) = {}",
        weighted_combine(&Min, &theta, &[color, shape])
    );

    // 4. Subsystems expose sorted + random access; Fagin's algorithm A₀
    //    finds the top k while touching a vanishing fraction of the
    //    database (Theorem 4.1: O(√(kN)) for two conjuncts).
    let n = 50_000;
    let mut sources = fmdb_middleware::workload::independent_uniform(n, 2, 42);
    let mut refs: Vec<&mut dyn Subsystem> = sources
        .iter_mut()
        .map(|s| s as &mut dyn Subsystem)
        .collect();
    let top = Cursor::once(PlanKind::Fa, 0.0, &mut refs, &Min, 5).expect("valid query");
    println!("\ntop-5 of a {n}-object conjunction:");
    for answer in &top.answers {
        println!("  object {:>6}  grade {}", answer.id, answer.grade);
    }
    println!("cost: {} (naive would pay {})", top.stats, 2 * n);
}
