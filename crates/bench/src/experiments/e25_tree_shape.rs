//! E25 — a query tree is one monotone scoring function (§3), so the
//! threshold family runs it (§4.1): a nested or negated query pays
//! accesses near its flat neighbour's, not the naive scan's `m·N`.

use fmdb_garlic::demo::cd_store;
use fmdb_garlic::sql::parse;

use crate::report::{f3, int, Bound, Report, Table};
use crate::runners::RunCfg;

/// The flat neighbour, then ROADMAP item 19's three trees.
const ROWS: [&str; 4] = [
    "Color~'red' AND Shape~'round'",
    "Color~'red' AND (Shape~'round' OR Color~'blue')",
    "(Color~'red' AND Shape~'round') OR (Color~'blue' AND Shape~'round')",
    "Color~'red' AND NOT Color~'blue'",
];

/// The ceiling on `charged / (m·N)`: a tree that the threshold family
/// runs reads a small part of its lists (the largest row, N = 1000,
/// reads 0.086); the naive scan it replaced read all of them (1.0).
const MAX_TREE_VS_SCAN: f64 = 0.25;

/// Runs the experiment.
pub fn run(cfg: &RunCfg) -> Report {
    let mut report = Report::new(
        "E25",
        "charged cost against query-tree shape",
        "§3: every node is a scoring function, so a tree of monotone nodes is one monotone \
         function; §4.1: A0 and its successors are correct for every monotone function — a \
         nested or negated query need not read every list to its end",
    );
    let k = 10usize;
    let sizes: &[usize] = if cfg.quick {
        &[1000, 4000]
    } else {
        &[1000, 4000, 16000]
    };
    let mut t = Table::new(
        format!("cd_store(N, 1998), k = {k}; m = distinct atoms"),
        &[
            "N",
            "query",
            "plan",
            "m",
            "charged",
            "flat neighbour",
            "tree_vs_scan",
        ],
    );
    let mut metrics = Vec::new();
    for &n in sizes {
        let garlic = cd_store(n, 1998);
        let mut flat = 0;
        for (row, sql) in ROWS.iter().enumerate() {
            let statement = parse(&format!("SELECT TOP {k} WHERE {sql}")).expect("well-formed");
            let result = garlic.top_k(&statement.query, k).expect("query runs");
            let charged = result.stats.database_access_cost();
            if row == 0 {
                flat = charged;
            }
            let atoms = statement.query.atoms();
            let m = (0..atoms.len())
                .filter(|&i| !atoms[..i].contains(&atoms[i]))
                .count();
            let tree_vs_scan = charged as f64 / (m * n) as f64;
            t.row(vec![
                int(n as u64),
                (*sql).to_owned(),
                result.plan.to_string(),
                int(m as u64),
                int(charged),
                int(flat),
                f3(tree_vs_scan),
            ]);
            metrics.push((format!("tree_vs_scan_n{n}_q{row}"), tree_vs_scan));
        }
    }
    report.table(t);
    for (name, value) in metrics {
        report.gated(
            name,
            value,
            Bound::PositiveAtMost(MAX_TREE_VS_SCAN),
            "a tree that reads most of its lists ran the naive scan: read \
             `Query::compile` (is the tree monotone in its leaves?) and \
             `garlic::planner::optimize`",
        );
    }
    report.note(
        "the naive scan, the plan every nested or negated query took before, reads all m lists \
         to the end: tree_vs_scan = 1. The negated atom reads its complement list, built once \
         from the bound list.",
    );
    report
}
