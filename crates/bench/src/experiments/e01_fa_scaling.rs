//! E1 — Theorems 4.1/4.2: A₀'s database access cost scales as
//! `Θ(N^((m−1)/m) · k^(1/m))` on independent lists, against the naive
//! algorithm's `m·N`.

use std::sync::Arc;

use fmdb_core::scoring::tnorms::Min;
use fmdb_middleware::planner::PhysicalPlan;
use fmdb_middleware::request::SharedScoring;
use fmdb_middleware::workload::independent_uniform;

use crate::report::{f3, fit_exponent, int, Report, Table};
use crate::runners::{mean_cost, RunCfg};

/// Runs the experiment.
pub fn run(cfg: &RunCfg) -> Report {
    let min: SharedScoring = Arc::new(Min);
    let mut report = Report::new(
        "E1",
        "A0 cost scaling vs database size",
        "Thm 4.1/4.2: cost Θ(N^((m−1)/m)·k^(1/m)) for independent conjuncts; naive costs m·N",
    );
    let ns: Vec<usize> = if cfg.quick {
        vec![1 << 10, 1 << 12, 1 << 14]
    } else {
        vec![1 << 12, 1 << 14, 1 << 16, 1 << 18]
    };
    let ms = [2usize, 3, 4];
    let ks = [1usize, 10, 50];

    let mut exponents = Table::new(
        "fitted exponent of cost vs N (expect (m−1)/m)",
        &["m", "k", "fitted", "theory", "naive exp"],
    );
    let mut costs = Table::new(
        "database access cost (mean over seeds)",
        &["m", "k", "N", "A0 cost", "naive cost", "A0/naive"],
    );

    for &m in &ms {
        for &k in &ks {
            let mut fa_points = Vec::new();
            let mut naive_points = Vec::new();
            for &n in &ns {
                let fa = mean_cost(PhysicalPlan::Fa, &min, k, cfg.seeds, |seed| {
                    independent_uniform(n, m, seed)
                });
                let naive = mean_cost(PhysicalPlan::FullScan, &min, k, cfg.seeds, |seed| {
                    independent_uniform(n, m, seed)
                });
                let fc = fa.database_access_cost();
                let nc = naive.database_access_cost();
                fa_points.push((n as f64, fc as f64));
                naive_points.push((n as f64, nc as f64));
                costs.row(vec![
                    m.to_string(),
                    k.to_string(),
                    n.to_string(),
                    int(fc),
                    int(nc),
                    f3(fc as f64 / nc as f64),
                ]);
            }
            exponents.row(vec![
                m.to_string(),
                k.to_string(),
                f3(fit_exponent(&fa_points)),
                f3((m as f64 - 1.0) / m as f64),
                f3(fit_exponent(&naive_points)),
            ]);
        }
    }
    report.table(costs);
    report.table(exponents);
    report.note(
        "A0's fitted exponents should track (m−1)/m — ~0.5 for m=2, ~0.67 for m=3, ~0.75 for m=4 — \
         while the naive exponent is 1.0 by construction.",
    );
    report
}
