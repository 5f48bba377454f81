//! E3 — the matching lower bound (Theorem 4.2): for *strict* monotone
//! queries no algorithm beats `c′·N^((m−1)/m)·k^(1/m)`, so even the
//! pruned A₀ variant's savings are confined to the constant factor.

use std::sync::Arc;

use fmdb_core::scoring::tnorms::{Lukasiewicz, Min, Product};
use fmdb_middleware::planner::PhysicalPlan;
use fmdb_middleware::request::SharedScoring;
use fmdb_middleware::workload::independent_uniform;

use crate::report::{f3, fit_exponent, int, Report, Table};
use crate::runners::{mean_cost, RunCfg};

/// Runs the experiment.
pub fn run(cfg: &RunCfg) -> Report {
    let mut report = Report::new(
        "E3",
        "strict queries: pruning helps constants, not the exponent",
        "Thm 4.2 (lower bound): for strict monotone queries the cost is Ω(N^((m−1)/m)·k^(1/m)); \
         the improvements to A0 mentioned in §4.1 cannot beat it",
    );
    let ns: Vec<usize> = if cfg.quick {
        vec![1 << 10, 1 << 12, 1 << 14]
    } else {
        vec![1 << 12, 1 << 14, 1 << 16, 1 << 18]
    };
    let k = 10usize;
    let m = 2usize;
    let norms: Vec<(&str, SharedScoring)> = vec![
        ("min", Arc::new(Min)),
        ("product", Arc::new(Product)),
        ("lukasiewicz", Arc::new(Lukasiewicz)),
    ];
    let mut t = Table::new(
        "cost and normalized cost c = cost/√(kN), m = 2, k = 10",
        &["t-norm", "N", "A0 cost", "pruned cost", "A0 c", "pruned c"],
    );
    let mut exps = Table::new(
        "fitted exponents (theory: 0.5)",
        &["t-norm", "A0 exp", "pruned exp"],
    );
    for (name, norm) in &norms {
        let mut fa_pts = Vec::new();
        let mut pr_pts = Vec::new();
        for &n in &ns {
            let fa = mean_cost(PhysicalPlan::Fa, norm, k, cfg.seeds, |seed| {
                independent_uniform(n, m, seed)
            });
            let pr = mean_cost(
                PhysicalPlan::PrunedFa {
                    short_circuit: true,
                },
                norm,
                k,
                cfg.seeds,
                |seed| independent_uniform(n, m, seed),
            );
            let scale = ((k * n) as f64).sqrt();
            let (fc, pc) = (fa.database_access_cost(), pr.database_access_cost());
            fa_pts.push((n as f64, fc as f64));
            pr_pts.push((n as f64, pc as f64));
            t.row(vec![
                (*name).to_owned(),
                n.to_string(),
                int(fc),
                int(pc),
                f3(fc as f64 / scale),
                f3(pc as f64 / scale),
            ]);
        }
        exps.row(vec![
            (*name).to_owned(),
            f3(fit_exponent(&fa_pts)),
            f3(fit_exponent(&pr_pts)),
        ]);
    }
    report.table(t);
    report.table(exps);
    report.note(
        "Normalized costs stay roughly constant across N (the √(kN) law) and the pruned variant's \
         exponent matches plain A0's — pruning shrinks the constant only, as Theorem 4.2 demands.",
    );
    report
}
