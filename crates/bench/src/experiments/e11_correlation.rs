//! E11 — the independence assumption and its failure mode: Theorem 4.1
//! is probabilistic over *independent* lists; §6 notes "a (somewhat
//! artificial) case where the database access cost is necessarily
//! linear in the database size".

use std::sync::Arc;

use fmdb_core::scoring::tnorms::Min;
use fmdb_middleware::planner::PhysicalPlan;
use fmdb_middleware::policy::ExecPolicy;
use fmdb_middleware::request::SharedScoring;
use fmdb_middleware::workload::{adversarial_anti, correlated_pair};

use crate::report::{f3, fit_exponent, int, Report, Table};
use crate::runners::{mean_cost, run_policy, RunCfg};

/// Runs the experiment.
pub fn run(cfg: &RunCfg) -> Report {
    let min: SharedScoring = Arc::new(Min);
    let mut report = Report::new(
        "E11",
        "correlation sensitivity and the adversarial linear-cost instance",
        "Thm 4.1 assumes independence; §6: an adversarial instance forces linear cost \
         (provable lower bound)",
    );
    let n = cfg.pick(1 << 14, 1 << 10);
    let k = 10usize;

    let mut corr = Table::new(
        format!("A0 and TA cost vs correlation ρ (N = {n}, k = {k}, min)"),
        &["rho", "A0 cost", "TA cost", "A0 cost/√(kN)"],
    );
    for &rho in &[-1.0f64, -0.75, -0.5, 0.0, 0.5, 0.75, 1.0] {
        let fa = mean_cost(PhysicalPlan::Fa, &min, k, cfg.seeds, |seed| {
            correlated_pair(n, rho, seed)
        });
        let ta = mean_cost(PhysicalPlan::Ta, &min, k, cfg.seeds, |seed| {
            correlated_pair(n, rho, seed)
        });
        corr.row(vec![
            f3(rho),
            int(fa.database_access_cost()),
            int(ta.database_access_cost()),
            f3(fa.database_access_cost() as f64 / ((k * n) as f64).sqrt()),
        ]);
    }
    report.table(corr);

    let ns: Vec<usize> = if cfg.quick {
        vec![1 << 9, 1 << 10, 1 << 11]
    } else {
        vec![1 << 11, 1 << 13, 1 << 15]
    };
    let mut adv = Table::new(
        "the adversarial instance (list 2 reverses list 1): cost vs N",
        &["N", "A0 cost", "A0 cost/N", "TA cost", "TA cost/N"],
    );
    let mut fa_pts = Vec::new();
    for &n in &ns {
        let mut sources = adversarial_anti(n);
        let forced = |plan| ExecPolicy::new().plan(plan);
        let fa = run_policy(forced(PhysicalPlan::Fa), &mut sources, &min, k).stats;
        let mut sources = adversarial_anti(n);
        let ta = run_policy(forced(PhysicalPlan::Ta), &mut sources, &min, k).stats;
        fa_pts.push((n as f64, fa.database_access_cost() as f64));
        adv.row(vec![
            n.to_string(),
            int(fa.database_access_cost()),
            f3(fa.database_access_cost() as f64 / n as f64),
            int(ta.database_access_cost()),
            f3(ta.database_access_cost() as f64 / n as f64),
        ]);
    }
    report.table(adv);
    report.note(format!(
        "adversarial-instance exponent for A0: {:.3} (theory: 1.0 — the linear lower bound).",
        fit_exponent(&fa_pts)
    ));
    report.note(
        "positive correlation helps (the same objects top both lists); negative correlation \
         hurts, and at ρ = −1 the cost approaches the linear worst case — exactly where \
         Theorem 4.1's independence assumption is violated.",
    );
    report
}
