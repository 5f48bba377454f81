//! E13 — extension: the Threshold Algorithm against A₀, quantifying the
//! headroom left by §6's open problem ("finding efficient algorithms in
//! various natural cases") that Fagin–Lotem–Naor later closed.

use std::sync::Arc;

use fmdb_core::scoring::tnorms::Min;
use fmdb_middleware::planner::PhysicalPlan;
use fmdb_middleware::request::SharedScoring;
use fmdb_middleware::source::VecSource;
use fmdb_middleware::workload::{adversarial_anti, correlated_pair, independent_uniform};

use crate::report::{f3, int, Report, Table};
use crate::runners::{mean_cost, RunCfg};

/// Runs the experiment.
pub fn run(cfg: &RunCfg) -> Report {
    let min: SharedScoring = Arc::new(Min);
    let mut report = Report::new(
        "E13",
        "Threshold Algorithm vs the A0 family",
        "§6 open problem: \"finding efficient algorithms in various natural cases\" — answered \
         in 2001 by TA, which adapts its stopping rule to the instance",
    );
    let n = cfg.pick(1 << 14, 1 << 10);
    let k = 10usize;
    type Workload = Box<dyn Fn(u64) -> Vec<VecSource>>;
    let workloads: Vec<(&str, Workload)> = vec![
        (
            "independent",
            Box::new(move |seed| independent_uniform(n, 2, seed)),
        ),
        (
            "correlated ρ=0.8",
            Box::new(move |seed| correlated_pair(n, 0.8, seed)),
        ),
        (
            "anti ρ=-0.8",
            Box::new(move |seed| correlated_pair(n, -0.8, seed)),
        ),
        ("adversarial", Box::new(move |_| adversarial_anti(n))),
    ];
    let mut t = Table::new(
        format!("database access cost, N = {n}, m = 2, k = {k}, min"),
        &["workload", "A0", "pruned A0", "TA", "TA/A0"],
    );
    for (name, make) in &workloads {
        let fa = mean_cost(PhysicalPlan::Fa, &min, k, cfg.seeds, &**make);
        let pr = mean_cost(
            PhysicalPlan::PrunedFa {
                short_circuit: true,
            },
            &min,
            k,
            cfg.seeds,
            &**make,
        );
        let ta = mean_cost(PhysicalPlan::Ta, &min, k, cfg.seeds, &**make);
        t.row(vec![
            (*name).to_owned(),
            int(fa.database_access_cost()),
            int(pr.database_access_cost()),
            int(ta.database_access_cost()),
            f3(ta.database_access_cost() as f64 / fa.database_access_cost() as f64),
        ]);
    }
    report.table(t);
    report.note(
        "on independent data the two are comparable (both ~√(kN)); the gap opens on skewed \
         instances, where TA's data-adaptive threshold stops long before A0's see-k-matches \
         rule — the instance optimality that resolved the paper's open problem.",
    );
    report
}
