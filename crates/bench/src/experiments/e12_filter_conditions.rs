//! E12 — Chaudhuri–Gravano filter conditions (\[CG96\], quoted in §4.1):
//! simulating A₀ with "the color score is at least .2"-style filter
//! queries; the τ schedule trades restarts against over-fetching.

use std::sync::Arc;

use fmdb_core::scoring::tnorms::Min;
use fmdb_middleware::algorithms::cg_filter::CgFilter;
use fmdb_middleware::planner::PhysicalPlan;
use fmdb_middleware::request::SharedScoring;
use fmdb_middleware::source::Subsystem;
use fmdb_middleware::workload::independent_uniform;

use crate::report::{f3, int, Report, Table};
use crate::runners::{mean_cost, RunCfg};

/// Runs the experiment.
pub fn run(cfg: &RunCfg) -> Report {
    let min: SharedScoring = Arc::new(Min);
    let mut report = Report::new(
        "E12",
        "filter-condition simulation of A0",
        "[CG96]: simulate A0 with filter conditions (grade ≥ τ), restarting with a lower τ \
         until k results survive",
    );
    let n = cfg.pick(1 << 14, 1 << 10);
    let k = 10usize;
    let fa_cost = mean_cost(PhysicalPlan::Fa, &min, k, cfg.seeds, |seed| {
        independent_uniform(n, 2, seed)
    })
    .database_access_cost();

    let mut t = Table::new(
        format!("τ schedules on two independent lists (N = {n}, k = {k}); A0 costs {fa_cost}"),
        &["τ₀", "decay", "rounds", "final τ", "total cost", "cost/A0"],
    );
    // With uniform grades a τ-filter on two lists keeps ≈ N·(1−τ)²
    // candidates, so the restart regime starts near τ* = 1 − √(k/N);
    // sweep schedules on both sides of it.
    let tau_star = 1.0 - ((k as f64) / (n as f64)).sqrt();
    for &(tau0, decay) in &[
        (1.0 - (1.0 - tau_star) / 4.0, 0.9f64), // far too greedy: several restarts
        (1.0 - (1.0 - tau_star) / 2.0, 0.9),    // somewhat greedy
        (tau_star, 0.9),                        // near the sweet spot
        (0.8f64.min(tau_star), 0.5),
        (0.5, 0.5),
        (0.05, 0.5),
    ] {
        let mut rounds_total = 0u64;
        let mut cost_total = 0u64;
        let mut tau_final = 0.0;
        for seed in 0..cfg.seeds {
            let mut sources = independent_uniform(n, 2, seed);
            let mut refs: Vec<&mut dyn Subsystem> = sources
                .iter_mut()
                .map(|s| s as &mut dyn Subsystem)
                .collect();
            let filter = CgFilter::new(tau0, decay).expect("valid schedule");
            let run = filter.run(&mut refs, &Min, k).expect("query runs");
            rounds_total += u64::from(run.rounds);
            cost_total += run.result.stats.database_access_cost();
            tau_final = run.final_tau;
        }
        let cost = cost_total / cfg.seeds;
        t.row(vec![
            f3(tau0),
            f3(decay),
            f3(rounds_total as f64 / cfg.seeds as f64),
            f3(tau_final),
            int(cost),
            f3(cost as f64 / fa_cost as f64),
        ]);
    }
    report.table(t);
    report.note(
        "a greedy τ₀ close to the top grade restarts several times and re-pays each prefix; \
         a lax τ₀ finishes in one round but over-fetches. The sweet spot sits near the true \
         k-th grade — which the middleware cannot know in advance, which is precisely why \
         [CG96] treat the schedule as an optimization problem.",
    );
    report
}
