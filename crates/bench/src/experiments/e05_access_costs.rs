//! E5 — \[WHTB98\]: "…and a broad range of access costs." The paper's
//! uniform cost measure is "somewhat controversial"; this experiment
//! re-prices sorted and random accesses across three orders of
//! magnitude and shows where each algorithm wins.

use std::sync::Arc;

use fmdb_core::scoring::tnorms::Min;
use fmdb_middleware::algorithms::pruned_fa::PrunedFa;
use fmdb_middleware::planner::PhysicalPlan;
use fmdb_middleware::request::SharedScoring;
use fmdb_middleware::stats::CostModel;
use fmdb_middleware::workload::independent_uniform;

use crate::report::{f3, Report, Table};
use crate::runners::{mean_algo_cost, mean_cost, RunCfg};

/// Runs the experiment.
pub fn run(cfg: &RunCfg) -> Report {
    let min: SharedScoring = Arc::new(Min);
    let mut report = Report::new(
        "E5",
        "charged cost under varying random:sorted price ratios",
        "[WHTB98]: \"Fagin's algorithm behaves well for … a broad range of access costs\"; \
         §6 asks for \"a more realistic cost measure\"",
    );
    let n = cfg.pick(1 << 15, 1 << 11);
    let k = 10usize;
    let m = 2usize;
    let ratios = [0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0];

    // Collect raw stats once per algorithm; prices are applied after.
    let fa = mean_cost(PhysicalPlan::Fa, &min, k, cfg.seeds, |seed| {
        independent_uniform(n, m, seed)
    });
    let pruned = mean_algo_cost(&PrunedFa::default(), &min, k, cfg.seeds, |seed| {
        independent_uniform(n, m, seed)
    });
    let ta = mean_cost(PhysicalPlan::Ta, &min, k, cfg.seeds, |seed| {
        independent_uniform(n, m, seed)
    });
    let naive = mean_cost(PhysicalPlan::FullScan, &min, k, cfg.seeds, |seed| {
        independent_uniform(n, m, seed)
    });

    let mut raw = Table::new(
        format!("raw access counts, N = {n}, m = {m}, k = {k}"),
        &["algorithm", "sorted", "random"],
    );
    for (name, s) in [
        ("A0", fa),
        ("pruned A0", pruned),
        ("TA", ta),
        ("naive", naive),
    ] {
        raw.row(vec![
            name.into(),
            s.sorted.to_string(),
            s.random.to_string(),
        ]);
    }
    report.table(raw);

    let mut t = Table::new(
        "charged cost (sorted price 1, random price = ratio)",
        &["ratio", "A0", "pruned A0", "TA", "naive", "cheapest"],
    );
    for &r in &ratios {
        let model = CostModel::random_to_sorted_ratio(r).expect("valid ratio");
        let costs = [
            ("A0", fa.charged(&model)),
            ("pruned A0", pruned.charged(&model)),
            ("TA", ta.charged(&model)),
            ("naive", naive.charged(&model)),
        ];
        let cheapest = costs
            .iter()
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite costs"))
            .expect("non-empty")
            .0;
        t.row(vec![
            f3(r),
            f3(costs[0].1),
            f3(costs[1].1),
            f3(costs[2].1),
            f3(costs[3].1),
            cheapest.into(),
        ]);
    }
    report.table(t);
    report.note(
        "the A0 family wins across the whole ratio sweep on this N; naive (which never does \
         random access) only becomes competitive when random accesses are priced far above \
         sorted ones AND N is small — the robustness [WHTB98] observed.",
    );
    report
}
