//! E16 — cost-based plan selection (§4.2's "cost modeling issues").
//!
//! "In order to use an optimizer, we need to understand the cost of
//! applying various operators over various data in various
//! repositories." This experiment tests exactly that understanding:
//! the unified planner (`fmdb_middleware::planner::choose_plan`, fed by
//! per-source grade histograms and the measured crisp selectivity)
//! picks a plan, every applicable strategy is then *actually executed*,
//! and the regret — the optimizer's executed charged cost over the
//! cheapest executed charged cost — is reported per cell and gated
//! where it is computed: the run itself fails on a cell below 1 or on
//! a median or maximum above its bound.
//!
//! The sweep crosses crisp selectivity × k × the c_R/c_S price ratio:
//! the same executed access counts are priced under each ratio, and the
//! planner re-chooses under each ratio, so a pick that only looks good
//! under uniform pricing is caught.

use fmdb_core::query::{Query, Target};
use fmdb_garlic::catalog::Catalog;
use fmdb_garlic::executor::{AlgoChoice, Garlic};
use fmdb_garlic::object::Value;
use fmdb_garlic::repository::{QbicRepository, TableRepository};
use fmdb_media::synth::{SynthConfig, SyntheticDb};
use fmdb_middleware::policy::ExecPolicy;
use fmdb_middleware::stats::{AccessStats, CostModel};

use crate::report::{f3, int, Bound, Report, Table};
use crate::runners::RunCfg;

/// Slack on the regret bounds: a regret is a quotient of two charged
/// costs.
const EPS: f64 = 1e-9;

fn garlic_with_selectivity(n: usize, selectivity: f64, seed: u64) -> Garlic {
    let db = SyntheticDb::generate(&SynthConfig {
        count: n,
        bins_per_channel: 4,
        seed,
        ..SynthConfig::default()
    });
    let mut table = TableRepository::new("store", n as u64);
    let matches = ((n as f64 * selectivity).round() as u64).max(1);
    for i in 0..n as u64 {
        let artist = if i % (n as u64 / matches).max(1) == 0 {
            "Beatles"
        } else {
            "Various"
        };
        table.set(i, "Artist", Value::text(artist));
    }
    let mut catalog = Catalog::new();
    catalog.register(Box::new(table)).expect("fresh catalog");
    catalog
        .register(Box::new(QbicRepository::new("qbic", db)))
        .expect("fresh catalog");
    Garlic::new(catalog)
}

/// Runs the experiment.
pub fn run(cfg: &RunCfg) -> Report {
    let mut report = Report::new(
        "E16",
        "planner regret across selectivity, k and the c_R/c_S price ratio",
        "§4.2: \"In order to use an optimizer, we need to understand the cost of applying \
         various operators\" — the statistics-driven planner should pick within a small \
         factor of the empirically cheapest executed strategy everywhere in the sweep",
    );
    let n = cfg.pick(2000, 300);

    let q = Query::and(vec![
        Query::atomic("Artist", Target::Text("Beatles".into())),
        Query::atomic("Color", Target::Similar("red".into())),
    ]);

    let ratios: [(f64, &str); 2] = [(1.0, "r1"), (10.0, "r10")];
    let mut t = Table::new(
        format!(
            "Artist='Beatles' ∧ Color~red over {n} albums; regret = executed(pick)/executed(best)"
        ),
        &[
            "selectivity",
            "k",
            "c_R/c_S",
            "planner pick",
            "pick cost",
            "best executed",
            "best cost",
            "regret",
        ],
    );
    let mut regrets: Vec<f64> = Vec::new();
    let mut example_explanation: Option<String> = None;
    for &sel in &[0.005f64, 0.05, 0.25, 0.6] {
        for &k in &[5usize, 50] {
            let garlic = garlic_with_selectivity(n, sel, 21);
            for &(ratio, rname) in &ratios {
                let model = CostModel::random_to_sorted_ratio(ratio).expect("valid ratio");
                let optimized = garlic
                    .top_k_policy(&q, k, ExecPolicy::new().cost_model(model))
                    .expect("runs");
                if example_explanation.is_none() {
                    example_explanation = Some(optimized.explanation.clone());
                }

                // Execute every forced strategy for the ground truth;
                // the optimizer's own run joins the pool, so regret is
                // ≥ 1 by construction.
                let mut actuals: Vec<(String, AccessStats)> =
                    vec![(optimized.plan.to_string(), optimized.stats)];
                for choice in [AlgoChoice::Naive, AlgoChoice::Fa, AlgoChoice::Ta] {
                    let run = garlic.top_k_with(&q, k, choice).expect("runs");
                    actuals.push((run.plan.to_string(), run.stats));
                }

                let (best_plan, best_cost) = actuals
                    .iter()
                    .map(|(name, stats)| (name.clone(), stats.charged(&model)))
                    .min_by(|a, b| a.1.total_cmp(&b.1))
                    .expect("non-empty");
                let pick_cost = optimized.stats.charged(&model);
                let regret = if best_cost > 0.0 {
                    pick_cost / best_cost
                } else {
                    1.0
                };
                regrets.push(regret);
                let cell = format!("regret_sel{}_k{k}_{rname}", (sel * 1000.0).round() as u64);
                report.gated(
                    cell,
                    regret,
                    Bound::AtLeast(1.0 - EPS),
                    "regret compares against a pool that includes the optimizer's own run, \
                     so this is a harness bug",
                );
                t.row(vec![
                    f3(sel),
                    k.to_string(),
                    rname.trim_start_matches('r').to_string(),
                    optimized.plan.to_string(),
                    int(pick_cost as u64),
                    best_plan,
                    int(best_cost as u64),
                    f3(regret),
                ]);
            }
        }
    }
    report.table(t);

    let mut sorted = regrets.clone();
    sorted.sort_by(f64::total_cmp);
    let median = sorted[sorted.len() / 2];
    let max = sorted.last().copied().unwrap_or(1.0);
    report.gated(
        "regret_median",
        median,
        Bound::Within(1.0 - EPS, 2.0 + EPS),
        "above 2x the unified planner is mispricing the common case (below 1 is a harness bug)",
    );
    report.gated(
        "regret_max",
        max,
        Bound::Within(1.0 - EPS, 10.0 + EPS),
        "above 10x some sweep cell picks a catastrophically wrong plan (below 1 is a harness bug)",
    );
    report.note(format!(
        "median regret {median:.2}x, max {max:.2}x over {} cells — the unified planner's \
         pick stays within a small factor of the cheapest executed strategy as the crisp \
         predicate loses selectivity and random access gets repriced. Example decision \
         record: {}",
        sorted.len(),
        example_explanation.unwrap_or_else(|| "(none)".into()),
    ));
    report
}
