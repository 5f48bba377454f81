//! E17 — ablations of two design choices DESIGN.md calls out:
//!
//! 1. the **filter constant** of the distance bound: our PSD-optimal
//!    `c` (largest with `A − c·CᵀC ⪰ 0` on the zero-sum subspace) vs
//!    the naive two-stage spectral bound `λ_min(A)/σ_max(C)²`;
//! 2. the **pruned-A₀ random-access optimizations**: skip-prune alone
//!    vs skip + intra-object short-circuit vs no pruning.

use std::sync::Arc;

use fmdb_core::scoring::tnorms::Min;
use fmdb_media::bounding::DistanceBound;
use fmdb_media::color::ColorHistogram;
use fmdb_media::distance::{HistogramDistance, QuadraticFormDistance};
use fmdb_media::synth::{SynthConfig, SyntheticDb};
use fmdb_middleware::algorithms::pruned_fa::PrunedFa;
use fmdb_middleware::planner::PhysicalPlan;
use fmdb_middleware::request::SharedScoring;
use fmdb_middleware::workload::independent_uniform;

use crate::report::{f3, int, Report, Table};
use crate::runners::{mean_algo_cost, mean_cost, RunCfg};

/// Runs the experiment.
pub fn run(cfg: &RunCfg) -> Report {
    let min: SharedScoring = Arc::new(Min);
    let mut report = Report::new(
        "E17",
        "ablations: filter constant and pruning components",
        "design choices: the PSD-optimal filter constant vs the naive spectral chain; \
         skip-pruning vs short-circuit probing in pruned A0",
    );

    // --- Ablation 1: filter constant tightness ---
    let n = cfg.pick(800, 200);
    let mut tightness = Table::new(
        "filter constant d̂/d tightness (median over random pairs)",
        &[
            "bins k",
            "optimal scale",
            "two-stage scale",
            "optimal d̂/d",
            "two-stage d̂/d",
        ],
    );
    for bins_per_channel in [3usize, 4] {
        let db = SyntheticDb::generate(&SynthConfig {
            count: n,
            bins_per_channel,
            seed: 17,
            ..SynthConfig::default()
        });
        let hists: Vec<ColorHistogram> = db.objects.iter().map(|o| o.histogram.clone()).collect();
        let optimal = DistanceBound::for_space(&db.space).expect("derivable");
        let two_stage = DistanceBound::for_space_two_stage(&db.space).expect("derivable");
        let qf = QuadraticFormDistance::new(db.space.similarity_matrix());

        let ratio_median = |bound: &DistanceBound| -> f64 {
            let mut ratios: Vec<f64> = Vec::new();
            for i in 0..hists.len().min(120) {
                let j = (i + 37) % hists.len();
                if i == j {
                    continue;
                }
                let full = qf.distance(&hists[i], &hists[j]).expect("same space");
                if full > 1e-9 {
                    let lower = bound.lower_bound(&hists[i], &hists[j]).expect("same space");
                    ratios.push(lower / full);
                }
            }
            ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            ratios[ratios.len() / 2]
        };
        tightness.row(vec![
            (bins_per_channel.pow(3)).to_string(),
            format!("{:.4}", optimal.scale()),
            format!("{:.4}", two_stage.scale()),
            f3(ratio_median(&optimal)),
            f3(ratio_median(&two_stage)),
        ]);
    }
    report.table(tightness);

    // --- Ablation 2: pruning components ---
    let n2 = cfg.pick(1 << 14, 1 << 10);
    let k = 10usize;
    let mut pruning = Table::new(
        format!("pruned-A0 random accesses by component (N = {n2}, k = {k}, min)"),
        &[
            "m",
            "plain A0",
            "skip only",
            "skip + short-circuit",
            "total saving",
        ],
    );
    for &m in &[2usize, 3, 4] {
        let plain = mean_cost(PhysicalPlan::Fa, &min, k, cfg.seeds, |seed| {
            independent_uniform(n2, m, seed)
        });
        let skip_only = mean_algo_cost(
            &PrunedFa::without_short_circuit(),
            &min,
            k,
            cfg.seeds,
            |seed| independent_uniform(n2, m, seed),
        );
        let full = mean_algo_cost(&PrunedFa::default(), &min, k, cfg.seeds, |seed| {
            independent_uniform(n2, m, seed)
        });
        pruning.row(vec![
            m.to_string(),
            int(plain.random),
            int(skip_only.random),
            int(full.random),
            format!(
                "{:.1}%",
                100.0 * (1.0 - full.random as f64 / plain.random.max(1) as f64)
            ),
        ]);
    }
    report.table(pruning);
    report.note(
        "the two-stage spectral constant chains two worst cases through ‖z‖ and lands an \
         order of magnitude below the optimal PSD constant — weak enough that its filter \
         never prunes; the PSD search is what makes experiment E7's 97% savings possible.",
    );
    report.note(
        "skip-pruning removes the objects that are hopeless before any probe; the \
         short-circuit adds per-probe abandonment, which matters more as m grows (more \
         probes per object to abandon).",
    );
    report
}
