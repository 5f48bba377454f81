//! The experiment suite: one module per paper claim (see DESIGN.md's
//! experiment index and EXPERIMENTS.md for recorded results).

pub mod e01_fa_scaling;
pub mod e02_disjunction;
pub mod e03_lower_bound;
pub mod e04_scoring_sweep;
pub mod e05_access_costs;
pub mod e06_weighted_queries;
pub mod e07_distance_bounding;
pub mod e08_dimensionality;
pub mod e09_precomputed;
pub mod e10_crisp_filter;
pub mod e11_correlation;
pub mod e12_filter_conditions;
pub mod e13_ta_extension;
pub mod e14_axiom_table;
pub mod e15_weighting_laws;
pub mod e16_optimizer;
pub mod e17_ablations;
pub mod e18_page_costs;
pub mod e19_no_random_access;
pub mod e20_embedding;
pub mod e22_optimality;
pub mod e23_block_pruning;
pub mod e25_tree_shape;

use crate::report::Report;
use crate::runners::RunCfg;

/// An experiment's entry point.
pub type Runner = fn(&RunCfg) -> Report;

/// The experiment registry in run order — one `(id, runner)` per paper
/// claim, the id being the runner's [`Report::id`]. `e00_run_all` runs
/// the rows it is asked for, times and meters each, and fails on
/// [`Report::violations`].
pub const EXPERIMENTS: &[(&str, Runner)] = &[
    ("E1", e01_fa_scaling::run),
    ("E2", e02_disjunction::run),
    ("E3", e03_lower_bound::run),
    ("E4", e04_scoring_sweep::run),
    ("E5", e05_access_costs::run),
    ("E6", e06_weighted_queries::run),
    ("E7", e07_distance_bounding::run),
    ("E8", e08_dimensionality::run),
    ("E9", e09_precomputed::run),
    ("E10", e10_crisp_filter::run),
    ("E11", e11_correlation::run),
    ("E12", e12_filter_conditions::run),
    ("E13", e13_ta_extension::run),
    ("E14", e14_axiom_table::run),
    ("E15", e15_weighting_laws::run),
    ("E16", e16_optimizer::run),
    ("E17", e17_ablations::run),
    ("E18", e18_page_costs::run),
    ("E19", e19_no_random_access::run),
    ("E20", e20_embedding::run),
    ("E22", e22_optimality::run),
    ("E23", e23_block_pruning::run),
    ("E25", e25_tree_shape::run),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Bound;

    /// Gates that read a wall-clock ceiling: an unoptimized build may
    /// sit above them, so only the release run of CI holds them to it.
    const WALL_CLOCK_CEILINGS: [&str; 12] = [
        "warm_ta_vs_mem",
        "warm_probe_vs_mem",
        "warm_batch_vs_mem",
        "cold_probe_vs_mem",
        "nra_vs_ta_ns_per_access",
        "ca_vs_ta_ns_per_access",
        "naive_vs_ta_ns_per_access",
        "engine_vs_scalar_many8",
        "lanes_vs_rows",
        "bind_vs_row_kernel",
        "shape_bind_vs_row_kernel",
        "stream_bind_vs_row_kernel",
    ];

    /// Every gated metric of the suite (families of per-cell metrics by
    /// their prefix). Deleting an emit line, or turning a `gated` back
    /// into a `metric`, fails here rather than silently dropping a gate.
    const GATED: [(&str, &[&str]); 7] = [
        ("E16", &["regret_sel*", "regret_median", "regret_max"]),
        (
            "E18",
            &[
                "cold_wall_ms",
                "warm_wall_ms",
                "warm_hit_rate",
                "cold_page_reads",
                "warm_scan_vs_mem_spread",
                "warm_ta_vs_mem",
                "warm_ta_vs_mem_spread",
                "warm_probe_vs_mem",
                "warm_probe_vs_mem_spread",
                "warm_batch_vs_mem",
                "warm_batch_vs_mem_spread",
                "cold_probe_vs_mem",
                "cold_probe_vs_mem_spread",
            ],
        ),
        (
            "E19",
            &[
                "ta_ns_per_access",
                "nra_ns_per_access",
                "ca_h10_ns_per_access",
                "nra_vs_ta_ns_per_access",
                "ca_vs_ta_ns_per_access",
                "naive_vs_ta_ns_per_access",
                "engine_vs_scalar_many8",
                "engine_vs_scalar_many8_spread",
                "engine_vs_scalar_sorted_calls",
                "naive_sorted_calls_per_access",
                "naive_minor_faults_per_run",
            ],
        ),
        (
            "E20",
            &[
                "kernel_us",
                "row_kernel_us",
                "lanes_vs_rows",
                "lanes_vs_rows_spread",
                "bind_us",
                "bind_vs_row_kernel",
                "bind_vs_row_kernel_spread",
                "shape_kernel_us",
                "shape_bind_us",
                "shape_bind_vs_row_kernel",
                "shape_bind_vs_row_kernel_spread",
                "stream_bind_us",
                "stream_bind_vs_row_kernel",
                "stream_bind_vs_row_kernel_spread",
                "shape_graded_per_listed",
                "ordered_per_listed",
            ],
        ),
        ("E22", &["opt_ratio_*"]),
        (
            "E23",
            &[
                "corpus_speedup",
                "corpus_skip_rate",
                "drain_speedup",
                "page_skip_rate",
            ],
        ),
        ("E25", &["tree_vs_scan_*"]),
    ];

    /// Values on the bound's edges, and values just outside them.
    fn edges(bound: Bound) -> (Vec<f64>, Vec<f64>) {
        let below = |x: f64| x - x.abs().max(1.0) * 1e-6;
        let above = |x: f64| x + x.abs().max(1.0) * 1e-6;
        match bound {
            Bound::AtLeast(lo) => (vec![lo, above(lo)], vec![below(lo)]),
            Bound::PositiveAtMost(hi) => (vec![f64::MIN_POSITIVE, hi], vec![0.0, -1.0, above(hi)]),
            Bound::Within(lo, hi) => (vec![lo, hi], vec![below(lo), above(hi)]),
            Bound::Positive => (vec![f64::MIN_POSITIVE, 1e300], vec![0.0, -1.0]),
        }
    }

    /// The violations that name metric `at` once its value is `v`.
    fn violations_at(report: &Report, at: usize, v: f64) -> Vec<String> {
        let mut changed = report.clone();
        changed.metrics[at].value = v;
        let name = format!("{}: `{}`", report.id, report.metrics[at].name);
        let mut lines = changed.violations();
        lines.retain(|line| line.starts_with(&name));
        lines
    }

    #[test]
    fn the_quick_suite_is_the_registry_and_every_gate_bites() {
        // Ids are identifiers: E21 measured sharded TA and went with it,
        // and E24 is spoken for (ROADMAP item 16 (e)).
        let ids: Vec<String> = (1..=25)
            .filter(|&i| i != 21 && i != 24)
            .map(|i| format!("E{i}"))
            .collect();
        let registered: Vec<&str> = EXPERIMENTS.iter().map(|&(id, _)| id).collect();
        assert_eq!(
            registered, ids,
            "registry ids are E1…E25 but E21 and E24, once each, in order"
        );

        let cfg = RunCfg::quick();
        let mut gated: Vec<(&str, Vec<String>)> = Vec::new();
        for &(id, run) in EXPERIMENTS {
            let report = run(&cfg);
            assert_eq!(report.id, id, "a report carries its registry id");
            let mut names: Vec<String> = Vec::new();
            for (at, metric) in report.metrics.iter().enumerate() {
                let name = &metric.name;
                assert!(metric.value.is_finite(), "{id}: {name} = {}", metric.value);
                assert_eq!(
                    violations_at(&report, at, f64::NAN).len(),
                    1,
                    "{id}: {name}"
                );

                let Some(gate) = metric.gate else { continue };
                let family = ["regret_sel", "opt_ratio_", "tree_vs_scan_"]
                    .iter()
                    .find(|prefix| name.starts_with(**prefix))
                    .map_or(name.clone(), |prefix| format!("{prefix}*"));
                if !names.contains(&family) {
                    names.push(family);
                }
                assert!(!gate.look_here_first.is_empty(), "{id}: {name}");
                let bound = gate.bound;
                if !WALL_CLOCK_CEILINGS.contains(&name.as_str()) {
                    assert!(
                        bound.admits(metric.value),
                        "{id}: {name} = {} is not {bound}",
                        metric.value
                    );
                }
                let (inside, outside) = edges(bound);
                for v in inside {
                    assert!(bound.admits(v), "{id}: {name} {bound} admits {v}");
                    assert!(violations_at(&report, at, v).is_empty());
                }
                for v in outside {
                    assert!(!bound.admits(v), "{id}: {name} {bound} rejects {v}");
                    let failed = violations_at(&report, at, v);
                    assert_eq!(failed.len(), 1, "{id}: {name} = {v}");
                    assert!(failed[0].ends_with(gate.look_here_first));
                }
            }
            if !names.is_empty() {
                gated.push((id, names));
            }
        }
        let expected: Vec<(&str, Vec<String>)> = GATED
            .iter()
            .map(|&(id, names)| (id, names.iter().map(|n| (*n).to_owned()).collect()))
            .collect();
        assert_eq!(gated, expected);
    }
}
