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

use crate::report::{Bound, Report};
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

/// Every gated metric of the suite (families of per-cell metrics by
/// their prefix). Deleting an emit line, or turning a `gated` back into
/// a `metric`, fails [`audit`] rather than silently dropping a gate.
pub const GATED: [(&str, &[&str]); 7] = [
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
            "cold_probe_vs_read",
            "cold_probe_vs_read_spread",
            "cold_checksum_vs_bench",
            "cold_checksum_vs_bench_spread",
            "a0_cold_page_reads",
            "dense_bytes_per_user_byte",
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
            "ta_vs_access_loop",
            "ta_vs_access_loop_spread",
            "engine_vs_scalar_many8",
            "engine_vs_scalar_many8_spread",
            "engine_vs_scalar_sorted_calls",
            "naive_sorted_calls_per_access",
            "naive_minor_faults_per_run",
            "naive_scan_vs_drain",
            "naive_scan_vs_drain_spread",
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

/// Metric families: every metric named with one of these prefixes
/// counts once in [`GATED`].
const FAMILIES: [&str; 3] = ["regret_sel", "opt_ratio_", "tree_vs_scan_"];

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

/// What is wrong with the gates of the reports in `ran`, each beside
/// the registry id of the row that made it, one line each; nothing
/// when every gate bites. [`Report::violations`] judges the values;
/// this judges the gates: each report carries its registry id; a NaN
/// in any metric would be reported, once; every gate says where to
/// look, admits the values on its edges, and rejects a NaN and the
/// values just outside it, each named by exactly one violation that
/// ends with where to look; and the gated metrics of the experiments
/// that ran are the ones [`GATED`] lists for them.
pub fn audit<'a>(ran: impl IntoIterator<Item = (&'a str, &'a Report)>) -> Vec<String> {
    let mut faults = Vec::new();
    let mut fault = |line: String| faults.push(line);
    let mut ids: Vec<&str> = Vec::new();
    let mut gated: Vec<(&str, Vec<String>)> = Vec::new();
    for (id, report) in ran {
        ids.push(id);
        if report.id != id {
            fault(format!("{id}: its report carries the id {}", report.id));
        }
        let mut names: Vec<String> = Vec::new();
        for (at, metric) in report.metrics.iter().enumerate() {
            let name = &metric.name;
            if violations_at(report, at, f64::NAN).len() != 1 {
                fault(format!("{id}: a NaN `{name}` is not one violation"));
            }
            let Some(gate) = metric.gate else { continue };
            let family = FAMILIES
                .iter()
                .find(|prefix| name.starts_with(**prefix))
                .map_or(name.clone(), |prefix| format!("{prefix}*"));
            if !names.contains(&family) {
                names.push(family);
            }
            let bound = gate.bound;
            if gate.look_here_first.is_empty() {
                fault(format!("{id}: `{name}` says nowhere to look first"));
            }
            if bound.admits(f64::NAN) {
                fault(format!("{id}: `{name}` {bound} admits NaN"));
            }
            let (inside, outside) = edges(bound);
            for v in inside {
                if !bound.admits(v) || !violations_at(report, at, v).is_empty() {
                    fault(format!("{id}: `{name}` {bound} does not admit {v}"));
                }
            }
            for v in outside {
                let failed = violations_at(report, at, v);
                let named = failed.len() == 1 && failed[0].ends_with(gate.look_here_first);
                if bound.admits(v) || !named {
                    fault(format!("{id}: `{name}` {bound} does not reject {v}"));
                }
            }
        }
        if !names.is_empty() {
            gated.push((id, names));
        }
    }
    let expected: Vec<(&str, Vec<String>)> = GATED
        .iter()
        .filter(|(id, _)| ids.contains(id))
        .map(|&(id, names)| (id, names.iter().map(|n| (*n).to_owned()).collect()))
        .collect();
    if gated != expected {
        fault(format!(
            "the gated metrics are {gated:?}, not the {expected:?} `GATED` lists"
        ));
    }
    faults
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Metric;

    /// Ids are identifiers: E21 measured sharded TA and went with it,
    /// and E24 is spoken for (ROADMAP item 16 (e)).
    #[test]
    fn the_registry_is_e1_to_e25_but_e21_and_e24_in_order() {
        let ids: Vec<String> = (1..=25)
            .filter(|&i| i != 21 && i != 24)
            .map(|i| format!("E{i}"))
            .collect();
        let registered: Vec<&str> = EXPERIMENTS.iter().map(|&(id, _)| id).collect();
        assert_eq!(
            registered, ids,
            "registry ids are E1…E25 but E21 and E24, once each, in order"
        );
        let listed: Vec<&str> = GATED.iter().map(|&(id, _)| id).collect();
        assert!(
            listed.iter().all(|id| registered.contains(id)),
            "{listed:?}"
        );
    }

    /// A report with one gated metric of each bound kind, as E23 gates
    /// them (by `GATED`'s list for E23), every value inside its bound.
    fn gated_report() -> Report {
        let mut report = Report::new("E23", "t", "c");
        report
            .metric("wall_ms", 3.0)
            .gated("corpus_speedup", 2.0, Bound::AtLeast(1.0), "look at a")
            .gated(
                "corpus_skip_rate",
                0.5,
                Bound::Within(0.0, 1.0),
                "look at b",
            )
            .gated(
                "drain_speedup",
                1.5,
                Bound::PositiveAtMost(4.0),
                "look at c",
            )
            .gated("page_skip_rate", 0.25, Bound::Positive, "look at d");
        report
    }

    /// The audit passes a report whose gates bite, and names each kind
    /// of fault a gate can have.
    #[test]
    fn the_audit_names_every_gate_that_does_not_bite() {
        assert_eq!(audit([("E23", &gated_report())]), Vec::<String>::new());

        let faulty = |edit: &dyn Fn(&mut Vec<Metric>)| {
            let mut report = gated_report();
            edit(&mut report.metrics);
            audit([("E23", &report)])
        };
        let one = |faults: Vec<String>, says: &str| {
            assert!(
                faults.len() == 1 && faults[0].contains(says),
                "{says}: {faults:?}"
            );
        };
        // A bound whose edge is not a value a run can report.
        let unbounded = faulty(&|m| {
            m[3].gate.as_mut().unwrap().bound = Bound::PositiveAtMost(f64::INFINITY);
        });
        assert!(
            !unbounded.is_empty() && unbounded.iter().all(|f| f.contains("(0, inf]")),
            "{unbounded:?}"
        );
        one(
            faulty(&|m| m[2].gate.as_mut().unwrap().look_here_first = ""),
            "nowhere",
        );
        // A gate turned back into a plain metric, and one too many.
        one(faulty(&|m| m[4].gate = None), "`GATED` lists");
        one(
            faulty(&|m| {
                m.push(Metric {
                    name: "extra".to_owned(),
                    value: 1.0,
                    gate: m[1].gate,
                });
            }),
            "`GATED` lists",
        );
        // A report under another id, and a gated experiment that ran
        // with no gate.
        let mut renamed = gated_report();
        renamed.id = "E22".to_owned();
        one(audit([("E23", &renamed)]), "carries the id E22");
        one(
            audit([("E25", &Report::new("E25", "t", "c"))]),
            "`GATED` lists",
        );
    }

    /// A NaN anywhere is a violation of its own, so the suite fails on
    /// it; and NaN never lies inside a bound.
    #[test]
    fn a_nan_metric_fails_the_run() {
        let mut report = gated_report();
        for at in 0..report.metrics.len() {
            let failed = violations_at(&report, at, f64::NAN);
            assert_eq!(failed.len(), 1, "{}", report.metrics[at].name);
            assert!(failed[0].ends_with("is not finite"), "{failed:?}");
        }
        report.metrics[0].value = f64::NAN;
        assert_eq!(report.violations().len(), 1);
        for bound in [
            Bound::AtLeast(0.0),
            Bound::PositiveAtMost(1.0),
            Bound::Within(0.0, 1.0),
            Bound::Positive,
        ] {
            assert!(!bound.admits(f64::NAN), "{bound}");
        }
    }
}
