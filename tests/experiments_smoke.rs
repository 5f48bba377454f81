//! Smoke tests: the cheap experiment harnesses run end-to-end in quick
//! mode and produce non-degenerate reports. (The heavyweight sweeps,
//! and the wall-clock gates, are exercised by
//! `cargo run --release -p fmdb-bench --bin e00_run_all`.)

use fmdb_bench::experiments;
use fmdb_bench::report::fit_exponent;
use fmdb_bench::runners::RunCfg;

fn quick() -> RunCfg {
    RunCfg::quick()
}

#[test]
fn e02_disjunction_cost_is_exactly_mk() {
    let report = experiments::e02_disjunction::run(&quick());
    // Every row: merge cost column equals the m·k column.
    let table = &report.tables[0];
    assert!(!table.rows.is_empty());
    for row in &table.rows {
        assert_eq!(row[3], row[4], "merge cost must equal m·k: {row:?}");
    }
}

#[test]
fn e14_axiom_table_is_complete_and_correct_for_min() {
    let report = experiments::e14_axiom_table::run(&quick());
    let table = &report.tables[0];
    assert!(table.rows.len() >= 15, "expected all shipped functions");
    let min_row = table
        .rows
        .iter()
        .find(|r| r[0] == "min")
        .expect("min is audited");
    // min: ∧-cons yes, monotone yes, idempotent yes, strict yes, t-norm yes.
    assert_eq!(min_row[1], "yes");
    assert_eq!(min_row[3], "yes");
    assert_eq!(min_row[6], "yes");
    assert_eq!(min_row[7], "yes");
    assert_eq!(min_row[8], "yes");
    // Exactly one t-norm is idempotent (Theorem 3.1's uniqueness).
    let idempotent_tnorms = table
        .rows
        .iter()
        .filter(|r| r[8] == "yes" && r[6] == "yes")
        .count();
    assert_eq!(idempotent_tnorms, 1);
}

#[test]
fn e15_weighting_laws_hold() {
    let report = experiments::e15_weighting_laws::run(&quick());
    let table = &report.tables[0];
    for row in &table.rows {
        for violation in &row[1..] {
            let v: f64 = violation.parse().expect("numeric violation");
            assert!(v < 1e-9, "desideratum violated: {row:?}");
        }
    }
}

#[test]
fn e01_exponents_are_sublinear_for_fa() {
    let report = experiments::e01_fa_scaling::run(&quick());
    let exponents = &report.tables[1];
    for row in &exponents.rows {
        let fitted: f64 = row[2].parse().expect("numeric exponent");
        assert!(
            fitted < 0.95,
            "A0's exponent should be clearly sublinear: {row:?}"
        );
    }
}

#[test]
fn fit_exponent_is_reexported_and_sane() {
    let pts: Vec<(f64, f64)> = (1..=10).map(|i| (i as f64, (i as f64).powf(0.5))).collect();
    assert!((fit_exponent(&pts) - 0.5).abs() < 1e-9);
}

#[test]
fn e18_paged_store_is_cold_expensive_and_warm_cheap() {
    let report = experiments::e18_page_costs::run(&quick());
    let table = &report.tables[0];
    assert!(table.rows.len() >= 2, "expected a page-size sweep");
    let mut prev_reads = u64::MAX;
    for row in &table.rows {
        // Columns: page size, cold ms, cold page reads, warm ms,
        // warm hit rate.
        let cold_reads: u64 = row[2].parse().expect("numeric reads");
        let hit_rate: f64 = row[4].parse().expect("numeric hit rate");
        assert!(cold_reads > 0, "cold run must touch the store: {row:?}");
        assert!(
            cold_reads < prev_reads,
            "larger pages must need fewer cold reads: {row:?}"
        );
        assert!(
            (0.0..=1.0).contains(&hit_rate),
            "hit rate outside [0,1]: {row:?}"
        );
        prev_reads = cold_reads;
    }
}

#[test]
fn e19_nra_never_random_accesses_and_stays_close_to_a0() {
    let report = experiments::e19_no_random_access::run(&quick());
    let table = &report.tables[0];
    assert!(!table.rows.is_empty());
    for row in &table.rows {
        let ratio: f64 = row[6].parse().expect("numeric ratio");
        assert!(ratio < 10.0, "NRA blew up: {row:?}");
    }
    // Per-call subsystems: the engine asks a list for a batch per call,
    // scalar A0 for one object, at the same charge (the run asserts the
    // charges and answers equal).
    let row = &report.tables[2].rows[0];
    let count = |i: usize| -> u64 { row[i].parse().expect("a count") };
    let (charged, scalar_calls, engine_calls) = (count(0), count(1), count(2));
    assert!(charged > 0 && scalar_calls > 0, "{row:?}");
    assert!(16 * engine_calls <= scalar_calls, "batching lost: {row:?}");
}

#[test]
fn e16_optimizer_regret_is_small() {
    let report = experiments::e16_optimizer::run(&quick());
    // One regret per cell plus the two aggregates, each gated where
    // the experiment computes it; E16 counts accesses, so its gates
    // hold in any build.
    let cells = report
        .metrics
        .iter()
        .filter(|m| m.name.starts_with("regret_sel"))
        .count();
    assert!(cells >= 8, "expected a full sweep, got {cells} cells");
    assert_eq!(report.violations(), Vec::<String>::new());
}

#[test]
fn e22_optimality_ratios_are_at_least_one() {
    let report = experiments::e22_optimality::run(&quick());
    assert!(!report.metrics.is_empty());
    assert_eq!(report.violations(), Vec::<String>::new());
}
