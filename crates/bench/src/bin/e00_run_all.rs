//! `e00_run_all [--quick] [ID…]` — runs the experiment suite in order,
//! or only the experiments named (`E18 E20`), timing each and metering
//! its shared-engine accesses, and gates what it ran: every metric
//! finite, every gated metric inside the bound stated where it is
//! computed, and every gate biting (`experiments::audit`: each admits
//! its edges and rejects NaN and the values just past them, and the
//! experiments gate what `experiments::GATED` lists). A full run with
//! no violation writes the machine-readable `BENCH_engine.json` perf
//! trajectory (`FMDB_BENCH_JSON` overrides the output path) and appends
//! one line to `BENCH_history.jsonl` in the working directory: the
//! commit (`git rev-parse HEAD`, `unknown` without one), the mode, and
//! each experiment's access columns and gated metrics. A run of named
//! experiments writes nothing.
//!
//! Exit status: `0` clean, `1` violations or a gate that does not bite
//! (listed on stderr, artifacts untouched), `2` unknown experiment id
//! or an artifact could not be written.

use std::fs::OpenOptions;
use std::io::Write;
use std::process::{Command, ExitCode};
use std::time::Instant;

use fmdb_bench::experiments::{audit, EXPERIMENTS};
use fmdb_bench::report::{bench_engine_json, bench_history_line, BenchEntry};
use fmdb_bench::runners::{engine, RunCfg};

/// Where a whole-suite run appends its history line.
const HISTORY: &str = "BENCH_history.jsonl";

/// `git rev-parse HEAD` in the working directory, or `unknown` where
/// there is no git or no repository.
fn commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|sha| sha.trim().to_owned())
        .filter(|sha| !sha.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

fn main() -> ExitCode {
    let cfg = RunCfg::from_env();
    // Flags other than `--quick` are ignored, as they always were.
    let wanted: Vec<String> = std::env::args()
        .skip(1)
        .filter(|arg| !arg.starts_with('-'))
        .collect();
    let ids: Vec<&str> = EXPERIMENTS.iter().map(|&(id, _)| id).collect();
    let known = |want: &&String| ids.iter().any(|id| id.eq_ignore_ascii_case(want));
    if let Some(unknown) = wanted.iter().find(|want| !known(want)) {
        eprintln!(
            "error: no experiment `{unknown}`; the ids are {}",
            ids.join(" ")
        );
        return ExitCode::from(2);
    }

    let mut entries = Vec::new();
    let mut ran: Vec<&str> = Vec::new();
    let mut violations = Vec::new();
    let mut before = engine().access_totals();
    for (id, run) in EXPERIMENTS {
        if !wanted.is_empty() && !wanted.iter().any(|w| w.eq_ignore_ascii_case(id)) {
            continue;
        }
        let t0 = Instant::now();
        let report = run(&cfg);
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        let after = engine().access_totals();
        println!("{}", report.render());
        println!("{}", "=".repeat(72));
        violations.extend(report.violations());
        ran.push(id);
        entries.push(BenchEntry {
            report,
            wall_ms,
            // The shared engine's totals only grow, so the per-
            // experiment delta is exact even though the engine value
            // is process-global.
            stats: after - before,
        });
        before = after;
    }

    // The gates themselves: each must bite, and the suite must gate
    // what `GATED` lists.
    violations.extend(
        audit(ran.iter().copied().zip(entries.iter().map(|e| &e.report)))
            .into_iter()
            .map(|fault| format!("gate: {fault}")),
    );
    if !violations.is_empty() {
        for violation in &violations {
            eprintln!("error: {violation}");
        }
        eprintln!("{} violation(s); nothing written", violations.len());
        return ExitCode::FAILURE;
    }
    if !wanted.is_empty() {
        return ExitCode::SUCCESS;
    }
    let json = bench_engine_json(&entries, cfg.quick);
    let path = std::env::var("FMDB_BENCH_JSON").unwrap_or_else(|_| "BENCH_engine.json".to_owned());
    if let Err(e) = std::fs::write(&path, &json) {
        eprintln!("error: could not write {path}: {e}");
        return ExitCode::from(2);
    }
    eprintln!("wrote {path}");
    let line = bench_history_line(&entries, cfg.quick, &commit());
    let appended = OpenOptions::new()
        .create(true)
        .append(true)
        .open(HISTORY)
        .and_then(|mut history| writeln!(history, "{line}"));
    if let Err(e) = appended {
        eprintln!("error: could not append to {HISTORY}: {e}");
        return ExitCode::from(2);
    }
    eprintln!("appended a line to {HISTORY}");
    ExitCode::SUCCESS
}
