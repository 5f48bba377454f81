//! # fmdb-bench — experiment harness
//!
//! Regenerates every quantitative claim of the paper (EXPERIMENTS.md):
//! run `cargo run --release -p fmdb-bench --bin e00_run_all`, or name
//! the experiments to run after it (`-- E18 E20`). `--quick` (or
//! `FMDB_QUICK=1`) shrinks the sweeps for smoke runs. The run fails when
//! a metric is outside the bound stated where it is computed
//! ([`report::Report::gated`]).

pub mod experiments;
pub mod report;
pub mod runners;
