//! # fmdb-bench — experiment harness
//!
//! Regenerates every quantitative claim of the paper (EXPERIMENTS.md):
//! run `cargo run --release -p fmdb-bench --bin e00_run_all`, or an
//! individual `e01_fa_scaling` … `e19_no_random_access` binary. `--quick`
//! (or `FMDB_QUICK=1`) shrinks the sweeps for smoke runs; `FMDB_JSON=1`
//! additionally emits machine-readable reports on stderr.

pub mod experiments;
pub mod report;
pub mod runners;
