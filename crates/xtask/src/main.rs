//! `xtask` — workspace automation: the two checks no off-the-shelf
//! tool can make.
//!
//! The workspace's other invariants (no panicking shortcut in library
//! code, no float `==`, no ignored `Result`, no detached thread, no
//! unbounded queue, crate hygiene) are `[workspace.lints]` in the root
//! `Cargo.toml` plus `clippy.toml`, enforced by `cargo clippy` and
//! excused only by `#[expect(…, reason = "…")]`; see DESIGN §8.
//!
//! `cargo xtask atomic-ordering` (the alias lives in
//! `.cargo/config.toml`) requires a written reason beside every memory
//! ordering in library source (see [`mod@atomic_ordering`]).
//!
//! `cargo xtask check-bench [PATH]` gates the `BENCH_engine.json` perf
//! trajectory: every experiment E1–E23 must be present with numeric
//! measurements, E18's cold/warm persistence split must be coherent,
//! E22's instance-optimality ratios must be ≥ 1, and E23's pruning
//! speedups/skip rates must be sane (see `bench_check`).
//!
//! Exit status: `0` clean, `1` violations found, `2` usage or I/O
//! error.

mod atomic_ordering;
#[expect(
    clippy::let_underscore_must_use,
    reason = "one `let _ = write!(..)` into a String, which cannot fail; the module is kept byte-identical across the lint migration"
)]
mod bench_check;

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage: cargo xtask <command>

commands:
  atomic-ordering
      Require `// ordering(<Ordering>): <why>` beside every memory
      ordering named under src/ and crates/*/src/.
  check-bench [PATH]
      Validate the BENCH_engine.json perf trajectory (default path:
      BENCH_engine.json in the workspace root): experiments E1-E23
      present, measurements numeric, E18 cold/warm split coherent,
      E22 optimality ratios >= 1, E23 pruning speedups positive and
      skip rates in [0, 1].

exit status: 0 clean, 1 violations, 2 usage or I/O error
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("atomic-ordering") => atomic_ordering(&args[1..]),
        Some("check-bench") => check_bench(&args[1..]),
        Some("--help" | "-h" | "help") => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("error: unknown command `{other}`\n\n{USAGE}");
            ExitCode::from(2)
        }
        None => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn atomic_ordering(args: &[String]) -> ExitCode {
    if !args.is_empty() {
        eprintln!("error: atomic-ordering takes no arguments\n\n{USAGE}");
        return ExitCode::from(2);
    }
    match atomic_ordering::check_workspace(&workspace_root()) {
        Ok(findings) if findings.is_empty() => {
            println!("atomic-ordering: every memory ordering carries its reason");
            ExitCode::SUCCESS
        }
        Ok(findings) => {
            for finding in &findings {
                println!("{finding}\n");
            }
            println!("atomic-ordering: {} violation(s)", findings.len());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

fn check_bench(args: &[String]) -> ExitCode {
    let path = match args {
        [] => workspace_root().join("BENCH_engine.json"),
        [p] => PathBuf::from(p),
        _ => {
            eprintln!("error: check-bench takes at most one path\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let content = match std::fs::read_to_string(&path) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: cannot read {}: {e}", path.display());
            return ExitCode::from(2);
        }
    };
    match bench_check::check(&content) {
        Ok(summary) => {
            println!("{summary}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("error: {}: {message}", path.display());
            ExitCode::FAILURE
        }
    }
}

/// The workspace root: two levels above this crate's manifest
/// (`crates/xtask` → repo root).
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(std::path::Path::parent)
        .map(std::path::Path::to_path_buf)
        .unwrap_or(manifest)
}
