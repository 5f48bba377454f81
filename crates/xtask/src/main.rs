//! `xtask` — workspace automation: the one check no off-the-shelf
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
//! ordering in library source (see the `atomic_ordering` module).
//!
//! Exit status: `0` clean, `1` violations found, `2` usage or I/O
//! error.

mod atomic_ordering;

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage: cargo xtask <command>

commands:
  atomic-ordering
      Require `// ordering(<Ordering>): <why>` beside every memory
      ordering named under src/ and crates/*/src/.

exit status: 0 clean, 1 violations, 2 usage or I/O error
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("atomic-ordering") => atomic_ordering(&args[1..]),
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
