//! The lint rules and the driver that applies them.
//!
//! Every rule is a pure function from an analyzed
//! [`crate::workspace::SourceFile`] (plus occasionally workspace-wide
//! context) to diagnostics. The driver
//! here applies scoping policy uniformly: findings inside
//! `#[cfg(test)]` regions, test/bench/example files, or under a valid
//! `lint:allow` suppression are dropped **after** the rule runs, so
//! rules stay simple and the policy lives in one place.

pub mod atomic_ordering;
pub mod bounded_channels;
pub mod crate_hygiene;
pub mod detached_thread;
pub mod ignored_result;
pub mod lock_order;
pub mod no_deprecated;
pub mod no_float_eq;
pub mod no_panic;
pub mod unchecked_arith;

use crate::diagnostics::Diagnostic;
use crate::workspace::Workspace;

/// Runs every token-level lint rule and returns the raw findings,
/// before the `lint:allow` filter. `cargo xtask suppressions` diffs
/// markers against this stream to detect stale ones.
pub fn raw_all(ws: &Workspace) -> Vec<Diagnostic> {
    let deprecated = no_deprecated::collect_deprecated(ws);
    let mut diags = Vec::new();
    for file in &ws.files {
        diags.extend(no_panic::check(file));
        diags.extend(no_float_eq::check(file));
        diags.extend(bounded_channels::check(file));
        diags.extend(crate_hygiene::check(file));
        diags.extend(no_deprecated::check(file, &deprecated));
    }
    diags
}

/// Runs every rule over the workspace and returns the surviving
/// diagnostics, sorted by path, line, column.
pub fn run_all(ws: &Workspace) -> Vec<Diagnostic> {
    let raw = raw_all(ws);
    let mut diags = Vec::new();
    for file in &ws.files {
        let path = file.rel_path.display().to_string();
        // Policy gate: suppressions silence findings; malformed
        // suppressions are findings of their own.
        diags.extend(
            raw.iter()
                .filter(|d| d.path == path && !file.allowed(d.rule, d.line))
                .cloned(),
        );
        diags.extend(file.suppression_diags.iter().cloned());
    }
    diags.sort_by(|a, b| {
        a.path
            .cmp(&b.path)
            .then(a.line.cmp(&b.line))
            .then(a.col.cmp(&b.col))
    });
    diags
}
