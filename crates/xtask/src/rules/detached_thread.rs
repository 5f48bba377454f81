//! `detached-thread`: every `thread::spawn` must keep its
//! `JoinHandle` (bind it, return it, push it somewhere) or be
//! explicitly justified.
//!
//! A detached thread outlives the scope that can observe its panics
//! and races teardown. Every thread this workspace starts — the
//! engine's `run_many` pool, the shard workers — is scoped and joined
//! before the call that started it returns, and the gate test holds
//! the workspace to zero `lint:allow(detached-thread)` markers. A
//! thread that must outlive its spawner (a worker whose channel
//! disconnect is the shutdown signal, say) has to argue that in a
//! `lint:allow(detached-thread): …` comment.

use crate::analyze::AnalyzedFile;
use crate::diagnostics::Diagnostic;
use crate::workspace::FileClass;

/// Rule name, as reported and as used in `lint:allow(...)`.
pub const RULE: &str = "detached-thread";

/// Checks one parsed file.
pub fn check(af: &AnalyzedFile<'_>) -> Vec<Diagnostic> {
    if af.source.class != FileClass::Lib {
        return Vec::new();
    }
    let mut diags = Vec::new();
    for f in &af.tree.fns {
        for spawn in &f.body.spawns {
            if !spawn.detached {
                continue;
            }
            // A spawn whose handle flows onward — bound by `let`,
            // pushed into a collection, returned — is managed by its
            // caller; only a discarded handle detaches the thread.
            if spawn.handle_kept {
                continue;
            }
            diags.push(
                Diagnostic::new(
                    RULE,
                    &af.source.rel_path,
                    spawn.line,
                    spawn.col,
                    format!(
                        "`thread::spawn` in `{}` discards its `JoinHandle` — \
                         the thread is detached",
                        f.name
                    ),
                )
                .with_help(
                    "keep the handle and join it (or use a scoped thread); if \
                     detachment is intentional, say why the thread's lifetime is \
                     bounded: `// lint:allow(detached-thread): <why>`",
                ),
            );
        }
    }
    diags
}
