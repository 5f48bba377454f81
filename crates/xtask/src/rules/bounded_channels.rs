//! Rule `bounded-channels` (L3): the middleware crate must not create
//! unbounded `mpsc::channel()`s.
//!
//! Worker threads (today: the shard workers) can produce faster than
//! a slow consumer drains them; an unbounded channel turns that
//! imbalance into unbounded memory growth. `mpsc::sync_channel(bound)`
//! applies backpressure instead. The rule is scoped to `crates/middleware`
//! because that is where worker pipelines live; other crates don't
//! spawn producer threads.
//!
//! Three lexical shapes are flagged:
//!
//! * a call `mpsc::channel(` (any path prefix before `mpsc`);
//! * importing the constructor: `use std::sync::mpsc::channel` (which
//!   would let later bare `channel()` calls evade the first pattern);
//! * importing it through a brace group:
//!   `use std::sync::mpsc::{channel, …}` — a `channel` slipped into
//!   a group beside `sync_channel` must not evade the rule.

use crate::diagnostics::Diagnostic;
use crate::workspace::{FileClass, SourceFile};

const RULE: &str = "bounded-channels";

/// Checks one file.
pub fn check(file: &SourceFile) -> Vec<Diagnostic> {
    if file.class != FileClass::Lib || file.crate_dir != "middleware" {
        return Vec::new();
    }
    let code = &file.code;
    let mut diags = Vec::new();
    for (i, token) in code.iter().enumerate() {
        if token.text != "mpsc" {
            continue;
        }
        if file.in_test_region(token.line) {
            continue;
        }
        if !code.get(i + 1).map(|t| t.text == "::").unwrap_or(false) {
            continue;
        }
        // `mpsc :: { …, channel, … }` — a brace-group import.
        if code.get(i + 2).map(|t| t.text == "{").unwrap_or(false) {
            let in_use = code[..i].iter().rev().take(8).any(|t| t.text == "use");
            let mut j = i + 3;
            while let Some(t) = code.get(j) {
                if t.text == "}" {
                    break;
                }
                // A direct member named `channel`: preceded by `{`/`,`
                // (not a nested path segment like `channel::…`, which
                // cannot occur under `mpsc::`) and followed by
                // `,`/`}`/`as`.
                let next = code.get(j + 1).map(|t| t.text.as_str());
                if in_use && t.text == "channel" && matches!(next, Some("," | "}" | "as")) {
                    diags.push(
                        Diagnostic::new(
                            RULE,
                            &file.rel_path,
                            t.line,
                            t.col,
                            "importing unbounded `mpsc::channel` (brace group) in middleware",
                        )
                        .with_help(
                            "use `mpsc::sync_channel(bound)` for backpressure, or add \
                             `// lint:allow(bounded-channels): <why unbounded is safe here>`",
                        ),
                    );
                }
                j += 1;
            }
            continue;
        }
        // `mpsc :: channel` …
        if !code
            .get(i + 2)
            .map(|t| t.text == "channel")
            .unwrap_or(false)
        {
            continue;
        }
        // Skip an optional turbofish (`channel::<T>()`).
        let mut j = i + 3;
        if code.get(j).map(|t| t.text == "::").unwrap_or(false)
            && code.get(j + 1).map(|t| t.text == "<").unwrap_or(false)
        {
            let mut depth = 0isize;
            j += 1;
            while let Some(t) = code.get(j) {
                match t.text.as_str() {
                    "<" | "<<" => depth += if t.text == "<<" { 2 } else { 1 },
                    ">" | ">>" => {
                        depth -= if t.text == ">>" { 2 } else { 1 };
                        if depth <= 0 {
                            j += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        let after = code.get(j).map(|t| t.text.as_str());
        // … either called directly, or named by a `use` import.
        let is_call = after == Some("(");
        let is_import = matches!(after, Some(";" | ",") | None)
            && code[..i].iter().rev().take(8).any(|t| t.text == "use");
        if is_call || is_import {
            let what = if is_call {
                "unbounded `mpsc::channel()`"
            } else {
                "importing unbounded `mpsc::channel`"
            };
            diags.push(
                Diagnostic::new(
                    RULE,
                    &file.rel_path,
                    token.line,
                    token.col,
                    format!("{what} in middleware"),
                )
                .with_help(
                    "use `mpsc::sync_channel(bound)` for backpressure, or add \
                     `// lint:allow(bounded-channels): <why unbounded is safe here>`",
                ),
            );
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::analyze;
    use std::path::PathBuf;

    fn check_src(path: &str, src: &str) -> Vec<Diagnostic> {
        let file = analyze(PathBuf::from(path), src);
        check(&file)
            .into_iter()
            .filter(|d| !file.allowed(d.rule, d.line))
            .collect()
    }

    #[test]
    fn flags_unbounded_channel_calls() {
        let src = "use std::sync::mpsc;\nfn f() {\n    let (tx, rx) = mpsc::channel::<u32>();\n    let _ = (tx, rx);\n}\n";
        let diags = check_src("crates/middleware/src/engine.rs", src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].line, 3);
    }

    #[test]
    fn flags_importing_the_constructor() {
        let src = "use std::sync::mpsc::channel;\n";
        assert_eq!(check_src("crates/middleware/src/engine.rs", src).len(), 1);
    }

    #[test]
    fn flags_brace_group_imports() {
        let src = "use std::sync::mpsc::{channel, Receiver};\n";
        let diags = check_src("crates/middleware/src/sharded.rs", src);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("brace group"));
        // Renamed imports don't evade either.
        let src = "use std::sync::mpsc::{channel as ch};\n";
        assert_eq!(check_src("crates/middleware/src/sharded.rs", src).len(), 1);
        // Trailing position in the group.
        let src = "use std::sync::mpsc::{Receiver, channel};\n";
        assert_eq!(check_src("crates/middleware/src/sharded.rs", src).len(), 1);
    }

    #[test]
    fn brace_group_with_only_sync_channel_is_fine() {
        let src = "use std::sync::mpsc::{sync_channel, Receiver, SyncSender};\n";
        assert!(check_src("crates/middleware/src/engine.rs", src).is_empty());
    }

    #[test]
    fn allows_sync_channel() {
        let src = "use std::sync::mpsc;\nfn f() {\n    let (tx, rx) = mpsc::sync_channel::<u32>(4);\n    let _ = (tx, rx);\n}\n";
        assert!(check_src("crates/middleware/src/engine.rs", src).is_empty());
    }

    #[test]
    fn scoped_to_middleware_lib_code() {
        let src = "fn f() { let _ = std::sync::mpsc::channel::<u32>(); }\n";
        assert!(check_src("crates/core/src/f.rs", src).is_empty());
        assert!(check_src("crates/middleware/tests/t.rs", src).is_empty());
    }

    #[test]
    fn honors_suppressions() {
        let src = "fn f() {\n    // lint:allow(bounded-channels): producer is strictly bounded by k batches\n    let _ = std::sync::mpsc::channel::<u32>();\n}\n";
        assert!(check_src("crates/middleware/src/engine.rs", src).is_empty());
    }
}
