//! `lock-order`: builds the workspace lock-acquisition graph and fails
//! on cycles.
//!
//! Nodes are **lock classes** — the identifier a guard is acquired
//! through (`self.stripes[i].lock()` → class `stripes`), or the name
//! of a guard-returning workspace helper (`Self::lock_cache(…)` →
//! class `lock_cache`). An edge `A → B` is recorded whenever `B` is
//! acquired while a guard of class `A` is still live (the guard's
//! lexical scope, as the parser tracks it). Two threads taking the
//! same pair of locks in opposite orders is the classic deadlock; a
//! cycle in this graph is exactly that possibility, so the rule
//! reports every strongly connected component with two or more
//! classes.
//!
//! Deliberate over-approximations, chosen so a missed deadlock is
//! impossible at the cost of occasional curation:
//!
//! * classes are name-level — two fields named `inner` in different
//!   types collapse into one node (collisions are curated by renaming
//!   or a justified `lint:allow(lock-order)`);
//! * *any* guard-returning definition makes a call an acquisition
//!   ([`crate::symbols::SymbolTable::any_returns_guard`]) — missing an acquisition
//!   would hide an edge;
//! * self-edges (`A → A`) are ignored: re-acquiring the same *class*
//!   is usually a different stripe of a striped structure, and
//!   single-lock re-entrancy is out of scope for an order analysis.
//!
//! Only library code outside `#[cfg(test)]` contributes edges, so
//! deliberately cyclic fixtures in tests cannot poison the real graph.

use crate::analyze::AnalyzedWorkspace;
use crate::diagnostics::Diagnostic;
use crate::workspace::FileClass;
use std::collections::{BTreeMap, BTreeSet};

/// Rule name, as reported and as used in `lint:allow(...)`.
pub const RULE: &str = "lock-order";

/// One `A → B` acquisition edge, with the site of the inner
/// acquisition for reporting.
#[derive(Debug, Clone)]
pub struct Edge {
    /// Lock class already held.
    pub from: String,
    /// Lock class acquired while `from` is held.
    pub to: String,
    /// Workspace-relative path of the acquiring file.
    pub path: String,
    /// Line of the inner acquisition.
    pub line: usize,
    /// Column of the inner acquisition.
    pub col: usize,
    /// Function the acquisition happens in.
    pub in_fn: String,
    /// How the inner lock was taken: `lock`/`read`/`write` for direct
    /// acquisitions, `call` for guard-returning helper calls.
    pub via: String,
}

/// A lock acquisition inside one function: class plus the lexical
/// range its guard stays live.
struct Acq {
    class: String,
    line: usize,
    col: usize,
    end_line: usize,
    via: String,
}

/// Extracts every `A → B` edge from the parsed workspace.
pub fn build_edges(aws: &AnalyzedWorkspace<'_>) -> Vec<Edge> {
    let mut edges = Vec::new();
    for af in &aws.files {
        if af.source.class != FileClass::Lib {
            continue;
        }
        for f in &af.tree.fns {
            if af.source.in_test_region(f.line) {
                continue;
            }
            let mut acqs: Vec<Acq> = Vec::new();
            for l in &f.body.locks {
                acqs.push(Acq {
                    class: l.class.clone(),
                    line: l.line,
                    col: l.col,
                    end_line: l.scope_end_line,
                    via: l.method.clone(),
                });
            }
            // A call to a guard-returning workspace helper acquires the
            // helper's lock on the caller's side; the guard lives to the
            // end of the statement, or of the block when `let`-bound.
            for c in &f.body.calls {
                if aws.symbols.any_returns_guard(&c.callee) {
                    acqs.push(Acq {
                        class: c.callee.clone(),
                        line: c.line,
                        col: c.col,
                        end_line: if c.bound_to_let {
                            c.block_end_line
                        } else {
                            c.stmt_end_line
                        },
                        via: "call".to_owned(),
                    });
                }
            }
            acqs.sort_by(|a, b| a.line.cmp(&b.line).then(a.col.cmp(&b.col)));
            for (i, outer) in acqs.iter().enumerate() {
                for inner in &acqs[i + 1..] {
                    if inner.line > outer.end_line || inner.class == outer.class {
                        continue;
                    }
                    edges.push(Edge {
                        from: outer.class.clone(),
                        to: inner.class.clone(),
                        path: af.source.rel_path.display().to_string(),
                        line: inner.line,
                        col: inner.col,
                        in_fn: f.name.clone(),
                        via: inner.via.clone(),
                    });
                }
            }
        }
    }
    edges
}

/// Nodes reachable from `start` (excluding trivial zero-length paths).
fn reachable<'a>(adj: &BTreeMap<&'a str, BTreeSet<&'a str>>, start: &'a str) -> BTreeSet<&'a str> {
    let mut seen = BTreeSet::new();
    let mut stack: Vec<&str> = adj.get(start).into_iter().flatten().copied().collect();
    while let Some(n) = stack.pop() {
        if seen.insert(n) {
            stack.extend(adj.get(n).into_iter().flatten().copied());
        }
    }
    seen
}

/// Checks the workspace lock graph for cycles.
pub fn check(aws: &AnalyzedWorkspace<'_>) -> Vec<Diagnostic> {
    let edges = build_edges(aws);
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for e in &edges {
        adj.entry(&e.from).or_default().insert(&e.to);
    }
    // Mutual-reachability grouping: the graphs here have a handful of
    // nodes, so quadratic SCC detection is simplest and deterministic.
    let reach: BTreeMap<&str, BTreeSet<&str>> =
        adj.keys().map(|&n| (n, reachable(&adj, n))).collect();
    let mut reported: BTreeSet<&str> = BTreeSet::new();
    let mut diags = Vec::new();
    for &a in adj.keys() {
        if reported.contains(a) {
            continue;
        }
        let scc: BTreeSet<&str> = reach[a]
            .iter()
            .filter(|&&b| b != a && reach.get(b).is_some_and(|r| r.contains(a)))
            .copied()
            .chain([a])
            .collect();
        if scc.len() < 2 {
            continue;
        }
        reported.extend(scc.iter().copied());
        let classes: Vec<&str> = scc.iter().copied().collect();
        // Anchor the report on the lexically first edge inside the SCC.
        let mut cyc_edges: Vec<&Edge> = edges
            .iter()
            .filter(|e| scc.contains(e.from.as_str()) && scc.contains(e.to.as_str()))
            .collect();
        cyc_edges.sort_by(|x, y| {
            x.path
                .cmp(&y.path)
                .then(x.line.cmp(&y.line))
                .then(x.col.cmp(&y.col))
        });
        cyc_edges.dedup_by(|x, y| x.from == y.from && x.to == y.to);
        let Some(anchor) = cyc_edges.first() else {
            continue;
        };
        let detail: Vec<String> = cyc_edges
            .iter()
            .map(|e| {
                format!(
                    "`{}` is acquired (via `{}`) while `{}` is held at {}:{} (in `{}`)",
                    e.to, e.via, e.from, e.path, e.line, e.in_fn
                )
            })
            .collect();
        diags.push(
            Diagnostic::new(
                RULE,
                std::path::Path::new(&anchor.path),
                anchor.line,
                anchor.col,
                format!(
                    "lock-order cycle between lock classes {} — two threads \
                     taking these in opposite orders deadlock",
                    classes
                        .iter()
                        .map(|c| format!("`{c}`"))
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
            )
            .with_help(format!(
                "impose a single global acquisition order; the cycle's edges: {}",
                detail.join("; ")
            )),
        );
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::parse_workspace;
    use crate::workspace::{analyze, Workspace};
    use std::path::PathBuf;

    fn ws(sources: &[(&str, &str)]) -> Workspace {
        Workspace {
            files: sources
                .iter()
                .map(|(p, s)| analyze(PathBuf::from(p), s))
                .collect(),
        }
    }

    #[test]
    fn reports_a_two_lock_cycle() {
        let w = ws(&[(
            "crates/m/src/lib.rs",
            r#"
            fn forward(a: &Mutex<u32>, b: &Mutex<u32>) {
                let ga = a.lock().unwrap();
                let gb = b.lock().unwrap();
            }
            fn backward(a: &Mutex<u32>, b: &Mutex<u32>) {
                let gb = b.lock().unwrap();
                let ga = a.lock().unwrap();
            }
            "#,
        )]);
        let aws = parse_workspace(&w);
        let diags = check(&aws);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("`a`"), "{}", diags[0].message);
        assert!(diags[0].message.contains("`b`"), "{}", diags[0].message);
    }

    #[test]
    fn consistent_order_is_acyclic() {
        let w = ws(&[(
            "crates/m/src/lib.rs",
            r#"
            fn one(a: &Mutex<u32>, b: &Mutex<u32>) {
                let ga = a.lock().unwrap();
                let gb = b.lock().unwrap();
            }
            fn two(a: &Mutex<u32>, b: &Mutex<u32>) {
                let ga = a.lock().unwrap();
                let gb = b.lock().unwrap();
            }
            "#,
        )]);
        let aws = parse_workspace(&w);
        assert!(check(&aws).is_empty());
    }

    #[test]
    fn guard_helper_calls_count_as_acquisitions() {
        // Models the striped cache + buffer pool: `lock_cache` and
        // `lock_pool` are guard-returning helpers; one caller nests
        // them one way, another the other way — a cycle even though no
        // `.lock()` appears at the call sites themselves.
        let w = ws(&[(
            "crates/m/src/lib.rs",
            r#"
            fn lock_cache(m: &Mutex<u32>) -> MutexGuard<'_, u32> { m.lock().unwrap() }
            fn lock_pool(m: &Mutex<u32>) -> MutexGuard<'_, u32> { m.lock().unwrap() }
            fn ab(c: &Mutex<u32>, p: &Mutex<u32>) {
                let g = lock_cache(c);
                let h = lock_pool(p);
            }
            fn ba(c: &Mutex<u32>, p: &Mutex<u32>) {
                let h = lock_pool(p);
                let g = lock_cache(c);
            }
            "#,
        )]);
        let aws = parse_workspace(&w);
        let diags = check(&aws);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(
            diags[0].message.contains("lock_cache"),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn striped_reacquire_of_same_class_is_not_a_cycle() {
        // A striped structure takes several stripes of the same class
        // in a loop; same-class pairs must not form self-edges.
        let w = ws(&[(
            "crates/m/src/lib.rs",
            r#"
            fn fold(stripes: &[Mutex<u32>]) -> u32 {
                let a = stripes[0].lock().unwrap();
                let b = stripes[1].lock().unwrap();
                *a + *b
            }
            "#,
        )]);
        let aws = parse_workspace(&w);
        assert!(check(&aws).is_empty());
    }

    #[test]
    fn test_code_contributes_no_edges() {
        let w = ws(&[(
            "crates/m/tests/deadlock.rs",
            r#"
            fn forward(a: &Mutex<u32>, b: &Mutex<u32>) {
                let ga = a.lock().unwrap();
                let gb = b.lock().unwrap();
            }
            fn backward(a: &Mutex<u32>, b: &Mutex<u32>) {
                let gb = b.lock().unwrap();
                let ga = a.lock().unwrap();
            }
            "#,
        )]);
        let aws = parse_workspace(&w);
        assert!(build_edges(&aws).is_empty());
        assert!(check(&aws).is_empty());
    }
}
