//! `atomic-ordering`: every memory ordering named in library source
//! carries a written reason.
//!
//! The one invariant neither rustc nor clippy can state. A *site* is a
//! line of code (not a comment, a string or an import) naming
//! `Relaxed`, `Acquire`, `Release`, `AcqRel` or `SeqCst`; it passes
//! when a plain `//` comment on that line, or in the comment block
//! directly above the statement the line belongs to, reads
//! `ordering(<that ordering>): <why it is sufficient>`. There is no
//! whitelist: a telemetry counter says it is one.
//!
//! The check reads every `.rs` file under `src/` and `crates/*/src/`.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

const ORDERINGS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// A memory ordering without its reason.
#[derive(Debug, PartialEq, Eq)]
pub struct Finding {
    /// Path as given to [`check_source`].
    pub path: PathBuf,
    /// 1-based line of the site.
    pub line: usize,
    /// The ordering named there.
    pub ordering: &'static str,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Finding {
            path,
            line,
            ordering,
        } = self;
        write!(
            f,
            "error[atomic-ordering]: `{ordering}` without a written reason\n  --> {}:{line}\n  \
             help: say why this ordering is sufficient: `// ordering({ordering}): <why>` on \
             this line or directly above the statement",
            path.display()
        )
    }
}

/// One source line, split into what the compiler sees and what the
/// reader sees.
struct Line {
    /// The line without its comments and the contents of its literals.
    code: String,
    /// The text of a plain (non-doc) `//` comment on the line.
    comment: String,
}

/// Splits `src` into [`Line`]s. Tracks string literals (plain and
/// raw), char literals and nested block comments across lines, so an
/// ordering named in prose or in a test fixture is not a site.
fn split(src: &str) -> Vec<Line> {
    enum State {
        Code,
        Str,
        Raw(usize),
        Block(usize),
    }
    let mut state = State::Code;
    let mut lines = Vec::new();
    for text in src.lines() {
        let chars: Vec<char> = text.chars().collect();
        let at = |i: usize| chars.get(i).copied().unwrap_or(' ');
        let (mut code, mut comment) = (String::new(), String::new());
        let mut i = 0;
        while i < chars.len() {
            let c = chars[i];
            match state {
                State::Code if c == '/' && at(i + 1) == '/' => {
                    let doc = matches!(at(i + 2), '/' | '!') && at(i + 3) != '/';
                    if !doc {
                        comment = chars[i + 2..].iter().collect();
                    }
                    break;
                }
                State::Code if c == '/' && at(i + 1) == '*' => {
                    state = State::Block(1);
                    i += 1;
                }
                State::Code if c == '"' => {
                    // `r"…"` / `r#"…"#`: count the hashes back to the `r`.
                    let hashes = chars[..i].iter().rev().take_while(|&&h| h == '#').count();
                    let raw = i > hashes && chars[i - hashes - 1] == 'r';
                    state = if raw { State::Raw(hashes) } else { State::Str };
                }
                // A char literal (`'"'`, `'\''`); a lifetime has no closing quote.
                State::Code if c == '\'' && at(i + 1) == '\\' => {
                    i = (i + 3..chars.len())
                        .find(|&j| chars[j] == '\'')
                        .unwrap_or(i);
                }
                State::Code if c == '\'' && at(i + 2) == '\'' => i += 2,
                State::Code => code.push(c),
                State::Str if c == '\\' => i += 1,
                State::Str if c == '"' => state = State::Code,
                State::Raw(n) if c == '"' && (1..=n).all(|h| at(i + h) == '#') => {
                    state = State::Code;
                    i += n;
                }
                State::Block(d) if c == '*' && at(i + 1) == '/' => {
                    state = if d == 1 {
                        State::Code
                    } else {
                        State::Block(d - 1)
                    };
                    i += 1;
                }
                State::Block(d) if c == '/' && at(i + 1) == '*' => {
                    state = State::Block(d + 1);
                    i += 1;
                }
                State::Str | State::Raw(_) | State::Block(_) => {}
            }
            i += 1;
        }
        lines.push(Line { code, comment });
    }
    lines
}

/// The orderings `code` names as whole identifiers.
fn named(code: &str) -> impl Iterator<Item = &'static str> + '_ {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    ORDERINGS.into_iter().filter(move |name| {
        code.match_indices(name).any(|(at, _)| {
            !code[..at].ends_with(ident) && !code[at + name.len()..].starts_with(ident)
        })
    })
}

/// True when `comment` holds `ordering(<ordering>): <non-empty reason>`.
fn justifies(comment: &str, ordering: &str) -> bool {
    let marker = format!("ordering({ordering}):");
    comment
        .split_once(&marker)
        .is_some_and(|(_, why)| !why.trim().is_empty())
}

/// Checks one file's text; `path` only labels the findings.
pub fn check_source(path: &Path, src: &str) -> Vec<Finding> {
    let lines = split(src);
    let is_comment = |l: &Line| l.code.trim().is_empty() && !l.comment.is_empty();
    let mut findings = Vec::new();
    let mut in_use = false;
    for (n, line) in lines.iter().enumerate() {
        let code = line.code.trim();
        // An import names an ordering without ordering anything.
        let import = in_use || code.trim_start_matches("pub ").starts_with("use ");
        in_use = import && !code.ends_with(';');
        if import || named(code).next().is_none() {
            continue;
        }
        // The statement starts where the line above ends one.
        let mut start = n;
        while start > 0 {
            let above = lines[start - 1].code.trim();
            if above.is_empty() || above.ends_with([';', '{', '}']) {
                break;
            }
            start -= 1;
        }
        let block_above = lines[..start].iter().rev().take_while(|l| is_comment(l));
        let comments: Vec<&str> = lines[start..=n]
            .iter()
            .chain(block_above)
            .map(|l| l.comment.as_str())
            .collect();
        for ordering in named(code) {
            if !comments.iter().any(|c| justifies(c, ordering)) {
                findings.push(Finding {
                    path: path.to_path_buf(),
                    line: n + 1,
                    ordering,
                });
            }
        }
    }
    findings
}

/// Checks every `.rs` file under `root/src` and `root/crates/*/src`.
pub fn check_workspace(root: &Path) -> Result<Vec<Finding>, String> {
    let list = |dir: &Path| -> Result<Vec<PathBuf>, String> {
        let mut paths = fs::read_dir(dir)
            .and_then(|entries| {
                entries
                    .map(|e| e.map(|e| e.path()))
                    .collect::<Result<Vec<_>, _>>()
            })
            .map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
        paths.sort();
        Ok(paths)
    };
    let mut pending = vec![root.join("src")];
    pending.extend(
        list(&root.join("crates"))?
            .into_iter()
            .map(|c| c.join("src"))
            .filter(|src| src.is_dir()),
    );
    let mut findings = Vec::new();
    while let Some(dir) = pending.pop() {
        for path in list(&dir)? {
            if path.is_dir() {
                pending.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let src = fs::read_to_string(&path)
                    .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
                let rel = path.strip_prefix(root).unwrap_or(&path);
                findings.extend(check_source(rel, &src));
            }
        }
    }
    findings.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sites(src: &str) -> Vec<(usize, &'static str)> {
        check_source(Path::new("x.rs"), src)
            .into_iter()
            .map(|f| (f.line, f.ordering))
            .collect()
    }

    #[test]
    fn a_bare_ordering_is_a_finding_whatever_the_idiom() {
        // The retired whitelist let literal counter bumps through.
        assert_eq!(
            sites("fn f() {\n    HITS.fetch_add(1, Ordering::Relaxed);\n}\n"),
            [(2, "Relaxed")]
        );
        assert_eq!(
            sites(
                "use std::sync::atomic::Ordering::SeqCst;\nfn f() {\n    X.store(1, SeqCst);\n}\n"
            ),
            [(3, "SeqCst")]
        );
    }

    #[test]
    fn a_reason_above_the_statement_or_on_the_line_passes() {
        let above = "fn f() {\n    // ordering(Relaxed): advisory bound,\n    // stale reads only prune less.\n    self.bits\n        .fetch_max(v, Ordering::Relaxed);\n}\n";
        assert_eq!(sites(above), []);
        let trailing = "fn f() {\n    N.load(Ordering::Acquire); // ordering(Acquire): pairs with the store in `publish`\n}\n";
        assert_eq!(sites(trailing), []);
        let field = "fn f() -> S {\n    S {\n        // ordering(Relaxed): report-time read.\n        n: N.load(Relaxed),\n    }\n}\n";
        assert_eq!(sites(field), []);
    }

    #[test]
    fn the_reason_must_name_the_ordering_and_say_something() {
        let empty = "fn f() {\n    // ordering(Relaxed):\n    N.load(Ordering::Relaxed);\n}\n";
        assert_eq!(sites(empty), [(3, "Relaxed")]);
        let other = "fn f() {\n    // ordering(Relaxed): a counter.\n    N.store(1, Ordering::SeqCst);\n}\n";
        assert_eq!(sites(other), [(3, "SeqCst")]);
        let doc = "/// ordering(Relaxed): docs describe, they do not justify.\nfn f() { N.load(Ordering::Relaxed); }\n";
        assert_eq!(sites(doc), [(2, "Relaxed")]);
    }

    #[test]
    fn a_reason_covers_one_statement_only() {
        let src = "fn f() {\n    // ordering(Relaxed): a counter.\n    A.fetch_add(1, Relaxed);\n    B.fetch_add(1, Relaxed);\n}\n";
        assert_eq!(sites(src), [(4, "Relaxed")]);
        let both = "fn f() {\n    // ordering(AcqRel): claims the slot. ordering(Acquire): failure only re-reads.\n    S.compare_exchange(\n        0,\n        1,\n        Ordering::AcqRel,\n        Ordering::Acquire,\n    );\n}\n";
        assert_eq!(sites(both), []);
    }

    #[test]
    fn prose_literals_imports_and_other_names_are_not_sites() {
        let src = "//! Uses Ordering::Relaxed throughout.\nuse std::sync::atomic::{\n    AtomicU64,\n    Ordering::Relaxed,\n};\n/* Ordering::SeqCst /* nested */ SeqCst */\nconst A: &str = \"Ordering::Relaxed\";\nconst B: &str = r#\"a \"quoted\" Ordering::Release\n  SeqCst\"#;\nconst Q: char = '\"';\nfn f<'a>(x: &'a str) -> std::cmp::Ordering { RelaxedMode::Release_.cmp(x) }\n";
        assert_eq!(sites(src), []);
    }

    #[test]
    fn the_workspace_is_clean() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let findings = check_workspace(&root).expect("the workspace is readable");
        assert_eq!(findings, []);
    }
}
