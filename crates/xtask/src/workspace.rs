//! Workspace discovery and per-file analysis context.
//!
//! This module walks the repository, lexes every first-party `.rs`
//! file, and annotates each with what the rules need to scope
//! themselves correctly:
//!
//! * which crate directory it belongs to and whether it is a crate
//!   root (`src/lib.rs` / `src/main.rs`);
//! * its class — library code, tests, benches, examples, build script
//!   (rules exempt non-library classes per policy);
//! * the `#[cfg(test)]` regions inside library files, found by strict
//!   attribute-token matching plus brace matching;
//! * the suppression comments, parsed from the token stream:
//!   `// lint:allow(<rule>): <justification>` silences one finding on
//!   the comment's line or the next line, and
//!   `// lint:allow-file(<rule>): <justification>` silences a rule for
//!   the whole file. A suppression **must** carry a justification
//!   after the colon; a bare `lint:allow(rule)` is itself reported.
//!
//! `vendor/` and `target/` are never walked: vendored stubs are not
//! first-party code and build output is not source.

use std::fs;
use std::path::{Path, PathBuf};

use crate::diagnostics::Diagnostic;
use crate::lexer::{lex, Token, TokenKind};

/// Every rule the linter knows, in reporting order.
pub const RULES: &[&str] = &[
    "no-panic",
    "no-float-eq",
    "bounded-channels",
    "crate-hygiene",
    "no-deprecated",
];

/// Every rule the analyzer (`cargo xtask analyze`) knows, in
/// reporting order. These run on the parsed item tree, not the raw
/// token stream.
pub const ANALYZE_RULES: &[&str] = &[
    "atomic-ordering",
    "lock-order",
    "detached-thread",
    "ignored-result",
    "unchecked-arith",
];

/// Internal rule id for files the analyzer's parser could not model.
pub const PARSE_RULE: &str = "parse-error";

/// Internal rule id for malformed suppression comments.
pub const SUPPRESSION_RULE: &str = "lint-allow";

/// Internal rule id for malformed `// ordering(...)` justifications.
pub const ORDERING_RULE: &str = "ordering-comment";

/// Memory-ordering names an `// ordering(<Ord>): why` comment may
/// justify (mirrors `parser::ORDERING_NAMES`, duplicated here so the
/// workspace layer stays independent of the parser).
const ORDERING_NAMES: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// True when `rule` is a lint or analyze rule a `lint:allow` marker
/// may name.
pub fn known_rule(rule: &str) -> bool {
    RULES.contains(&rule) || ANALYZE_RULES.contains(&rule)
}

/// What kind of source a file is; rules use this to scope themselves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// Library or binary code under `src/`.
    Lib,
    /// Integration tests under a `tests/` directory.
    Test,
    /// Benchmarks under a `benches/` directory.
    Bench,
    /// Examples under an `examples/` directory.
    Example,
    /// A `build.rs` build script.
    BuildScript,
}

/// One `// lint:allow(rule): why` site, as parsed from a comment.
#[derive(Debug, Clone)]
pub struct AllowSite {
    /// The rule this marker suppresses.
    pub rule: String,
    /// First line of the comment.
    pub line: usize,
    /// Last line of the comment (block comments span several).
    pub end_line: usize,
    /// True for the `lint:allow-file(...)` whole-file form.
    pub file_wide: bool,
    /// The mandatory justification text after the colon.
    pub justification: String,
}

/// One `// ordering(<Ord>): why` justification site — the
/// atomic-ordering rule's mandatory validity argument for a memory
/// ordering that is not a whitelisted idiom.
#[derive(Debug, Clone)]
pub struct OrderingSite {
    /// The justified ordering name (`Relaxed`, `SeqCst`, …).
    pub ordering: String,
    /// First line of the comment.
    pub line: usize,
    /// Last line of the comment.
    pub end_line: usize,
    /// The mandatory validity argument after the colon.
    pub justification: String,
}

/// One analyzed source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Path relative to the workspace root (what diagnostics print).
    pub rel_path: PathBuf,
    /// The directory name under `crates/` (`core`, `middleware`, …),
    /// or `""` for the root package.
    pub crate_dir: String,
    /// Library / test / bench / example / build-script.
    pub class: FileClass,
    /// True for `src/lib.rs` or `src/main.rs` of a package.
    pub is_crate_root: bool,
    /// Token stream with comments stripped — what most rules scan.
    pub code: Vec<Token>,
    /// Inclusive line ranges covered by `#[cfg(test)]`.
    test_ranges: Vec<(usize, usize)>,
    /// Every well-formed `lint:allow` / `lint:allow-file` marker.
    pub allows: Vec<AllowSite>,
    /// Every well-formed `ordering(...)` justification.
    pub ordering_allows: Vec<OrderingSite>,
    /// Findings from the suppression parser itself (missing
    /// justification, unknown rule name).
    pub suppression_diags: Vec<Diagnostic>,
}

impl SourceFile {
    /// True if `line` falls inside a `#[cfg(test)]` region, or the
    /// whole file is test/bench/example code.
    pub fn in_test_region(&self, line: usize) -> bool {
        !matches!(self.class, FileClass::Lib | FileClass::BuildScript)
            || self
                .test_ranges
                .iter()
                .any(|&(start, end)| (start..=end).contains(&line))
    }

    /// True if a `lint:allow` suppression covers `rule` at `line`.
    pub fn allowed(&self, rule: &str, line: usize) -> bool {
        self.allows
            .iter()
            .any(|a| a.rule == rule && (a.file_wide || (a.line..=a.end_line + 1).contains(&line)))
    }

    /// True if an `// ordering(<ordering>): why` justification covers
    /// an atomic site at `line`. A justification covers its own line,
    /// the next line, and — so one comment can head a *run* of
    /// consecutive same-shape atomic statements (e.g. a counter fold)
    /// — every further consecutive line that carries an atomic site
    /// (`atomic_lines`, supplied by the rule from the parse tree).
    pub fn ordering_justified(&self, ordering: &str, line: usize, atomic_lines: &[usize]) -> bool {
        self.ordering_allows.iter().any(|o| {
            if o.ordering != ordering || o.line > line {
                return false;
            }
            if (o.line..=o.end_line + 1).contains(&line) {
                return true;
            }
            // Coverage of a contiguous run: every line strictly between the
            // comment's end and the site must itself carry an atomic
            // site.
            (o.end_line + 1..line).all(|l| atomic_lines.contains(&l))
        })
    }
}

/// The analyzed workspace: every first-party source file.
#[derive(Debug)]
pub struct Workspace {
    /// All analyzed files, in walk order.
    pub files: Vec<SourceFile>,
}

/// Walks `root`, lexes and annotates every first-party `.rs` file.
pub fn collect(root: &Path) -> Result<Workspace, String> {
    let mut paths = Vec::new();
    walk(root, root, &mut paths)?;
    paths.sort();
    let mut files = Vec::with_capacity(paths.len());
    for rel in paths {
        let full = root.join(&rel);
        let source = fs::read_to_string(&full)
            .map_err(|e| format!("failed to read {}: {e}", full.display()))?;
        files.push(analyze(rel, &source));
    }
    Ok(Workspace { files })
}

/// Analyzes one file's source text (exposed for tests and fixtures).
pub fn analyze(rel_path: PathBuf, source: &str) -> SourceFile {
    let tokens = lex(source);
    let code: Vec<Token> = tokens
        .iter()
        .filter(|t| t.kind != TokenKind::Comment)
        .cloned()
        .collect();
    let (crate_dir, class, is_crate_root) = classify(&rel_path);
    let test_ranges = find_test_ranges(&code);
    let mut allows = Vec::new();
    let mut ordering_allows = Vec::new();
    let mut suppression_diags = Vec::new();
    for token in &merge_comment_runs(tokens.iter().filter(|t| t.kind == TokenKind::Comment)) {
        parse_suppressions(token, &rel_path, &mut allows, &mut suppression_diags);
        parse_ordering_comments(
            token,
            &rel_path,
            &mut ordering_allows,
            &mut suppression_diags,
        );
    }
    SourceFile {
        rel_path,
        crate_dir,
        class,
        is_crate_root,
        code,
        test_ranges,
        allows,
        ordering_allows,
        suppression_diags,
    }
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries =
        fs::read_dir(dir).map_err(|e| format!("failed to list {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("failed to read entry in {}: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if matches!(&*name, "target" | "vendor" | "node_modules") || name.starts_with('.') {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_path_buf());
            }
        }
    }
    Ok(())
}

fn classify(rel: &Path) -> (String, FileClass, bool) {
    let components: Vec<String> = rel
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect();
    let crate_dir = if components.first().map(String::as_str) == Some("crates") {
        components.get(1).cloned().unwrap_or_default()
    } else {
        String::new()
    };
    let file_name = components.last().cloned().unwrap_or_default();
    let class = if file_name == "build.rs" {
        FileClass::BuildScript
    } else if components.iter().any(|c| c == "tests") {
        FileClass::Test
    } else if components.iter().any(|c| c == "benches") {
        FileClass::Bench
    } else if components.iter().any(|c| c == "examples") {
        FileClass::Example
    } else {
        FileClass::Lib
    };
    // `src/lib.rs` / `src/main.rs` directly under a package directory.
    let tail: Vec<&str> = components.iter().map(String::as_str).collect();
    let is_crate_root = matches!(
        tail.as_slice(),
        ["src", "lib.rs" | "main.rs"] | ["crates", _, "src", "lib.rs" | "main.rs"]
    );
    (crate_dir, class, is_crate_root)
}

/// Finds `#[cfg(test)]`-gated regions by strict token matching: the
/// exact sequence `# [ cfg ( test ) ]`, then (skipping any further
/// attributes) the next top-level `{ … }` block or `;`-terminated
/// item.
fn find_test_ranges(code: &[Token]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut i = 0;
    while i < code.len() {
        if is_cfg_test_at(code, i) {
            let after_attr = i + 7;
            if let Some((start_line, end_line)) = item_extent(code, after_attr) {
                ranges.push((code[i].line.min(start_line), end_line));
            }
            i = after_attr;
        } else {
            i += 1;
        }
    }
    ranges
}

fn is_cfg_test_at(code: &[Token], i: usize) -> bool {
    let texts: Vec<&str> = code[i..].iter().take(7).map(|t| t.text.as_str()).collect();
    texts == ["#", "[", "cfg", "(", "test", ")", "]"]
}

/// From `start`, skips further outer attributes, then returns the
/// line extent of the next item: through its matching `}` if it opens
/// a brace block at nesting depth zero, or through the first `;`.
fn item_extent(code: &[Token], start: usize) -> Option<(usize, usize)> {
    let mut i = start;
    // Skip subsequent attributes (`#[…]`).
    while code.get(i).map(|t| t.text.as_str()) == Some("#")
        && code.get(i + 1).map(|t| t.text.as_str()) == Some("[")
    {
        let mut depth = 0usize;
        i += 1;
        while let Some(t) = code.get(i) {
            match t.text.as_str() {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        i += 1;
                        break;
                    }
                }
                _ => {}
            }
            i += 1;
        }
    }
    let start_line = code.get(i)?.line;
    let mut paren_depth = 0usize;
    while let Some(t) = code.get(i) {
        match t.text.as_str() {
            "(" | "[" => paren_depth += 1,
            ")" | "]" => paren_depth = paren_depth.saturating_sub(1),
            ";" if paren_depth == 0 => return Some((start_line, t.line)),
            "{" if paren_depth == 0 => {
                // Match braces to the item's closing `}`.
                let mut depth = 0usize;
                while let Some(b) = code.get(i) {
                    match b.text.as_str() {
                        "{" => depth += 1,
                        "}" => {
                            depth -= 1;
                            if depth == 0 {
                                return Some((start_line, b.line));
                            }
                        }
                        _ => {}
                    }
                    i += 1;
                }
                return Some((start_line, code.last()?.line));
            }
            _ => {}
        }
        i += 1;
    }
    Some((start_line, code.last()?.line))
}

/// Parses `lint:allow(...)` / `lint:allow-file(...)` markers out of a
/// comment token. Malformed markers (no justification, unknown rule)
/// are reported instead of honored: a silent bad suppression would be
/// worse than no suppression.
fn parse_suppressions(
    token: &Token,
    rel_path: &Path,
    allows: &mut Vec<AllowSite>,
    diags: &mut Vec<Diagnostic>,
) {
    let text = &token.text;
    if is_doc_comment(text) {
        return;
    }
    let end_line = token.line + text.matches('\n').count();
    let mut search = 0usize;
    while let Some(found) = text[search..].find("lint:allow") {
        let at = search + found;
        let rest = &text[at..];
        let (is_file, after_kw) = if let Some(r) = rest.strip_prefix("lint:allow-file(") {
            (true, r)
        } else if let Some(r) = rest.strip_prefix("lint:allow(") {
            (false, r)
        } else {
            search = at + "lint:allow".len();
            continue;
        };
        let Some(close) = after_kw.find(')') else {
            diags.push(
                Diagnostic::new(
                    SUPPRESSION_RULE,
                    rel_path,
                    token.line,
                    token.col,
                    "unterminated `lint:allow(` marker",
                )
                .with_help("write `// lint:allow(<rule>): <justification>`"),
            );
            return;
        };
        let rule = after_kw[..close].trim().to_owned();
        let tail = after_kw[close + 1..].trim_start();
        let justification = tail
            .strip_prefix(':')
            .map(str::trim_start)
            .unwrap_or("")
            .lines()
            .next()
            .unwrap_or("")
            .trim()
            .to_owned();
        if !known_rule(&rule) {
            diags.push(
                Diagnostic::new(
                    SUPPRESSION_RULE,
                    rel_path,
                    token.line,
                    token.col,
                    format!("`lint:allow({rule})` names an unknown rule"),
                )
                .with_help(format!(
                    "known rules: {}, {}",
                    RULES.join(", "),
                    ANALYZE_RULES.join(", ")
                )),
            );
        } else if justification.is_empty() {
            diags.push(
                Diagnostic::new(
                    SUPPRESSION_RULE,
                    rel_path,
                    token.line,
                    token.col,
                    format!("`lint:allow({rule})` has no justification"),
                )
                .with_help(
                    "suppressions must explain themselves: \
                     `// lint:allow(<rule>): <why this is sound>`",
                ),
            );
        } else {
            allows.push(AllowSite {
                rule,
                line: token.line,
                end_line,
                file_wide: is_file,
                justification,
            });
        }
        search = at + close;
    }
}

/// Joins runs of line-adjacent plain `//` comments into one logical
/// comment token. A justification is often several `//` lines long;
/// its marker must cover the code the *whole block* precedes, not
/// just the single line the marker happens to sit on. Doc comments
/// and block comments break a run — they are never marker carriers.
fn merge_comment_runs<'a>(comments: impl Iterator<Item = &'a Token>) -> Vec<Token> {
    let mut out: Vec<Token> = Vec::new();
    let mut prev_mergeable = false;
    for tok in comments {
        let mergeable = tok.text.starts_with("//") && !is_doc_comment(&tok.text);
        if mergeable && prev_mergeable {
            if let Some(prev) = out.last_mut() {
                let prev_end = prev.line + prev.text.matches('\n').count();
                if prev_end + 1 == tok.line {
                    prev.text.push('\n');
                    prev.text.push_str(&tok.text);
                    continue;
                }
            }
        }
        out.push(tok.clone());
        prev_mergeable = mergeable;
    }
    out
}

fn is_doc_comment(text: &str) -> bool {
    // Doc comments never carry suppressions — they are API prose (and
    // may legitimately *describe* the marker syntax, as this module's
    // own docs do). Only plain `//` / `/* */` comments are scanned.
    text.starts_with("///")
        || text.starts_with("//!")
        || text.starts_with("/**")
        || text.starts_with("/*!")
}

/// Parses `// ordering(<Ord>): <validity argument>` markers out of a
/// comment token. The marker only counts when the parenthesized word
/// is a real memory-ordering name — prose like "the ordering(s)" is
/// ignored — but a recognizable marker without a justification is
/// reported, exactly like a bare `lint:allow`.
fn parse_ordering_comments(
    token: &Token,
    rel_path: &Path,
    ordering_allows: &mut Vec<OrderingSite>,
    diags: &mut Vec<Diagnostic>,
) {
    let text = &token.text;
    if is_doc_comment(text) {
        return;
    }
    let end_line = token.line + text.matches('\n').count();
    let mut search = 0usize;
    while let Some(found) = text[search..].find("ordering(") {
        let at = search + found;
        search = at + "ordering(".len();
        // `Ordering::Relaxed` prose or `atomic_ordering(` identifiers
        // are not markers: require a word boundary before `ordering(`.
        let boundary = text[..at]
            .chars()
            .next_back()
            .is_none_or(|c| !c.is_alphanumeric() && c != '_' && c != ':');
        if !boundary {
            continue;
        }
        let after_kw = &text[at + "ordering(".len()..];
        let Some(close) = after_kw.find(')') else {
            continue;
        };
        let ordering = after_kw[..close].trim();
        if !ORDERING_NAMES.contains(&ordering) {
            continue;
        }
        let tail = after_kw[close + 1..].trim_start();
        let justification = tail
            .strip_prefix(':')
            .map(str::trim_start)
            .unwrap_or("")
            .lines()
            .next()
            .unwrap_or("")
            .trim()
            .to_owned();
        if justification.is_empty() {
            diags.push(
                Diagnostic::new(
                    ORDERING_RULE,
                    rel_path,
                    token.line,
                    token.col,
                    format!("`ordering({ordering})` has no validity argument"),
                )
                .with_help(
                    "ordering justifications must explain themselves: \
                     `// ordering(<Ordering>): <why this ordering is sufficient>`",
                ),
            );
        } else {
            ordering_allows.push(OrderingSite {
                ordering: ordering.to_owned(),
                line: token.line,
                end_line,
                justification,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(path: &str, src: &str) -> SourceFile {
        analyze(PathBuf::from(path), src)
    }

    #[test]
    fn classification_by_path() {
        assert_eq!(file("crates/core/src/score.rs", "").crate_dir, "core");
        assert_eq!(file("crates/core/src/score.rs", "").class, FileClass::Lib);
        assert_eq!(file("crates/core/tests/t.rs", "").class, FileClass::Test);
        assert_eq!(
            file("crates/bench/benches/b.rs", "").class,
            FileClass::Bench
        );
        assert_eq!(file("examples/demo.rs", "").class, FileClass::Example);
        assert_eq!(file("build.rs", "").class, FileClass::BuildScript);
        assert!(file("crates/core/src/lib.rs", "").is_crate_root);
        assert!(file("src/lib.rs", "").is_crate_root);
        assert!(!file("crates/core/src/score.rs", "").is_crate_root);
    }

    #[test]
    fn cfg_test_regions_are_detected() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn after() {}\n";
        let f = file("crates/core/src/x.rs", src);
        assert!(!f.in_test_region(1));
        assert!(f.in_test_region(3));
        assert!(f.in_test_region(4));
        assert!(!f.in_test_region(6));
    }

    #[test]
    fn cfg_test_with_extra_attributes() {
        let src = "#[cfg(test)]\n#[allow(dead_code)]\nmod tests {\n    fn t() {}\n}\n";
        let f = file("crates/core/src/x.rs", src);
        assert!(f.in_test_region(4));
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let src = "#[cfg(feature = \"x\")]\nmod gated {\n    fn f() {}\n}\n";
        let f = file("crates/core/src/x.rs", src);
        assert!(!f.in_test_region(3));
    }

    #[test]
    fn test_files_are_wholly_exempt() {
        let f = file("crates/core/tests/t.rs", "fn t() {}\n");
        assert!(f.in_test_region(1));
    }

    #[test]
    fn line_suppressions_cover_their_line_and_the_next() {
        let src = "// lint:allow(no-panic): startup can only fail loudly\nfoo.unwrap();\nbar();\n";
        let f = file("crates/core/src/x.rs", src);
        assert!(f.allowed("no-panic", 1));
        assert!(f.allowed("no-panic", 2));
        assert!(!f.allowed("no-panic", 3));
        assert!(!f.allowed("no-float-eq", 2));
        assert!(f.suppression_diags.is_empty());
    }

    #[test]
    fn file_suppressions_cover_everything() {
        let src = "// lint:allow-file(no-float-eq): bit-exact tie-break required here\nfn f() {}\n";
        let f = file("crates/core/src/x.rs", src);
        assert!(f.allowed("no-float-eq", 999));
        assert!(f.suppression_diags.is_empty());
    }

    #[test]
    fn suppression_without_justification_is_reported() {
        let f = file(
            "crates/core/src/x.rs",
            "// lint:allow(no-panic)\nfoo.unwrap();\n",
        );
        assert_eq!(f.suppression_diags.len(), 1);
        assert!(f.suppression_diags[0].message.contains("no justification"));
        // And the suppression is NOT honored.
        assert!(!f.allowed("no-panic", 2));
    }

    #[test]
    fn doc_comments_never_carry_suppressions() {
        let src = "/// Write `// lint:allow(no-panic)` above the line to suppress.\nfn f() {}\n";
        let f = file("crates/core/src/x.rs", src);
        assert!(f.suppression_diags.is_empty());
        assert!(!f.allowed("no-panic", 2));
    }

    #[test]
    fn suppression_of_unknown_rule_is_reported() {
        let f = file(
            "crates/core/src/x.rs",
            "// lint:allow(no-pancakes): hungry\n",
        );
        assert_eq!(f.suppression_diags.len(), 1);
        assert!(f.suppression_diags[0].message.contains("unknown rule"));
    }
}
