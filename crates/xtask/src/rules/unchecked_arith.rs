//! `unchecked-arith`: bare `+`/`-`/`*` on untyped integer counters in
//! the hot kernels (the embed distance loops, the turning-function
//! shift kernel and the store's page machinery) must use `saturating_*`/`checked_*`/`wrapping_*` — or be
//! justified.
//!
//! These paths process attacker-sized inputs (object counts, page
//! offsets, byte lengths): release builds wrap silently on overflow,
//! which in a page-offset computation means reading the wrong page,
//! not crashing. Float arithmetic is exempt (it saturates to ±inf by
//! construction), as is literal-only constant folding.

use crate::analyze::AnalyzedFile;
use crate::diagnostics::Diagnostic;
use crate::parser::OperandHint;
use crate::workspace::FileClass;

/// Rule name, as reported and as used in `lint:allow(...)`.
pub const RULE: &str = "unchecked-arith";

/// Path fragments that mark a file as a hot kernel.
const KERNEL_PATHS: &[&str] = &["media/src/embed", "media/src/shape", "middleware/src/store"];

fn in_kernel(rel_path: &str) -> bool {
    KERNEL_PATHS.iter().any(|k| rel_path.contains(k))
}

/// An operand the rule considers integer-valued.
fn int_like(hint: OperandHint) -> bool {
    matches!(hint, OperandHint::IntLit | OperandHint::IntIdent)
}

/// Checks one parsed file.
pub fn check(af: &AnalyzedFile<'_>) -> Vec<Diagnostic> {
    if af.source.class != FileClass::Lib {
        return Vec::new();
    }
    let rel = af.source.rel_path.display().to_string();
    if !in_kernel(&rel) {
        return Vec::new();
    }
    let mut diags = Vec::new();
    for f in &af.tree.fns {
        for site in &f.body.arith {
            // Both operands integer-like, and at least one a runtime
            // value (two literals are compile-time constant folding).
            if !int_like(site.lhs) || !int_like(site.rhs) {
                continue;
            }
            if site.lhs == OperandHint::IntLit && site.rhs == OperandHint::IntLit {
                continue;
            }
            diags.push(
                Diagnostic::new(
                    RULE,
                    &af.source.rel_path,
                    site.line,
                    site.col,
                    format!(
                        "unchecked integer `{}` in hot kernel `{}` — wraps \
                         silently on overflow in release builds",
                        site.op, f.name
                    ),
                )
                .with_help(format!(
                    "use `saturating_*`/`checked_*`/`wrapping_*` to make the \
                     overflow policy explicit, or justify the bound: \
                     `// lint:allow({RULE}): <why the operands cannot overflow>`"
                )),
            );
        }
    }
    diags
}
