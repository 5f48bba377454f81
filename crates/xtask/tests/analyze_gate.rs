//! End-to-end test of the `fmdb-analyze` gate: builds a throwaway
//! mini-workspace on disk, runs the real `xtask` binary against it
//! with `--root`, and checks exit status plus diagnostics for every
//! concurrency/invariant rule — seeded violations must fail, the
//! justified twin must pass. Also covers the `suppressions` audit
//! (live vs stale markers) and the shared exit-code contract
//! (0 clean / 1 violations / 2 usage error) across subcommands.
//!
//! The final test points `analyze --root` at the real repository:
//! every workspace `.rs` file must parse with zero `parse-error`
//! diagnostics and the gate must be green, which is the bar CI holds;
//! `suppressions --root` must list no `detached-thread` marker.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A unique temp directory per test, cleaned up on drop.
struct TempCrate {
    root: PathBuf,
}

impl TempCrate {
    fn new(tag: &str) -> TempCrate {
        let root = std::env::temp_dir().join(format!("fmdb-analyze-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(&root).expect("create temp workspace");
        TempCrate { root }
    }

    fn write(&self, rel: &str, contents: &str) {
        let path = self.root.join(rel);
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent).expect("create parent dirs");
        }
        fs::write(path, contents).expect("write fixture file");
    }
}

impl Drop for TempCrate {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

fn run_xtask(sub: &str, root: &Path, extra: &[&str]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_xtask"));
    cmd.arg(sub).arg("--root").arg(root);
    cmd.args(extra);
    cmd.output().expect("run xtask")
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn clean_workspace_exits_zero() {
    let tc = TempCrate::new("clean");
    tc.write(
        "crates/demo/src/lib.rs",
        "pub fn double(x: u32) -> u32 { x.saturating_mul(2) }\n",
    );
    let out = run_xtask("analyze", &tc.root, &[]);
    let stdout = stdout_of(&out);
    assert!(out.status.success(), "expected clean exit, got:\n{stdout}");
    assert!(stdout.contains("clean"), "{stdout}");
}

#[test]
fn seeded_atomic_ordering_fails_and_justified_passes() {
    let tc = TempCrate::new("atomic");
    let seeded = "use std::sync::atomic::{AtomicU64, Ordering};\n\
         pub fn peek(a: &AtomicU64) -> u64 {\n\
         \x20   a.load(Ordering::SeqCst)\n\
         }\n";
    tc.write("crates/demo/src/lib.rs", seeded);
    let out = run_xtask("analyze", &tc.root, &[]);
    assert_eq!(out.status.code(), Some(1), "{}", stdout_of(&out));
    assert!(
        stdout_of(&out).contains("atomic-ordering"),
        "{}",
        stdout_of(&out)
    );

    tc.write(
        "crates/demo/src/lib.rs",
        "use std::sync::atomic::{AtomicU64, Ordering};\n\
         pub fn peek(a: &AtomicU64) -> u64 {\n\
         \x20   // ordering(SeqCst): fixture — the test wants the strongest fence\n\
         \x20   a.load(Ordering::SeqCst)\n\
         }\n",
    );
    let out = run_xtask("analyze", &tc.root, &[]);
    assert!(out.status.success(), "{}", stdout_of(&out));
}

#[test]
fn relaxed_telemetry_counter_idiom_is_whitelisted() {
    let tc = TempCrate::new("idiom");
    // fetch_add(1, Relaxed) on a counter, plus a Relaxed load of the
    // same counter: both sides of whitelist idiom 1 + 2, no comments.
    tc.write(
        "crates/demo/src/lib.rs",
        "use std::sync::atomic::{AtomicU64, Ordering};\n\
         pub fn bump(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }\n\
         pub fn read(c: &AtomicU64) -> u64 { c.load(Ordering::Relaxed) }\n",
    );
    let out = run_xtask("analyze", &tc.root, &[]);
    assert!(out.status.success(), "{}", stdout_of(&out));
}

#[test]
fn seeded_lock_cycle_fails_and_consistent_order_passes() {
    let tc = TempCrate::new("lock");
    tc.write(
        "crates/demo/src/lib.rs",
        "use std::sync::Mutex;\n\
         pub fn forward(a: &Mutex<u32>, b: &Mutex<u32>) {\n\
         \x20   let _ga = a.lock();\n\
         \x20   let _gb = b.lock();\n\
         }\n\
         pub fn backward(a: &Mutex<u32>, b: &Mutex<u32>) {\n\
         \x20   let _gb = b.lock();\n\
         \x20   let _ga = a.lock();\n\
         }\n",
    );
    let out = run_xtask("analyze", &tc.root, &["--format", "json"]);
    assert_eq!(out.status.code(), Some(1), "{}", stdout_of(&out));
    assert!(
        stdout_of(&out).contains("\"rule\": \"lock-order\""),
        "{}",
        stdout_of(&out)
    );

    tc.write(
        "crates/demo/src/lib.rs",
        "use std::sync::Mutex;\n\
         pub fn forward(a: &Mutex<u32>, b: &Mutex<u32>) {\n\
         \x20   let _ga = a.lock();\n\
         \x20   let _gb = b.lock();\n\
         }\n\
         pub fn also_forward(a: &Mutex<u32>, b: &Mutex<u32>) {\n\
         \x20   let _ga = a.lock();\n\
         \x20   let _gb = b.lock();\n\
         }\n",
    );
    let out = run_xtask("analyze", &tc.root, &[]);
    assert!(out.status.success(), "{}", stdout_of(&out));
}

#[test]
fn seeded_detached_thread_fails_and_justified_passes() {
    let tc = TempCrate::new("spawn");
    let seeded = "pub fn fire_and_forget() {\n\
         \x20   std::thread::spawn(|| {});\n\
         }\n";
    tc.write("crates/demo/src/lib.rs", seeded);
    let out = run_xtask("analyze", &tc.root, &[]);
    assert_eq!(out.status.code(), Some(1), "{}", stdout_of(&out));
    assert!(
        stdout_of(&out).contains("detached-thread"),
        "{}",
        stdout_of(&out)
    );

    // Joined spawn: no finding at all.
    tc.write(
        "crates/demo/src/lib.rs",
        "pub fn joined() {\n\
         \x20   let h = std::thread::spawn(|| {});\n\
         \x20   let _ = h.join();\n\
         }\n",
    );
    let out = run_xtask("analyze", &tc.root, &[]);
    assert!(out.status.success(), "{}", stdout_of(&out));

    // Detached but justified: suppressed.
    tc.write(
        "crates/demo/src/lib.rs",
        "pub fn fire_and_forget() {\n\
         \x20   // lint:allow(detached-thread): fixture — worker lifetime is process lifetime\n\
         \x20   std::thread::spawn(|| {});\n\
         }\n",
    );
    let out = run_xtask("analyze", &tc.root, &[]);
    assert!(out.status.success(), "{}", stdout_of(&out));
}

#[test]
fn seeded_ignored_result_fails_and_justified_passes() {
    let tc = TempCrate::new("ignored");
    let seeded = "pub fn save() -> Result<(), String> { Ok(()) }\n\
         pub fn caller() {\n\
         \x20   let _ = save();\n\
         }\n";
    tc.write("crates/demo/src/lib.rs", seeded);
    let out = run_xtask("analyze", &tc.root, &[]);
    assert_eq!(out.status.code(), Some(1), "{}", stdout_of(&out));
    assert!(
        stdout_of(&out).contains("ignored-result"),
        "{}",
        stdout_of(&out)
    );

    tc.write(
        "crates/demo/src/lib.rs",
        "pub fn save() -> Result<(), String> { Ok(()) }\n\
         pub fn caller() {\n\
         \x20   // lint:allow(ignored-result): fixture — failure here is advisory\n\
         \x20   let _ = save();\n\
         }\n",
    );
    let out = run_xtask("analyze", &tc.root, &[]);
    assert!(out.status.success(), "{}", stdout_of(&out));
}

#[test]
fn seeded_unchecked_arith_fails_and_justified_passes() {
    let tc = TempCrate::new("arith");
    // The rule only watches hot-kernel paths — this fixture file path
    // contains `media/src/embed`, so it is in scope.
    let seeded = "pub fn offset(i: usize, k: usize) -> usize { i * k }\n";
    tc.write("crates/media/src/embed/kernel.rs", seeded);
    tc.write("crates/demo/src/lib.rs", "pub fn ok() {}\n");
    let out = run_xtask("analyze", &tc.root, &[]);
    assert_eq!(out.status.code(), Some(1), "{}", stdout_of(&out));
    assert!(
        stdout_of(&out).contains("unchecked-arith"),
        "{}",
        stdout_of(&out)
    );

    tc.write(
        "crates/media/src/embed/kernel.rs",
        "// lint:allow(unchecked-arith): fixture — i < n and n*k == len by construction\n\
         pub fn offset(i: usize, k: usize) -> usize { i * k }\n",
    );
    let out = run_xtask("analyze", &tc.root, &[]);
    assert!(out.status.success(), "{}", stdout_of(&out));

    // The turning-function shift kernel is policed the same way.
    let tc_shape = TempCrate::new("arith-shape");
    tc_shape.write("crates/media/src/shape.rs", seeded);
    tc_shape.write("crates/demo/src/lib.rs", "pub fn ok() {}\n");
    let out = run_xtask("analyze", &tc_shape.root, &[]);
    assert_eq!(out.status.code(), Some(1), "{}", stdout_of(&out));
    assert!(
        stdout_of(&out).contains("unchecked-arith"),
        "{}",
        stdout_of(&out)
    );
    tc_shape.write(
        "crates/media/src/shape.rs",
        "pub fn offset(i: usize, k: usize) -> usize { i.saturating_mul(k) }\n",
    );
    let out = run_xtask("analyze", &tc_shape.root, &[]);
    assert!(out.status.success(), "{}", stdout_of(&out));

    // The same expression outside a kernel path is not flagged.
    let tc2 = TempCrate::new("arith-out");
    tc2.write("crates/demo/src/lib.rs", seeded);
    let out = run_xtask("analyze", &tc2.root, &[]);
    assert!(out.status.success(), "{}", stdout_of(&out));
}

#[test]
fn multi_line_justifications_cover_the_next_statement() {
    let tc = TempCrate::new("multiline");
    tc.write(
        "crates/demo/src/lib.rs",
        "pub fn fire_and_forget() {\n\
         \x20   // lint:allow(detached-thread): fixture — a justification that\n\
         \x20   // needs several comment lines to state its whole argument\n\
         \x20   // before the code it covers finally appears.\n\
         \x20   std::thread::spawn(|| {});\n\
         }\n",
    );
    let out = run_xtask("analyze", &tc.root, &[]);
    assert!(out.status.success(), "{}", stdout_of(&out));
}

#[test]
fn parse_errors_fail_the_gate_and_cannot_be_suppressed() {
    let tc = TempCrate::new("parse");
    tc.write(
        "crates/demo/src/lib.rs",
        "// lint:allow-file(detached-thread): fixture — markers cannot hide parse errors\n\
         pub fn broken( {\n",
    );
    let out = run_xtask("analyze", &tc.root, &[]);
    assert_eq!(out.status.code(), Some(1), "{}", stdout_of(&out));
    assert!(
        stdout_of(&out).contains("parse-error"),
        "{}",
        stdout_of(&out)
    );
}

#[test]
fn test_code_is_exempt_from_analyze_rules() {
    let tc = TempCrate::new("testcode");
    tc.write(
        "crates/demo/src/lib.rs",
        "pub fn ok() {}\n\
         #[cfg(test)]\n\
         mod tests {\n\
         \x20   #[test]\n\
         \x20   fn spawns() { std::thread::spawn(|| {}); }\n\
         }\n",
    );
    tc.write(
        "crates/demo/tests/it.rs",
        "fn helper() { std::thread::spawn(|| {}); }\n",
    );
    let out = run_xtask("analyze", &tc.root, &[]);
    assert!(out.status.success(), "{}", stdout_of(&out));
}

#[test]
fn json_output_is_machine_readable() {
    let tc = TempCrate::new("json");
    tc.write(
        "crates/demo/src/lib.rs",
        "pub fn fire_and_forget() {\n\
         \x20   std::thread::spawn(|| {});\n\
         }\n",
    );
    let out = run_xtask("analyze", &tc.root, &["--format", "json"]);
    assert_eq!(out.status.code(), Some(1));
    let json = stdout_of(&out);
    let trimmed = json.trim();
    assert!(trimmed.starts_with('[') && trimmed.ends_with(']'), "{json}");
    assert!(json.contains("\"rule\": \"detached-thread\""), "{json}");
    assert!(json.contains("\"line\": 2"), "{json}");
}

#[test]
fn suppressions_lists_live_markers_and_exits_zero() {
    let tc = TempCrate::new("supp-live");
    tc.write(
        "crates/demo/src/lib.rs",
        "use std::sync::atomic::{AtomicU64, Ordering};\n\
         pub fn peek(a: &AtomicU64) -> u64 {\n\
         \x20   // ordering(SeqCst): fixture — strongest fence wanted here\n\
         \x20   a.load(Ordering::SeqCst)\n\
         }\n\
         pub fn fire_and_forget() {\n\
         \x20   // lint:allow(detached-thread): fixture — bounded by the test harness\n\
         \x20   std::thread::spawn(|| {});\n\
         }\n",
    );
    let out = run_xtask("suppressions", &tc.root, &[]);
    let stdout = stdout_of(&out);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("ordering(SeqCst)"), "{stdout}");
    assert!(stdout.contains("lint:allow(detached-thread)"), "{stdout}");
    assert!(stdout.contains("0 stale"), "{stdout}");
}

#[test]
fn stale_suppressions_fail_the_audit() {
    let tc = TempCrate::new("supp-stale");
    // The marker names a real rule but covers code that triggers
    // nothing — removing it would change no gate, so it is stale.
    tc.write(
        "crates/demo/src/lib.rs",
        "// lint:allow(detached-thread): fixture — nothing here spawns at all\n\
         pub fn quiet() {}\n",
    );
    let out = run_xtask("suppressions", &tc.root, &[]);
    let stdout = stdout_of(&out);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("STALE"), "{stdout}");

    let out = run_xtask("suppressions", &tc.root, &["--format", "json"]);
    let json = stdout_of(&out);
    assert_eq!(out.status.code(), Some(1), "{json}");
    assert!(json.contains("\"stale\": true"), "{json}");
}

#[test]
fn usage_errors_exit_two_across_subcommands() {
    for sub in ["analyze", "suppressions"] {
        let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
            .args([sub, "--format", "yaml"])
            .output()
            .expect("run xtask");
        assert_eq!(out.status.code(), Some(2), "{sub} must reject bad formats");
    }
    let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(["check-bench", "/nonexistent/bench.json"])
        .output()
        .expect("run xtask");
    assert_eq!(
        out.status.code(),
        Some(2),
        "missing artifact is an I/O error"
    );
}

#[test]
fn real_workspace_parses_clean_and_passes_the_gate() {
    // CARGO_MANIFEST_DIR is crates/xtask — the repo root is two up.
    let repo_root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root");
    let out = run_xtask("analyze", &repo_root, &["--format", "json"]);
    let json = stdout_of(&out);
    assert!(
        !json.contains("\"rule\": \"parse-error\""),
        "workspace file failed to parse:\n{json}"
    );
    assert!(
        out.status.success(),
        "analyze must be green on the real workspace:\n{json}"
    );
    // Every thread this workspace starts is scoped and joined before
    // the call that started it returns: no spawn is excused.
    let out = run_xtask("suppressions", &repo_root, &[]);
    let listing = stdout_of(&out);
    assert!(out.status.success(), "{listing}");
    assert!(
        !listing.contains("detached-thread"),
        "a detached thread is back in the workspace:\n{listing}"
    );
}
