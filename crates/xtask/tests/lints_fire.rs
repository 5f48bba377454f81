//! The lints that replaced the hand-rolled rules fire under the
//! workspace's own table: a throw-away package whose `[lints]` is the
//! root manifest's `[workspace.lints.*]` text and whose `clippy.toml`
//! is the root's, seeded with one violation per lint, must have every
//! one of them reported by `cargo clippy`.
//!
//! Not done with `#[expect]`: an expectation switches its lint on for
//! its own item, so it is fulfilled even when the table forgets the
//! lint.

use std::fs;
use std::path::Path;
use std::process::Command;

/// One violation per lint; nothing else is wrong with it.
const SEEDED: &str = r#"//! Seeded violations, one per lint.
use std::sync::atomic::{AtomicU32, Ordering};

static HITS: AtomicU32 = AtomicU32::new(0);

/// `missing_debug_implementations`.
pub struct NoDebug;

pub fn missing_docs() {}

/// `deprecated` fires at the call below.
#[deprecated(note = "use `fresh`")]
pub fn stale() {}

/// `unused_must_use` and `let_underscore_must_use`.
#[must_use]
pub fn fallible() -> Result<u32, String> {
    Ok(HITS.load(Ordering::SeqCst))
}

/// `allow_attributes_without_reason`.
#[allow(dead_code)]
fn reasonless() {}

/// `unfulfilled_lint_expectations`: nothing here unwraps any more.
#[expect(clippy::unwrap_used, reason = "the violation under it was fixed")]
pub fn stale_expectation() {}

thread_local! {
    /// `disallowed_macros`.
    pub static PER_THREAD: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

/// Everything else.
pub fn violations(x: Option<f64>, y: Result<f64, String>, which: u8) -> bool {
    let a = x.unwrap();
    let b = y.expect("seeded");
    stale();
    fallible();
    let _ = fallible();
    let worker = std::thread::spawn(|| ());
    drop(worker);
    let (tx, rx) = std::sync::mpsc::channel::<u8>();
    drop((tx, rx));
    std::thread::scope(|_| ());
    unsafe {}
    match which {
        0 => panic!("seeded"),
        1 => todo!(),
        2 => unimplemented!(),
        _ => a == b,
    }
}
"#;

/// Each lint and a fragment of the message that singles it out.
const EXPECTED: &[(&str, &str)] = &[
    ("clippy::unwrap_used", ""),
    ("clippy::expect_used", ""),
    ("clippy::panic", ""),
    ("clippy::todo", ""),
    ("clippy::unimplemented", ""),
    ("clippy::float_cmp", ""),
    ("clippy::let_underscore_must_use", ""),
    ("unused_must_use", ""),
    ("deprecated", ""),
    ("clippy::disallowed_methods", "std::thread::spawn"),
    ("clippy::disallowed_methods", "std::sync::mpsc::channel"),
    ("clippy::disallowed_methods", "std::thread::scope"),
    ("clippy::disallowed_macros", "std::thread_local"),
    ("unsafe_code", ""),
    ("missing_debug_implementations", ""),
    ("missing_docs", ""),
    ("clippy::allow_attributes_without_reason", ""),
    ("unfulfilled_lint_expectations", ""),
];

fn repo_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

/// The root manifest's `[workspace.lints.*]` tables as a package's
/// `[lints.*]` tables.
fn lints_tables(root_manifest: &str) -> String {
    let mut out = String::new();
    let mut inside = false;
    for line in root_manifest.lines() {
        if line.starts_with('[') {
            inside = line.starts_with("[workspace.lints.");
        }
        if inside {
            out.push_str(&line.replacen("[workspace.lints.", "[lints.", 1));
            out.push('\n');
        }
    }
    out
}

#[test]
fn every_migrated_rule_fires_under_the_workspace_table() {
    let root_manifest =
        fs::read_to_string(repo_root().join("Cargo.toml")).expect("read the root manifest");
    let tables = lints_tables(&root_manifest);
    assert!(
        tables.contains("[lints.rust]") && tables.contains("[lints.clippy]"),
        "no [workspace.lints.*] tables in the root manifest:\n{tables}"
    );

    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("lints-fire");
    if dir.exists() {
        fs::remove_dir_all(&dir).expect("clear the old fixture");
    }
    fs::create_dir_all(dir.join("src")).expect("create the fixture");
    let manifest = format!(
        "[package]\nname = \"lints-fire\"\nversion = \"0.0.0\"\nedition = \"2021\"\n\n\
         [workspace]\n\n{tables}"
    );
    fs::write(dir.join("Cargo.toml"), manifest).expect("write the manifest");
    fs::copy(repo_root().join("clippy.toml"), dir.join("clippy.toml")).expect("copy clippy.toml");
    fs::write(dir.join("src/lib.rs"), SEEDED).expect("write the seeded source");

    // `--cap-lints warn`: every finding is reported, none stops the build.
    let out = Command::new(env!("CARGO"))
        .args(["clippy", "--offline", "--quiet", "--message-format=json"])
        .arg("--manifest-path")
        .arg(dir.join("Cargo.toml"))
        .arg("--target-dir")
        .arg(dir.join("target"))
        .args(["--", "--cap-lints", "warn"])
        .output()
        .expect("run cargo clippy");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "the fixture must compile:\n{stderr}");

    let missing: Vec<_> = EXPECTED
        .iter()
        .filter(|(lint, fragment)| {
            let code = format!("\"code\":{{\"code\":\"{lint}\"");
            !stdout
                .lines()
                .any(|message| message.contains(&code) && message.contains(fragment))
        })
        .collect();
    assert!(
        missing.is_empty(),
        "not reported: {missing:?}\n{stdout}\n{stderr}"
    );
}

#[test]
fn every_first_party_manifest_opts_into_the_table() {
    let mut manifests = vec![repo_root().join("Cargo.toml")];
    for entry in fs::read_dir(repo_root().join("crates")).expect("list crates/") {
        manifests.push(entry.expect("read crates/ entry").path().join("Cargo.toml"));
    }
    assert!(manifests.len() >= 8, "{manifests:?}");
    for manifest in manifests {
        let text = fs::read_to_string(&manifest).expect("read a crate manifest");
        assert!(
            text.contains("\n[lints]\nworkspace = true\n"),
            "{} does not opt into [workspace.lints]",
            manifest.display()
        );
    }
}
