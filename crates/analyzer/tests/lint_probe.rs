//! The lints handed to clippy still fire. A throwaway workspace under the
//! target directory takes the root's `[workspace.lints.*]` tables and
//! `clippy.toml` verbatim — the root files stay the single source — plants
//! one violation of each moved class in a member crate, and runs clippy on
//! it. Deleting any lint or banned path that a violation below targets
//! fails this test.

#![expect(
    clippy::disallowed_types,
    reason = "the test drives cargo as a child process"
)]

use std::path::Path;
use std::process::Command;

/// One violation per moved class, each on its own line.
const PLANTED: &str = r#"
pub fn wall_clock() -> u128 {
    let started = std::time::Instant::now();
    let _ = std::time::SystemTime::now();
    let _ = std::time::UNIX_EPOCH.elapsed();
    started.elapsed().as_nanos()
}

pub fn unordered() -> usize {
    let map: std::collections::HashMap<u8, u8> = Default::default();
    let set: std::collections::HashSet<u8> = Default::default();
    map.len() + set.len()
}

pub fn threads() {
    let handle: std::thread::JoinHandle<()> = std::thread::spawn(|| {});
    let _ = handle.join();
    std::thread::scope(|_| {});
    let _ = std::thread::Builder::new().spawn(|| {});
    let _ = std::process::Command::new("true").status();
}

pub fn panics(n: u8) -> u8 {
    match n {
        0 => panic!("zero"),
        1 => unreachable!(),
        2 => todo!(),
        3 => unimplemented!(),
        _ => n,
    }
}

pub fn unwraps(a: Option<u8>, b: Option<u8>) -> u8 {
    a.unwrap() + b.expect("b")
}

#[allow(dead_code)]
fn reasonless_allow() {}

#[expect(dead_code, reason = "planted: a pub fn is never dead, so this stays unfulfilled")]
pub fn unfulfilled() {}
"#;

/// Paths `clippy.toml` bans, each used once above.
const BANNED_TYPES: &[&str] = &[
    "std::time::Instant",
    "std::time::SystemTime",
    "std::collections::HashMap",
    "std::collections::HashSet",
    "std::thread::JoinHandle",
    "std::process::Command",
];
const BANNED_METHODS: &[&str] = &[
    "std::time::SystemTime::elapsed",
    "std::thread::spawn",
    "std::thread::scope",
    "std::thread::Builder::spawn",
];
/// The other lints, each violated once above.
const LINTS: &[&str] = &[
    "clippy::panic",
    "clippy::unreachable",
    "clippy::todo",
    "clippy::unimplemented",
    "clippy::unwrap_used",
    "clippy::expect_used",
    "clippy::allow_attributes",
    "clippy::allow_attributes_without_reason",
    "unfulfilled_lint_expectations",
];

/// `(lint code, message prefix)` of every diagnostic the probe must get;
/// an empty prefix matches any message of that code.
fn expected() -> Vec<(&'static str, String)> {
    let types = BANNED_TYPES.iter().map(|p| {
        let message = format!("use of a disallowed type `{p}`");
        ("clippy::disallowed_types", message)
    });
    let methods = BANNED_METHODS.iter().map(|p| {
        let message = format!("use of a disallowed method `{p}`");
        ("clippy::disallowed_methods", message)
    });
    let lints = LINTS.iter().map(|&code| (code, String::new()));
    types.chain(methods).chain(lints).collect()
}

/// Every `[workspace.lints.*]` table of the root manifest, verbatim.
fn lint_tables(manifest: &str) -> String {
    let mut out = String::new();
    let mut keep = false;
    for line in manifest.lines() {
        if line.starts_with('[') {
            keep = line.starts_with("[workspace.lints.");
        }
        if keep {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

#[test]
fn moved_lints_fire_on_planted_violations() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let manifest = std::fs::read_to_string(root.join("Cargo.toml")).expect("root Cargo.toml");
    let tables = lint_tables(&manifest);
    assert!(
        tables.contains("[workspace.lints.clippy]"),
        "the root manifest lost its clippy lint table"
    );

    let probe = Path::new(env!("CARGO_TARGET_TMPDIR")).join("lint-probe");
    std::fs::create_dir_all(probe.join("probe/src")).expect("mkdir");
    std::fs::write(
        probe.join("Cargo.toml"),
        format!("[workspace]\nmembers = [\"probe\"]\nresolver = \"2\"\n\n{tables}"),
    )
    .expect("write probe workspace manifest");
    std::fs::copy(root.join("clippy.toml"), probe.join("clippy.toml")).expect("copy clippy.toml");
    std::fs::write(
        probe.join("probe/Cargo.toml"),
        "[package]\nname = \"lint-probe\"\nversion = \"0.0.0\"\nedition = \"2021\"\n\n\
         [lints]\nworkspace = true\n",
    )
    .expect("write probe manifest");
    std::fs::write(probe.join("probe/src/lib.rs"), PLANTED).expect("write planted source");

    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let out = Command::new(cargo)
        .current_dir(&probe)
        .args(["clippy", "--offline", "--quiet", "--message-format=json"])
        .args(["--target-dir", "target"])
        .output()
        .expect("cannot start cargo");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !out.status.success(),
        "clippy accepted the planted violations:\n{stderr}"
    );

    let mut missing = Vec::new();
    for (code, message) in expected() {
        let code_key = format!("\"code\":\"{code}\"");
        let message_key = format!("\"message\":\"{message}");
        if !stdout
            .lines()
            .any(|l| l.contains(&code_key) && l.contains(&message_key))
        {
            missing.push(format!("{code} {message}"));
        }
    }
    assert!(
        missing.is_empty(),
        "moved lints that no longer fire:\n  {}\nclippy stderr:\n{stderr}",
        missing.join("\n  ")
    );
}
