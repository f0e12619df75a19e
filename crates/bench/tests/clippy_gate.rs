//! The workspace lint gate: clippy over every crate and target with the
//! root `[workspace.lints.*]` tables and `clippy.toml`, warnings denied
//! (DESIGN.md §11). It runs here so that `cargo test` alone, and with it
//! CI's test step, fails on a violation.

#![expect(
    clippy::disallowed_types,
    reason = "the test drives cargo as a child process"
)]

use std::path::Path;
use std::process::Command;

#[test]
fn workspace_is_clean() {
    // A missing clippy fails the gate; it never skips it.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let out = Command::new(cargo)
        .current_dir(&root)
        .args(["clippy", "--offline", "--workspace", "--all-targets"])
        .args(["--target-dir", "target/clippy-gate", "--", "-D", "warnings"])
        .output()
        .expect("cannot start cargo");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !stderr.contains("no such command"),
        "`cargo clippy` is not installed, and the lint gate needs it \
         (`rustup component add clippy`):\n{stderr}"
    );
    assert!(out.status.success(), "clippy lint gate failed:\n{stderr}");
}
