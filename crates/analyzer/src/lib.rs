//! `alexa-analyzer` — the workspace checks that clippy cannot do.
//!
//! The reproduction's core invariant (fixed seed ⇒ byte-identical reports
//! for any worker count, fault profile or observability setting) is held
//! by clippy and by tests: clippy's `disallowed_types`/`disallowed_methods`
//! confine wall clocks, unordered collections and spawns to the crates that
//! own them (the workspace `[lints]` table and `clippy.toml`), and the
//! byte-identity tests pin `repro`'s stdout, bundles and digests to
//! committed goldens. This crate checks, in under a second over every line
//! of the workspace, what neither can see:
//!
//! * **O-lints** (`AO0x`) — observability naming: span/stage/counter names
//!   must be `dotted.lowercase` and declared in the single-source registry,
//!   and `fault.*` names must match declared fault channels.
//! * **AS03** — registry liveness: every registry name needs at least one
//!   emitting string literal somewhere in non-test code.
//!
//! Individual sites carry `// analyzer:allow(LINT) -- reason` escapes,
//! which are themselves linted (AX01/AX02).
//!
//! The checks are lexical (a hand-rolled comment/string/cfg-aware lexer in
//! [`lexer`]), not type-aware: that is exactly enough for these contracts,
//! with no third-party dependencies and sub-second latency. See DESIGN.md §11.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod findings;
pub mod lexer;
pub mod lints;
pub mod registry;

pub use findings::Finding;
pub use lints::{FileCtx, LintSpec, CATALOG};
pub use registry::Registry;

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// The outcome of one analysis run.
#[derive(Debug, Default)]
pub struct AnalysisReport {
    /// Every finding, in (path, line, lint) order.
    pub findings: Vec<Finding>,
    /// Files scanned.
    pub files_scanned: usize,
}

impl AnalysisReport {
    /// Whether the gate passes: no findings.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// A fatal analysis error (an unreadable source or name registry) —
/// reported as one line, exit 2.
#[derive(Debug)]
pub struct AnalyzerError {
    /// One-line description.
    pub message: String,
}

impl std::fmt::Display for AnalyzerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for AnalyzerError {}

/// Path components whose subtrees are never linted: generated output and
/// test/bench/example code (analyzer fixtures live under `tests/` and
/// *must* stay unscanned).
const SKIP_DIRS: &[&str] = &["target", "tests", "benches", "examples", "fixtures", ".git"];

/// Analyze the workspace under `root`: per-file lexical lints, then the
/// registry checks (its self-check and AS03 liveness over the literals of
/// every scanned file), then one escape pass over every finding.
pub fn analyze(root: &Path) -> Result<AnalysisReport, AnalyzerError> {
    let reg = Registry::load(root)?;
    let mut files = Vec::new();
    collect_rs_files(&root.join("crates"), &mut files).map_err(|e| AnalyzerError {
        message: format!("cannot walk {}: {e}", root.join("crates").display()),
    })?;
    files.sort();

    let mut report = AnalysisReport::default();
    // Per file: its path, escape directives and raw findings.
    let mut scanned: Vec<(String, Vec<lexer::AllowDirective>, Vec<Finding>)> = Vec::new();
    // Raw line content per file, for the findings' snippets.
    let mut file_lines: BTreeMap<String, Vec<String>> = BTreeMap::new();
    // Shaped literals outside the registry file: AS03's emitting sites.
    let mut live: BTreeSet<String> = BTreeSet::new();

    for path in files {
        let rel = rel_path(root, &path);
        let src = std::fs::read_to_string(&path).map_err(|e| AnalyzerError {
            message: format!("cannot read {rel}: {e}"),
        })?;
        report.files_scanned += 1;
        let lexed = lexer::lex(&src);
        let mut raw = Vec::new();
        lints::run_lints(&lexed, &classify(&rel), &reg, &mut raw);
        if rel != registry::OBS_NAMES_PATH {
            live.extend(lints::shaped_literals(&lexed).map(str::to_string));
        }
        file_lines.insert(rel.clone(), src.lines().map(str::to_string).collect());
        scanned.push((rel, lexed.allows, raw));
    }

    // Registry checks; every finding lands on the registry file.
    let mut at_registry: Vec<Finding> = Vec::new();
    for entry in &reg.obs_names {
        // Registry self-check: every declared obs name must be well-shaped,
        // and declared fault.* names must match the fault crate's channels.
        let mut push = |lint: &'static str, line: u32, col: u32, message: String| {
            at_registry.push(Finding::new(
                lint,
                registry::OBS_NAMES_PATH,
                line,
                col,
                message,
            ));
        };
        if !lints::is_dotted_lowercase(&entry.name) {
            push(
                "AO01",
                entry.line,
                entry.col,
                format!("registry name {:?} is not dotted.lowercase", entry.name),
            );
        }
        lints::check_fault_name(&entry.name, &reg, entry.line, entry.col, &mut push);
    }
    lints::as03_findings(&live, &reg, &mut at_registry);

    // Escape pass: a file's raw findings, and the registry findings on the
    // registry file, share the file's `analyzer:allow` directives.
    let findings = &mut report.findings;
    for (rel, allows, mut raw) in scanned {
        if rel == registry::OBS_NAMES_PATH {
            raw.append(&mut at_registry);
        }
        let mut used = vec![false; allows.len()];
        raw.retain(|f| {
            if let Some(&idx) = allowed_on(&allows, f.line).get(f.lint) {
                used[idx] = true;
                false
            } else {
                true
            }
        });
        // Escape hygiene: escapes must carry a reason and must fire.
        for (i, a) in allows.iter().enumerate() {
            let (lint, message) = if !a.has_reason {
                (
                    "AX02",
                    "analyzer:allow without a `-- reason` trailer".to_string(),
                )
            } else if !used[i] {
                (
                    "AX01",
                    format!(
                        "analyzer:allow({}) suppresses no finding — delete it",
                        a.lints.join(", ")
                    ),
                )
            } else {
                continue;
            };
            raw.push(Finding::new(lint, &rel, a.line, a.col, message));
        }
        findings.extend(raw);
    }

    for f in findings.iter_mut() {
        let line = (f.line as usize).checked_sub(1);
        if let Some(l) = line.and_then(|i| file_lines.get(&f.path)?.get(i)) {
            f.snippet = l.trim().to_string();
        }
    }
    findings.sort_by(|a, b| (&a.path, a.line, a.lint).cmp(&(&b.path, b.line, b.lint)));
    Ok(report)
}

/// Lint ids allowed on `line` by a file's directives (a directive covers
/// its own line and the next line, so both trailing and standalone
/// comments work), mapped to the directive index.
fn allowed_on(allows: &[lexer::AllowDirective], line: u32) -> BTreeMap<&str, usize> {
    let mut out = BTreeMap::new();
    for (i, a) in allows.iter().enumerate() {
        if a.line == line || a.line + 1 == line {
            for l in &a.lints {
                out.entry(l.as_str()).or_insert(i);
            }
        }
    }
    out
}

/// Recursively collect `.rs` files, skipping [`SKIP_DIRS`] subtrees.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Repo-relative path with forward slashes (stable across platforms, so
/// findings and golden files are portable).
fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Derive the lint context from a repo-relative path.
fn classify(rel: &str) -> FileCtx {
    let parts: Vec<&str> = rel.split('/').collect();
    let crate_name = if parts.len() >= 2 && parts[0] == "crates" {
        parts[1].to_string()
    } else {
        String::new()
    };
    FileCtx {
        rel_path: rel.to_string(),
        crate_name,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_extracts_crate() {
        assert_eq!(
            classify("crates/stats/src/mannwhitney.rs").crate_name,
            "stats"
        );
        assert_eq!(
            classify("crates/bench/src/bin/repro.rs").crate_name,
            "bench"
        );
        assert_eq!(classify("examples/quickstart.rs").crate_name, "");
    }

    #[test]
    fn allowed_on_covers_own_and_next_line() {
        let allows = vec![lexer::AllowDirective {
            lints: vec!["AO01".to_string()],
            line: 4,
            col: 1,
            has_reason: true,
        }];
        assert!(allowed_on(&allows, 4).contains_key("AO01"));
        assert!(allowed_on(&allows, 5).contains_key("AO01"));
        assert!(!allowed_on(&allows, 6).contains_key("AO01"));
        assert!(!allowed_on(&allows, 3).contains_key("AO01"));
    }
}
