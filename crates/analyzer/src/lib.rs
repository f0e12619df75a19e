//! `alexa-analyzer` — the workspace checks that clippy cannot do.
//!
//! The reproduction's core invariants (fixed seed ⇒ byte-identical reports
//! for any worker count or fault profile; schedule-independent trace names)
//! are enforced *dynamically* by the digest test matrix — which only
//! catches violations on exercised paths, minutes after they land. The
//! generic halves of the contract (no wall clocks, no unordered
//! collections, no spawning outside `crates/exec`, no panics) are clippy
//! lints configured in the workspace `[lints]` table and `clippy.toml`.
//! This crate enforces the rest *statically*, in under a second, over every
//! line of the workspace:
//!
//! * **AD02** — determinism: no ambient entropy; all randomness is seeded.
//! * **O-lints** (`AO0x`) — observability naming: span/stage/counter names
//!   must be `dotted.lowercase` and declared in the single-source registry,
//!   and `fault.*` names must match declared fault channels.
//! * **S-lints** (`AS0x`) — cross-file *semantic* checks over a lexical
//!   symbol index and call graph ([`symbols`], [`callgraph`]): determinism
//!   taint from committed surfaces (AS01), registry liveness (AS03) and the
//!   exit-code contract (AS04).
//!
//! Individual sites carry `// analyzer:allow(LINT) -- reason` escapes,
//! which are themselves linted (AX01/AX02).
//!
//! The checks are lexical (a hand-rolled comment/string/cfg-aware lexer in
//! [`lexer`]), not type-aware: that is exactly enough for these contracts,
//! with zero dependencies and sub-second latency. See DESIGN.md §11.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod callgraph;
pub mod findings;
pub mod lexer;
pub mod lints;
pub mod registry;
pub mod symbols;

pub use findings::Finding;
pub use lints::{FileCtx, LintSpec, CATALOG};
pub use registry::Registry;
pub use symbols::FileSummary;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// This workspace's committed surfaces: everything whose bytes land in the
/// report bundle. Public functions here must not transitively reach a wall
/// clock, ambient entropy or a spawn (AS01, DESIGN.md §11).
pub const ENTRY_PATHS: &[&str] = &[
    "crates/audit/src/analysis/",
    "crates/audit/src/artifacts.rs",
];

/// What one analysis checks that depends on the tree: the AS01 committed
/// surfaces. [`Config::workspace`] is this repository's setting.
#[derive(Debug, Clone)]
pub struct Config {
    /// Repo-relative path prefixes of the committed surfaces.
    pub entry_paths: Vec<String>,
}

impl Config {
    /// The setting for this workspace: [`ENTRY_PATHS`].
    pub fn workspace() -> Config {
        Config {
            entry_paths: ENTRY_PATHS.iter().map(|p| p.to_string()).collect(),
        }
    }
}

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
/// cross-file semantic lints over the combined summary set, then one unified
/// escape pass over every finding.
pub fn analyze(root: &Path, config: &Config) -> Result<AnalysisReport, AnalyzerError> {
    let reg = Registry::load(root)?;
    let mut files = Vec::new();
    collect_rs_files(&root.join("crates"), &mut files).map_err(|e| AnalyzerError {
        message: format!("cannot walk {}: {e}", root.join("crates").display()),
    })?;
    files.sort();

    let mut report = AnalysisReport::default();
    let mut summaries: Vec<FileSummary> = Vec::new();
    // Per-file lint findings, parallel to `summaries`.
    let mut per_file: Vec<Vec<Finding>> = Vec::new();
    // Raw line content per file, for the findings' snippets.
    let mut file_lines: BTreeMap<String, Vec<String>> = BTreeMap::new();

    for path in files {
        let rel = rel_path(root, &path);
        let src = std::fs::read_to_string(&path).map_err(|e| AnalyzerError {
            message: format!("cannot read {rel}: {e}"),
        })?;
        report.files_scanned += 1;
        let lexed = lexer::lex(&src);
        let ctx = classify(&rel);
        let mut raw = Vec::new();
        lints::run_lints(&lexed, &ctx, &reg, &mut raw);
        per_file.push(raw);
        summaries.push(symbols::summarize(&ctx, &lexed));
        file_lines.insert(rel, src.lines().map(str::to_string).collect());
    }

    // Cross-file semantic phase over the full summary set.
    let mut semantic: Vec<Finding> = Vec::new();
    for entry in &reg.obs_names {
        // Registry self-check: every declared obs name must be well-shaped,
        // and declared fault.* names must match the fault crate's channels.
        let mut push = |lint: &'static str, line: u32, col: u32, message: String| {
            semantic.push(Finding::new(
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
    callgraph::as01_findings(&summaries, config, &mut semantic);
    lints::as03_findings(&summaries, &reg, &mut semantic);

    let mut sem_by_path: BTreeMap<String, Vec<Finding>> = BTreeMap::new();
    for f in semantic {
        sem_by_path.entry(f.path.clone()).or_default().push(f);
    }

    // Unified escape pass: per-file raw findings and semantic findings on
    // that file share the file's `analyzer:allow` directives.
    let findings = &mut report.findings;
    for (s, mut raw) in summaries.iter().zip(per_file) {
        if let Some(extra) = sem_by_path.remove(&s.rel) {
            raw.extend(extra);
        }
        let mut used = vec![false; s.allows.len()];
        raw.retain(|f| {
            if let Some(&idx) = allowed_on(&s.allows, f.line).get(f.lint) {
                used[idx] = true;
                false
            } else {
                true
            }
        });
        // Escape hygiene: escapes must carry a reason and must fire.
        for (i, a) in s.allows.iter().enumerate() {
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
            raw.push(Finding::new(lint, &s.rel, a.line, a.col, message));
        }
        findings.extend(raw);
    }
    // Semantic findings on paths without a summary cannot be escaped —
    // they pass through directly.
    for (_, extra) in sem_by_path {
        findings.extend(extra);
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
    let is_bin = rel.ends_with("src/main.rs") || rel.contains("/src/bin/");
    FileCtx {
        rel_path: rel.to_string(),
        crate_name,
        is_bin,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_extracts_crate_and_bin() {
        let c = classify("crates/stats/src/mannwhitney.rs");
        assert_eq!(c.crate_name, "stats");
        assert!(!c.is_bin);
        let b = classify("crates/bench/src/bin/repro.rs");
        assert_eq!(b.crate_name, "bench");
        assert!(b.is_bin);
        let m = classify("crates/analyzer/src/main.rs");
        assert!(m.is_bin);
    }

    #[test]
    fn entry_paths_match_scanned_files() {
        // A stale prefix would turn AS01 off for its surface without a word.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut files = Vec::new();
        collect_rs_files(&root.join("crates"), &mut files).unwrap();
        let scanned: Vec<String> = files.iter().map(|p| rel_path(&root, p)).collect();
        for prefix in ENTRY_PATHS {
            assert!(
                scanned.iter().any(|f| f.starts_with(prefix)),
                "ENTRY_PATHS prefix {prefix:?} matches no scanned file"
            );
        }
    }

    #[test]
    fn allowed_on_covers_own_and_next_line() {
        let allows = vec![lexer::AllowDirective {
            lints: vec!["AS01".to_string()],
            line: 4,
            col: 1,
            has_reason: true,
        }];
        assert!(allowed_on(&allows, 4).contains_key("AS01"));
        assert!(allowed_on(&allows, 5).contains_key("AS01"));
        assert!(!allowed_on(&allows, 6).contains_key("AS01"));
        assert!(!allowed_on(&allows, 3).contains_key("AS01"));
    }
}
