//! `alexa-analyzer` — a workspace-wide determinism, panic-safety and
//! observability-naming lint pass.
//!
//! The reproduction's core invariants (fixed seed ⇒ byte-identical reports
//! for any worker count or fault profile; no panics in library crates;
//! schedule-independent trace names) are enforced *dynamically* by the
//! digest test matrix — which only catches violations on exercised paths,
//! minutes after they land. This crate enforces them *statically*, in under
//! a second, over every line of the workspace:
//!
//! * **D-lints** (`AD0x`) — determinism: no wall clocks, no ambient
//!   entropy, no unordered collections in report-rendering crates, no
//!   thread spawning outside the deterministic execution engine.
//! * **P-lints** (`AP0x`) — panic safety: no `unwrap`/`expect`/`panic!` in
//!   non-test library code; typed `Result`s instead.
//! * **O-lints** (`AO0x`) — observability naming: span/stage/counter names
//!   must be `dotted.lowercase` and declared in the single-source registry,
//!   and `fault.*` names must match declared fault channels.
//! * **S-lints** (`AS0x`) — cross-file *semantic* checks over a lexical
//!   symbol index and call graph ([`symbols`], [`callgraph`]): determinism
//!   taint from committed surfaces (AS01), wire-schema drift (AS02),
//!   registry liveness (AS03) and the exit-code contract (AS04).
//!
//! Pre-existing findings live in a checked-in `analyzer.toml` **baseline**
//! that works as a ratchet: any *new* finding fails, and any baseline entry
//! that no longer matches reality fails too, so the debt can only shrink.
//! Individual sites carry `// analyzer:allow(LINT) -- reason` escapes.
//!
//! The checks are lexical (a hand-rolled comment/string/cfg-aware lexer in
//! [`lexer`]), not type-aware: that is exactly enough for these contracts,
//! with zero dependencies and sub-second latency. See DESIGN.md §11.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod callgraph;
pub mod config;
pub mod findings;
pub mod fix;
pub mod lexer;
pub mod lints;
pub mod registry;
pub mod sarif;
pub mod symbols;

pub use config::{BaselineEntry, Config, ConfigError};
pub use findings::{BaselineDrift, Finding, Severity};
pub use fix::FixOutcome;
pub use lints::{FileCtx, LintSpec, CATALOG};
pub use registry::Registry;
pub use symbols::FileSummary;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// The outcome of one analysis run.
#[derive(Debug, Default)]
pub struct AnalysisReport {
    /// Deny findings *not* covered by the baseline, in (path, line) order.
    pub new_findings: Vec<Finding>,
    /// Warn findings (advisory, never gate).
    pub warnings: Vec<Finding>,
    /// Baseline entries whose counts no longer match.
    pub drift: Vec<BaselineDrift>,
    /// How many deny findings the baseline absorbed.
    pub baselined: usize,
    /// Files scanned.
    pub files_scanned: usize,
    /// The actual per-(lint, path) deny counts — input for `--write-baseline`.
    pub counts: BTreeMap<(String, String), usize>,
}

impl AnalysisReport {
    /// Whether the gate passes: no new findings, no baseline drift.
    pub fn clean(&self) -> bool {
        self.new_findings.is_empty() && self.drift.is_empty()
    }

    /// The ratcheted baseline that matches current reality.
    pub fn fresh_baseline(&self) -> Vec<BaselineEntry> {
        self.counts
            .iter()
            .map(|((lint, path), &count)| BaselineEntry {
                lint: lint.clone(),
                path: path.clone(),
                count,
            })
            .collect()
    }
}

/// A fatal analysis error (I/O, config) — reported as one line, exit 2.
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

impl From<ConfigError> for AnalyzerError {
    fn from(e: ConfigError) -> Self {
        AnalyzerError {
            message: e.to_string(),
        }
    }
}

impl From<registry::RegistryError> for AnalyzerError {
    fn from(e: registry::RegistryError) -> Self {
        AnalyzerError {
            message: e.to_string(),
        }
    }
}

/// Path components whose subtrees are never linted: generated output and
/// test/bench/example code (the P/D contracts govern library code; analyzer
/// fixtures live under `tests/` and *must* stay unscanned).
const SKIP_DIRS: &[&str] = &["target", "tests", "benches", "examples", "fixtures", ".git"];

/// Analyze the workspace under `root`: per-file lexical lints, then the
/// cross-file semantic lints over the combined summary set, then one unified
/// escape / severity / baseline-ratchet pass over every finding.
pub fn analyze(root: &Path, config: &Config) -> Result<AnalysisReport, AnalyzerError> {
    let reg = Registry::load(root)?;
    let mut files = Vec::new();
    collect_rs_files(&root.join("crates"), &mut files).map_err(|e| AnalyzerError {
        message: format!("cannot walk {}: {e}", root.join("crates").display()),
    })?;
    files.sort();

    let wire_fns: std::collections::BTreeSet<String> = config
        .wire_pairs
        .iter()
        .flat_map(|p| [p.encode_fn.clone(), p.decode_fn.clone()])
        .collect();

    let mut report = AnalysisReport::default();
    let mut summaries: Vec<FileSummary> = Vec::new();
    // Raw line content per file, for snippet backfill on semantic findings.
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
        lints::run_lints(&lexed, &ctx, config, &reg, &mut raw);
        summaries.push(symbols::summarize(&ctx, &lexed, &wire_fns, raw));
        file_lines.insert(rel, src.lines().map(str::to_string).collect());
    }

    // Cross-file semantic phase over the full summary set.
    let mut semantic: Vec<Finding> = Vec::new();
    for entry in &reg.obs_names {
        // Registry self-check: every declared obs name must be well-shaped,
        // and declared fault.* names must match the fault crate's channels.
        let mut push = |lint: &'static str, line: u32, col: u32, message: String| {
            semantic.push(Finding {
                lint,
                severity: Severity::Deny,
                path: registry::OBS_NAMES_PATH.to_string(),
                line,
                col,
                snippet: String::new(),
                message,
            });
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
    lints::as02_findings(&summaries, config, &mut semantic);
    lints::as03_findings(&summaries, &reg, &mut semantic);

    let mut sem_by_path: BTreeMap<String, Vec<Finding>> = BTreeMap::new();
    for f in semantic {
        sem_by_path.entry(f.path.clone()).or_default().push(f);
    }

    // Unified escape pass: per-file raw findings and semantic findings on
    // that file share the file's `analyzer:allow` directives.
    let mut all_findings: Vec<Finding> = Vec::new();
    for s in &summaries {
        let mut raw = s.findings.clone();
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
            if !a.has_reason {
                raw.push(Finding {
                    lint: "AX02",
                    severity: Severity::Deny,
                    path: s.rel.clone(),
                    line: a.line,
                    col: a.col,
                    snippet: String::new(),
                    message: "analyzer:allow without a `-- reason` trailer".to_string(),
                });
            } else if !used[i] {
                raw.push(Finding {
                    lint: "AX01",
                    severity: Severity::Deny, // resolved below
                    path: s.rel.clone(),
                    line: a.line,
                    col: a.col,
                    snippet: String::new(),
                    message: format!(
                        "analyzer:allow({}) suppresses no finding — delete it",
                        a.lints.join(", ")
                    ),
                });
            }
        }
        all_findings.extend(raw);
    }
    // Semantic findings on paths without a summary (e.g. a misconfigured
    // AS02 file) cannot be escaped — they pass through directly.
    for (_, extra) in sem_by_path {
        all_findings.extend(extra);
    }

    // Snippet backfill for findings constructed without file content.
    for f in &mut all_findings {
        if f.snippet.is_empty() && f.line >= 1 {
            if let Some(lines) = file_lines.get(&f.path) {
                if let Some(l) = lines.get(f.line as usize - 1) {
                    f.snippet = l.trim().to_string();
                }
            }
        }
    }

    // Resolve severities, split warn/deny, apply the baseline ratchet.
    all_findings.sort_by(|a, b| (&a.path, a.line, a.lint).cmp(&(&b.path, b.line, b.lint)));
    let mut deny_by_key: BTreeMap<(String, String), Vec<Finding>> = BTreeMap::new();
    for mut f in all_findings {
        f.severity = config.severity_of(f.lint);
        match f.severity {
            Severity::Warn => report.warnings.push(f),
            Severity::Deny => deny_by_key
                .entry((f.lint.to_string(), f.path.clone()))
                .or_default()
                .push(f),
        }
    }

    for ((lint, path), group) in &deny_by_key {
        report
            .counts
            .insert((lint.clone(), path.clone()), group.len());
        let allowed = config.baseline_count(lint, path);
        if group.len() == allowed {
            report.baselined += group.len();
        } else {
            report.drift.push(BaselineDrift {
                lint: lint.clone(),
                path: path.clone(),
                expected: allowed,
                actual: group.len(),
            });
            if group.len() > allowed {
                // Surface the individual sites so the CI log carries
                // file:line for the new finding(s).
                report.new_findings.extend(group.iter().cloned());
            }
        }
    }
    // Baseline entries for files that now have zero findings (or vanished).
    for b in &config.baseline {
        if !deny_by_key.contains_key(&(b.lint.clone(), b.path.clone())) {
            report.drift.push(BaselineDrift {
                lint: b.lint.clone(),
                path: b.path.clone(),
                expected: b.count,
                actual: 0,
            });
        }
    }
    report
        .drift
        .sort_by(|a, b| (&a.path, &a.lint).cmp(&(&b.path, &b.lint)));
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

/// Load `analyzer.toml` from `root` and run [`analyze`].
pub fn analyze_with_default_config(root: &Path) -> Result<(Config, AnalysisReport), AnalyzerError> {
    let cfg_path = root.join("analyzer.toml");
    let src = std::fs::read_to_string(&cfg_path).map_err(|e| AnalyzerError {
        message: format!("cannot read {}: {e}", cfg_path.display()),
    })?;
    let config = Config::parse(&src)?;
    let report = analyze(root, &config)?;
    Ok((config, report))
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
/// baselines and golden files are portable).
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
        let c = classify("crates/stats/src/bootstrap.rs");
        assert_eq!(c.crate_name, "stats");
        assert!(!c.is_bin);
        let b = classify("crates/bench/src/bin/repro.rs");
        assert_eq!(b.crate_name, "bench");
        assert!(b.is_bin);
        let m = classify("crates/analyzer/src/main.rs");
        assert!(m.is_bin);
    }

    #[test]
    fn allowed_on_covers_own_and_next_line() {
        let allows = vec![lexer::AllowDirective {
            lints: vec!["AP02".to_string()],
            line: 4,
            col: 1,
            has_reason: true,
            used: false,
        }];
        assert!(allowed_on(&allows, 4).contains_key("AP02"));
        assert!(allowed_on(&allows, 5).contains_key("AP02"));
        assert!(!allowed_on(&allows, 6).contains_key("AP02"));
        assert!(!allowed_on(&allows, 3).contains_key("AP02"));
    }
}
