//! Extraction of the single-source name registries the O-lints check
//! against: the observability name registry in `crates/obs/src/names.rs`
//! and the fault channel labels in `crates/fault/src/profile.rs`.
//!
//! Both are plain `pub const NAME: &[&str] = [ "…", … ];` declarations, so
//! the same lexer that scans the workspace can read them: find the const's
//! identifier, then collect every string literal up to the terminating `;`.
//! Each extracted name keeps its declaration line/column, so findings that
//! point *at the registry* (AO01/AO02 self-checks, AS03 liveness) land on
//! the exact entry and per-line `analyzer:allow` escapes work there too.

use crate::lexer::{lex, TokKind};
use crate::AnalyzerError;

/// One registry entry with its declaration site.
#[derive(Debug, Clone)]
pub struct RegistryEntry {
    /// The declared name.
    pub name: String,
    /// 1-based line of the string literal in the registry file.
    pub line: u32,
    /// 1-based column of the string literal's opening quote.
    pub col: u32,
}

/// The names the O-lints validate against.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    /// Sanctioned observability names (spans, stages, counters, shard
    /// groups, coverage sections) from `crates/obs/src/names.rs`.
    pub obs_names: Vec<RegistryEntry>,
    /// Declared fault channel labels from `crates/fault/src/profile.rs`.
    pub fault_channels: Vec<String>,
}

impl Registry {
    /// Whether `name` is a declared observability name.
    pub fn has_obs_name(&self, name: &str) -> bool {
        self.obs_names.iter().any(|e| e.name == name)
    }
}

/// Relative path of the obs name registry.
pub const OBS_NAMES_PATH: &str = "crates/obs/src/names.rs";
/// Relative path of the fault channel declarations.
pub const FAULT_CHANNELS_PATH: &str = "crates/fault/src/profile.rs";

impl Registry {
    /// Load both registries from a workspace root.
    pub fn load(root: &std::path::Path) -> Result<Registry, AnalyzerError> {
        let obs_names = extract_const_strings(root, OBS_NAMES_PATH, "REGISTRY")?;
        let fault_channels = extract_const_strings(root, FAULT_CHANNELS_PATH, "CHANNEL_LABELS")?
            .into_iter()
            .map(|e| e.name)
            .collect();
        Ok(Registry {
            obs_names,
            fault_channels,
        })
    }
}

/// Collect the string literals of `pub const <name>: &[&str] = [...]` in
/// `rel` under `root`, with their declaration sites.
fn extract_const_strings(
    root: &std::path::Path,
    rel: &str,
    name: &str,
) -> Result<Vec<RegistryEntry>, AnalyzerError> {
    let path = root.join(rel);
    let src = std::fs::read_to_string(&path).map_err(|e| AnalyzerError {
        message: format!("cannot read name registry {rel}: {e}"),
    })?;
    let lexed = lex(&src);
    let toks = &lexed.toks;
    let start = toks
        .iter()
        .position(|t| t.kind == TokKind::Ident && t.text == name)
        .ok_or_else(|| AnalyzerError {
            message: format!("{rel}: no `{name}` const found — the registry moved?"),
        })?;
    let mut out = Vec::new();
    for t in &toks[start..] {
        match t.kind {
            TokKind::Str => out.push(RegistryEntry {
                name: t.text.clone(),
                line: t.line,
                col: t.col,
            }),
            TokKind::Punct if t.text == ";" => break,
            _ => {}
        }
    }
    if out.is_empty() {
        return Err(AnalyzerError {
            message: format!("{rel}: `{name}` declares no names"),
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extracts_from_a_temp_tree() {
        let dir = std::env::temp_dir().join("alexa-analyzer-registry-test");
        let obs = dir.join("crates/obs/src");
        let fault = dir.join("crates/fault/src");
        std::fs::create_dir_all(&obs).expect("mkdir");
        std::fs::create_dir_all(&fault).expect("mkdir");
        std::fs::write(
            obs.join("names.rs"),
            "/// Registry.\npub const REGISTRY: &[&str] = &[\n  \"boot\", // span\n  \"crawl.pre\",\n];\n",
        )
        .expect("write");
        std::fs::write(
            fault.join("profile.rs"),
            "pub const CHANNEL_LABELS: &[&str] = &[\"install\", \"packet_drop\"];\n",
        )
        .expect("write");
        let reg = Registry::load(&dir).expect("load");
        let names: Vec<&str> = reg.obs_names.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, vec!["boot", "crawl.pre"]);
        assert_eq!(
            (reg.obs_names[0].line, reg.obs_names[0].col),
            (3, 3),
            "entries carry their declaration site"
        );
        assert!(reg.has_obs_name("boot"));
        assert!(!reg.has_obs_name("nope"));
        assert_eq!(reg.fault_channels, vec!["install", "packet_drop"]);
    }

    #[test]
    fn missing_registry_is_a_clear_error() {
        let err = Registry::load(std::path::Path::new("/nonexistent-root")).expect_err("fail");
        assert!(err.message.contains("names.rs"), "{err}");
    }
}
