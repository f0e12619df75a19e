//! The lint catalog and the token-stream checks behind it.
//!
//! `CATALOG` is the **single source of truth** for the lint inventory: the
//! CLI's `--list-lints`, the JSON findings, and the DESIGN.md §11 catalog
//! (held in sync by a test) are all derived from it. The generic
//! determinism and panic-safety lints live in clippy (the workspace
//! `[lints]` table and `clippy.toml`); these are the checks clippy cannot
//! do.

use std::collections::BTreeSet;

use crate::findings::Finding;
use crate::lexer::{Lexed, Tok, TokKind};
use crate::registry::Registry;

/// One lint's identity and documentation.
#[derive(Debug, Clone, Copy)]
pub struct LintSpec {
    /// Stable id, used in `analyzer:allow(...)` escapes.
    pub id: &'static str,
    /// Human slug.
    pub slug: &'static str,
    /// One-line doc, shared verbatim by `--list-lints` and DESIGN.md.
    pub summary: &'static str,
}

/// Every lint the analyzer knows, in report order. Every one gates.
pub const CATALOG: &[LintSpec] = &[
    LintSpec {
        id: "AO01",
        slug: "obs-name",
        summary: "observability span/stage/counter names must be dotted.lowercase and declared in the crates/obs names registry",
    },
    LintSpec {
        id: "AO02",
        slug: "fault-name",
        summary: "fault.* observability names must match a declared fault channel label or ledger aggregate from crates/fault",
    },
    LintSpec {
        id: "AS03",
        slug: "registry-liveness",
        summary: "every name declared in the crates/obs names registry must have at least one call site emitting it — dead registry entries are unchecked debt (the dual of AO01)",
    },
    LintSpec {
        id: "AX01",
        slug: "stale-allow",
        summary: "an analyzer:allow escape that suppresses no finding — delete it",
    },
    LintSpec {
        id: "AX02",
        slug: "malformed-allow",
        summary: "an analyzer:allow escape without a `-- reason` trailer — every escape must record why",
    },
];

/// Per-file context, derived from the path.
#[derive(Debug, Clone)]
pub struct FileCtx {
    /// Repository-relative path, forward slashes.
    pub rel_path: String,
    /// The crate directory name under `crates/` (e.g. `stats`).
    pub crate_name: String,
}

/// Methods whose first string argument is an observability name.
const OBS_METHODS: &[&str] = &[
    "span",
    "stage",
    "add",
    "count",
    "shard",
    "section",
    "time",
    "volatile_max",
];
/// Free functions whose first string argument is an observability name.
const OBS_FUNCTIONS: &[&str] = &["agg_time", "agg_count"];

/// Run every per-file lint over one lexed file, appending raw findings
/// (escape directives are applied by the driver).
pub fn run_lints(lexed: &Lexed, ctx: &FileCtx, registry: &Registry, out: &mut Vec<Finding>) {
    let toks = &lexed.toks;
    let mut push = |id: &'static str, line: u32, col: u32, message: String| {
        out.push(Finding::new(id, &ctx.rel_path, line, col, message));
    };

    for (i, t) in toks.iter().enumerate() {
        if t.test || t.kind != TokKind::Ident {
            continue;
        }
        let name = t.text.as_str();
        // AO01 — registered observability names, via free functions
        // (agg_time/agg_count) or recorder/log methods.
        let obs_call = (OBS_FUNCTIONS.contains(&name)
            || (OBS_METHODS.contains(&name) && prev_punct_is(toks, i, ".")))
            && next_punct_is(toks, i, "(");
        if obs_call {
            check_obs_name(toks, i + 2, registry, &mut push);
        }
    }
}

/// Validate a string literal at token index `j` as an observability name
/// (shape + registry membership + fault.* consistency). Non-literal first
/// arguments (constants, format!) are out of lexical reach and skipped.
fn check_obs_name(
    toks: &[Tok],
    j: usize,
    registry: &Registry,
    push: &mut impl FnMut(&'static str, u32, u32, String),
) {
    let Some(tok) = toks.get(j) else { return };
    if tok.kind != TokKind::Str {
        return;
    }
    let name = tok.text.as_str();
    if !is_dotted_lowercase(name) {
        push(
            "AO01",
            tok.line,
            tok.col,
            format!("obs name {name:?} is not dotted.lowercase"),
        );
        return;
    }
    if !registry.has_obs_name(name) {
        push(
            "AO01",
            tok.line,
            tok.col,
            format!("obs name {name:?} is not declared in crates/obs/src/names.rs"),
        );
    }
    check_fault_name(name, registry, tok.line, tok.col, push);
}

/// AO02: a `fault.<x>` name must match a declared channel label or ledger
/// aggregate. Called both on call-site names and on registry entries.
pub fn check_fault_name(
    name: &str,
    registry: &Registry,
    line: u32,
    col: u32,
    push: &mut impl FnMut(&'static str, u32, u32, String),
) {
    let Some(suffix) = name.strip_prefix("fault.") else {
        return;
    };
    const AGGREGATES: &[&str] = &["injected", "retries", "losses"];
    if !AGGREGATES.contains(&suffix) && !registry.fault_channels.iter().any(|c| c == suffix) {
        push(
            "AO02",
            line,
            col,
            format!(
                "fault name {name:?}: `{suffix}` is neither a ledger aggregate nor a channel label declared in crates/fault"
            ),
        );
    }
}

/// The `dotted.lowercase`-shaped string literals of one file's non-test
/// code: the potential emitting sites AS03 counts.
pub fn shaped_literals(lexed: &Lexed) -> impl Iterator<Item = &str> {
    lexed
        .toks
        .iter()
        .filter(|t| t.kind == TokKind::Str && !t.test && is_dotted_lowercase(&t.text))
        .map(|t| t.text.as_str())
}

/// AS03: every declared obs registry name needs at least one potential
/// emitting site — a string literal with that exact text anywhere in
/// non-test workspace code outside the registry file itself (`live`, the
/// union of [`shaped_literals`] over those files). The loose literal match
/// (rather than call-argument position) tolerates names routed through
/// helpers and multi-line calls; it only misses names built by
/// concatenation, which AO01 already discourages.
pub fn as03_findings(live: &BTreeSet<String>, registry: &Registry, out: &mut Vec<Finding>) {
    for entry in &registry.obs_names {
        if !live.contains(&entry.name) {
            let message = format!(
                "registry name {:?} has no emitting call site anywhere in the workspace — dead entry",
                entry.name
            );
            out.push(Finding::new(
                "AS03",
                crate::registry::OBS_NAMES_PATH,
                entry.line,
                entry.col,
                message,
            ));
        }
    }
}

/// The `dotted.lowercase` name shape: segments of `[a-z0-9_]`, the first
/// starting with a letter, joined by single dots.
pub fn is_dotted_lowercase(name: &str) -> bool {
    let mut segments = name.split('.');
    let Some(first) = segments.next() else {
        return false;
    };
    let seg_ok = |s: &str, lead_alpha: bool| {
        !s.is_empty()
            && s.chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
            && (!lead_alpha || s.starts_with(|c: char| c.is_ascii_lowercase()))
    };
    seg_ok(first, true) && segments.all(|s| seg_ok(s, false))
}

fn next_punct_is(toks: &[Tok], i: usize, p: &str) -> bool {
    toks.get(i + 1)
        .is_some_and(|t| t.kind == TokKind::Punct && t.text == p)
}

fn prev_punct_is(toks: &[Tok], i: usize, p: &str) -> bool {
    i >= 1 && toks[i - 1].kind == TokKind::Punct && toks[i - 1].text == p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_ids_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for s in CATALOG {
            assert!(seen.insert(s.id), "duplicate lint id {}", s.id);
            assert!(s.id.len() == 4, "{}", s.id);
            assert!(!s.summary.is_empty());
        }
    }

    #[test]
    fn shaped_literals_are_collected() {
        let lexed = crate::lexer::lex(
            "pub fn enc(c: &C) -> String { let x = c.seed; push(\"seed\"); x.to_string() }\n\
             pub fn other() { emit(\"crawl.bids\"); emit(\"Not-Shaped\"); }\n\
             #[cfg(test)]\nmod tests { fn t() { emit(\"test.only\"); } }\n",
        );
        let got: Vec<&str> = shaped_literals(&lexed).collect();
        assert_eq!(got, vec!["seed", "crawl.bids"]);
    }

    #[test]
    fn dotted_lowercase_shape() {
        for ok in [
            "boot",
            "crawl.pre",
            "dsar.after_interaction1",
            "fault.bid_loss",
            "a.b.c",
        ] {
            assert!(is_dotted_lowercase(ok), "{ok}");
        }
        for bad in [
            "", "Boot", "avs-pass", "a..b", ".a", "a.", "1a", "a.B", "a b",
        ] {
            assert!(!is_dotted_lowercase(bad), "{bad}");
        }
    }
}
