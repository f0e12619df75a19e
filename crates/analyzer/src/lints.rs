//! The lint catalog and the token-stream checks behind it.
//!
//! `CATALOG` is the **single source of truth** for the lint inventory: the
//! CLI's `--list-lints`, the JSON findings, and the DESIGN.md §11 catalog
//! (held in sync by a test) are all derived from it. The generic
//! determinism and panic-safety lints live in clippy (the workspace
//! `[lints]` table and `clippy.toml`); these are the checks clippy cannot
//! do.

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
        id: "AD02",
        slug: "entropy",
        summary: "ambient entropy (thread_rng/from_entropy/OsRng/getrandom) — all randomness must come from an explicit seed",
    },
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
        id: "AS01",
        slug: "determinism-taint",
        summary: "a public function on a committed surface (report rendering, bundle writing) transitively reaches a wallclock/entropy/spawn source — the finding carries the full call chain",
    },
    LintSpec {
        id: "AS03",
        slug: "registry-liveness",
        summary: "every name declared in the crates/obs names registry must have at least one call site emitting it — dead registry entries are unchecked debt (the dual of AO01)",
    },
    LintSpec {
        id: "AS04",
        slug: "exit-code-contract",
        summary: "process::exit/ExitCode literals in bin crates must stay inside the documented exit-code contract (0/1/2/3)",
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
    /// `src/bin/*` or `src/main.rs` — a binary target.
    pub is_bin: bool,
}

/// Ambient-entropy token shapes — shared by AD02 and the AS01 source set.
pub const ENTROPY_IDENTS: &[&str] = &["thread_rng", "from_entropy", "OsRng", "getrandom"];
/// The documented exit-code contract (README "Exit codes"): 0 clean,
/// 1 findings or I/O failure, 2 usage or malformed input, 3 degraded.
const EXIT_CODES: &[&str] = &["0", "1", "2", "3"];
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

    // End of the last exit call's argument scan: a nested exit call lies
    // inside it and is already covered.
    let mut exit_scanned = 0;
    for (i, t) in toks.iter().enumerate() {
        if t.test || t.kind != TokKind::Ident {
            continue;
        }
        let name = t.text.as_str();
        // AD02 — ambient entropy, everywhere.
        if ENTROPY_IDENTS.contains(&name) {
            push(
                "AD02",
                t.line,
                t.col,
                format!("ambient entropy source `{name}`"),
            );
        }
        // AS04 — exit-status literals outside the documented contract, in
        // bin targets only.
        if ctx.is_bin
            && i >= exit_scanned
            && next_is(toks, i, "(")
            && ((name == "exit" && prev_is(toks, i, "::") && prev_ident_is(toks, i, "process"))
                || (name == "from" && prev_is(toks, i, "::") && prev_ident_is(toks, i, "ExitCode")))
        {
            exit_scanned = check_exit_literals(toks, i + 2, &mut push);
        }
        // AO01 — registered observability names, via free functions
        // (agg_time/agg_count) or recorder/log methods.
        let obs_call = (OBS_FUNCTIONS.contains(&name)
            || (OBS_METHODS.contains(&name) && prev_is(toks, i, ".")))
            && next_is(toks, i, "(");
        if obs_call {
            check_obs_name(toks, i + 2, registry, &mut push);
        }
    }
}

/// AS04: scan the argument tokens of an exit call (starting at the token
/// after the opening paren) for integer literals outside [`EXIT_CODES`],
/// and return the index past the closing paren. Non-literal arguments
/// (variables, helper calls) are out of lexical reach.
fn check_exit_literals(
    toks: &[Tok],
    mut j: usize,
    push: &mut impl FnMut(&'static str, u32, u32, String),
) -> usize {
    let mut depth = 1usize;
    while depth > 0 {
        let Some(t) = toks.get(j) else { return j };
        match t.kind {
            TokKind::Punct if t.text == "(" => depth += 1,
            TokKind::Punct if t.text == ")" => depth -= 1,
            TokKind::Other => {
                // Keep the leading digits: `1u8` and `1_0` normalize.
                let digits: String = t
                    .text
                    .chars()
                    .take_while(|c| c.is_ascii_digit() || *c == '_')
                    .filter(|c| c.is_ascii_digit())
                    .collect();
                if !digits.is_empty()
                    && t.text.starts_with(|c: char| c.is_ascii_digit())
                    && !EXIT_CODES.contains(&digits.as_str())
                {
                    push(
                        "AS04",
                        t.line,
                        t.col,
                        format!(
                            "exit status `{digits}` is outside the documented exit-code contract (allowed: {})",
                            EXIT_CODES.join("/")
                        ),
                    );
                }
            }
            _ => {}
        }
        j += 1;
    }
    j
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

/// AS03: every declared obs registry name needs at least one potential
/// emitting site — a string literal with that exact text anywhere in
/// non-test workspace code outside the registry file itself. The loose
/// literal match (rather than call-argument position) tolerates names
/// routed through helpers and multi-line calls; it only misses names built
/// by concatenation, which AO01 already discourages.
pub fn as03_findings(
    summaries: &[crate::symbols::FileSummary],
    registry: &Registry,
    out: &mut Vec<Finding>,
) {
    let mut live: std::collections::BTreeSet<&str> = std::collections::BTreeSet::new();
    for s in summaries {
        if s.rel == crate::registry::OBS_NAMES_PATH {
            continue;
        }
        live.extend(s.shaped_literals.iter().map(String::as_str));
    }
    for entry in &registry.obs_names {
        if !live.contains(entry.name.as_str()) {
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

fn prev_is(toks: &[Tok], i: usize, punct: &str) -> bool {
    // `::` is lexed as two single-char puncts; match the immediately
    // preceding one(s).
    if punct == "::" {
        i >= 2
            && toks[i - 1].kind == TokKind::Punct
            && toks[i - 1].text == ":"
            && toks[i - 2].kind == TokKind::Punct
            && toks[i - 2].text == ":"
    } else {
        i >= 1 && toks[i - 1].kind == TokKind::Punct && toks[i - 1].text == punct
    }
}

/// Whether the identifier before a `::` chain ending at `i` equals `name`
/// (`thread :: spawn` → for i at `spawn`, checks `thread`).
fn prev_ident_is(toks: &[Tok], i: usize, name: &str) -> bool {
    i >= 3 && toks[i - 3].kind == TokKind::Ident && toks[i - 3].text == name
}

fn next_is(toks: &[Tok], i: usize, punct: &str) -> bool {
    toks.get(i + 1)
        .map(|t| t.kind == TokKind::Punct && t.text == punct)
        .unwrap_or(false)
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
