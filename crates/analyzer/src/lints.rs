//! The lint catalog and the token-stream checks behind it.
//!
//! `CATALOG` is the **single source of truth** for the lint inventory: the
//! CLI's `--list-lints`, the JSON findings, and the DESIGN.md §11 catalog
//! (held in sync by a test) are all derived from it.

use crate::config::Config;
use crate::findings::{Finding, Severity};
use crate::lexer::{Lexed, Tok, TokKind};
use crate::registry::Registry;

/// One lint's identity and documentation.
#[derive(Debug, Clone, Copy)]
pub struct LintSpec {
    /// Stable id, used in baselines and `analyzer:allow(...)` escapes.
    pub id: &'static str,
    /// Human slug.
    pub slug: &'static str,
    /// Default severity (config can override).
    pub default_severity: Severity,
    /// One-line doc, shared verbatim by `--list-lints` and DESIGN.md.
    pub summary: &'static str,
}

/// Every lint the analyzer knows, in report order.
pub const CATALOG: &[LintSpec] = &[
    LintSpec {
        id: "AD01",
        slug: "wallclock",
        default_severity: Severity::Deny,
        summary: "wall-clock time source (Instant/SystemTime/UNIX_EPOCH) outside the sanctioned timing crates",
    },
    LintSpec {
        id: "AD02",
        slug: "entropy",
        default_severity: Severity::Deny,
        summary: "ambient entropy (thread_rng/from_entropy/OsRng/getrandom) — all randomness must come from an explicit seed",
    },
    LintSpec {
        id: "AD03",
        slug: "unordered-collection",
        default_severity: Severity::Deny,
        summary: "HashMap/HashSet in a crate that feeds reports or traces — iteration order would leak schedule noise; use BTreeMap/BTreeSet or sort before emitting",
    },
    LintSpec {
        id: "AD04",
        slug: "thread-spawn",
        default_severity: Severity::Deny,
        summary: "thread or process spawning (thread::spawn/scope/JoinHandle, process::Command) outside crates/exec — all parallelism goes through the deterministic execution backends",
    },
    LintSpec {
        id: "AP01",
        slug: "panic-macro",
        default_severity: Severity::Deny,
        summary: "panic!/unreachable!/todo!/unimplemented! in non-test library code — return a typed error instead",
    },
    LintSpec {
        id: "AP02",
        slug: "unwrap",
        default_severity: Severity::Deny,
        summary: ".unwrap()/.expect() in non-test library code — propagate a typed Result or recover",
    },
    LintSpec {
        id: "AP03",
        slug: "index-unguarded",
        default_severity: Severity::Warn,
        summary: "slice/collection indexing in non-test library code — a heuristic nudge toward .get(); advisory only",
    },
    LintSpec {
        id: "AO01",
        slug: "obs-name",
        default_severity: Severity::Deny,
        summary: "observability span/stage/counter names must be dotted.lowercase and declared in the crates/obs names registry",
    },
    LintSpec {
        id: "AO02",
        slug: "fault-name",
        default_severity: Severity::Deny,
        summary: "fault.* observability names must match a declared fault channel label or ledger aggregate from crates/fault",
    },
    LintSpec {
        id: "AS01",
        slug: "determinism-taint",
        default_severity: Severity::Deny,
        summary: "a public function on a committed surface (report rendering, bundle writing, wire codecs) transitively reaches a wallclock/entropy/spawn source — the finding carries the full call chain",
    },
    LintSpec {
        id: "AS02",
        slug: "wire-schema-drift",
        default_severity: Severity::Deny,
        summary: "every field of a wire-paired struct must appear in both its encode and decode codec functions — a field missing from either silently drops data on the wire",
    },
    LintSpec {
        id: "AS03",
        slug: "registry-liveness",
        default_severity: Severity::Deny,
        summary: "every name declared in the crates/obs names registry must have at least one call site emitting it — dead registry entries are unchecked debt (the dual of AO01)",
    },
    LintSpec {
        id: "AS04",
        slug: "exit-code-contract",
        default_severity: Severity::Deny,
        summary: "process::exit/ExitCode literals in bin crates must stay inside the documented exit-code contract (default 0/2/3)",
    },
    LintSpec {
        id: "AX01",
        slug: "stale-allow",
        default_severity: Severity::Warn,
        summary: "an analyzer:allow escape that suppresses no finding — delete it",
    },
    LintSpec {
        id: "AX02",
        slug: "malformed-allow",
        default_severity: Severity::Deny,
        summary: "an analyzer:allow escape without a `-- reason` trailer — every escape must record why",
    },
];

/// Look up a lint by id.
pub fn spec(id: &str) -> Option<&'static LintSpec> {
    CATALOG.iter().find(|s| s.id == id)
}

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

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];
const UNWRAP_METHODS: &[&str] = &["unwrap", "expect"];
/// Wall-clock token shapes — shared by AD01 and the AS01 taint source set.
pub const WALLCLOCK_IDENTS: &[&str] = &["Instant", "SystemTime", "UNIX_EPOCH"];
/// Ambient-entropy token shapes — shared by AD02 and the AS01 source set.
pub const ENTROPY_IDENTS: &[&str] = &["thread_rng", "from_entropy", "OsRng", "getrandom"];
const UNORDERED_IDENTS: &[&str] = &["HashMap", "HashSet"];
/// Keywords that can legally precede `[` without it being an index
/// expression (`let [a, b] = …`, `return [x]`, `match […]`, …).
const NON_INDEX_KEYWORDS: &[&str] = &[
    "let", "return", "match", "if", "else", "in", "mut", "ref", "move", "as", "break", "continue",
    "yield", "box", "dyn", "impl", "where", "for", "while", "loop", "fn", "const", "static",
];
/// Methods whose first string argument is an observability name.
const OBS_METHODS: &[&str] = &[
    "span",
    "stage",
    "add",
    "count",
    "shard",
    "section",
    "time",
    "volatile",
    "volatile_max",
];
/// Free functions whose first string argument is an observability name.
const OBS_FUNCTIONS: &[&str] = &["agg_time", "agg_count"];

/// Run every lint over one lexed file, appending raw findings (escape
/// directives and baselines are applied by the driver).
pub fn run_lints(
    lexed: &Lexed,
    ctx: &FileCtx,
    config: &Config,
    registry: &Registry,
    out: &mut Vec<Finding>,
) {
    let toks = &lexed.toks;
    let mut push = |id: &'static str, line: u32, col: u32, message: String| {
        out.push(Finding {
            lint: id,
            severity: Severity::Deny, // resolved later by the driver
            path: ctx.rel_path.clone(),
            line,
            col,
            snippet: lexed.snippet(line).to_string(),
            message,
        });
    };

    let plints_apply = !ctx.is_bin && !config.panic_exempt.contains(&ctx.crate_name);
    let ordered_crate = config.ordered_crates.contains(&ctx.crate_name);
    let wallclock_ok = config.wallclock_allow.contains(&ctx.crate_name);
    let threads_ok = config.thread_allow.contains(&ctx.crate_name);
    let exit_codes = if ctx.is_bin {
        config.allowed_exit_codes()
    } else {
        Default::default()
    };

    for (i, t) in toks.iter().enumerate() {
        if t.test {
            continue;
        }
        match t.kind {
            TokKind::Ident => {
                let name = t.text.as_str();
                // AD01 — wall-clock sources.
                if !wallclock_ok && WALLCLOCK_IDENTS.contains(&name) {
                    push(
                        "AD01",
                        t.line,
                        t.col,
                        format!("wall-clock type `{name}` in crate `{}`", ctx.crate_name),
                    );
                }
                // AD02 — ambient entropy, everywhere.
                if ENTROPY_IDENTS.contains(&name) {
                    push(
                        "AD02",
                        t.line,
                        t.col,
                        format!("ambient entropy source `{name}`"),
                    );
                }
                // AD03 — unordered collections in report/trace crates.
                if ordered_crate && UNORDERED_IDENTS.contains(&name) {
                    push(
                        "AD03",
                        t.line,
                        t.col,
                        format!("`{name}` in ordered-output crate `{}`", ctx.crate_name),
                    );
                }
                // AD04 — thread or process spawning outside the exec engine.
                if !threads_ok
                    && (name == "JoinHandle"
                        || (matches!(name, "spawn" | "scope")
                            && prev_is(toks, i, "::")
                            && prev_ident_is(toks, i, "thread"))
                        || (name == "Command"
                            && prev_is(toks, i, "::")
                            && prev_ident_is(toks, i, "process")))
                {
                    push(
                        "AD04",
                        t.line,
                        t.col,
                        format!("parallelism primitive `{name}` outside crates/exec"),
                    );
                }
                // AP01 — panic macros in library code.
                if plints_apply && PANIC_MACROS.contains(&name) && next_is(toks, i, "!") {
                    push("AP01", t.line, t.col, format!("`{name}!` in library code"));
                }
                // AP02 — .unwrap()/.expect() in library code.
                if plints_apply
                    && UNWRAP_METHODS.contains(&name)
                    && prev_is(toks, i, ".")
                    && next_is(toks, i, "(")
                {
                    push(
                        "AP02",
                        t.line,
                        t.col,
                        format!("`.{name}()` in library code"),
                    );
                }
                // AS04 — exit-status literals outside the documented
                // contract, in bin targets only.
                if ctx.is_bin
                    && next_is(toks, i, "(")
                    && ((name == "exit"
                        && prev_is(toks, i, "::")
                        && prev_ident_is(toks, i, "process"))
                        || (name == "from"
                            && prev_is(toks, i, "::")
                            && prev_ident_is(toks, i, "ExitCode")))
                {
                    check_exit_literals(toks, i + 2, &exit_codes, &mut push);
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
            TokKind::Punct if t.text == "[" && plints_apply => {
                // AP03 — index expression heuristic: `expr[` where expr ends
                // in an identifier, `]` or `)`.
                if let Some(prev) = prev_sig(toks, i) {
                    let is_index = match prev.kind {
                        TokKind::Ident => !NON_INDEX_KEYWORDS.contains(&prev.text.as_str()),
                        TokKind::Punct => prev.text == "]" || prev.text == ")",
                        _ => false,
                    };
                    if is_index {
                        push(
                            "AP03",
                            t.line,
                            t.col,
                            "index expression — prefer .get() on fallible paths".to_string(),
                        );
                    }
                }
            }
            _ => {}
        }
    }
}

/// AS04: scan the argument tokens of an exit call (starting at the token
/// after the opening paren) for integer literals outside the allowed set.
/// Non-literal arguments (variables, helper calls) are out of lexical reach.
fn check_exit_literals(
    toks: &[Tok],
    mut j: usize,
    allowed: &std::collections::BTreeSet<String>,
    push: &mut impl FnMut(&'static str, u32, u32, String),
) {
    let mut depth = 1usize;
    let allowed_list: Vec<&str> = allowed.iter().map(String::as_str).collect();
    while depth > 0 {
        let Some(t) = toks.get(j) else { return };
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
                    && !allowed.contains(&digits)
                {
                    push(
                        "AS04",
                        t.line,
                        t.col,
                        format!(
                            "exit status `{digits}` is outside the documented exit-code contract (allowed: {})",
                            allowed_list.join("/")
                        ),
                    );
                }
            }
            _ => {}
        }
        j += 1;
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

/// AS02: every field of each configured wire-paired struct must appear (as
/// an identifier or string literal) in the bodies of both its encode and
/// decode functions. Findings land on the field's declaration line in the
/// struct file so `analyzer:allow` escapes can sit next to the field.
pub fn as02_findings(
    summaries: &[crate::symbols::FileSummary],
    config: &Config,
    out: &mut Vec<Finding>,
) {
    if config.wire_pairs.is_empty() {
        return;
    }
    let struct_file = summaries.iter().find(|s| s.rel == config.struct_file);
    let wire_file = summaries.iter().find(|s| s.rel == config.wire_file);
    let mut push = |path: &str, line: u32, col: u32, message: String| {
        out.push(Finding {
            lint: "AS02",
            severity: Severity::Deny,
            path: path.to_string(),
            line,
            col,
            snippet: String::new(),
            message,
        });
    };
    let (Some(sf), Some(wf)) = (struct_file, wire_file) else {
        let missing = if struct_file.is_none() {
            &config.struct_file
        } else {
            &config.wire_file
        };
        push(
            missing,
            0,
            0,
            format!(
                "AS02 is configured but `{missing}` was not scanned — check [lints.AS02] paths"
            ),
        );
        return;
    };
    for pair in &config.wire_pairs {
        let Some(st) = sf.structs.iter().find(|s| s.name == pair.struct_name) else {
            push(
                &sf.rel,
                0,
                0,
                format!(
                    "wire-paired struct `{}` not found in {} — check [lints.AS02] pairs",
                    pair.struct_name, sf.rel
                ),
            );
            continue;
        };
        for (role, fn_name) in [("encode", &pair.encode_fn), ("decode", &pair.decode_fn)] {
            let Some(f) = wf.fns.iter().find(|f| &f.name == fn_name) else {
                push(
                    &wf.rel,
                    0,
                    0,
                    format!(
                        "{role} fn `{fn_name}` for struct `{}` not found in {} — check [lints.AS02] pairs",
                        pair.struct_name, wf.rel
                    ),
                );
                continue;
            };
            for field in &st.fields {
                if !f.idents.contains(&field.name) {
                    push(
                        &sf.rel,
                        field.line,
                        field.col,
                        format!(
                            "field `{}::{}` never appears in {role} fn `{fn_name}` ({}) — it would silently drop on the wire",
                            pair.struct_name, field.name, wf.rel
                        ),
                    );
                }
            }
        }
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
            out.push(Finding {
                lint: "AS03",
                severity: Severity::Deny,
                path: crate::registry::OBS_NAMES_PATH.to_string(),
                line: entry.line,
                col: entry.col,
                snippet: String::new(),
                message: format!(
                    "registry name {:?} has no emitting call site anywhere in the workspace — dead entry",
                    entry.name
                ),
            });
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

/// Previous significant token before index `i`.
fn prev_sig(toks: &[Tok], i: usize) -> Option<&Tok> {
    if i == 0 {
        None
    } else {
        toks.get(i - 1)
    }
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
