//! Per-file symbol summaries: the input to the cross-file semantic lints.
//!
//! The extraction is lexical, built on the same token stream as the
//! per-file lints: a brace-stack scan tracks `impl`/`trait` blocks and
//! (possibly nested) `fn` bodies, and records for every function its call
//! sites, its determinism taint sources (wallclock/entropy/spawn tokens)
//! and its definition site. `dotted.lowercase`-shaped string literals are
//! collected for the registry-liveness lint.
//!
//! A [`FileSummary`] is everything the semantic pass needs from a file.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{AllowDirective, Lexed, Tok, TokKind};
use crate::lints::{self, FileCtx};

/// How a call site names its callee.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum CallKind {
    /// `name(…)` — a free function in scope.
    Free,
    /// `qual::name(…)` — the last path segment before the callee.
    Qualified(String),
    /// `.name(…)` — a method on an unknown receiver.
    Method,
    /// `self.name(…)` — a method on the enclosing impl type.
    MethodOnSelf,
}

/// One (deduplicated) call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallRef {
    /// Callee name.
    pub name: String,
    /// How the callee is named.
    pub kind: CallKind,
    /// 1-based line of the first occurrence.
    pub line: u32,
}

/// A determinism taint source inside a function body.
#[derive(Debug, Clone)]
pub struct SourceHit {
    /// Source class: `wallclock`, `entropy` or `spawn`.
    pub kind: String,
    /// The offending token text.
    pub token: String,
    /// 1-based line.
    pub line: u32,
}

/// One function (free, associated or trait method) found in a file.
#[derive(Debug, Clone)]
pub struct FnSym {
    /// Function name.
    pub name: String,
    /// Enclosing `impl`/`trait` type, `None` for free functions.
    pub qual: Option<String>,
    /// 1-based line of the name token.
    pub line: u32,
    /// 1-based column of the name token.
    pub col: u32,
    /// Declared with `pub` (any visibility scope).
    pub is_pub: bool,
    /// Defined under `#[cfg(test)]`.
    pub is_test: bool,
    /// Deduplicated call sites in the body.
    pub calls: Vec<CallRef>,
    /// Taint sources in the body.
    pub sources: Vec<SourceHit>,
}

impl FnSym {
    /// `Type::name` for associated functions, plain `name` otherwise.
    pub fn display_name(&self) -> String {
        match &self.qual {
            Some(q) => format!("{q}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// Everything the semantic pass needs from one file.
#[derive(Debug, Clone, Default)]
pub struct FileSummary {
    /// Repo-relative path, forward slashes.
    pub rel: String,
    /// Crate directory name under `crates/`.
    pub crate_name: String,
    /// Functions, in source order.
    pub fns: Vec<FnSym>,
    /// `dotted.lowercase`-shaped string literals in non-test code — the
    /// liveness witnesses for AS03.
    pub shaped_literals: BTreeSet<String>,
    /// Escape directives found in the file.
    pub allows: Vec<AllowDirective>,
}

/// Wall-clock token shapes, an AS01 taint source.
const WALLCLOCK_IDENTS: &[&str] = &["Instant", "SystemTime", "UNIX_EPOCH"];

/// Keywords that can precede `(` without being a call.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "loop", "return", "fn", "as", "in", "let", "mut", "ref", "move",
    "else", "break", "continue", "yield", "where", "impl", "dyn",
];

/// Tokens that may legally sit at item position right before an `impl`,
/// `trait` or `struct` keyword.
fn at_item_position(toks: &[Tok], i: usize) -> bool {
    match i.checked_sub(1).and_then(|p| toks.get(p)) {
        None => true,
        Some(p) => match p.kind {
            TokKind::Punct => matches!(p.text.as_str(), "{" | "}" | ";" | "]" | ")"),
            TokKind::Ident => matches!(p.text.as_str(), "unsafe" | "pub" | "auto"),
            _ => false,
        },
    }
}

/// Extract the impl/trait target type from the tokens between the keyword
/// and the opening `{`: the last top-level identifier after the final
/// top-level `for` (or of the whole header), with any `where` clause cut.
fn impl_target(toks: &[Tok], after_kw: usize) -> Option<String> {
    let mut angle = 0i32;
    let mut segment_start = after_kw;
    let mut j = after_kw;
    let mut last_ident: Option<&str> = None;
    while let Some(t) = toks.get(j) {
        match t.kind {
            TokKind::Punct => match t.text.as_str() {
                "<" => angle += 1,
                ">" => angle -= 1,
                "{" | ";" if angle <= 0 => break,
                _ => {}
            },
            TokKind::Ident if angle == 0 => match t.text.as_str() {
                // HRTB `for<'a>` is not an impl-for.
                "for" if toks.get(j + 1).map(|n| n.text.as_str()) != Some("<") => {
                    segment_start = j + 1;
                }
                "where" => break,
                _ => {}
            },
            _ => {}
        }
        j += 1;
    }
    // Re-scan the chosen segment for its last top-level identifier.
    let mut angle = 0i32;
    for t in toks.iter().take(j).skip(segment_start) {
        match t.kind {
            TokKind::Punct => match t.text.as_str() {
                "<" => angle += 1,
                ">" => angle -= 1,
                _ => {}
            },
            TokKind::Ident if angle == 0 && t.text != "for" && t.text != "where" => {
                last_ident = Some(&t.text)
            }
            _ => {}
        }
    }
    last_ident.map(str::to_string)
}

/// Whether the tokens before a `fn` keyword include `pub`.
fn fn_is_pub(toks: &[Tok], fn_kw: usize) -> bool {
    let mut j = fn_kw;
    let mut steps = 0;
    while j > 0 && steps < 8 {
        j -= 1;
        steps += 1;
        let t = &toks[j];
        match t.kind {
            TokKind::Ident => match t.text.as_str() {
                "pub" => return true,
                "const" | "async" | "unsafe" | "extern" | "crate" | "super" | "self" | "in" => {}
                _ => return false,
            },
            TokKind::Punct if t.text == "(" || t.text == ")" => {}
            TokKind::Str => {} // extern "C"
            _ => return false,
        }
    }
    false
}

/// Build the [`FileSummary`] of one lexed file.
pub fn summarize(ctx: &FileCtx, lexed: &Lexed) -> FileSummary {
    let toks = &lexed.toks;
    let mut sum = FileSummary {
        rel: ctx.rel_path.clone(),
        crate_name: ctx.crate_name.clone(),
        allows: lexed.allows.clone(),
        ..FileSummary::default()
    };

    let mut depth = 0usize;
    // (brace depth of the block body, impl/trait target type)
    let mut impl_stack: Vec<(usize, String)> = Vec::new();
    // (index into sum.fns, brace depth of the body)
    let mut fn_stack: Vec<(usize, usize)> = Vec::new();
    let mut pending_impl: Option<String> = None;
    let mut pending_fn: Option<usize> = None;
    // Per-open-fn call dedup: (name, kind) -> first line.
    let mut call_seen: Vec<BTreeMap<(String, CallKind), u32>> = Vec::new();

    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        match t.kind {
            TokKind::Punct => match t.text.as_str() {
                "{" => {
                    depth += 1;
                    if let Some(fn_idx) = pending_fn.take() {
                        fn_stack.push((fn_idx, depth));
                        call_seen.push(BTreeMap::new());
                    } else if let Some(ty) = pending_impl.take() {
                        impl_stack.push((depth, ty));
                    }
                }
                "}" => {
                    if fn_stack.last().is_some_and(|&(_, d)| d == depth) {
                        if let Some((fn_idx, _)) = fn_stack.pop() {
                            if let Some(seen) = call_seen.pop() {
                                let calls = &mut sum.fns[fn_idx].calls;
                                for ((name, kind), line) in seen {
                                    calls.push(CallRef { name, kind, line });
                                }
                            }
                        }
                    }
                    if impl_stack.last().is_some_and(|&(d, _)| d == depth) {
                        impl_stack.pop();
                    }
                    depth = depth.saturating_sub(1);
                }
                ";" => {
                    // A bodyless declaration (trait fn signature).
                    pending_fn = None;
                    pending_impl = None;
                }
                _ => {}
            },
            TokKind::Ident => {
                let name = t.text.as_str();
                match name {
                    "impl" | "trait" if at_item_position(toks, i) => {
                        if name == "trait" {
                            // The trait's own name follows directly.
                            if let Some(n) = toks.get(i + 1).filter(|n| n.kind == TokKind::Ident) {
                                pending_impl = Some(n.text.clone());
                            }
                        } else {
                            pending_impl = impl_target(toks, i + 1);
                        }
                    }
                    "fn" => {
                        if let Some(n) = toks.get(i + 1).filter(|n| n.kind == TokKind::Ident) {
                            let qual = impl_stack.last().map(|(_, ty)| ty.clone());
                            sum.fns.push(FnSym {
                                name: n.text.clone(),
                                qual,
                                line: n.line,
                                col: n.col,
                                is_pub: fn_is_pub(toks, i),
                                is_test: n.test,
                                calls: Vec::new(),
                                sources: Vec::new(),
                            });
                            pending_fn = Some(sum.fns.len() - 1);
                        }
                    }
                    _ => {
                        if let Some(&(fn_idx, _)) = fn_stack.last() {
                            scan_body_ident(toks, i, fn_idx, &mut sum, &mut call_seen);
                        }
                    }
                }
            }
            TokKind::Str if !t.test && lints::is_dotted_lowercase(&t.text) => {
                sum.shaped_literals.insert(t.text.clone());
            }
            _ => {}
        }
        i += 1;
    }
    sum
}

/// Classify one identifier inside a function body: call site and/or taint
/// source, recorded against `fn_idx`.
fn scan_body_ident(
    toks: &[Tok],
    i: usize,
    fn_idx: usize,
    sum: &mut FileSummary,
    call_seen: &mut [BTreeMap<(String, CallKind), u32>],
) {
    let t = &toks[i];
    let name = t.text.as_str();

    // Taint sources, in every crate: the sanctioned timing and spawning
    // crates are exactly where the sources live.
    let source_kind = if WALLCLOCK_IDENTS.contains(&name) {
        Some("wallclock")
    } else if lints::ENTROPY_IDENTS.contains(&name) {
        Some("entropy")
    } else if name == "JoinHandle"
        || (matches!(name, "spawn" | "scope") && prev_path_ident_is(toks, i, "thread"))
        || (name == "Command" && prev_path_ident_is(toks, i, "process"))
    {
        Some("spawn")
    } else {
        None
    };
    if let Some(kind) = source_kind {
        sum.fns[fn_idx].sources.push(SourceHit {
            kind: kind.to_string(),
            token: name.to_string(),
            line: t.line,
        });
    }

    // Call sites: `name(`, `qual::name(`, `.name(`, `self.name(`.
    if !next_punct_is(toks, i, "(") || NON_CALL_KEYWORDS.contains(&name) {
        return;
    }
    let kind = if prev_punct_is(toks, i, ".") {
        if i >= 2 && toks[i - 2].kind == TokKind::Ident && toks[i - 2].text == "self" {
            CallKind::MethodOnSelf
        } else {
            CallKind::Method
        }
    } else if prev_punct_is(toks, i, ":") && i >= 2 && toks[i - 2].text == ":" {
        match i.checked_sub(3).and_then(|p| toks.get(p)) {
            Some(q) if q.kind == TokKind::Ident => CallKind::Qualified(q.text.clone()),
            _ => CallKind::Free, // turbofish or odd path — resolve by name
        }
    } else {
        CallKind::Free
    };
    if let Some(seen) = call_seen.last_mut() {
        seen.entry((name.to_string(), kind)).or_insert(t.line);
    }
}

fn next_punct_is(toks: &[Tok], i: usize, p: &str) -> bool {
    toks.get(i + 1)
        .is_some_and(|t| t.kind == TokKind::Punct && t.text == p)
}

fn prev_punct_is(toks: &[Tok], i: usize, p: &str) -> bool {
    i >= 1 && toks[i - 1].kind == TokKind::Punct && toks[i - 1].text == p
}

/// For `a::b` with the cursor at `b`, whether `a` equals `name`.
fn prev_path_ident_is(toks: &[Tok], i: usize, name: &str) -> bool {
    i >= 3
        && toks[i - 1].text == ":"
        && toks[i - 2].text == ":"
        && toks[i - 3].kind == TokKind::Ident
        && toks[i - 3].text == name
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn summarize_src(src: &str) -> FileSummary {
        let lexed = lex(src);
        let ctx = FileCtx {
            rel_path: "crates/demo/src/lib.rs".to_string(),
            crate_name: "demo".to_string(),
            is_bin: false,
        };
        summarize(&ctx, &lexed)
    }

    #[test]
    fn free_and_assoc_fns_with_calls() {
        let s = summarize_src(
            "pub fn top() { helper(); obj.go(); self_free(); }\n\
             fn helper() { alexa_obs::agg_time(\"x\", || {}); }\n\
             impl Recorder { pub fn time(&self) { self.lock(); } }\n\
             impl fmt::Display for Wrapper { fn fmt(&self) {} }\n\
             trait Backend { fn run(&self) { self.pre(); } }\n",
        );
        let names: Vec<String> = s.fns.iter().map(|f| f.display_name()).collect();
        assert_eq!(
            names,
            vec![
                "top",
                "helper",
                "Recorder::time",
                "Wrapper::fmt",
                "Backend::run"
            ]
        );
        assert!(s.fns[0].is_pub && !s.fns[1].is_pub);
        let top_calls: Vec<(&str, &CallKind)> = s.fns[0]
            .calls
            .iter()
            .map(|c| (c.name.as_str(), &c.kind))
            .collect();
        assert!(top_calls.contains(&("helper", &CallKind::Free)));
        assert!(top_calls.contains(&("go", &CallKind::Method)));
        assert!(s.fns[1].calls.iter().any(
            |c| c.name == "agg_time" && c.kind == CallKind::Qualified("alexa_obs".to_string())
        ));
        assert!(s.fns[2]
            .calls
            .iter()
            .any(|c| c.name == "lock" && c.kind == CallKind::MethodOnSelf));
        assert!(s.fns[4]
            .calls
            .iter()
            .any(|c| c.name == "pre" && c.kind == CallKind::MethodOnSelf));
    }

    #[test]
    fn sources_are_detected_per_fn() {
        let s = summarize_src(
            "pub fn clocky() -> u64 { let _t = std::time::Instant::now(); 7 }\n\
             pub fn pure() -> u64 { 7 }\n\
             pub fn spawny() { std::thread::spawn(|| {}); }\n",
        );
        assert_eq!(s.fns[0].sources.len(), 1);
        assert_eq!(s.fns[0].sources[0].kind, "wallclock");
        assert!(s.fns[1].sources.is_empty());
        assert_eq!(s.fns[2].sources[0].kind, "spawn");
    }

    #[test]
    fn shaped_literals_are_collected() {
        let s = summarize_src(
            "pub fn enc(c: &C) -> String { let x = c.seed; push(\"seed\"); x.to_string() }\n\
             pub fn other() { emit(\"crawl.bids\"); }\n",
        );
        assert!(s.shaped_literals.contains("crawl.bids"));
        assert!(s.shaped_literals.contains("seed"));
    }

    #[test]
    fn nested_fns_attribute_to_the_innermost() {
        let s = summarize_src(
            "pub fn outer() { fn inner() { std::time::Instant::now(); } inner(); }\n",
        );
        assert_eq!(s.fns.len(), 2);
        let outer = &s.fns[0];
        let inner = &s.fns[1];
        assert!(outer.sources.is_empty());
        assert_eq!(inner.sources.len(), 1);
        assert!(outer.calls.iter().any(|c| c.name == "inner"));
    }

    #[test]
    fn test_fns_are_marked() {
        let s = summarize_src("#[cfg(test)]\nmod tests { fn t() { x.unwrap(); } }\nfn lib() {}");
        let t = s.fns.iter().find(|f| f.name == "t").expect("t");
        assert!(t.is_test);
        let lib = s.fns.iter().find(|f| f.name == "lib").expect("lib");
        assert!(!lib.is_test);
    }
}
