//! Workspace call graph and backward determinism-taint propagation (AS01).
//!
//! Linking is name-based and deliberately conservative, the same trade the
//! lexer makes: `Type::name(…)` resolves to functions in `impl Type` blocks,
//! `module::name(…)` to free functions (preferring the crate or file the
//! qualifier hints at), bare `name(…)` to free functions (same file, then
//! same crate, then anywhere), and `.name(…)` method calls to every impl
//! function of that name in the workspace — over-approximating receivers we
//! cannot type. `self.name(…)` narrows to the enclosing impl type when it
//! defines the method.
//!
//! One precision carve-out: a `.name(…)` call whose name collides with a
//! std container/iterator/option method ([`AMBIENT_METHODS`]) is dropped
//! rather than linked — `rows.iter()` is the slice method, and linking it
//! to every workspace `fn iter` taints the whole graph through one timing
//! helper. Colliding workspace methods are still linked when called as
//! `Type::name(…)`, `Self::name(…)`, or `self.name(…)` on a type that
//! defines them; only the untyped method-call edge is sacrificed.
//!
//! Taint then flows *backwards*: every function whose body holds a
//! wallclock/entropy/spawn token is a seed, and a breadth-first pass over
//! reverse call edges marks every transitive caller, remembering the next
//! hop so each finding can print its full witness chain down to the source
//! token.

use std::collections::{BTreeMap, VecDeque};

use crate::findings::Finding;
use crate::symbols::{CallKind, FileSummary, FnSym};
use crate::Config;

/// A global function id: (summary index, fn index).
type Gid = (usize, usize);

/// The resolved call graph over a set of file summaries.
pub struct CallGraph<'a> {
    summaries: &'a [FileSummary],
    /// Flat list of every function, in (file, declaration) order.
    fns: Vec<Gid>,
    /// Free functions by name.
    free_by_name: BTreeMap<&'a str, Vec<usize>>,
    /// Impl/trait functions by (type, name).
    typed: BTreeMap<(&'a str, &'a str), Vec<usize>>,
    /// Impl/trait functions by name alone (method-call candidates).
    methods_by_name: BTreeMap<&'a str, Vec<usize>>,
}

impl<'a> CallGraph<'a> {
    /// Index every non-test function of every summary.
    pub fn build(summaries: &'a [FileSummary]) -> CallGraph<'a> {
        let mut g = CallGraph {
            summaries,
            fns: Vec::new(),
            free_by_name: BTreeMap::new(),
            typed: BTreeMap::new(),
            methods_by_name: BTreeMap::new(),
        };
        for (si, s) in summaries.iter().enumerate() {
            for (fi, f) in s.fns.iter().enumerate() {
                if f.is_test {
                    continue;
                }
                let id = g.fns.len();
                g.fns.push((si, fi));
                match &f.qual {
                    None => g.free_by_name.entry(&f.name).or_default().push(id),
                    Some(q) => {
                        g.typed.entry((q, &f.name)).or_default().push(id);
                        g.methods_by_name.entry(&f.name).or_default().push(id);
                    }
                }
            }
        }
        g
    }

    fn sym(&self, id: usize) -> &'a FnSym {
        let (si, fi) = self.fns[id];
        &self.summaries[si].fns[fi]
    }

    fn file_of(&self, id: usize) -> &'a FileSummary {
        &self.summaries[self.fns[id].0]
    }

    /// Candidate callees of one call site in function `caller`.
    fn resolve(&self, caller: usize, name: &str, kind: &CallKind) -> Vec<usize> {
        let empty: Vec<usize> = Vec::new();
        match kind {
            CallKind::Free => {
                let all = self.free_by_name.get(name).unwrap_or(&empty);
                let same_file: Vec<usize> = all
                    .iter()
                    .copied()
                    .filter(|&c| self.fns[c].0 == self.fns[caller].0)
                    .collect();
                if !same_file.is_empty() {
                    return same_file;
                }
                let crate_name = &self.file_of(caller).crate_name;
                let same_crate: Vec<usize> = all
                    .iter()
                    .copied()
                    .filter(|&c| &self.file_of(c).crate_name == crate_name)
                    .collect();
                if !same_crate.is_empty() {
                    return same_crate;
                }
                all.clone()
            }
            CallKind::Qualified(q) => {
                // `Self::name` resolves against the caller's impl type.
                let q = if q == "Self" {
                    match &self.sym(caller).qual {
                        Some(t) => t.as_str(),
                        None => q.as_str(),
                    }
                } else {
                    q.as_str()
                };
                if q.starts_with(|c: char| c.is_ascii_uppercase()) {
                    return self.typed.get(&(q, name)).cloned().unwrap_or_default();
                }
                // Lowercase qualifier: a module or crate hint over free fns.
                let all = self.free_by_name.get(name).unwrap_or(&empty);
                if matches!(q, "self" | "crate" | "super") {
                    let crate_name = &self.file_of(caller).crate_name;
                    return all
                        .iter()
                        .copied()
                        .filter(|&c| &self.file_of(c).crate_name == crate_name)
                        .collect();
                }
                let hinted: Vec<usize> = all
                    .iter()
                    .copied()
                    .filter(|&c| {
                        let f = self.file_of(c);
                        crate_hint_matches(q, &f.crate_name)
                            || f.rel.ends_with(&format!("/{q}.rs"))
                            || f.rel.contains(&format!("/{q}/"))
                    })
                    .collect();
                if hinted.is_empty() {
                    all.clone()
                } else {
                    hinted
                }
            }
            CallKind::MethodOnSelf => {
                if let Some(t) = &self.sym(caller).qual {
                    if let Some(v) = self.typed.get(&(t.as_str(), name)) {
                        return v.clone();
                    }
                }
                if AMBIENT_METHODS.contains(&name) {
                    return Vec::new();
                }
                self.methods_by_name.get(name).cloned().unwrap_or_default()
            }
            CallKind::Method => {
                if AMBIENT_METHODS.contains(&name) {
                    return Vec::new();
                }
                self.methods_by_name.get(name).cloned().unwrap_or_default()
            }
        }
    }

    /// Backward taint propagation: returns, for every tainted function, the
    /// next hop (callee id + call line) toward a source.
    fn propagate(&self) -> Vec<Option<(usize, u32)>> {
        let n = self.fns.len();
        // Forward edges, then reversed.
        let mut rev: Vec<Vec<(usize, u32)>> = vec![Vec::new(); n];
        for caller in 0..n {
            for call in &self.sym(caller).calls {
                for callee in self.resolve(caller, &call.name, &call.kind) {
                    if callee != caller {
                        rev[callee].push((caller, call.line));
                    }
                }
            }
        }
        let mut next: Vec<Option<(usize, u32)>> = vec![None; n];
        let mut tainted = vec![false; n];
        let mut queue = VecDeque::new();
        for (id, t) in tainted.iter_mut().enumerate() {
            if !self.sym(id).sources.is_empty() {
                *t = true;
                queue.push_back(id);
            }
        }
        while let Some(g) = queue.pop_front() {
            for &(caller, line) in &rev[g] {
                if !tainted[caller] {
                    tainted[caller] = true;
                    next[caller] = Some((g, line));
                    queue.push_back(caller);
                }
            }
        }
        // Encode taint-without-hop (a direct source) as Some((self, 0)).
        for id in 0..n {
            if tainted[id] && next[id].is_none() {
                next[id] = Some((id, 0));
            }
        }
        next
    }

    /// The taint verdict for a function, or `None` if untainted: the
    /// source it reaches and the witness chain down to it, as a message.
    fn taint_of(&self, id: usize, next: &[Option<(usize, u32)>]) -> Option<String> {
        next[id]?;
        let mut hops = Vec::new();
        let mut cur = id;
        loop {
            let sym = self.sym(cur);
            let file = &self.file_of(cur).rel;
            hops.push(format!("{} ({file}:{})", sym.display_name(), sym.line));
            match next[cur] {
                Some((callee, _)) if callee != cur => cur = callee,
                _ => break,
            }
        }
        let src = self.sym(cur).sources.first()?;
        Some(format!(
            "{} source `{}` ({}:{}); call chain: {} -> `{}`",
            src.kind,
            src.token,
            self.file_of(cur).rel,
            src.line,
            hops.join(" -> "),
            src.token,
        ))
    }
}

/// Method names that collide with std container/iterator/option/string
/// methods. An untyped `.name(…)` call with one of these names is almost
/// always the std method, so the linker drops the edge instead of linking
/// to every workspace impl fn of that name (see the module docs).
const AMBIENT_METHODS: &[&str] = &[
    "all",
    "and_then",
    "any",
    "as_bytes",
    "as_ref",
    "as_str",
    "chain",
    "chars",
    "clear",
    "clone",
    "cloned",
    "cmp",
    "collect",
    "contains",
    "contains_key",
    "copied",
    "count",
    "dedup",
    "drain",
    "entry",
    "enumerate",
    "eq",
    "extend",
    "filter",
    "filter_map",
    "find",
    "find_map",
    "first",
    "flat_map",
    "flatten",
    "flush",
    "fmt",
    "fold",
    "get",
    "get_mut",
    "get_or_insert_with",
    "hash",
    "insert",
    "into_iter",
    "is_empty",
    "iter",
    "iter_mut",
    "join",
    "keys",
    "last",
    "len",
    "lines",
    "map",
    "max",
    "max_by",
    "max_by_key",
    "min",
    "min_by",
    "min_by_key",
    "next",
    "ok_or",
    "ok_or_else",
    "or_else",
    "parse",
    "partial_cmp",
    "peek",
    "pop",
    "position",
    "push",
    "read",
    "remove",
    "replace",
    "retain",
    "rev",
    "skip",
    "skip_while",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "split",
    "starts_with",
    "sum",
    "take",
    "take_while",
    "to_owned",
    "to_string",
    "to_vec",
    "trim",
    "unwrap_or",
    "unwrap_or_default",
    "unwrap_or_else",
    "values",
    "windows",
    "write",
    "zip",
];

/// Whether a lowercase path qualifier names this crate (`obs` or the lib
/// name `alexa_obs` both hint at `crates/obs`).
fn crate_hint_matches(q: &str, crate_name: &str) -> bool {
    q == crate_name || q.strip_prefix("alexa_") == Some(crate_name)
}

/// Run AS01 over the summaries: flag every public non-test function defined
/// under one of the config's entry paths that transitively reaches a taint
/// source, with the full call chain in the message.
pub fn as01_findings(summaries: &[FileSummary], config: &Config, out: &mut Vec<Finding>) {
    let g = CallGraph::build(summaries);
    let next = g.propagate();
    for (id, &(si, fi)) in g.fns.iter().enumerate() {
        let s = &summaries[si];
        let f = &s.fns[fi];
        if !f.is_pub
            || !config
                .entry_paths
                .iter()
                .any(|p| s.rel.starts_with(p.as_str()))
        {
            continue;
        }
        if let Some(taint) = g.taint_of(id, &next) {
            let message = format!(
                "committed-surface fn `{}` transitively reaches {taint}",
                f.name
            );
            out.push(Finding::new("AS01", &s.rel, f.line, f.col, message));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::lints::FileCtx;
    use crate::symbols::summarize;

    fn file(rel: &str, crate_name: &str, src: &str) -> FileSummary {
        let ctx = FileCtx {
            rel_path: rel.to_string(),
            crate_name: crate_name.to_string(),
            is_bin: false,
        };
        summarize(&ctx, &lex(src))
    }

    fn config(entry: &str) -> Config {
        Config {
            entry_paths: vec![entry.to_string()],
        }
    }

    #[test]
    fn taint_crosses_files_with_a_chain() {
        let summaries = vec![
            file(
                "crates/audit/src/analysis/render.rs",
                "audit",
                "pub fn render_into(out: &mut String) { let _ = stamp(); }\n\
                 fn stamp() -> u64 { clock::read() }\n\
                 pub fn render_static(out: &mut String) { out.push('x'); }\n",
            ),
            file(
                "crates/obs/src/clock.rs",
                "obs",
                "pub fn read() -> u64 { let _ = std::time::Instant::now(); 7 }\n",
            ),
        ];
        let mut out = Vec::new();
        as01_findings(&summaries, &config("crates/audit/src/analysis/"), &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        let f = &out[0];
        assert_eq!(f.lint, "AS01");
        assert_eq!(f.path, "crates/audit/src/analysis/render.rs");
        assert_eq!(f.line, 1);
        assert!(f.message.contains("render_into"), "{}", f.message);
        assert!(
            f.message
                .contains("stamp (crates/audit/src/analysis/render.rs:2)"),
            "chain must carry intermediate hops: {}",
            f.message
        );
        assert!(
            f.message.contains("read (crates/obs/src/clock.rs:1)"),
            "{}",
            f.message
        );
        assert!(f.message.contains("wallclock"), "{}", f.message);
    }

    #[test]
    fn method_calls_link_to_impl_fns() {
        let summaries = vec![
            file(
                "crates/audit/src/wire.rs",
                "audit",
                "pub fn encode(r: &Recorder) { r.time(\"x\", || {}); }\n",
            ),
            file(
                "crates/obs/src/recorder.rs",
                "obs",
                "impl Recorder { pub fn time(&self) { let _ = Instant::now(); } }\n",
            ),
        ];
        let mut out = Vec::new();
        as01_findings(&summaries, &config("crates/audit/src/wire.rs"), &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(
            out[0].message.contains("Recorder::time"),
            "{}",
            out[0].message
        );
    }

    #[test]
    fn untainted_entries_and_non_entries_stay_silent() {
        let summaries = vec![
            file(
                "crates/audit/src/wire.rs",
                "audit",
                "pub fn pure() -> u64 { 7 }\n",
            ),
            // Tainted but not under an entry path, and not public.
            file(
                "crates/obs/src/clock.rs",
                "obs",
                "fn secret() { let _ = Instant::now(); }\n",
            ),
        ];
        let mut out = Vec::new();
        as01_findings(&summaries, &config("crates/audit/src/"), &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn ambient_method_names_do_not_link() {
        let summaries = vec![
            file(
                "crates/audit/src/analysis/tables.rs",
                "audit",
                "pub fn table(rows: &[u64]) -> u64 { rows.iter().sum() }\n",
            ),
            // A workspace `iter` that reads the clock: linking `.iter()` to
            // it would taint every slice iteration in the workspace.
            file(
                "crates/bencher/src/lib.rs",
                "bencher",
                "impl Bencher { pub fn iter(&self) { let _ = Instant::now(); } }\n",
            ),
        ];
        let mut out = Vec::new();
        as01_findings(&summaries, &config("crates/audit/src/analysis/"), &mut out);
        assert!(out.is_empty(), "ambient `.iter()` must not link: {out:?}");
    }

    #[test]
    fn self_calls_prefer_the_enclosing_type() {
        let summaries = vec![file(
            "crates/audit/src/wire.rs",
            "audit",
            "impl Codec { pub fn encode(&self) { self.pure(); } fn pure(&self) {} }\n\
             impl Other { fn pure(&self) { let _ = Instant::now(); } }\n",
        )];
        let mut out = Vec::new();
        as01_findings(&summaries, &config("crates/audit/src/"), &mut out);
        assert!(
            out.is_empty(),
            "self.pure() must bind to Codec::pure, not the tainted Other::pure: {out:?}"
        );
    }
}
