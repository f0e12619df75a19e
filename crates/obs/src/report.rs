//! Immutable report snapshots: span-tree rendering, JSON export, and the
//! views derived from the deterministic run ledger (counter totals, folded
//! profile, histograms and percentile summaries in work units). The ledger
//! documents themselves are encoded and decoded in `ledger.rs`.

use crate::hist::{Histogram, Summary};
use crate::json::Json;
use crate::shard::SpanRec;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One top-level pipeline stage span (see [`Recorder::stage`]).
///
/// [`Recorder::stage`]: crate::Recorder::stage
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageRec {
    /// Stage name from the fixed taxonomy (see DESIGN.md §9).
    pub name: String,
    /// Nesting depth (0 = top level of the pipeline).
    pub depth: usize,
    /// Microseconds between recorder creation and stage entry.
    pub start_us: u64,
    /// Stage duration in microseconds.
    pub dur_us: u64,
    /// Deterministic work units attributed to this stage (the sum of the
    /// virtual-clock totals of every shard submitted while it was the
    /// innermost open stage).
    pub work: u64,
    /// Deterministic allocation count attributed to this stage (the sum of
    /// the sealed allocation windows of every shard submitted while it was
    /// the innermost open stage).
    pub alloc_count: u64,
    /// Deterministic allocated bytes attributed to this stage (same
    /// attribution rule as `alloc_count`).
    pub alloc_bytes: u64,
    /// OS-level peak RSS (`VmHWM`, kilobytes) sampled when the stage
    /// closed. Schedule- and substrate-dependent like `dur_us`: shown by
    /// the human views, **never** by a ledger surface.
    pub peak_rss_kb: u64,
}

/// A name-keyed aggregate fed by leaf libraries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Aggregate {
    /// Accumulated units (resamples, permutations, bids, ...).
    pub count: u64,
    /// Timed invocations recorded into this aggregate.
    pub calls: u64,
    /// Total time across timed invocations, microseconds.
    pub total_us: u64,
}

/// The merged record of one finished shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardReport {
    /// Structural group ("persona", "avs", "artifact").
    pub group: String,
    /// Fixed index within the group's work list.
    pub index: usize,
    /// Human label (persona name, category label, artifact name).
    pub label: String,
    /// The stage that was open when the shard was submitted ("" if none) —
    /// structural, so identical across worker counts.
    pub stage: String,
    /// Wall time from shard start to submission, microseconds.
    pub total_us: u64,
    /// Deterministic work units on the shard's virtual clock.
    pub work: u64,
    /// Heap allocations inside the shard's sealed allocation window.
    pub alloc_count: u64,
    /// Heap bytes requested inside the shard's sealed allocation window.
    pub alloc_bytes: u64,
    /// Peak net-live bytes reached inside the shard's window (relative to
    /// the window's start — deterministic, unlike OS RSS).
    pub alloc_peak: u64,
    /// Closed spans in pre-order.
    pub spans: Vec<SpanRec>,
    /// Final counter values.
    pub counters: BTreeMap<String, u64>,
}

/// An immutable snapshot of everything a [`Recorder`] collected.
///
/// Shards are sorted by `(group, index)` — the deterministic merge order —
/// regardless of the order they were submitted in.
///
/// [`Recorder`]: crate::Recorder
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Top-level stages in entry order.
    pub stages: Vec<StageRec>,
    /// Shard reports sorted by `(group, index)`.
    pub shards: Vec<ShardReport>,
    /// Name-keyed aggregates.
    pub aggregates: BTreeMap<String, Aggregate>,
    /// Per-group allocation-size histograms: every shard window's log2
    /// size buckets, merged bucket-wise under the group name (one entry per
    /// group that submitted a shard, empty or not).
    pub alloc_sizes: BTreeMap<String, Histogram>,
    /// Machine-dependent gauges (`mem.peak_rss_kb`). Shown by the
    /// human-facing views ([`Report::render_tree`], [`Report::to_json`])
    /// and deliberately **absent** from the run-ledger surfaces
    /// ([`Report::ledger_trace_json`], [`Report::ledger_memory_json`]),
    /// so they can never change committed bytes.
    pub volatile: BTreeMap<String, u64>,
}

impl Report {
    /// The shard reports of one group, in index order.
    pub fn shards_in(&self, group: &str) -> Vec<&ShardReport> {
        self.shards.iter().filter(|s| s.group == group).collect()
    }

    /// The first stage with this name, if recorded.
    pub fn stage(&self, name: &str) -> Option<&StageRec> {
        self.stages.iter().find(|s| s.name == name)
    }

    /// Human-readable span tree (the `repro --trace` output).
    ///
    /// Structure and work units are deterministic; the millisecond figures
    /// are this run's wall clock.
    pub fn render_tree(&self) -> String {
        let ms = |us: u64| us as f64 / 1000.0;
        let mut out = String::from("── trace (structure deterministic, times wall-clock) ──\n");
        out.push_str("stages:\n");
        for s in &self.stages {
            let _ = writeln!(
                out,
                "  {}{:<28} {:>10.1} ms {:>10} wu {:>12} alloc B  rss {:>9} kB",
                "  ".repeat(s.depth),
                s.name,
                ms(s.dur_us),
                s.work,
                s.alloc_bytes,
                s.peak_rss_kb
            );
        }
        let mut group = None::<&str>;
        for sh in &self.shards {
            if group != Some(sh.group.as_str()) {
                group = Some(sh.group.as_str());
                let _ = writeln!(out, "shards [{}]:", sh.group);
            }
            let _ = writeln!(
                out,
                "  #{:<3} {:<26} {:>10.1} ms {:>8} wu {:>12} alloc B",
                sh.index,
                sh.label,
                ms(sh.total_us),
                sh.work,
                sh.alloc_bytes
            );
            for sp in &sh.spans {
                let _ = writeln!(
                    out,
                    "    {}{:<26} {:>8.1} ms {:>8} wu",
                    "  ".repeat(sp.depth),
                    sp.name,
                    ms(sp.dur_us),
                    sp.dur_wu
                );
            }
            if !sh.counters.is_empty() {
                let counters: Vec<String> = sh
                    .counters
                    .iter()
                    .map(|(k, v)| format!("{k}={v}"))
                    .collect();
                let _ = writeln!(out, "      [{}]", counters.join(", "));
            }
        }
        if !self.aggregates.is_empty() {
            out.push_str("aggregates:\n");
            for (name, a) in &self.aggregates {
                let _ = writeln!(
                    out,
                    "  {:<34} count={:<10} calls={:<8} {:>10.1} ms",
                    name,
                    a.count,
                    a.calls,
                    ms(a.total_us)
                );
            }
        }
        if !self.volatile.is_empty() {
            out.push_str("volatile (machine gauges, not part of the ledger):\n");
            for (name, v) in &self.volatile {
                let _ = writeln!(out, "  {name:<34} {v}");
            }
        }
        out
    }

    /// JSON export (the `repro --metrics-out` payload).
    ///
    /// Top-level keys: `stages` (per-stage wall time + work units), `shards`
    /// (per-shard wall time, work, spans, counters — persona shards carry
    /// the flow/bid/creative counts), `aggregates`. Wall-clock fields make
    /// this surface schedule-dependent; the deterministic twin is
    /// [`Report::ledger_trace_json`].
    pub fn to_json(&self) -> Json {
        let ms = |us: u64| Json::Float(us as f64 / 1000.0);
        let stages = self
            .stages
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(s.name.clone())),
                    ("depth".into(), Json::Int(s.depth as u64)),
                    ("ms".into(), ms(s.dur_us)),
                    ("work".into(), Json::Int(s.work)),
                    ("alloc_count".into(), Json::Int(s.alloc_count)),
                    ("alloc_bytes".into(), Json::Int(s.alloc_bytes)),
                    ("peak_rss_kb".into(), Json::Int(s.peak_rss_kb)),
                ])
            })
            .collect();
        let shards = self
            .shards
            .iter()
            .map(|sh| {
                let spans = sh
                    .spans
                    .iter()
                    .map(|sp| {
                        Json::Obj(vec![
                            ("name".into(), Json::Str(sp.name.clone())),
                            ("depth".into(), Json::Int(sp.depth as u64)),
                            ("ms".into(), ms(sp.dur_us)),
                            ("work".into(), Json::Int(sp.dur_wu)),
                        ])
                    })
                    .collect();
                let counters = sh
                    .counters
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Int(*v)))
                    .collect();
                Json::Obj(vec![
                    ("group".into(), Json::Str(sh.group.clone())),
                    ("index".into(), Json::Int(sh.index as u64)),
                    ("label".into(), Json::Str(sh.label.clone())),
                    ("ms".into(), ms(sh.total_us)),
                    ("work".into(), Json::Int(sh.work)),
                    ("alloc_count".into(), Json::Int(sh.alloc_count)),
                    ("alloc_bytes".into(), Json::Int(sh.alloc_bytes)),
                    ("alloc_peak_bytes".into(), Json::Int(sh.alloc_peak)),
                    ("spans".into(), Json::Arr(spans)),
                    ("counters".into(), Json::Obj(counters)),
                ])
            })
            .collect();
        let aggregates = self
            .aggregates
            .iter()
            .map(|(name, a)| {
                (
                    name.clone(),
                    Json::Obj(vec![
                        ("count".into(), Json::Int(a.count)),
                        ("calls".into(), Json::Int(a.calls)),
                        ("ms".into(), ms(a.total_us)),
                    ]),
                )
            })
            .collect();
        let volatile = self
            .volatile
            .iter()
            .map(|(k, v)| (k.clone(), Json::Int(*v)))
            .collect();
        Json::Obj(vec![
            ("stages".into(), Json::Arr(stages)),
            ("shards".into(), Json::Arr(shards)),
            ("aggregates".into(), Json::Obj(aggregates)),
            ("volatile".into(), Json::Obj(volatile)),
        ])
    }

    /// Counter totals: each shard counter summed over every shard
    /// (saturating, so a decoded ledger cannot overflow it).
    pub fn counter_totals(&self) -> BTreeMap<String, u64> {
        let mut totals: BTreeMap<String, u64> = BTreeMap::new();
        for sh in &self.shards {
            for (name, v) in &sh.counters {
                let t = totals.entry(name.clone()).or_default();
                *t = t.saturating_add(*v);
            }
        }
        totals
    }

    /// Per-group work-unit summaries (p50/p90/p99 over the shard totals of
    /// each group — 13 persona shards, 9 AVS shards, one per artifact).
    pub fn work_summaries(&self) -> BTreeMap<String, Summary> {
        let mut by_group: BTreeMap<String, Vec<u64>> = BTreeMap::new();
        for sh in &self.shards {
            by_group.entry(sh.group.clone()).or_default().push(sh.work);
        }
        by_group
            .into_iter()
            .map(|(g, values)| (g, Summary::of(&values)))
            .collect()
    }

    /// Deterministic work-unit histograms: per-group shard totals under the
    /// group's name, per-span durations under `"group:span"`.
    pub fn work_histograms(&self) -> BTreeMap<String, Histogram> {
        let mut hists: BTreeMap<String, Histogram> = BTreeMap::new();
        for sh in &self.shards {
            hists.entry(sh.group.clone()).or_default().record(sh.work);
            for sp in &sh.spans {
                hists
                    .entry(format!("{}:{}", sh.group, sp.name))
                    .or_default()
                    .record(sp.dur_wu);
            }
        }
        hists
    }

    /// Folded-stack profile over the deterministic work clock, one line per
    /// span path with **self** work units (flamegraph-consumable:
    /// `stage;group;label;span;... N`).
    ///
    /// Total work per path is the sum of the path and its descendants, the
    /// usual folded-stack convention. Paths with zero self work are elided.
    pub fn folded_profile(&self) -> String {
        let mut out = String::new();
        for sh in &self.shards {
            let mut root: Vec<String> = Vec::new();
            if !sh.stage.is_empty() {
                root.push(sh.stage.clone());
            }
            root.push(sh.group.clone());
            root.push(sh.label.clone());

            // Self work of the shard root: total minus top-level span work.
            let top_level: u64 = sh
                .spans
                .iter()
                .filter(|s| s.depth == 0)
                .fold(0, |sum, s| sum.saturating_add(s.dur_wu));
            let root_self = sh.work.saturating_sub(top_level);
            if root_self > 0 {
                let _ = writeln!(out, "{} {}", root.join(";"), root_self);
            }

            // Pre-order walk: compute each span's self work by subtracting
            // its direct children, tracked with a depth stack.
            let mut stack: Vec<(String, u64, u64)> = Vec::new(); // (name, dur, children)
            for (i, sp) in sh.spans.iter().enumerate() {
                while stack.len() > sp.depth {
                    Self::pop_folded(&mut out, &root, &mut stack);
                }
                if let Some(parent) = stack.last_mut() {
                    parent.2 = parent.2.saturating_add(sp.dur_wu);
                }
                stack.push((sp.name.clone(), sp.dur_wu, 0));
                // Look-ahead: a leaf (next span not deeper) closes here.
                let next_depth = sh.spans.get(i + 1).map(|n| n.depth);
                if next_depth.is_none_or(|d| d <= sp.depth) {
                    Self::pop_folded(&mut out, &root, &mut stack);
                }
            }
            while !stack.is_empty() {
                Self::pop_folded(&mut out, &root, &mut stack);
            }
        }
        out
    }

    /// Close the innermost open span of a folded-profile walk, emitting its
    /// line when it has non-zero self work.
    fn pop_folded(out: &mut String, root: &[String], stack: &mut Vec<(String, u64, u64)>) {
        let Some((name, dur, children)) = stack.pop() else {
            return;
        };
        let self_wu = dur.saturating_sub(children);
        if self_wu > 0 {
            let mut path = root.join(";");
            for (n, _, _) in stack.iter() {
                path.push(';');
                path.push_str(n);
            }
            path.push(';');
            path.push_str(&name);
            let _ = writeln!(out, "{path} {self_wu}");
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::Recorder;

    /// Two persona shards under two stages, a counter, an aggregate and a
    /// volatile gauge.
    pub(crate) fn sample() -> Report {
        let rec = Recorder::new();
        rec.stage("marketplace", || {});
        rec.stage("persona.shards", || {
            for (i, name) in ["Connected Car", "Vanilla"].iter().enumerate() {
                let mut log = rec.shard("persona", i, name);
                log.alloc_open();
                log.span("install", |log| {
                    log.add("tap.packets", 12);
                    log.work(12);
                });
                log.work(1 + i as u64);
                log.alloc_seal();
                rec.submit(log);
            }
        });
        rec.count("crawler.bids", 7);
        rec.volatile_max("mem.peak_rss_kb", u64::MAX);
        rec.report()
    }

    #[test]
    fn tree_renders_all_sections() {
        let tree = sample().render_tree();
        assert!(tree.contains("marketplace"));
        assert!(tree.contains("shards [persona]"));
        assert!(tree.contains("Connected Car"));
        assert!(tree.contains("install"));
        assert!(tree.contains("tap.packets=12"));
        assert!(tree.contains("crawler.bids"));
        assert!(tree.contains("wu"));
        assert!(tree.contains("volatile"));
        assert!(tree.contains("mem.peak_rss_kb"));
    }

    #[test]
    fn json_exports_all_sections() {
        let j = sample().to_json().render();
        assert!(j.contains("\"stages\""));
        assert!(j.contains("\"persona\""));
        assert!(j.contains("\"Connected Car\""));
        assert!(j.contains("\"tap.packets\": 12"));
        assert!(j.contains("\"crawler.bids\""));
        assert!(j.contains("\"work\": 13"));
        assert!(j.contains("\"volatile\""));
        assert!(j.contains(&format!("\"mem.peak_rss_kb\": {}", u64::MAX)));
    }

    #[test]
    fn lookup_helpers() {
        let r = sample();
        assert_eq!(r.shards_in("persona").len(), 2);
        assert!(r.shards_in("nope").is_empty());
        assert!(r.stage("marketplace").is_some());
        assert!(r.stage("nope").is_none());
    }

    #[test]
    fn work_summaries_and_histograms_cover_groups_and_spans() {
        let r = sample();
        let summaries = r.work_summaries();
        // Shard totals: 13 and 14 work units.
        assert_eq!(summaries["persona"].count, 2);
        assert_eq!(summaries["persona"].min, 13);
        assert_eq!(summaries["persona"].max, 14);
        assert_eq!(summaries["persona"].sum, 27);
        let hists = r.work_histograms();
        assert_eq!(hists["persona"].total(), 2);
        assert_eq!(hists["persona:install"].total(), 2);
        // 12 wu twice → bucket [8, 16).
        assert_eq!(hists["persona:install"].sparse(), vec![(8, 16, 2)]);
    }

    #[test]
    fn folded_profile_attributes_self_work() {
        let rec = Recorder::new();
        rec.stage("persona.shards", || {
            let mut log = rec.shard("persona", 0, "Vanilla");
            log.span("install", |l| {
                l.work(3);
                l.span("retry", |l| l.work(5));
            });
            log.work(2);
            rec.submit(log);
        });
        let folded = rec.report().folded_profile();
        let mut lines: Vec<&str> = folded.lines().collect();
        lines.sort_unstable();
        assert_eq!(
            lines,
            vec![
                "persona.shards;persona;Vanilla 2",
                "persona.shards;persona;Vanilla;install 3",
                "persona.shards;persona;Vanilla;install;retry 5",
            ]
        );
    }

    #[test]
    fn ledger_surfaces_are_work_only() {
        let r = sample();
        let trace = r.ledger_trace_json().render();
        let memory = r.ledger_memory_json().render();
        assert!(trace.contains("\"start_wu\""));
        assert!(trace.contains("\"alloc_bytes\""));
        assert!(trace.contains("\"tap.packets\": 12"));
        assert!(trace.contains("\"aggregates\""));
        assert!(trace.contains("\"alloc.count\""));
        assert!(memory.contains("\"stage_alloc\""));
        assert!(memory.contains("\"size_histograms\""));
        assert!(memory.contains("\"alloc_peak_bytes\""));
        // Volatile gauges must never reach a ledger surface: the sample
        // report carries one, and no document may mention it (or the
        // section) at all. The same goes for every wall-clock and OS-level
        // number — peak RSS is volatile by definition.
        for doc in [&trace, &memory] {
            assert!(!doc.contains("volatile"), "ledger leaked volatile section");
            assert!(
                !doc.contains("mem.peak_rss_kb"),
                "ledger leaked a volatile gauge"
            );
            assert!(!doc.contains("\"ms\""), "ledger leaked wall clock");
            assert!(!doc.contains("rss"), "ledger leaked OS-level RSS");
            // Both carry the bundle schema version.
            let parsed = Json::parse(doc).unwrap();
            assert_eq!(
                parsed.get("schema").and_then(Json::as_u64),
                Some(crate::bundle::SCHEMA_VERSION)
            );
        }
        // The derived views are not stored: counter totals sum the shards.
        assert_eq!(r.counter_totals()["tap.packets"], 24);
    }

    #[test]
    fn memory_ledger_carries_the_allocation_plane() {
        let r = sample();
        let doc = r.ledger_memory_json();
        let stage = doc
            .get("stage_alloc")
            .and_then(|s| s.get("persona.shards"))
            .expect("persona.shards stage alloc");
        let stage_bytes = stage.get("bytes").and_then(Json::as_u64).unwrap();
        assert!(stage_bytes > 0, "sample shards allocate");
        let shards = doc.get("shards").and_then(Json::as_arr).unwrap();
        assert_eq!(shards.len(), 2);
        let shard_bytes: u64 = shards
            .iter()
            .map(|s| s.get("alloc_bytes").and_then(Json::as_u64).unwrap())
            .sum();
        assert_eq!(stage_bytes, shard_bytes);
        // Per-group summaries are derived from the shard rows, not stored.
        assert!(doc.get("summaries").is_none());
        let sizes = doc.get("size_histograms").and_then(|h| h.get("persona"));
        assert_eq!(sizes, Some(&r.alloc_sizes["persona"].to_json()));
        assert!(r.alloc_sizes["persona"].total() > 0);
    }
}
