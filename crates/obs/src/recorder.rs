//! The thread-safe collector and the process-wide recorder handle.
//!
//! Every mutation of the shared state below runs under an allocation-meter
//! [`pause`](crate::alloc::pause) guard: which thread first inserts an
//! aggregate name or extends the stage vector is a schedule artifact, and
//! metering it would break the byte-parity of the committed allocation
//! counters across `--jobs` values (DESIGN.md §15).

#![expect(
    clippy::disallowed_types,
    reason = "the recorder measures wall time by design; durations stay on the volatile channel and never reach committed bytes"
)]

use crate::alloc;
use crate::hist::Histogram;
use crate::report::{Aggregate, Report, ShardReport, StageRec};
use crate::shard::ShardLog;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

#[derive(Default)]
struct Inner {
    stages: Vec<StageRec>,
    stage_depth: usize,
    /// Indices of currently open stages, innermost last. A shard submitted
    /// while a stage is open attributes its work units to the innermost one;
    /// which stage is open at submit time is structural (the `par_map` runs
    /// inside the stage closure), so the attribution is schedule-independent.
    open_stages: Vec<usize>,
    /// Each shard's report with its window's allocation-size histogram,
    /// which the report keeps only merged per group.
    shards: BTreeMap<(String, usize), (ShardReport, Histogram)>,
    aggregates: BTreeMap<String, Aggregate>,
    /// Machine-dependent gauges (`mem.peak_rss_kb`). Diagnostic only —
    /// surfaced by the human-facing report views and **never** by the
    /// run-ledger surfaces, because they must not change committed bytes.
    volatile: BTreeMap<String, u64>,
}

/// Thread-safe trace/metrics collector.
///
/// One recorder observes one pipeline run. Shard logs submitted from worker
/// threads are keyed by `(group, structural index)` and merged in key order;
/// stage spans are recorded from the (sequential) orchestration thread;
/// aggregates are name-keyed order-independent sums. A disabled recorder
/// makes every operation a no-op, so instrumented code needs no `if`s.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    inner: Mutex<Inner>,
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder::new()
    }
}

impl Recorder {
    /// Lock the collector state, recovering from poisoning.
    ///
    /// A panic on another thread while it held the lock poisons the mutex;
    /// the collector's state is still structurally sound (every mutation is
    /// a single insert/increment), so observability keeps working instead of
    /// amplifying the original panic.
    fn locked(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// A recorder that collects everything.
    pub fn new() -> Recorder {
        Recorder {
            enabled: true,
            epoch: Instant::now(),
            inner: Mutex::new(Inner::default()),
        }
    }

    /// A recorder that collects nothing (the default for untraced runs).
    pub fn disabled() -> Recorder {
        Recorder {
            enabled: false,
            epoch: Instant::now(),
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Whether this recorder collects anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Time `f` as a named top-level pipeline stage.
    ///
    /// Stages nest (a `stage` call inside `f` records one level deeper) and
    /// are intended for the *sequential* orchestration path — per-worker
    /// events belong in a [`ShardLog`]. The lock is released while `f` runs,
    /// so nested stage calls do not deadlock.
    pub fn stage<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        self.stage_with(name, false, f)
    }

    /// [`Recorder::stage`] with an allocation window over `f` on the calling
    /// thread, charged to the stage and to the `alloc.*` run totals like a
    /// sealed shard window. Only for serial stages: a `par_map` inside `f`
    /// runs shards on this thread too, and would charge them twice.
    pub fn metered_stage<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        self.stage_with(name, true, f)
    }

    fn stage_with<R>(&self, name: &str, meter: bool, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let idx = {
            let _quiet = alloc::pause();
            let mut g = self.locked();
            let idx = g.stages.len();
            let depth = g.stage_depth;
            g.stages.push(StageRec {
                name: name.to_string(),
                depth,
                start_us: start.duration_since(self.epoch).as_micros() as u64,
                dur_us: 0,
                work: 0,
                alloc_count: 0,
                alloc_bytes: 0,
                peak_rss_kb: 0,
            });
            g.stage_depth += 1;
            g.open_stages.push(idx);
            idx
        };
        let before = alloc::snapshot();
        let out = f();
        // Read before the /proc sample below, which allocates.
        let after = alloc::snapshot();
        // Sampled outside the lock: a /proc read is slow for a guard scope.
        let rss_kb = alloc::peak_rss_kb();
        let _quiet = alloc::pause();
        let mut g = self.locked();
        g.stage_depth -= 1;
        g.open_stages.pop();
        if let Some(stage) = g.stages.get_mut(idx) {
            stage.dur_us = start.elapsed().as_micros() as u64;
            // OS-level high-water mark at stage close: schedule-dependent
            // like dur_us, shown by the human views, excluded from every
            // ledger surface.
            stage.peak_rss_kb = rss_kb;
        }
        if meter {
            let (count, bytes) = (after.count - before.count, after.bytes - before.bytes);
            if let Some(stage) = g.stages.get_mut(idx) {
                stage.alloc_count += count;
                stage.alloc_bytes += bytes;
            }
            add_alloc_totals(&mut g.aggregates, count, bytes);
        }
        if rss_kb > 0 {
            let v = g.volatile.entry("mem.peak_rss_kb".to_string()).or_insert(0);
            *v = (*v).max(rss_kb);
        }
        out
    }

    /// Open a shard log for the unit of work at `index` within `group`.
    ///
    /// The log is filled lock-free by the owning worker and handed back via
    /// [`Recorder::submit`].
    pub fn shard(&self, group: &str, index: usize, label: &str) -> ShardLog {
        let _quiet = alloc::pause();
        ShardLog::new(group, index, label, self.enabled)
    }

    /// Merge a finished shard log into the recorder.
    ///
    /// Storage is keyed by `(group, index)`, so the merged order — and
    /// therefore the report structure — is independent of submission order.
    /// The shard's virtual work total is attributed to the innermost open
    /// stage (structurally fixed: every shard of a `par_map` is submitted
    /// while its owning stage is open), giving stages a deterministic work
    /// figure alongside their wall-clock one.
    pub fn submit(&self, log: ShardLog) {
        if !self.enabled || !log.is_enabled() {
            return;
        }
        let total_us = log.origin.elapsed().as_micros() as u64;
        let work = log.work_total();
        let _quiet = alloc::pause();
        let mut g = self.locked();
        let stage = match g.open_stages.last().copied() {
            Some(si) => {
                if let Some(s) = g.stages.get_mut(si) {
                    s.work += work;
                    // The shard's sealed allocation window attributes to
                    // the innermost open stage exactly like its work units:
                    // structural, therefore schedule-independent.
                    s.alloc_count += log.alloc_count;
                    s.alloc_bytes += log.alloc_bytes;
                    s.name.clone()
                } else {
                    String::new()
                }
            }
            None => String::new(),
        };
        if log.alloc_count > 0 || log.alloc_bytes > 0 {
            add_alloc_totals(&mut g.aggregates, log.alloc_count, log.alloc_bytes);
            let a = g
                .aggregates
                .entry("alloc.peak_bytes".to_string())
                .or_default();
            a.count += log.alloc_peak;
            a.calls += 1;
        }
        g.shards.insert(
            (log.group.clone(), log.index),
            (
                ShardReport {
                    group: log.group,
                    index: log.index,
                    label: log.label,
                    stage,
                    total_us,
                    work,
                    alloc_count: log.alloc_count,
                    alloc_bytes: log.alloc_bytes,
                    alloc_peak: log.alloc_peak,
                    spans: log.spans,
                    counters: log.counters,
                },
                log.alloc_sizes,
            ),
        );
    }

    /// Add `n` to a name-keyed aggregate counter.
    pub fn count(&self, name: &str, n: u64) {
        if !self.enabled || n == 0 {
            return;
        }
        let _quiet = alloc::pause();
        let mut g = self.locked();
        update_aggregate(&mut g.aggregates, name, |a| a.count += n);
    }

    /// Time `f` into a name-keyed aggregate (one call, its duration added).
    ///
    /// This is the instrumentation point for leaf libraries (MWU tests,
    /// crawler visits) where per-call spans would be noise:
    /// totals are order-independent sums, so the aggregate is deterministic
    /// in everything but wall time.
    pub fn time<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let elapsed_us = start.elapsed().as_micros() as u64;
        let _quiet = alloc::pause();
        let mut g = self.locked();
        update_aggregate(&mut g.aggregates, name, |a| {
            a.calls += 1;
            a.total_us += elapsed_us;
        });
        out
    }

    /// Raise a name-keyed **volatile** gauge to at least `v`.
    ///
    /// Volatile values record how this machine behaved (peak RSS) rather
    /// than what the pipeline computed. They show up in
    /// [`Report::render_tree`] and [`Report::to_json`] but are excluded from
    /// every run-ledger surface, so they may legitimately differ between
    /// byte-identical runs.
    ///
    /// [`Report::render_tree`]: crate::Report::render_tree
    /// [`Report::to_json`]: crate::Report::to_json
    pub fn volatile_max(&self, name: &str, v: u64) {
        if !self.enabled || v == 0 {
            return;
        }
        let _quiet = alloc::pause();
        let mut g = self.locked();
        let cur = g.volatile.entry(name.to_string()).or_insert(0);
        *cur = (*cur).max(v);
    }

    /// An immutable snapshot of everything recorded so far.
    pub fn report(&self) -> Report {
        let _quiet = alloc::pause();
        let g = self.locked();
        let mut alloc_sizes: BTreeMap<String, Histogram> = BTreeMap::new();
        for (shard, sizes) in g.shards.values() {
            alloc_sizes
                .entry(shard.group.clone())
                .or_default()
                .merge(sizes);
        }
        Report {
            stages: g.stages.clone(),
            shards: g.shards.values().map(|(shard, _)| shard.clone()).collect(),
            aggregates: g.aggregates.clone(),
            alloc_sizes,
            volatile: g.volatile.clone(),
        }
    }
}

static GLOBAL: RwLock<Option<Arc<Recorder>>> = RwLock::new(None);

/// Install (or replace) the process-wide recorder handle.
///
/// Libraries too deep to thread a recorder through (stats, the crawler)
/// report to this handle via [`agg_count`] / [`agg_time`]; when nothing is
/// installed those are no-ops. The handle is **swappable** so sequential
/// multi-run drivers — the campaign runner executes one audit per cell —
/// can give every run its own recorder without cross-run aggregate
/// contamination. Swapping while an instrumented run is in flight would
/// split that run's aggregates across recorders; callers swap only between
/// runs. Returns `true` when a previously installed handle was replaced.
pub fn install_global(rec: Arc<Recorder>) -> bool {
    let mut g = GLOBAL.write().unwrap_or_else(|p| p.into_inner());
    g.replace(rec).is_some()
}

/// The installed process-wide recorder handle, if any.
pub fn global() -> Option<Arc<Recorder>> {
    GLOBAL
        .read()
        .unwrap_or_else(|p| p.into_inner())
        .as_ref()
        .map(Arc::clone)
}

/// Add to a name-keyed aggregate on the global recorder (no-op when absent).
pub fn agg_count(name: &str, n: u64) {
    if let Some(rec) = global() {
        rec.count(name, n);
    }
}

/// Time `f` into a name-keyed aggregate on the global recorder.
///
/// When no recorder is installed (or it is disabled) `f` runs directly with
/// zero overhead beyond the lock probe.
pub fn agg_time<R>(name: &str, f: impl FnOnce() -> R) -> R {
    match global() {
        Some(rec) => rec.time(name, f),
        None => f(),
    }
}

/// Add one allocation window to the `alloc.count`/`alloc.bytes` run totals
/// (the caller holds the lock). Empty windows are not counted.
fn add_alloc_totals(aggregates: &mut BTreeMap<String, Aggregate>, count: u64, bytes: u64) {
    if count == 0 && bytes == 0 {
        return;
    }
    for (name, n) in [("alloc.count", count), ("alloc.bytes", bytes)] {
        let a = aggregates.entry(name.to_string()).or_default();
        a.count += n;
        a.calls += 1;
    }
}

/// Apply `f` to the aggregate called `name`, allocating its key only on
/// the first call: the hot instrumentation points hit existing names.
fn update_aggregate(
    aggregates: &mut BTreeMap<String, Aggregate>,
    name: &str,
    f: impl FnOnce(&mut Aggregate),
) {
    match aggregates.get_mut(name) {
        Some(a) => f(a),
        None => f(aggregates.entry(name.to_string()).or_default()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stages_nest_and_close() {
        let rec = Recorder::new();
        let v = rec.stage("outer", || {
            // Keep the stage measurably long: a sub-microsecond closure can
            // legitimately round to dur_us == 0 and flake the assert below.
            std::thread::sleep(std::time::Duration::from_micros(100));
            rec.stage("inner", || 1) + rec.stage("inner2", || 2)
        });
        assert_eq!(v, 3);
        let r = rec.report();
        let shape: Vec<(&str, usize)> = r
            .stages
            .iter()
            .map(|s| (s.name.as_str(), s.depth))
            .collect();
        assert_eq!(shape, vec![("outer", 0), ("inner", 1), ("inner2", 1)]);
        assert!(r.stages.iter().all(|s| s.dur_us > 0 || s.name != "outer"));
    }

    #[test]
    fn submit_order_does_not_matter() {
        let order_a = Recorder::new();
        let order_b = Recorder::new();
        for (rec, order) in [(&order_a, [0usize, 1, 2]), (&order_b, [2, 0, 1])] {
            for i in order {
                let mut log = rec.shard("persona", i, &format!("p{i}"));
                log.add("flows", (i as u64 + 1) * 10);
                log.span("work", |_| {});
                rec.submit(log);
            }
        }
        let (a, b) = (order_a.report(), order_b.report());
        assert_eq!(
            a.ledger_trace_json().render(),
            b.ledger_trace_json().render()
        );
        assert_eq!(
            a.ledger_memory_json().render(),
            b.ledger_memory_json().render()
        );
        assert_eq!(a.shards.len(), 3);
        assert_eq!(a.shards[0].label, "p0");
        assert_eq!(a.shards[2].counters["flows"], 30);
    }

    #[test]
    fn shard_work_attributes_to_the_open_stage() {
        let rec = Recorder::new();
        rec.stage("outer", || {
            rec.stage("persona.shards", || {
                for i in 0..2 {
                    let mut log = rec.shard("persona", i, &format!("p{i}"));
                    log.span("install", |l| l.work(10 + i as u64));
                    rec.submit(log);
                }
            });
        });
        // A shard submitted with no stage open stays unattributed.
        let mut stray = rec.shard("artifact", 0, "stray");
        stray.work(5);
        rec.submit(stray);
        let r = rec.report();
        let works: Vec<(&str, u64)> = r.stages.iter().map(|s| (s.name.as_str(), s.work)).collect();
        assert_eq!(works, vec![("outer", 0), ("persona.shards", 21)]);
        assert_eq!(r.shards[1].stage, "persona.shards");
        assert_eq!(r.shards[1].work, 10);
        assert_eq!(r.shards[2].work, 11);
        assert_eq!(r.shards[0].stage, "");
        assert_eq!(r.shards[0].work, 5);
    }

    #[test]
    fn aggregates_sum_across_calls() {
        let rec = Recorder::new();
        rec.count("resamples", 256);
        rec.count("resamples", 44);
        let v = rec.time("visit", || 5);
        assert_eq!(v, 5);
        rec.time("visit", || ());
        let r = rec.report();
        assert_eq!(r.aggregates["resamples"].count, 300);
        assert_eq!(r.aggregates["visit"].calls, 2);
    }

    #[test]
    fn disabled_recorder_collects_nothing() {
        let rec = Recorder::disabled();
        assert!(!rec.is_enabled());
        rec.stage("s", || {
            rec.count("c", 1);
        });
        let mut log = rec.shard("g", 0, "l");
        log.add("c", 1);
        rec.submit(log);
        rec.time("t", || ());
        rec.volatile_max("mem.peak_rss_kb", 1);
        let r = rec.report();
        assert!(r.stages.is_empty() && r.shards.is_empty() && r.aggregates.is_empty());
        assert!(r.volatile.is_empty());
    }

    #[test]
    fn shard_alloc_attributes_to_the_open_stage_and_aggregates() {
        let rec = Recorder::new();
        rec.stage("persona.shards", || {
            for i in 0..2 {
                let mut log = rec.shard("persona", i, &format!("p{i}"));
                log.alloc_open();
                let _scratch: Vec<String> = (0..64).map(|n| format!("u-{n}")).collect();
                log.work(1);
                log.alloc_seal();
                rec.submit(log);
            }
        });
        let r = rec.report();
        let stage = &r.stages[0];
        assert!(stage.alloc_count > 0);
        assert!(stage.alloc_bytes > 0);
        assert_eq!(
            stage.alloc_count,
            r.shards.iter().map(|s| s.alloc_count).sum::<u64>()
        );
        assert_eq!(r.aggregates["alloc.count"].count, stage.alloc_count);
        assert_eq!(r.aggregates["alloc.bytes"].count, stage.alloc_bytes);
        assert_eq!(r.aggregates["alloc.count"].calls, 2);
        assert!(r.aggregates["alloc.peak_bytes"].count > 0);
        // Both shards ran the identical workload: identical deltas.
        assert_eq!(r.shards[0].alloc_count, r.shards[1].alloc_count);
        assert_eq!(r.shards[0].alloc_bytes, r.shards[1].alloc_bytes);
        let sizes = r.alloc_sizes["persona"].sparse();
        assert!(!sizes.is_empty() && sizes.iter().all(|(_, _, n)| n % 2 == 0));
        // Stage close sampled the OS high-water mark (Linux CI boxes).
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(stage.peak_rss_kb > 0);
            assert!(r.volatile["mem.peak_rss_kb"] >= stage.peak_rss_kb);
        }
    }

    #[test]
    fn metered_stage_charges_its_thread_and_the_totals() {
        let rec = Recorder::new();
        let built = rec.metered_stage("index.build", || {
            (0..64).map(|n| format!("h-{n}")).collect::<Vec<String>>()
        });
        rec.stage("render.all", || {
            let mut log = rec.shard("artifact", 0, "table1");
            log.alloc_open();
            let _scratch = vec![0u8; 4096];
            log.alloc_seal();
            rec.submit(log);
            // An unmetered stage charges only its shards' windows.
            let _unmetered = vec![0u8; 1 << 16];
        });
        let r = rec.report();
        let build = r.stage("index.build").unwrap();
        assert_eq!(build.alloc_count, 65, "64 strings and their vector");
        assert!(build.alloc_bytes >= 64 * 3 + 64 * std::mem::size_of::<String>() as u64);
        let render = r.stage("render.all").unwrap();
        assert_eq!(render.alloc_bytes, r.shards[0].alloc_bytes);
        // The run totals are the sum of the stages' figures.
        let sum = |f: fn(&StageRec) -> u64| r.stages.iter().map(f).sum::<u64>();
        assert_eq!(r.aggregates["alloc.count"].count, sum(|s| s.alloc_count));
        assert_eq!(r.aggregates["alloc.bytes"].count, sum(|s| s.alloc_bytes));
        assert_eq!(r.aggregates["alloc.bytes"].calls, 2);
        assert_eq!(built.len(), 64);
    }

    #[test]
    fn volatile_max_keeps_the_high_water_mark() {
        let rec = Recorder::new();
        rec.volatile_max("mem.peak_rss_kb", 100);
        rec.volatile_max("mem.peak_rss_kb", 700);
        rec.volatile_max("mem.peak_rss_kb", 300);
        rec.volatile_max("mem.peak_rss_kb", 0);
        assert_eq!(rec.report().volatile["mem.peak_rss_kb"], 700);
    }

    #[test]
    fn global_install_is_swappable() {
        // The global is process-wide and other tests may swap it too, so
        // assert only on the recorder this test installed last: after a
        // swap, aggregates must flow to the new handle and never to the
        // replaced one.
        let first = Arc::new(Recorder::new());
        install_global(first.clone());
        let second = Arc::new(Recorder::new());
        let replaced = install_global(second.clone());
        assert!(replaced, "the first handle must have been replaced");
        agg_count("global.counter", 2);
        agg_time("global.timer", || ());
        let r = second.report();
        // Concurrent tests may also install; only check the "never the
        // replaced one" half unconditionally.
        assert!(first.report().aggregates.is_empty());
        if !r.aggregates.is_empty() {
            assert_eq!(r.aggregates["global.counter"].count, 2);
            assert_eq!(r.aggregates["global.timer"].calls, 1);
        }
    }
}
