//! The traced run: per-layer metrics from items replayed in-process.
//!
//! The benchmark records spans from its own code around each layer's public
//! entry point (`AuditRun::execute_with`, `render_all`, `write_bundle`,
//! `load_bundle`, `run_campaign_with`) and folds in, as child spans, the
//! stage and shard records the program's `Recorder` already emits. Every
//! workload's trace drives every layer, so every per-layer metric exists on
//! every workload; the workload decides the fault profile, the defense and
//! the worker count the layers see.

use crate::measure::{run_repro, Budget};
use crate::reference::Reference;
use crate::stats::{interquartile_mean, median, self_time};
use crate::workload::{
    campaign_plan, cell_id, check_campaign, check_report, item_seed, report_args, report_shape_ok,
    Check, Workload, CAMPAIGN_DEFENSES, CAMPAIGN_FAULTS, CAMPAIGN_JOBS,
};
use crate::{fnv1a64, hardware_threads, metric_json, read_json, render_json, Paths};
use alexa_audit::{AuditConfig, AuditRun, DefenseMode};
use alexa_bench::campaign::run_campaign_with;
use alexa_bench::{render_all, ARTIFACTS};
use alexa_fault::FaultProfile;
use alexa_obs::bundle::{write_bundle, BundleSpec};
use alexa_obs::{install_global, Json, Recorder, Report};
use alexa_obsdiff::load_bundle;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Per-layer metrics with a fixed name: name, unit, which way is better.
const FIXED_LAYER_METRICS: [(&str, &str, &str); 47] = [
    ("audit.execute_ms", "ms", "lower"),
    ("audit.execute_unattributed_ms", "ms", "lower"),
    ("audit.avs_pass_ms", "ms", "lower"),
    ("audit.avs_pass_alloc_mb", "MB", "lower"),
    ("audit.merge_ms", "ms", "lower"),
    ("audit.persona_shards_ms", "ms", "lower"),
    ("audit.persona_shards_alloc_mb", "MB", "lower"),
    ("audit.persona_shards_allocs", "count", "lower"),
    ("platform.boot_ms", "ms", "lower"),
    ("platform.dsar_ms", "ms", "lower"),
    ("audit.install_ms", "ms", "lower"),
    ("audit.interact_ms", "ms", "lower"),
    ("adtech.crawl_ms", "ms", "lower"),
    ("adtech.audio_ms", "ms", "lower"),
    ("net.tap_flows", "count", "lower"),
    ("net.tap_bytes", "bytes", "lower"),
    ("net.tap_sessions", "count", "lower"),
    ("adtech.web_ecosystem_ms", "ms", "lower"),
    ("adtech.crawler_visit_ms", "ms", "lower"),
    ("adtech.crawler_visits", "count", "lower"),
    ("adtech.bids", "count", "lower"),
    ("platform.marketplace_ms", "ms", "lower"),
    ("policy.download_ms", "ms", "lower"),
    ("policy.documents", "count", "lower"),
    ("audit.index_build_ms", "ms", "lower"),
    ("audit.derive_defended_ms", "ms", "lower"),
    ("audit.index_defended_ms", "ms", "lower"),
    ("audit.rss_after_defended_mb", "MB", "lower"),
    ("bench.render_all_ms", "ms", "lower"),
    ("bench.render_all_alloc_mb", "MB", "lower"),
    ("stats.mwu_ms", "ms", "lower"),
    ("stats.mwu_tests", "count", "lower"),
    ("exec.persona_efficiency", "ratio", "higher"),
    ("exec.persona_critical_ms", "ms", "lower"),
    ("exec.render_efficiency", "ratio", "higher"),
    ("fault.injected", "count", "lower"),
    ("fault.retries", "count", "lower"),
    ("fault.losses", "count", "lower"),
    ("fault.coverage_ratio", "ratio", "higher"),
    ("obs.recorder_overhead_ratio", "ratio", "lower"),
    ("obs.bundle_write_ms", "ms", "lower"),
    ("obsdiff.bundle_load_ms", "ms", "lower"),
    ("bench.campaign_cells_ms", "ms", "lower"),
    ("bench.campaign_verify_ms", "ms", "lower"),
    ("bench.campaign_tables_ms", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("render.other_ms", "ms", "lower"),
];

/// Artifacts timed one by one (`render.<artifact>_ms`): each takes a
/// quarter of a millisecond or more. The other eight take tens of
/// microseconds together and are summed into `render.other_ms`.
pub const TIMED_ARTIFACTS: [&str; 17] = [
    "table1", "figure2", "table5", "table6", "figure3", "table7", "table8", "table10", "figure6",
    "table11", "figure7", "table13", "table13p", "table14", "validate", "liars", "defenses",
];

/// Every per-layer metric: the fixed ones plus `render.<artifact>_ms` for
/// each of [`TIMED_ARTIFACTS`].
pub fn per_layer_metrics() -> Vec<(String, &'static str, &'static str)> {
    let mut all: Vec<_> = FIXED_LAYER_METRICS
        .iter()
        .map(|&(n, u, b)| (n.to_string(), u, b))
        .collect();
    all.extend(
        TIMED_ARTIFACTS
            .iter()
            .map(|a| (format!("render.{a}_ms"), "ms", "lower")),
    );
    all
}

/// Who recorded a span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// The benchmark, around a call into a layer.
    Benchmark,
    /// The program's own `Recorder` (a stage, a shard or a shard span).
    Program,
}

/// One span. Times are microseconds since the trace started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span name: a layer entry point, a program stage, `group:label` for a
    /// shard, or a shard span's name.
    pub name: String,
    /// The item it belongs to.
    pub item: String,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start.
    pub start_us: f64,
    /// End.
    pub end_us: f64,
    /// Who recorded it.
    pub source: Source,
}

/// The in-memory span store, written out once when the run ends.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    /// Every span recorded so far.
    pub spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    /// Microseconds since the trace started.
    pub fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_nanos() as f64 / 1e3
    }

    /// Record `f` as a benchmark span.
    pub fn span<R>(
        &mut self,
        name: &str,
        item: &str,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (usize, R) {
        let start_us = self.now_us();
        let out = f();
        let end_us = self.now_us();
        let id = self.push(Span {
            name: name.to_string(),
            item: item.to_string(),
            parent,
            start_us,
            end_us,
            source: Source::Benchmark,
        });
        (id, out)
    }

    fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Milliseconds span `id` lasted.
    pub fn dur_ms(&self, id: usize) -> f64 {
        (self.spans[id].end_us - self.spans[id].start_us) / 1e3
    }

    /// The intervals of span `id`'s direct children.
    pub fn children(&self, id: usize) -> Vec<(f64, f64)> {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_us, s.end_us))
            .collect()
    }

    /// Span `id`'s self time in milliseconds.
    pub fn self_ms(&self, id: usize) -> f64 {
        let s = &self.spans[id];
        self_time(s.start_us, s.end_us, &self.children(id)) / 1e3
    }

    /// Fold a recorder's stages and shards in as program spans.
    ///
    /// `epoch_us` is when the recorder was created. A top-level stage
    /// becomes a child of the benchmark span in `parents` that was open
    /// while it ran; nested stages follow their depth. The program
    /// records how long each shard took but not when it started, so a shard
    /// is placed at the start of the stage it ran under, and its spans at
    /// their recorded offsets from there.
    pub fn fold(&mut self, report: &Report, epoch_us: f64, item: &str, parents: &[usize]) {
        let mut stage_ids = Vec::with_capacity(report.stages.len());
        let mut open: Vec<usize> = Vec::new();
        for stage in &report.stages {
            let start_us = epoch_us + stage.start_us as f64;
            // The stage's midpoint, not its start: the program truncates
            // times to whole microseconds, so a stage opened right after
            // its benchmark span can appear to start a fraction before it.
            let mid_us = start_us + stage.dur_us as f64 / 2.0;
            let parent = if stage.depth == 0 {
                parents
                    .iter()
                    .copied()
                    .find(|&p| self.spans[p].start_us <= mid_us && mid_us < self.spans[p].end_us)
            } else {
                open.get(stage.depth - 1).copied()
            };
            let id = self.push(Span {
                name: stage.name.clone(),
                item: item.to_string(),
                parent,
                start_us,
                end_us: start_us + stage.dur_us as f64,
                source: Source::Program,
            });
            open.truncate(stage.depth);
            open.push(id);
            stage_ids.push(id);
        }
        for shard in &report.shards {
            let parent = report
                .stages
                .iter()
                .rposition(|s| s.name == shard.stage)
                .map(|i| stage_ids[i]);
            let start_us = parent.map_or(epoch_us, |p| self.spans[p].start_us);
            let id = self.push(Span {
                name: format!("{}:{}", shard.group, shard.label),
                item: item.to_string(),
                parent,
                start_us,
                end_us: start_us + shard.total_us as f64,
                source: Source::Program,
            });
            let mut open = vec![id];
            for span in &shard.spans {
                open.truncate(span.depth + 1);
                let s = start_us + span.start_us as f64;
                let child = self.push(Span {
                    name: span.name.clone(),
                    item: item.to_string(),
                    parent: open.last().copied(),
                    start_us: s,
                    end_us: s + span.dur_us as f64,
                    source: Source::Program,
                });
                open.push(child);
            }
        }
    }

    /// The span file: one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let line = Json::Obj(vec![
                ("id".into(), Json::Int(id as u64)),
                ("name".into(), Json::Str(s.name.clone())),
                ("item".into(), Json::Str(s.item.clone())),
                (
                    "parent".into(),
                    s.parent.map_or(Json::Null, |p| Json::Int(p as u64)),
                ),
                ("start_us".into(), Json::Float(s.start_us)),
                ("end_us".into(), Json::Float(s.end_us)),
                (
                    "source".into(),
                    Json::Str(
                        match s.source {
                            Source::Benchmark => "benchmark",
                            Source::Program => "program",
                        }
                        .into(),
                    ),
                ),
            ]);
            out.push_str(&render_json(&line));
            out.push('\n');
        }
        out
    }
}

/// One traced item's configuration.
#[derive(Debug, Clone, Copy)]
struct ItemSpec {
    seed: u64,
    fault: &'static str,
    defense: &'static str,
    jobs: Option<usize>,
}

impl ItemSpec {
    /// Item `i` of `workload`. Campaign items cycle through the plan's
    /// four identities of each seed, sequentially (jobs 1), as its jobs-1
    /// cells run.
    fn of(workload: Workload, base: u64, i: usize) -> ItemSpec {
        match workload {
            Workload::Campaign => ItemSpec {
                seed: item_seed(base, i / 4),
                fault: CAMPAIGN_FAULTS[i % 4 / 2],
                defense: CAMPAIGN_DEFENSES[i % 2],
                jobs: Some(1),
            },
            _ => ItemSpec {
                seed: item_seed(base, i),
                fault: workload.fault(),
                defense: "none",
                jobs: None,
            },
        }
    }

    fn fault_profile(&self) -> FaultProfile {
        self.fault
            .parse()
            .expect("benchmark fault names are presets")
    }

    fn defense_mode(&self) -> DefenseMode {
        match self.defense {
            "firewall" => DefenseMode::Firewall,
            _ => DefenseMode::None,
        }
    }

    /// Worker threads a fan-out of `shards` units uses.
    fn workers(&self, shards: usize, clamp: bool) -> usize {
        let hw = hardware_threads();
        let requested = self.jobs.unwrap_or(hw);
        let workers = if clamp { requested.min(hw) } else { requested };
        workers.clamp(1, shards.max(1))
    }
}

/// Everything a traced workload run measured.
#[derive(Debug)]
pub struct TraceRun {
    /// The workload.
    pub workload: Workload,
    /// Base seed.
    pub base_seed: u64,
    /// Per-layer samples by metric name.
    pub samples: BTreeMap<String, Vec<f64>>,
    /// One check per traced unit (items and the campaign probe).
    pub checks: Vec<(String, Check)>,
    /// Every span.
    pub tracer: Tracer,
}

impl TraceRun {
    /// Units checked.
    pub fn attempted(&self) -> usize {
        self.checks.len()
    }

    /// Units that failed.
    pub fn failed(&self) -> usize {
        self.checks
            .iter()
            .filter(|(_, c)| matches!(c, Check::Failed(_)))
            .count()
    }

    /// Every per-layer metric with samples, as `(name, document)`.
    ///
    /// The value is the interquartile mean over the traced items, printed
    /// with the median, minimum and maximum; the two overhead ratios divide
    /// the interquartile means of their two sample sets.
    pub fn metrics(&self) -> Vec<(String, Json)> {
        let samples = |name: &str| self.samples.get(name).filter(|v| !v.is_empty());
        per_layer_metrics()
            .into_iter()
            .filter_map(|(name, unit, _)| {
                let ratio_of = match name.as_str() {
                    "obs.recorder_overhead_ratio" => {
                        Some(("audit.execute_ms", "untraced.execute_ms"))
                    }
                    "trace.overhead_ratio" => Some(("traced.item_ms", "untraced.item_ms")),
                    _ => None,
                };
                let doc = match ratio_of {
                    Some((num, den)) => {
                        let (a, b) = (samples(num)?, samples(den)?);
                        let value = interquartile_mean(a) / interquartile_mean(b);
                        metric_json(value, unit, a.len().min(b.len()))
                    }
                    None => {
                        let v = samples(&name)?;
                        let mut m = metric_json(interquartile_mean(v), unit, v.len());
                        let min = v.iter().copied().fold(f64::INFINITY, f64::min);
                        let max = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                        if let Json::Obj(fields) = &mut m {
                            fields.push(("median".into(), Json::Float(median(v))));
                            fields.push(("min".into(), Json::Float(min)));
                            fields.push(("max".into(), Json::Float(max)));
                        }
                        m
                    }
                };
                Some((name, doc))
            })
            .collect()
    }

    /// The workload's trace result document.
    pub fn to_json(&self) -> Json {
        let metrics = self.metrics();
        let count = |want: fn(&Check) -> bool| {
            Json::Int(self.checks.iter().filter(|(_, c)| want(c)).count() as u64)
        };
        let failures = self
            .checks
            .iter()
            .filter_map(|(item, c)| match c {
                Check::Failed(why) => Some(Json::Str(format!("{item}: {why}"))),
                _ => None,
            })
            .collect();
        Json::Obj(vec![
            ("workload".into(), Json::Str(self.workload.name().into())),
            ("base_seed".into(), Json::Int(self.base_seed)),
            ("attempted".into(), Json::Int(self.attempted() as u64)),
            ("failed".into(), Json::Int(self.failed() as u64)),
            ("checked_exact".into(), count(|c| *c == Check::Exact)),
            ("checked_contract".into(), count(|c| *c == Check::Contract)),
            ("failures".into(), Json::Arr(failures)),
            ("spans".into(), Json::Int(self.tracer.spans.len() as u64)),
            ("metrics".into(), Json::Obj(metrics)),
            (
                "samples".into(),
                Json::Obj(
                    self.samples
                        .iter()
                        .map(|(k, v)| {
                            (
                                k.clone(),
                                Json::Arr(v.iter().map(|x| Json::Float(*x)).collect()),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Combine the checks of one unit: failed if any failed, exact if all were.
fn combine(checks: Vec<Check>) -> Check {
    if let Some(failed) = checks.iter().find(|c| matches!(c, Check::Failed(_))) {
        return failed.clone();
    }
    if checks.iter().all(|c| *c == Check::Exact) {
        Check::Exact
    } else {
        Check::Contract
    }
}

struct Tracing<'a> {
    repro: &'a Path,
    work: PathBuf,
    workload: Workload,
    reference: Reference,
    run: TraceRun,
}

impl Tracing<'_> {
    fn sample(&mut self, name: &str, value: f64) {
        self.run
            .samples
            .entry(name.to_string())
            .or_default()
            .push(value);
    }

    /// `run_campaign_with` on a 2-seed plan over the workload's axes.
    fn campaign_probe(&mut self, base: u64) -> Check {
        let single = [self.workload.fault()];
        let faults: &[&str] = match self.workload {
            Workload::Campaign => CAMPAIGN_FAULTS,
            _ => &single,
        };
        let seeds = [item_seed(base, 0), item_seed(base, 1)];
        let plan = self.work.join("probe-plan.json");
        let out = self.work.join("probe-campaign");
        let _ = std::fs::remove_dir_all(&out);
        let text = campaign_plan("probe", &seeds, faults, CAMPAIGN_DEFENSES, CAMPAIGN_JOBS);
        if let Err(e) = std::fs::write(&plan, text) {
            return Check::Failed(format!("{}: {e}", plan.display()));
        }
        let rec = Recorder::new();
        let epoch_us = self.run.tracer.now_us();
        let (span, result) = self
            .run
            .tracer
            .span("bench.campaign", "campaign", None, || {
                run_campaign_with(&plan, Some(&out), &rec, &[])
            });
        let report = rec.report();
        self.run.tracer.fold(&report, epoch_us, "campaign", &[span]);
        let check = match result {
            Ok(summary) => {
                let manifest = read_json(&out.join("campaign.json")).ok();
                let cells =
                    seeds.len() * faults.len() * CAMPAIGN_DEFENSES.len() * CAMPAIGN_JOBS.len();
                check_campaign(
                    Some(0),
                    summary.render().as_bytes(),
                    manifest.as_ref(),
                    cells,
                    |id| self.reference.cell_digest(id),
                )
            }
            Err(e) => Check::Failed(e.to_string()),
        };
        for (metric, stage) in [
            ("bench.campaign_cells_ms", "campaign.cells"),
            ("bench.campaign_verify_ms", "campaign.verify"),
            ("bench.campaign_tables_ms", "campaign.tables"),
        ] {
            if let Some(s) = report.stage(stage) {
                self.sample(metric, s.dur_us as f64 / 1e3);
            }
        }
        let _ = std::fs::remove_dir_all(&out);
        check
    }

    /// The untraced and traced `repro` processes of one item: the first
    /// times the whole program untraced, the second reports the high-water
    /// RSS when the defended indices are built.
    fn subprocesses(&mut self, spec: &ItemSpec) -> Vec<Check> {
        let report_workload = match spec.fault {
            "flaky" => Workload::ReportFlaky,
            _ => Workload::Report,
        };
        let args = report_args(spec.seed, spec.fault);
        let mut checks = Vec::new();
        match run_repro(self.repro, &args) {
            Ok(f) => {
                self.sample("untraced.item_ms", f.ms);
                let want = self.reference.report_digest(report_workload, spec.seed);
                checks.push(check_report(
                    report_workload,
                    f.code,
                    &f.stdout,
                    f.digest,
                    want,
                ));
            }
            Err(e) => checks.push(Check::Failed(e)),
        }
        let metrics = self.work.join("item-metrics.json");
        let mut traced = vec!["--metrics-out".to_string(), metrics.display().to_string()];
        traced.extend(args);
        match run_repro(self.repro, &traced) {
            Ok(f) if f.code.is_some_and(|c| report_workload.exit_ok(c)) => {
                let rss = read_json(&metrics).ok().and_then(|m| {
                    m.get("stages")?
                        .as_arr()?
                        .iter()
                        .find(|s| s.get("name").and_then(Json::as_str) == Some("index.defended"))?
                        .get("peak_rss_kb")?
                        .as_f64()
                });
                match rss {
                    Some(kb) => self.sample("audit.rss_after_defended_mb", kb * 1024.0 / 1e6),
                    None => checks.push(Check::Failed("metrics lack index.defended".into())),
                }
            }
            Ok(f) => checks.push(Check::Failed(format!("traced exit {:?}", f.code))),
            Err(e) => checks.push(Check::Failed(e)),
        }
        checks
    }

    /// One traced item: the two subprocesses, then the in-process replay
    /// with spans, and an untraced in-process execute for the recorder's
    /// overhead (alternately before and after, so neither runs warmer).
    fn item(&mut self, i: usize, spec: ItemSpec) -> Check {
        let label = format!("item{i}-s{}", spec.seed);
        let mut checks = self.subprocesses(&spec);
        let fault = spec.fault_profile();
        let config = AuditConfig::paper(spec.seed)
            .with_faults(fault.clone())
            .with_defense(spec.defense_mode())
            .with_jobs(spec.jobs);
        let untraced = |config: AuditConfig| {
            install_global(Arc::new(Recorder::disabled()));
            let start = Instant::now();
            let obs = AuditRun::execute_with(config, &Recorder::disabled());
            let ms = start.elapsed().as_secs_f64() * 1e3;
            drop(std::hint::black_box(obs));
            ms
        };
        let untraced_first = i.is_multiple_of(2);
        if untraced_first {
            let ms = untraced(config.clone());
            self.sample("untraced.execute_ms", ms);
        }

        let tracer = &mut self.run.tracer;
        let rec = Arc::new(Recorder::new());
        let epoch_us = tracer.now_us();
        install_global(rec.clone());
        let item_start = tracer.now_us();
        let (exec, obs) = tracer.span("audit.execute", &label, None, || {
            AuditRun::execute_with(config.clone(), &rec)
        });
        let (render, rendered) = tracer.span("bench.render_all", &label, None, || {
            render_all(&obs, ARTIFACTS, spec.seed, spec.jobs, &fault, &rec)
        });
        let item_end = tracer.now_us();
        let report = rec.report();
        let digest = obs.digest();
        let bundle = self.work.join("bundle");
        let bundle_spec = BundleSpec {
            seed: spec.seed,
            fault_profile: fault.name().to_string(),
            defense: (spec.defense != "none").then(|| spec.defense.to_string()),
            campaign: None,
            observations_digest: digest,
            coverage: Some(obs.coverage.to_json()),
        };
        let (write, written) = tracer.span("obs.write_bundle", &label, None, || {
            write_bundle(&bundle, &bundle_spec, &report)
        });
        let (load, loaded) =
            tracer.span("obsdiff.load_bundle", &label, None, || load_bundle(&bundle));
        tracer.fold(&report, epoch_us, &label, &[exec, render]);
        let execute_ms = tracer.dur_ms(exec);
        let unattributed_ms = tracer.self_ms(exec);
        let stages_ms: f64 = tracer
            .children(exec)
            .iter()
            .map(|(s, e)| (e - s) / 1e3)
            .sum();
        let (write_ms, load_ms) = (tracer.dur_ms(write), tracer.dur_ms(load));
        if !untraced_first {
            let ms = untraced(config);
            self.sample("untraced.execute_ms", ms);
        }

        if let Err(e) = written {
            checks.push(Check::Failed(format!("write_bundle: {e}")));
        }
        if let Err(e) = loaded {
            checks.push(Check::Failed(format!("load_bundle: {e}")));
        }
        if (execute_ms - (stages_ms + unattributed_ms)).abs() > 0.01 {
            checks.push(Check::Failed(format!(
                "execute {execute_ms} ms != stages {stages_ms} + unattributed {unattributed_ms}"
            )));
        }
        let mut stdout = String::new();
        if fault.is_active() {
            stdout.push_str(&obs.coverage.render());
            stdout.push('\n');
        }
        for artifact in &rendered {
            stdout.push_str(artifact);
            stdout.push('\n');
        }
        checks.push(match self.workload {
            Workload::Campaign => {
                let id = cell_id(spec.seed, spec.fault, spec.defense);
                match self.reference.cell_digest(&id) {
                    Some(want) if want == digest => Check::Exact,
                    Some(_) => Check::Failed(format!("cell {id}: digest differs")),
                    None if report_shape_ok(stdout.as_bytes(), spec.fault) => Check::Contract,
                    None => Check::Failed("rendered report lacks a heading".into()),
                }
            }
            w => {
                let code = if obs.coverage.is_degraded() { 3 } else { 0 };
                let bytes = stdout.as_bytes();
                let want = self.reference.report_digest(w, spec.seed);
                check_report(w, Some(code), bytes, fnv1a64(bytes), want)
            }
        });

        self.sample("traced.item_ms", (item_end - item_start) / 1e3);
        self.sample("audit.execute_ms", execute_ms);
        self.sample("audit.execute_unattributed_ms", unattributed_ms);
        self.sample("obs.bundle_write_ms", write_ms);
        self.sample("obsdiff.bundle_load_ms", load_ms);
        match layer_samples(&report, &obs.coverage, &spec) {
            Ok(samples) => {
                for (name, value) in samples {
                    self.sample(&name, value);
                }
            }
            Err(e) => checks.push(Check::Failed(e)),
        }
        combine(checks)
    }
}

/// The per-layer samples one item's program records yield.
fn layer_samples(
    report: &Report,
    coverage: &alexa_fault::CoverageReport,
    spec: &ItemSpec,
) -> Result<Vec<(String, f64)>, String> {
    let stage = |name: &str| {
        report
            .stage(name)
            .ok_or_else(|| format!("stage {name} missing"))
    };
    let ms = |us: u64| us as f64 / 1e3;
    let mb = |bytes: u64| bytes as f64 / 1e6;
    let agg_ms = |name: &str| report.aggregates.get(name).map_or(0.0, |a| ms(a.total_us));
    let agg_count = |name: &str| report.aggregates.get(name).map_or(0.0, |a| a.count as f64);
    let personas = report.shards_in("persona");
    let artifacts = report.shards_in("artifact");
    let persona_span_ms = |wanted: &dyn Fn(&str) -> bool| {
        personas
            .iter()
            .flat_map(|s| &s.spans)
            .filter(|sp| wanted(&sp.name))
            .map(|sp| ms(sp.dur_us))
            .sum::<f64>()
    };
    let counter = |name: &str| {
        report
            .shards
            .iter()
            .map(|s| s.counters.get(name).copied().unwrap_or(0) as f64)
            .sum::<f64>()
    };

    let persona_stage = stage("persona.shards")?;
    let render_stage = stage("render.all")?;
    let persona_sum: f64 = personas.iter().map(|s| ms(s.total_us)).sum();
    let render_sum: f64 = artifacts.iter().map(|s| ms(s.total_us)).sum();
    let expected: u64 = coverage.sections.values().map(|c| c.expected).sum();

    let mut out: Vec<(String, f64)> = vec![
        ("audit.avs_pass_ms".into(), ms(stage("avs.pass")?.dur_us)),
        (
            "audit.avs_pass_alloc_mb".into(),
            mb(stage("avs.pass")?.alloc_bytes),
        ),
        ("audit.merge_ms".into(), ms(stage("merge")?.dur_us)),
        ("audit.persona_shards_ms".into(), ms(persona_stage.dur_us)),
        (
            "audit.persona_shards_alloc_mb".into(),
            mb(persona_stage.alloc_bytes),
        ),
        (
            "audit.persona_shards_allocs".into(),
            persona_stage.alloc_count as f64,
        ),
        ("platform.boot_ms".into(), persona_span_ms(&|n| n == "boot")),
        (
            "platform.dsar_ms".into(),
            persona_span_ms(&|n| n.starts_with("dsar.")),
        ),
        (
            "audit.install_ms".into(),
            persona_span_ms(&|n| n == "install"),
        ),
        (
            "audit.interact_ms".into(),
            persona_span_ms(&|n| n == "interact"),
        ),
        (
            "adtech.crawl_ms".into(),
            persona_span_ms(&|n| n == "crawl.pre" || n == "crawl.post"),
        ),
        ("adtech.audio_ms".into(), persona_span_ms(&|n| n == "audio")),
        ("net.tap_flows".into(), counter("tap.flows")),
        ("net.tap_bytes".into(), counter("tap.bytes")),
        ("net.tap_sessions".into(), counter("tap.sessions")),
        (
            "adtech.web_ecosystem_ms".into(),
            ms(stage("web.ecosystem")?.dur_us),
        ),
        ("adtech.crawler_visit_ms".into(), agg_ms("crawler.visit")),
        ("adtech.crawler_visits".into(), agg_count("crawler.visits")),
        ("adtech.bids".into(), agg_count("crawler.bids")),
        (
            "platform.marketplace_ms".into(),
            ms(stage("marketplace")?.dur_us),
        ),
        (
            "policy.download_ms".into(),
            ms(stage("policy.download")?.dur_us),
        ),
        ("policy.documents".into(), agg_count("policy.documents")),
        (
            "audit.index_build_ms".into(),
            ms(stage("index.build")?.dur_us),
        ),
        (
            "audit.derive_defended_ms".into(),
            ms(stage("derive.defended")?.dur_us),
        ),
        (
            "audit.index_defended_ms".into(),
            ms(stage("index.defended")?.dur_us),
        ),
        ("bench.render_all_ms".into(), ms(render_stage.dur_us)),
        (
            "bench.render_all_alloc_mb".into(),
            mb(render_stage.alloc_bytes),
        ),
        ("stats.mwu_ms".into(), agg_ms("stats.mann_whitney_u")),
        (
            "stats.mwu_tests".into(),
            report
                .aggregates
                .get("stats.mann_whitney_u")
                .map_or(0.0, |a| a.calls as f64),
        ),
        (
            "exec.persona_efficiency".into(),
            persona_sum / (ms(persona_stage.dur_us) * spec.workers(personas.len(), false) as f64),
        ),
        (
            "exec.persona_critical_ms".into(),
            personas.iter().map(|s| ms(s.total_us)).fold(0.0, f64::max),
        ),
        (
            "exec.render_efficiency".into(),
            render_sum / (ms(render_stage.dur_us) * spec.workers(artifacts.len(), true) as f64),
        ),
        ("fault.injected".into(), coverage.total_injected() as f64),
        ("fault.retries".into(), coverage.retries as f64),
        ("fault.losses".into(), coverage.losses as f64),
        (
            "fault.coverage_ratio".into(),
            coverage.total_observed() as f64 / expected.max(1) as f64,
        ),
    ];
    let mut other_ms = 0.0;
    for shard in &artifacts {
        if TIMED_ARTIFACTS.contains(&shard.label.as_str()) {
            out.push((format!("render.{}_ms", shard.label), ms(shard.total_us)));
        } else {
            other_ms += ms(shard.total_us);
        }
    }
    out.push(("render.other_ms".into(), other_ms));
    Ok(out)
}

/// Run the traced workload: the campaign probe, then items until the budget
/// is spent (at least four).
pub fn trace_workload(
    paths: &Paths,
    repro: &Path,
    reference: &Path,
    workload: Workload,
    base: u64,
    budget: Budget,
) -> Result<TraceRun, String> {
    let work = paths.scratch("trace")?;
    let mut t = Tracing {
        repro,
        work: work.clone(),
        workload,
        reference: Reference::load(reference)?,
        run: TraceRun {
            workload,
            base_seed: base,
            samples: BTreeMap::new(),
            checks: Vec::new(),
            tracer: Tracer::default(),
        },
    };
    let start = Instant::now();
    let probe = t.campaign_probe(base);
    t.run.checks.push(("campaign".into(), probe));
    let mut i = 0;
    while i < budget.max_items && (i < 4 || start.elapsed().as_secs_f64() < budget.seconds) {
        let spec = ItemSpec::of(workload, base, i);
        let check = t.item(i, spec);
        t.run
            .checks
            .push((format!("item{i}-s{}", spec.seed), check));
        i += 1;
    }
    let _ = std::fs::remove_dir_all(&work);
    Ok(t.run)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_nests_stages_and_places_shards_at_their_stage() {
        let mut tracer = Tracer::default();
        let rec = Recorder::new();
        let epoch_us = tracer.now_us();
        let (outer, ()) = tracer.span("audit.execute", "i", None, || {
            rec.stage("persona.shards", || {
                let mut log = rec.shard("persona", 0, "p0");
                log.span("boot", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                });
                rec.submit(log);
            });
            rec.stage("merge", || rec.stage("inner", || ()));
        });
        tracer.fold(&rec.report(), epoch_us, "i", &[outer]);
        let names: Vec<(&str, Option<usize>)> = tracer
            .spans
            .iter()
            .map(|s| (s.name.as_str(), s.parent))
            .collect();
        assert_eq!(
            names,
            vec![
                ("audit.execute", None),
                ("persona.shards", Some(0)),
                ("merge", Some(0)),
                ("inner", Some(2)),
                ("persona:p0", Some(1)),
                ("boot", Some(4)),
            ]
        );
        assert_eq!(tracer.spans[4].start_us, tracer.spans[1].start_us);
        // Stages are sequential: execute = stages + unattributed, up to the
        // program's whole-microsecond rounding.
        let stages: f64 = tracer.children(0).iter().map(|(s, e)| e - s).sum();
        let total = tracer.spans[0].end_us - tracer.spans[0].start_us;
        let unattributed = tracer.self_ms(0) * 1e3;
        assert!((total - (stages + unattributed)).abs() < 2.0);
        assert!(tracer.to_jsonl().lines().count() == 6);
    }

    #[test]
    fn per_layer_names_are_unique() {
        let names = per_layer_metrics();
        assert_eq!(
            names.len(),
            FIXED_LAYER_METRICS.len() + TIMED_ARTIFACTS.len()
        );
        for a in TIMED_ARTIFACTS {
            assert!(ARTIFACTS.contains(&a), "{a}");
        }
        let mut sorted: Vec<&String> = names.iter().map(|(n, _, _)| n).collect();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
    }

    #[test]
    fn the_definition_lists_every_workload_and_per_layer_metric() {
        let def = crate::read_json(&Paths::detect().definition()).expect("BENCHMARK.json loads");
        let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
        let listed: Vec<(String, String, String)> = def
            .get("per_layer")
            .and_then(Json::as_arr)
            .expect("per_layer list")
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect();
        let ours: Vec<(String, String, String)> = per_layer_metrics()
            .into_iter()
            .map(|(n, u, b)| (n, u.to_string(), b.to_string()))
            .collect();
        assert_eq!(listed, ours);
        let workloads: Vec<String> = def
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads list")
            .iter()
            .map(|w| field(w, "name"))
            .collect();
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, names);
    }

    #[test]
    fn combine_prefers_failure_then_contract() {
        let failed = Check::Failed("x".into());
        assert_eq!(combine(vec![Check::Exact, failed.clone()]), failed);
        assert_eq!(
            combine(vec![Check::Exact, Check::Contract]),
            Check::Contract
        );
        assert_eq!(combine(vec![Check::Exact]), Check::Exact);
    }
}
