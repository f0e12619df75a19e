//! Benchmark and reproduction harness.
//!
//! Two deliverables live here:
//!
//! * the **`repro` binary** (`src/bin/repro.rs`) — regenerates every table
//!   and figure of the paper's evaluation from a fresh paper-scale audit
//!   run (`repro all`, or `repro table5`, `repro figure3`, …); the
//!   `defenses` artifact reads defended runs through the defense lens
//!   (DESIGN.md §13) unless a fault profile forces real re-executions;
//! * the **criterion benches** (`benches/`) — performance characterization
//!   of the framework's hot paths (auction, capture pipeline, statistics,
//!   PoliCheck matching, catalog generation, end-to-end run) plus the
//!   ablation studies called out in DESIGN.md §6.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;

use alexa_audit::analysis::defense;
use alexa_audit::{artifacts, AnalysisIndex, AuditConfig, AuditRun, DefenseMode, Observations};
use alexa_fault::FaultProfile;
use alexa_obs::Recorder;
use std::sync::OnceLock;

/// Every artifact `repro` can render, in paper order — `repro all` renders
/// exactly this list.
pub const ARTIFACTS: &[&str] = &[
    "table1", "table2", "table3", "table4", "figure2", "table5", "table6", "figure3", "table7",
    "table8", "table9", "figure5", "sync", "table10", "figure6", "table11", "figure7", "table12",
    "stats71", "table13", "table13p", "table14", "validate", "liars", "defenses",
];

/// The `defenses` artifact's comparisons, in render order.
const DEFENSES: [(&str, DefenseMode); 2] = [
    (
        "A&T firewall (blocking without breaking)",
        DefenseMode::Firewall,
    ),
    ("on-device transcription (text-only)", DefenseMode::TextOnly),
];

/// One defended run's observables: its [`defense::Measurement`] and its
/// [`defense::bid_uplift`].
pub type Defended = (defense::Measurement, f64);

/// Execute each of [`DEFENSES`] for real, one at a time, when `wanted`
/// includes `defenses` and a fault profile is active. `None` otherwise:
/// fault-free, the defense lens reads the baseline index instead. Tap
/// faults key off post-defense sequence numbers, so the lens is not exact
/// under faults.
///
/// The whole pass is the `derive.defended` stage. Each run is executed,
/// indexed, measured and dropped before the next one starts, so at most one
/// defended run is alive at a time. `repro` calls this *before* the
/// baseline run, so the baseline reuses the memory the defended runs freed.
pub fn defended_measurements(
    wanted: &[&str],
    seed: u64,
    jobs: Option<usize>,
    fault: &FaultProfile,
    rec: &Recorder,
) -> Option<[Defended; 2]> {
    if !fault.is_active() || !wanted.contains(&"defenses") {
        return None;
    }
    eprintln!("running defended audits (firewall, text-only) ...");
    Some(rec.stage("derive.defended", || {
        DEFENSES.map(|(_, mode)| {
            let config = AuditConfig::paper(seed).with_defense(mode);
            let obs = AuditRun::execute(config.with_faults(fault.clone()).with_jobs(jobs));
            let dix = AnalysisIndex::build(&obs);
            (
                defense::measure(&dix, DefenseMode::None),
                defense::bid_uplift(&dix),
            )
        })
    }))
}

/// Compare the baseline against each of [`DEFENSES`]. `defended` is what
/// [`defended_measurements`] returned for this run. Under faults it holds
/// the executed runs, and `index.defended` measures the baseline only.
/// Fault-free, `derive.defended` is the defense-lens pass and
/// `index.defended` computes the (defense-invariant) bid uplift once.
fn defense_reports(
    ix: &AnalysisIndex,
    defended: Option<[Defended; 2]>,
    rec: &Recorder,
) -> Vec<defense::DefenseReport> {
    let none = DefenseMode::None;
    let (base, defended) = match defended {
        Some(defended) => {
            let base = rec.stage("index.defended", || {
                (defense::measure(ix, none), defense::bid_uplift(ix))
            });
            (base, defended)
        }
        None => {
            let (base, lensed) = rec.stage("derive.defended", || {
                let lensed = DEFENSES.map(|(_, mode)| defense::measure(ix, mode));
                (defense::measure(ix, none), lensed)
            });
            rec.stage("index.defended", || {
                let uplift = defense::bid_uplift(ix);
                ((base, uplift), lensed.map(|m| (m, uplift)))
            })
        }
    };
    let pairs = DEFENSES.iter().zip(defended);
    pairs
        .map(|((name, _), (m, uplift))| defense::compare(name, base.0, m, (base.1, uplift)))
        .collect()
}

/// Render the wanted artifacts concurrently, returning them in input order:
/// [`defended_measurements`], then [`render_artifacts`]. Under faults the
/// defended runs therefore execute while `obs` is alive; `repro` calls
/// [`defended_measurements`] before it executes the baseline instead, so
/// the two never overlap.
pub fn render_all(
    obs: &Observations,
    wanted: &[&str],
    seed: u64,
    jobs: Option<usize>,
    fault: &FaultProfile,
    rec: &Recorder,
) -> Vec<String> {
    let defended = defended_measurements(wanted, seed, jobs, fault, rec);
    render_artifacts(obs, wanted, jobs, defended, rec)
}

/// Render the wanted artifacts concurrently, returning them in input order.
/// Each artifact render is its own observability shard. `defended` is what
/// [`defended_measurements`] returned for this run.
///
/// The shared [`AnalysisIndex`] is built exactly once (its own `index.build`
/// stage) and every artifact streams from it; the fan-out is clamped to the
/// host's hardware threads because oversubscribing a CPU-bound render pass
/// only adds contention (bytes are jobs-independent either way).
pub fn render_artifacts(
    obs: &Observations,
    wanted: &[&str],
    jobs: Option<usize>,
    defended: Option<[Defended; 2]>,
    rec: &Recorder,
) -> Vec<String> {
    let ix = rec.stage("index.build", || AnalysisIndex::build(obs));
    // The `defenses` comparisons are analysis input, not rendering, so they
    // get their own top-level stages and `render.all` stays a pure stream.
    let reports = wanted
        .contains(&"defenses")
        .then(|| defense_reports(&ix, defended, rec));
    rec.stage("render.all", || {
        let render_jobs = Some(alexa_exec::clamped_jobs(jobs));
        alexa_exec::par_map(render_jobs, wanted.to_vec(), |i, artifact| {
            let mut log = rec.shard("artifact", i, artifact);
            // Allocation window == the render body: every rendered byte is
            // attributed to this artifact's shard, deterministically.
            log.alloc_open();
            let rendered = log.span("render", |log| {
                let mut buf = String::with_capacity(4096);
                let units = match (artifact, reports.as_deref()) {
                    ("defenses", Some([firewall, text_only])) => {
                        let units = firewall.render_into(&mut buf);
                        buf.push('\n');
                        units + text_only.render_into(&mut buf)
                    }
                    // analyzer:allow(AP02) -- every caller passes names from ARTIFACTS; repro rejects unknowns at parse time (exit 2)
                    _ => artifacts::render_into(&ix, artifact, &mut buf).expect("artifact known"),
                };
                log.work(units as u64);
                buf
            });
            log.add("render.bytes", rendered.len() as u64);
            log.alloc_seal();
            rec.submit(log);
            rendered
        })
    })
}

/// A shared paper-scale run for benches that only *read* observations
/// (computed once per process).
pub fn shared_paper_run() -> &'static Observations {
    static OBS: OnceLock<Observations> = OnceLock::new();
    OBS.get_or_init(|| AuditRun::execute(AuditConfig::paper(7)))
}

/// The shared paper-scale run's [`AnalysisIndex`] (built once per process),
/// for benches exercising the index-backed analysis paths.
pub fn shared_paper_ix() -> &'static AnalysisIndex<'static> {
    static IX: OnceLock<AnalysisIndex<'static>> = OnceLock::new();
    IX.get_or_init(|| AnalysisIndex::build(shared_paper_run()))
}

/// A shared reduced run for cheaper benches.
pub fn shared_small_run() -> &'static Observations {
    static OBS: OnceLock<Observations> = OnceLock::new();
    OBS.get_or_init(|| AuditRun::execute(AuditConfig::small(7)))
}
