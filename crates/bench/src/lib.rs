//! Reproduction harness: the **`repro` binary** (`src/bin/repro.rs`).
//!
//! `repro` regenerates every table and figure of the paper's evaluation
//! from a fresh paper-scale audit run (`repro all`, or `repro table5`,
//! `repro figure3`, …); the `defenses` artifact reads defended runs through
//! the defense lens (DESIGN.md §13), and under a fault profile takes its
//! firewall row from a shadow tap inside the one baseline run. Its timings
//! are the run ledger's stages and shards: `repro --bench` appends them to
//! `BENCH_audit.json`, and `obs-diff gate` holds them. The [`campaign`]
//! module executes a declarative experiment plan (`repro campaign`).

#![forbid(unsafe_code)]
#![deny(clippy::indexing_slicing)]
#![warn(missing_docs)]
#![deny(unreachable_pub)]

pub mod campaign;

use alexa_audit::analysis::defense;
use alexa_audit::{AnalysisIndex, AuditConfig, AuditRun, DefenseMode, Observations};
use alexa_fault::FaultProfile;
use alexa_obs::Recorder;

// The artifact vocabulary lives beside its dispatch table in the audit
// crate; harnesses name it `alexa_bench::ARTIFACTS`.
pub use alexa_audit::ARTIFACTS;

/// The `defenses` artifact's comparisons, in render order.
const DEFENSES: [(&str, DefenseMode); 2] = [
    (
        "A&T firewall (blocking without breaking)",
        DefenseMode::Firewall,
    ),
    ("on-device transcription (text-only)", DefenseMode::TextOnly),
];

/// Compare the baseline against each of [`DEFENSES`]. `shadow` yields the
/// firewall shadow's measurement when the run had one (faults); every other
/// defended measurement reads the baseline through the defense lens. The
/// lens is the `derive.defended` stage, and `index.defended` computes the
/// bid uplift, which no defense moves, once.
fn defense_reports(
    ix: &AnalysisIndex,
    shadow: impl FnOnce() -> Option<defense::Measurement>,
    rec: &Recorder,
) -> Vec<defense::DefenseReport> {
    let (base, defended) = rec.stage("derive.defended", || {
        let shadow = shadow();
        let defended = DEFENSES.map(|(_, mode)| match (mode, shadow) {
            (DefenseMode::Firewall, Some(firewall)) => firewall,
            _ => defense::measure(ix, mode),
        });
        (defense::measure(ix, DefenseMode::None), defended)
    });
    let uplift = rec.stage("index.defended", || defense::bid_uplift(ix));
    let pairs = DEFENSES.iter().zip(defended);
    pairs
        .map(|((name, _), m)| defense::compare(name, base, m, (uplift, uplift)))
        .collect()
}

/// Render the wanted artifacts concurrently, returning them in input order:
/// [`render_artifacts`] for a run executed without a firewall shadow.
/// `obs` is an undefended run of `AuditConfig::paper(seed)` under `fault`.
/// Under faults, when `defenses` is wanted, `derive.defended` executes one
/// shadowed baseline for the firewall row.
///
/// `repro` never calls this: it renders through [`render_artifacts`] in
/// every mode, executing a faulted baseline with
/// [`AuditRun::execute_with_firewall_shadow`] so no second execution is
/// paid. `render_all` remains for the benchmark harness and the golden and
/// defenses tests, which hold only the observations.
pub fn render_all(
    obs: &Observations,
    wanted: &[&str],
    seed: u64,
    jobs: Option<usize>,
    fault: &FaultProfile,
    rec: &Recorder,
) -> Vec<String> {
    let shadow = || {
        if !fault.is_active() {
            return None;
        }
        let config = AuditConfig::paper(seed).with_faults(fault.clone());
        AuditRun::execute_with_firewall_shadow(config.with_jobs(jobs), &Recorder::disabled()).1
    };
    render_with(obs, wanted, jobs, shadow, rec)
}

/// Render the wanted artifacts concurrently, returning them in input order.
/// Each artifact render is its own observability shard. `firewall` is the
/// firewall shadow's measurement that
/// [`AuditRun::execute_with_firewall_shadow`] returned with `obs`.
///
/// The shared [`AnalysisIndex`] is built exactly once (its own `index.build`
/// stage, metered on this thread) and every artifact streams from it; the fan-out is clamped to the
/// host's hardware threads because oversubscribing a CPU-bound render pass
/// only adds contention (bytes are jobs-independent either way).
pub fn render_artifacts(
    obs: &Observations,
    wanted: &[&str],
    jobs: Option<usize>,
    firewall: Option<defense::Measurement>,
    rec: &Recorder,
) -> Vec<String> {
    render_with(obs, wanted, jobs, || firewall, rec)
}

/// [`render_artifacts`], with the firewall shadow's measurement produced
/// on demand inside `derive.defended`.
fn render_with(
    obs: &Observations,
    wanted: &[&str],
    jobs: Option<usize>,
    shadow: impl FnOnce() -> Option<defense::Measurement>,
    rec: &Recorder,
) -> Vec<String> {
    let ix = rec.metered_stage("index.build", || AnalysisIndex::build(obs));
    // The `defenses` comparisons are analysis input, not rendering, so they
    // get their own top-level stages and `render.all` stays a pure stream.
    let reports = wanted
        .contains(&"defenses")
        .then(|| defense_reports(&ix, shadow, rec));
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
                    #[expect(
                        clippy::expect_used,
                        reason = "every caller passes names from ARTIFACTS; repro rejects unknowns at parse time (exit 2)"
                    )]
                    _ => alexa_audit::render_into(&ix, artifact, &mut buf).expect("artifact known"),
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
