//! The two execution paths of the `defenses` artifact.
//!
//! * **fault-free** — the defense lens reads the baseline index; the
//!   `derive.defended` and `index.defended` stages must still be recorded,
//!   because the traced benchmark fails an item when either is missing;
//! * **faulted** — tap faults key off post-defense sequence numbers, so the
//!   defended runs are executed for real, one at a time, in the
//!   `derive.defended` stage, and `index.defended` measures the baseline.
//!   The section is pinned byte for byte to a golden so that path can never
//!   drift silently, and each stage must be recorded exactly once.
//!
//! Regenerate the golden after an *intentional* output change with
//! `BLESS=1 cargo test -p alexa-bench --test defenses`.

use alexa_audit::{AuditConfig, AuditRun};
use alexa_bench::{render_all, ARTIFACTS};
use alexa_fault::FaultProfile;
use alexa_obs::Recorder;

#[test]
fn fault_free_render_records_both_defense_stages() {
    let rec = Recorder::new();
    let obs = AuditRun::execute_with(AuditConfig::small(7), &rec);
    render_all(&obs, ARTIFACTS, 7, None, &FaultProfile::none(), &rec);
    let report = rec.report();
    for stage in [
        "index.build",
        "derive.defended",
        "index.defended",
        "render.all",
    ] {
        assert!(
            report.stage(stage).is_some(),
            "stage {stage} missing from a fault-free `all` render"
        );
    }
}

#[test]
fn flaky_defenses_section_matches_golden() {
    let fault = FaultProfile::flaky();
    let rec = Recorder::new();
    let obs = AuditRun::execute_with(
        AuditConfig::paper(7)
            .with_faults(fault.clone())
            .with_jobs(Some(2)),
        &rec,
    );
    let got = render_all(&obs, &["defenses"], 7, Some(2), &fault, &rec).concat();

    let report = rec.report();
    for stage in ["derive.defended", "index.defended"] {
        let recorded = report.stages.iter().filter(|s| s.name == stage).count();
        assert_eq!(
            recorded, 1,
            "stage {stage} recorded {recorded} times under faults"
        );
    }

    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/defenses_flaky_seed7.txt"
    );
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(path, &got).expect("write golden");
        return;
    }
    assert_eq!(
        got,
        include_str!("golden/defenses_flaky_seed7.txt"),
        "flaky defenses section drifted from {path} \
         (BLESS=1 regenerates after an intentional change)"
    );
}
