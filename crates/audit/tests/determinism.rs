//! The engine's core invariant: for a fixed config, the observable record is
//! byte-identical — across repeated runs and across every worker count. The
//! sharded parallel engine must be undetectable from the output.

use alexa_audit::{render_into, AnalysisIndex, AuditConfig, AuditRun, DefenseMode, ARTIFACTS};
use alexa_fault::FaultProfile;

#[test]
fn repeated_runs_hash_identically() {
    let a = AuditRun::execute(AuditConfig::small(7));
    let b = AuditRun::execute(AuditConfig::small(7));
    assert_eq!(a.digest(), b.digest());
}

#[test]
fn different_seeds_hash_differently() {
    let a = AuditRun::execute(AuditConfig::small(7));
    let b = AuditRun::execute(AuditConfig::small(8));
    assert_ne!(a.digest(), b.digest());
}

#[test]
fn worker_count_is_invisible_in_the_output() {
    let sequential = AuditRun::execute(AuditConfig::small(7).with_jobs(Some(1)));
    let parallel = AuditRun::execute(AuditConfig::small(7).with_jobs(Some(4)));
    let all_cores = AuditRun::execute(AuditConfig::small(7).with_jobs(None));
    assert_eq!(
        sequential.digest(),
        parallel.digest(),
        "jobs=1 vs jobs=4 diverged"
    );
    assert_eq!(
        sequential.digest(),
        all_cores.digest(),
        "jobs=1 vs jobs=None diverged"
    );

    // Digest equality should imply artifact equality: every artifact the
    // index renders (all but the bench-orchestrated `defenses`) streams the
    // same bytes and work units from either index.
    let sequential_ix = AnalysisIndex::build(&sequential);
    let parallel_ix = AnalysisIndex::build(&parallel);
    for name in ARTIFACTS.iter().filter(|&&a| a != "defenses") {
        let (mut a, mut b) = (String::new(), String::new());
        let work_a = render_into(&sequential_ix, name, &mut a);
        let work_b = render_into(&parallel_ix, name, &mut b);
        assert!(work_a.is_some(), "{name}: not rendered");
        assert_eq!(work_a, work_b, "{name}: work units diverged");
        assert_eq!(a, b, "{name}: jobs=1 vs jobs=4 rendered differently");
    }
}

/// Execute each `(fault, defense)` cell of `seed` at paper scale and
/// compare its digest with the pinned value.
fn assert_digests(seed: u64, cells: Vec<(FaultProfile, DefenseMode, u64)>) {
    for (fault, defense, want) in cells {
        let label = format!("seed {seed}, {} / {defense:?}", fault.name());
        let config = AuditConfig::paper(seed)
            .with_faults(fault)
            .with_defense(defense);
        let got = AuditRun::execute(config).digest();
        assert_eq!(got, want, "{label}: {got:016x} != {want:016x}");
    }
}

/// The seed-7 paper-scale digests the benchmark's `campaign` workload
/// checks (`benchmark/reference.json`, cells `s7-f*-d*`). The digest's
/// value is part of every run bundle's identity, so its implementation may
/// change only if these stay put.
#[test]
fn paper_scale_seed_7_digests_are_pinned() {
    assert_digests(
        7,
        vec![
            (FaultProfile::none(), DefenseMode::None, 0x94b0c84975bd88bd),
            (
                FaultProfile::none(),
                DefenseMode::Firewall,
                0xf8b05fcfe682792a,
            ),
            (FaultProfile::flaky(), DefenseMode::None, 0x31cbd33345face75),
            (
                FaultProfile::flaky(),
                DefenseMode::Firewall,
                0xf7cdfc0b7fcd7827,
            ),
        ],
    );
}

/// Seed 7's executed `TextOnly` runs, which no benchmark cell covers: the
/// only digests of both taps under the text-only remap of voice records.
#[test]
fn paper_scale_seed_7_text_only_digests_are_pinned() {
    assert_digests(
        7,
        vec![
            (
                FaultProfile::none(),
                DefenseMode::TextOnly,
                0x556c1956e5e51ce3,
            ),
            (
                FaultProfile::flaky(),
                DefenseMode::TextOnly,
                0x00c8a3e92e7ddd95,
            ),
        ],
    );
}

/// Two of seed 8's cells, the benchmark's second `campaign` item
/// (`benchmark/reference.json`, `s8-fnone-dnone` and
/// `s8-fflaky-dfirewall`). Each seed draws different bid CPMs, so a slip
/// in the digest's float writer on a value seed 7 lacks fails here too.
#[test]
fn paper_scale_seed_8_digests_are_pinned() {
    assert_digests(
        8,
        vec![
            (FaultProfile::none(), DefenseMode::None, 0x54303618443df2b6),
            (
                FaultProfile::flaky(),
                DefenseMode::Firewall,
                0xf5f1df448d2e52af,
            ),
        ],
    );
}
