//! Fault-plane integration: digest stability, jobs-independence under
//! faults, coverage monotonicity, and graceful degradation at 100% fault
//! rate. These are the robustness counterparts of `tests/determinism.rs`.

use alexa_audit::analysis::defense;
use alexa_audit::{render_into, ARTIFACTS};
use alexa_audit::{AnalysisIndex, AuditConfig, AuditRun, DefenseMode};
use alexa_fault::FaultProfile;
use alexa_obs::Recorder;

fn digest(cfg: AuditConfig) -> u64 {
    AuditRun::execute(cfg).digest()
}

/// The fault plane must be invisible under `none`: these are the digests the
/// pipeline produced before the plane existed (pinned from main).
#[test]
fn none_profile_preserves_pre_fault_plane_digests() {
    for (seed, want) in [
        (7u64, 0xb110b63e303dd95au64),
        (1234, 0xf39b00cfbb080c04),
        (2222, 0x76a4be4df33e5c1c),
    ] {
        assert_eq!(
            digest(AuditConfig::small(seed)),
            want,
            "seed {seed}: none-profile digest drifted from baseline"
        );
    }
}

/// For every preset, a fixed `(seed, profile)` yields byte-identical
/// observations for any worker count — fault decisions are structural, not
/// scheduling-dependent.
#[test]
fn faulted_digests_are_jobs_independent() {
    for profile in [
        FaultProfile::flaky(),
        FaultProfile::degraded(),
        FaultProfile::hostile(),
    ] {
        let run = |jobs| {
            digest(
                AuditConfig::small(7)
                    .with_faults(profile.clone())
                    .with_jobs(Some(jobs)),
            )
        };
        let (d1, d4, d8) = (run(1), run(4), run(8));
        assert_eq!(d1, d4, "{}: jobs 1 vs 4", profile.name());
        assert_eq!(d1, d8, "{}: jobs 1 vs 8", profile.name());
    }
}

/// Harsher presets can only lose observations: fault decisions nest in the
/// rate, so everything lost under `flaky` is also lost under `hostile`.
#[test]
fn coverage_decreases_monotonically_with_severity() {
    let totals: Vec<(String, u64)> = [
        FaultProfile::none(),
        FaultProfile::flaky(),
        FaultProfile::degraded(),
        FaultProfile::hostile(),
    ]
    .into_iter()
    .map(|profile| {
        let obs = AuditRun::execute(AuditConfig::small(1234).with_faults(profile.clone()));
        (profile.name().to_string(), obs.coverage.total_observed())
    })
    .collect();
    for pair in totals.windows(2) {
        assert!(
            pair[1].1 <= pair[0].1,
            "coverage grew from {} ({}) to {} ({})",
            pair[0].0,
            pair[0].1,
            pair[1].0,
            pair[1].1
        );
    }
    assert!(
        totals.last().unwrap().1 < totals.first().unwrap().1,
        "hostile must strictly reduce coverage"
    );
}

/// At a 100% fault rate nothing survives — and nothing panics. The coverage
/// block and every artifact still render, and the significance tables
/// refuse (rather than run on) the empty samples.
#[test]
fn analysis_never_panics_at_total_fault_rate() {
    let cfg = AuditConfig::small(2222).with_faults(FaultProfile::uniform(1.0));
    let obs = AuditRun::execute(cfg.clone());
    assert!(obs.coverage.is_degraded());
    assert_eq!(obs.coverage.sections["skill.installs"].observed, 0);

    let obs_ix = AnalysisIndex::build(&obs);
    let mut report = obs.coverage.render();
    for name in ARTIFACTS.iter().filter(|&&a| a != "defenses") {
        render_into(&obs_ix, name, &mut report).expect(name);
    }
    assert!(report.contains("DEGRADED (valid, reduced coverage)"));
    assert!(report.contains("insufficient samples"));

    // The §8.1 defense comparison must also survive empty observations.
    let defended = AuditRun::execute(cfg.with_defense(DefenseMode::Firewall));
    let defended_ix = AnalysisIndex::build(&defended);
    let comparison = defense::compare(
        "firewall under total faults",
        defense::measure(&obs_ix, DefenseMode::None),
        defense::measure(&defended_ix, DefenseMode::None),
        (
            defense::bid_uplift(&obs_ix),
            defense::bid_uplift(&defended_ix),
        ),
    );
    let mut rendered = String::new();
    assert!(comparison.render_into(&mut rendered) > 0);
    assert!(!rendered.is_empty());
}

/// Injected faults and retries surface as observability counters, and the
/// coverage report's ledger matches what the recorder aggregated.
#[test]
fn fault_counters_reach_the_recorder() {
    let rec = Recorder::new();
    let obs = AuditRun::execute_with(
        AuditConfig::small(7).with_faults(FaultProfile::degraded()),
        &rec,
    );
    assert!(obs.coverage.total_injected() > 0);
    assert!(obs.coverage.retries > 0);

    let report = rec.report();
    let agg = |name: &str| report.aggregates.get(name).map(|a| a.count).unwrap_or(0);
    assert_eq!(agg("fault.injected"), obs.coverage.total_injected());
    assert_eq!(agg("fault.retries"), obs.coverage.retries);
    assert_eq!(agg("fault.losses"), obs.coverage.losses);

    let shard_faults: u64 = report
        .shards
        .iter()
        .map(|s| s.counters.get("fault.injected").copied().unwrap_or(0))
        .sum();
    assert!(shard_faults > 0, "per-shard fault counters missing");
}

/// The firewall shadow only watches: a shadowed run's observations and
/// coverage are those of a plain run, and fault-free it never starts.
#[test]
fn firewall_shadow_leaves_the_run_unchanged() {
    for seed in [7, 2222] {
        for fault in [
            FaultProfile::none(),
            FaultProfile::flaky(),
            FaultProfile::degraded(),
            FaultProfile::hostile(),
        ] {
            let cfg = AuditConfig::small(seed).with_faults(fault.clone());
            let (shadowed, firewall) =
                AuditRun::execute_with_firewall_shadow(cfg.clone(), &Recorder::disabled());
            let plain = AuditRun::execute(cfg);
            let case = format!("seed {seed}, {}", fault.name());
            assert_eq!(firewall.is_some(), fault.is_active(), "{case}");
            assert_eq!(shadowed.digest(), plain.digest(), "{case}");
            assert_eq!(shadowed.coverage, plain.coverage, "{case}");
        }
    }
}

/// Like the observations, the shadow's measurement is the same for every
/// worker count, bit for bit.
#[test]
fn firewall_shadow_is_jobs_independent() {
    for fault in [FaultProfile::flaky(), FaultProfile::hostile()] {
        let shadow = |jobs| {
            let cfg = AuditConfig::small(7)
                .with_faults(fault.clone())
                .with_jobs(Some(jobs));
            let (_, firewall) = AuditRun::execute_with_firewall_shadow(cfg, &Recorder::disabled());
            let m = firewall.expect("faulted runs measure a shadow");
            (m.ad_tracking_share.to_bits(), m)
        };
        assert_eq!(shadow(1), shadow(4), "{}: jobs 1 vs 4", fault.name());
    }
}
