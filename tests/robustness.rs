//! Cross-seed robustness: the reproduction's qualitative findings must not
//! be artifacts of one lucky seed. Each paper-scale claim is checked on
//! three independent seeds with tolerant thresholds.

use alexa_audit::analysis::{bids, policy, profiling, significance};
use alexa_audit::{AnalysisIndex, AuditConfig, AuditRun, Observations, Persona};
use alexa_platform::SkillCategory;
use std::sync::OnceLock;

const SEEDS: [u64; 3] = [7, 101, 9001];

fn runs() -> &'static Vec<Observations> {
    static RUNS: OnceLock<Vec<Observations>> = OnceLock::new();
    RUNS.get_or_init(|| {
        SEEDS
            .iter()
            .map(|&s| AuditRun::execute(AuditConfig::paper(s)))
            .collect()
    })
}

#[test]
fn uplift_direction_is_seed_stable() {
    for obs in runs() {
        let t5 = bids::table5(&AnalysisIndex::build(obs));
        let (vanilla, _) = t5.get(Persona::Vanilla).unwrap();
        let above = t5
            .rows
            .iter()
            .filter(|r| r.0 != Persona::Vanilla && r.1 > vanilla)
            .count();
        assert!(
            above >= 8,
            "seed {}: only {above}/9 above vanilla",
            obs.seed
        );
    }
}

#[test]
fn significance_split_is_seed_stable() {
    for obs in runs() {
        let t7 = significance::table7(&AnalysisIndex::build(obs));
        let sig = t7.significant();
        assert!(
            (4..=8).contains(&sig.len()),
            "seed {}: significant set {sig:?}",
            obs.seed
        );
        // The strongest planted categories always separate.
        for strong in [SkillCategory::PetsAnimals, SkillCategory::ConnectedCar] {
            assert!(
                sig.contains(&Persona::Interest(strong)),
                "seed {}: {sig:?}",
                obs.seed
            );
        }
        // At least two of the three weak categories stay non-significant.
        let weak_ns = [
            SkillCategory::SmartHome,
            SkillCategory::WineBeverages,
            SkillCategory::HealthFitness,
        ]
        .iter()
        .filter(|&&w| !sig.contains(&Persona::Interest(w)))
        .count();
        assert!(weak_ns >= 2, "seed {}: {sig:?}", obs.seed);
    }
}

#[test]
fn sync_counts_are_seed_exact() {
    for obs in runs() {
        let ix = AnalysisIndex::build(obs);
        let sa = &ix.sync;
        assert_eq!(sa.amazon_partners.len(), 41, "seed {}", obs.seed);
        assert_eq!(sa.downstream_parties.len(), 247, "seed {}", obs.seed);
        assert!(!sa.amazon_syncs_out, "seed {}", obs.seed);
    }
}

#[test]
fn policy_marginals_are_seed_exact() {
    for obs in runs() {
        let s = policy::policy_stats(&AnalysisIndex::build(obs));
        assert_eq!(
            (
                s.with_link,
                s.retrievable,
                s.mention_platform,
                s.link_platform_policy
            ),
            (214, 188, 59, 10),
            "seed {}",
            obs.seed
        );
    }
}

#[test]
fn dsar_missing_files_are_seed_exact() {
    for obs in runs() {
        let t12 = profiling::table12(&AnalysisIndex::build(obs));
        assert_eq!(
            t12.missing_files.len(),
            5,
            "seed {}: {:?}",
            obs.seed,
            t12.missing_files
        );
    }
}

#[test]
fn validation_f1_band_is_seed_stable() {
    for obs in runs() {
        let v = policy::validation(&AnalysisIndex::build(obs));
        assert!(
            v.micro.f1 > 0.8 && v.micro.f1 < 1.0,
            "seed {}: micro F1 {}",
            obs.seed,
            v.micro.f1
        );
    }
}

#[test]
fn different_seeds_produce_different_bid_corpora() {
    // Guard against accidentally ignoring the seed somewhere.
    let a: f64 = runs()[0].crawl[&Persona::Vanilla]
        .iter()
        .flat_map(|v| v.bids.iter())
        .map(|b| b.cpm())
        .sum();
    let b: f64 = runs()[1].crawl[&Persona::Vanilla]
        .iter()
        .flat_map(|v| v.bids.iter())
        .map(|b| b.cpm())
        .sum();
    assert_ne!(a, b);
}
