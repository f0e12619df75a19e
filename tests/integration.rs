//! Cross-crate integration tests: the audit framework recovers the planted
//! ground truth from observables alone.

use alexa_audit::analysis::{audio, bids, creatives, policy, profiling, significance, traffic};
use alexa_audit::{render_into, ARTIFACTS};
use alexa_audit::{AnalysisIndex, AuditConfig, AuditRun, Observations, Persona};
use alexa_platform::SkillCategory;
use std::sync::OnceLock;

const CAR: Persona = Persona::Interest(SkillCategory::ConnectedCar);
const FASHION: Persona = Persona::Interest(SkillCategory::FashionStyle);
const WINE: Persona = Persona::Interest(SkillCategory::WineBeverages);

fn obs() -> &'static Observations {
    static OBS: OnceLock<Observations> = OnceLock::new();
    OBS.get_or_init(|| AuditRun::execute(AuditConfig::small(2024)))
}

fn ix() -> &'static AnalysisIndex<'static> {
    static IX: OnceLock<AnalysisIndex<'static>> = OnceLock::new();
    IX.get_or_init(|| AnalysisIndex::build(obs()))
}

#[test]
fn rq1_amazon_mediates_everything() {
    let t1 = traffic::table1(ix());
    // Every skill that produced traffic reached Amazon; no skill avoided it.
    assert!(t1.skills_amazon > 0);
    assert!(t1.skills_third_party < t1.skills_amazon);
    let t2 = traffic::table2(ix(), traffic::KEEP_ALL);
    let amazon_row = t2
        .rows
        .iter()
        .find(|r| r.0 == alexa_net::OrgClass::Amazon)
        .unwrap();
    assert!(amazon_row.1 + amazon_row.2 > 0.8);
}

#[test]
fn rq1_ad_tracking_traffic_is_minor_but_present() {
    let t2 = traffic::table2(ix(), traffic::KEEP_ALL);
    assert!(
        t2.total_ad_tracking > 0.01,
        "A&T share {}",
        t2.total_ad_tracking
    );
    assert!(
        t2.total_ad_tracking < 0.35,
        "A&T share {}",
        t2.total_ad_tracking
    );
}

#[test]
fn rq2_interaction_causes_bid_uplift() {
    let t5 = bids::table5(ix());
    let (vanilla, _) = t5.get(Persona::Vanilla).unwrap();
    let medians: Vec<f64> = t5
        .rows
        .iter()
        .filter(|r| r.0 != Persona::Vanilla)
        .map(|r| r.1)
        .collect();
    let above = medians.iter().filter(|m| **m > vanilla).count();
    assert!(above >= 8, "{above}/9 personas above vanilla");
    // Max uplift should reach the paper's order of magnitude on means.
    let max_mean = t5.rows.iter().map(|r| r.2).fold(0.0, f64::max);
    let (_, vanilla_mean) = t5.get(Persona::Vanilla).unwrap();
    assert!(max_mean > 1.5 * vanilla_mean);
}

#[test]
fn rq2_no_uplift_before_interaction() {
    let f3 = bids::figure3(ix());
    let vanilla = f3
        .without_interaction
        .iter()
        .find(|(p, _)| *p == Persona::Vanilla)
        .map(|(_, s)| s.median)
        .unwrap();
    for (p, s) in &f3.without_interaction {
        assert!(
            s.median < 2.0 * vanilla,
            "{p} median {} vs vanilla {vanilla} before interaction",
            s.median
        );
    }
}

#[test]
fn rq2_significance_pattern() {
    let t7 = significance::table7(ix());
    let sig = t7.significant();
    // Strong categories separate; the planted-weak ones are not required to.
    assert!(sig.len() >= 3, "significant: {sig:?}");
    for p in &sig {
        let (_, effect) = t7.get(*p).unwrap();
        assert!(effect > 0.0, "{p} significant with non-positive effect");
    }
}

#[test]
fn rq2_echo_web_equivalence() {
    let t11 = significance::table11(ix());
    // 27 comparisons; the paper found exactly one significant.
    assert!(
        t11.significant_pairs() <= 9,
        "too many echo-web differences: {}",
        t11.significant_pairs()
    );
}

#[test]
fn rq2_cookie_sync_recovery_is_exact() {
    let sa = &ix().sync;
    assert_eq!(sa.amazon_partners.len(), 41, "paper: 41 partners");
    assert!(!sa.amazon_syncs_out, "Amazon must never sync out");
    assert!(sa.downstream_parties.len() >= 200, "paper: 247 downstream");
}

#[test]
fn rq2_dsar_vs_targeting_gap() {
    // Wine & Beverages: targeted (higher bids) but DSAR shows no interests —
    // the transparency gap the paper highlights.
    let t12 = profiling::table12(ix());
    let wine_rows: Vec<_> = t12.rows.iter().filter(|r| r.persona == WINE).collect();
    assert!(
        wine_rows.is_empty(),
        "DSAR should show nothing for Wine & Beverages"
    );
    let t5 = bids::table5(ix());
    let (wine_median, _) = t5.get(WINE).unwrap();
    let (vanilla_median, _) = t5.get(Persona::Vanilla).unwrap();
    assert!(
        wine_median > vanilla_median,
        "yet Wine & Beverages is targeted"
    );
}

#[test]
fn rq2_audio_ads_differ_by_persona() {
    let t9 = audio::table9(ix());
    let cc = t9.share(CAR, alexa_adtech::StreamingService::Spotify);
    let fs = t9.share(FASHION, alexa_adtech::StreamingService::Spotify);
    assert!(cc < fs, "Spotify ad share: CC {cc} vs FS {fs}");
}

#[test]
fn rq2_exclusive_ads_recovered_without_ground_truth() {
    let t8 = creatives::table8(ix());
    // Every recovered exclusive ad is from Amazon and tied to one persona.
    for ad in &t8.amazon_exclusive {
        assert!(ad.persona.has_echo(), "{}", ad.persona);
        assert!(ad.appearances >= 1);
    }
}

#[test]
fn rq3_policy_marginals_recovered() {
    let s = policy::policy_stats(ix());
    assert_eq!((s.with_link, s.retrievable), (214, 188));
    assert_eq!(s.mention_platform, 59);
}

#[test]
fn rq3_most_flows_undisclosed() {
    let t13 = policy::table13(ix(), false);
    let mut disclosed = 0usize;
    let mut hidden = 0usize;
    for (c, v, o, n) in t13.rows.values() {
        disclosed += c + v;
        hidden += o + n;
    }
    assert!(hidden > disclosed, "disclosed {disclosed} hidden {hidden}");
}

#[test]
fn rq3_platform_policy_closes_the_gap() {
    assert!(policy::table13(ix(), true).all_disclosed());
}

#[test]
fn observations_only_contain_observables() {
    // The observable bundle must not leak hidden state: captured router
    // packets are all encrypted (no plaintext records).
    for captures in obs().router_captures.values() {
        for cap in captures {
            for p in &cap.packets {
                assert!(
                    p.payload.records().is_none(),
                    "router capture leaked plaintext for {}",
                    cap.label
                );
            }
        }
    }
}

#[test]
fn avs_captures_are_amazon_only() {
    for cap in &obs().avs_captures {
        for p in &cap.packets {
            assert_eq!(
                obs().orgs.org_of(&p.remote),
                Some(alexa_net::AMAZON),
                "AVS Echo contacted {} ({})",
                p.remote,
                cap.label
            );
        }
    }
}

#[test]
fn artifact_report_renders() {
    let mut report = obs().coverage.render();
    for name in ARTIFACTS.iter().filter(|&&a| a != "defenses") {
        render_into(ix(), name, &mut report).expect(name);
    }
    assert!(report.len() > 2_000);
    assert!(report.contains("Table 14"));
}

#[test]
fn persona_isolation_distinct_cookies() {
    // Sync user ids must differ across personas (fresh profiles per §3.1.1).
    let mut ids_by_persona: Vec<std::collections::BTreeSet<&str>> = Vec::new();
    for p in [Persona::Vanilla, Persona::WebHealth] {
        let ids = obs().crawl[&p]
            .iter()
            .flat_map(|v| v.syncs.iter().map(|s| s.user_id().as_str()))
            .collect();
        ids_by_persona.push(ids);
    }
    assert!(ids_by_persona[0].is_disjoint(&ids_by_persona[1]));
}

#[test]
fn certification_gap_reproduced_from_captures() {
    // Dynamic (traffic-informed) certification over the audit's own captures
    // catches the non-streaming ad embedders; static review cannot.
    let market = alexa_platform::Marketplace::generate(obs().seed);
    let traffic = alexa_audit::analysis::traffic::skill_traffic(obs());
    let mut flagged = std::collections::BTreeSet::new();
    for t in &traffic {
        let Some(skill) = market.get(&alexa_platform::SkillId(t.skill_id.clone())) else {
            continue;
        };
        let endpoints: Vec<alexa_net::Domain> = t.endpoints.iter().cloned().collect();
        let dynamic = alexa_platform::dynamic_review(skill, &endpoints);
        let statically_ok = alexa_platform::static_review(skill)
            .violations
            .iter()
            .all(|v| !matches!(v, alexa_platform::Violation::AdPolicyViolation { .. }));
        assert!(
            statically_ok,
            "{}: static review saw runtime backends",
            skill.name
        );
        if dynamic
            .violations
            .iter()
            .any(|v| matches!(v, alexa_platform::Violation::AdPolicyViolation { .. }))
        {
            flagged.insert(skill.name.clone());
        }
    }
    // The small run installs top-10 per category, so only a subset of the six
    // violators appears; whatever appears must be a genuine violator.
    let fl = alexa_net::FilterList::new();
    for name in &flagged {
        let mut skills = market.all().iter().chain(market.music_skills());
        let s = skills.find(|s| &s.name == name).unwrap();
        assert!(!s.streaming);
        assert!(s.backends.iter().any(|b| fl.is_ad_tracking(b)), "{name}");
    }
}

#[test]
fn captures_roundtrip_through_trace_archive() {
    for (persona, captures) in &obs().router_captures {
        let restored = alexa_net::read_trace(&alexa_net::write_trace(captures))
            .unwrap_or_else(|e| panic!("{persona}: {e}"));
        assert_eq!(&restored.len(), &captures.len(), "{persona}");
        for (a, b) in restored.iter().zip(captures.iter()) {
            assert_eq!(a.label, b.label);
            assert_eq!(a.packets, b.packets);
        }
    }
}

#[test]
fn firewall_would_block_exactly_the_at_flows() {
    // Judging the undefended captures with the firewall marks exactly the
    // flows the filter lists call advertising & tracking.
    let fl = alexa_net::FilterList::new();
    let fw = alexa_net::Firewall::new();
    for captures in obs().router_captures.values() {
        for cap in captures {
            for p in &cap.packets {
                let blocked = fw.judge(p) == alexa_net::Verdict::Block;
                assert_eq!(blocked, fl.is_ad_tracking(&p.remote), "{}", p.remote);
            }
        }
    }
}
