//! Paper-scale end-to-end test: runs the full `AuditConfig::paper`
//! experiment once and asserts the *shape* of every headline result
//! against the paper's findings.
//!
//! This is the reproduction's acceptance test. It is heavier than the unit
//! tests (a full 450-skill, 31-iteration run), so everything shares one
//! execution.

use alexa_adtech::{Bid, Label, SyncObservation, VisitRecord};
use alexa_audit::analysis::partners::{SyncAnalysis, AMAZON_AD_ENDPOINT};
use alexa_audit::analysis::{audio, bids, partners, policy, profiling, significance, traffic};
use alexa_audit::{AnalysisIndex, AuditConfig, AuditRun, Observations, Persona};
use alexa_platform::SkillCategory;
use alexa_stats::{
    five_number_summary_in_place, mann_whitney_u, mean, median_in_place, Alternative, Summary,
};
use std::collections::BTreeSet;
use std::sync::OnceLock;

fn obs() -> &'static Observations {
    static OBS: OnceLock<Observations> = OnceLock::new();
    OBS.get_or_init(|| AuditRun::execute(AuditConfig::paper(7)))
}

fn ix() -> &'static AnalysisIndex<'static> {
    static IX: OnceLock<AnalysisIndex<'static>> = OnceLock::new();
    IX.get_or_init(|| AnalysisIndex::build(obs()))
}

#[test]
fn paper_table1_skill_counts() {
    let t1 = traffic::table1(ix());
    assert_eq!(t1.skills_total, 450);
    assert_eq!(t1.skills_failed, 4, "paper: 4 skills fail to load");
    // Paper: 446 skills contact Amazon, 2-3 their vendor, ~31 third parties.
    assert_eq!(t1.skills_amazon, 446);
    assert!(t1.skills_vendor <= 3, "vendor skills {}", t1.skills_vendor);
    assert!(
        (25..=40).contains(&t1.skills_third_party),
        "third-party skills {}",
        t1.skills_third_party
    );
}

#[test]
fn paper_table2_amazon_dominates() {
    let t2 = traffic::table2(ix(), traffic::KEEP_ALL);
    let amazon = t2
        .rows
        .iter()
        .find(|r| r.0 == alexa_net::OrgClass::Amazon)
        .unwrap();
    // Paper: Amazon 96.84% of traffic; A&T 9.4% in total.
    assert!(
        amazon.1 + amazon.2 > 0.9,
        "amazon share {}",
        amazon.1 + amazon.2
    );
    assert!(
        (0.02..0.30).contains(&t2.total_ad_tracking),
        "A&T share {}",
        t2.total_ad_tracking
    );
}

#[test]
fn paper_table3_fashion_leads_ad_tracking() {
    let t3 = traffic::table3(ix(), traffic::KEEP_ALL);
    // Fashion & Style contacts the most A&T services (paper: 9).
    assert_eq!(t3.rows[0].0, "Fashion & Style");
    assert!(t3.rows[0].1 >= 7, "fashion A&T domains {}", t3.rows[0].1);
    // Pets & Animals has the most functional third-party domains (paper: 11).
    let pets = t3.rows.iter().find(|r| r.0 == "Pets & Animals").unwrap();
    assert!(pets.2 >= 8, "pets functional domains {}", pets.2);
    // Health & Fitness has no A&T contact.
    if let Some(health) = t3.rows.iter().find(|r| r.0 == "Health & Fitness") {
        assert_eq!(health.1, 0);
    }
}

#[test]
fn paper_table5_uplift_pattern() {
    let t5 = bids::table5(ix());
    let (vanilla_median, vanilla_mean) = t5.get("Vanilla").unwrap();
    // All interest personas above vanilla on median; vanilla lowest.
    for cat in SkillCategory::ALL {
        let (median, _) = t5.get(cat.label()).unwrap();
        assert!(
            median > vanilla_median,
            "{} median {median} <= vanilla {vanilla_median}",
            cat
        );
    }
    // Median uplift of ~2x for most personas (paper: all but one). The
    // strong six land at 1.98–2.33x on this seed; 1.9 is the assertion
    // threshold to avoid knife-edge flakiness at exactly 2.0.
    let doubled = SkillCategory::ALL
        .iter()
        .filter(|c| t5.get(c.label()).unwrap().0 > 1.9 * vanilla_median)
        .count();
    assert!(
        doubled >= 5,
        "only {doubled} personas with ~2x median uplift"
    );
    // The maximum single bid reaches the ~30x regime the paper reports.
    let slots = bids::common_slots(
        ix(),
        &alexa_audit::Persona::echo_personas(),
        obs().post_window(),
    );
    let max_bid = SkillCategory::ALL
        .iter()
        .flat_map(|&c| {
            bids::pooled_bids(
                ix(),
                alexa_audit::Persona::Interest(c),
                obs().post_window(),
                &slots,
            )
        })
        .fold(0.0, f64::max);
    assert!(
        max_bid > 10.0 * vanilla_mean,
        "max bid {max_bid} vs vanilla mean {vanilla_mean}"
    );
}

#[test]
fn paper_table6_holiday_control() {
    let t6 = bids::table6(ix());
    // Pre-interaction (peak season): vanilla is NOT the lowest — everyone
    // is elevated. Post-interaction: vanilla falls below the interest mean.
    let (vanilla_pre, vanilla_post) = t6.get("Vanilla").unwrap();
    assert!(vanilla_pre > vanilla_post);
    let interest_post_mean: f64 = SkillCategory::ALL
        .iter()
        .map(|c| t6.get(c.label()).unwrap().1)
        .sum::<f64>()
        / 9.0;
    assert!(interest_post_mean > vanilla_post);
}

#[test]
fn paper_table7_significance_split() {
    let t7 = significance::table7(ix());
    let sig = t7.significant();
    // Paper: six personas significant; Smart Home, Wine & Beverages and
    // Health & Fitness are not. Require the same split ±1.
    assert!(
        (5..=7).contains(&sig.len()),
        "significant personas: {sig:?}"
    );
    for strong in ["Pets & Animals", "Connected Car", "Dating"] {
        assert!(
            sig.contains(&strong),
            "{strong} should be significant: {sig:?}"
        );
    }
    let weak_sig = ["Smart Home", "Wine & Beverages", "Health & Fitness"]
        .iter()
        .filter(|w| sig.contains(&w.to_string().as_str()))
        .count();
    assert!(
        weak_sig <= 1,
        "weak categories unexpectedly significant: {sig:?}"
    );
}

/// The §3.3 / Table 7 design choices, ablated on the shared paper run
/// (DESIGN.md §6): the common-slot filter against pooling every slot,
/// slot-mean samples against pooled-bid samples, and the post-interaction
/// crawl budget. Prints one `[ablation]` line per comparison.
#[test]
fn paper_table7_ablations() {
    let i = ix();
    let echo = Persona::echo_personas();
    let post = i.obs.post_window();
    let fashion = Persona::Interest(SkillCategory::FashionStyle);
    let greater = |t: &[f64], v: &[f64]| mann_whitney_u(t, v, Alternative::Greater).unwrap();
    let slot_test = |window: std::ops::Range<usize>, mask: &[bool]| {
        let t = bids::slot_means(i, fashion, window.clone(), mask);
        greater(&t, &bids::slot_means(i, Persona::Vanilla, window, mask))
    };

    // The no-filter control: every slot in the index's slot universe.
    let common = bids::common_slots(i, &echo, post.clone());
    let every = vec![true; i.slots.len()];
    let (filtered, unfiltered) = (
        slot_test(post.clone(), &common),
        slot_test(post.clone(), &every),
    );
    let n_slots = i.slot_count(&common);
    eprintln!(
        "[ablation] common-slot filter: p={:.4} r={:.3} ({n_slots} slots) | no filter: p={:.4} r={:.3} ({} slots)",
        filtered.p_value,
        filtered.effect_size,
        unfiltered.p_value,
        unfiltered.effect_size,
        i.slot_count(&every),
    );
    // Simulated slots load reliably: the filter keeps every indexed slot.
    assert_eq!(n_slots, i.slots.len());

    let pooled_t = bids::pooled_bids(i, fashion, post.clone(), &common);
    let pooled = greater(
        &pooled_t,
        &bids::pooled_bids(i, Persona::Vanilla, post, &common),
    );
    eprintln!(
        "[ablation] slot-mean sample: p={:.4} (n={n_slots}) | pooled-bid sample: p={:.6} (n={})",
        filtered.p_value,
        pooled.p_value,
        pooled_t.len(),
    );
    // Pooling every bid inflates n by two orders of magnitude and shrinks
    // p: the inflation EXPERIMENTS.md deviation 3 avoids.
    assert!(
        pooled_t.len() > 100 * n_slots,
        "pooled n={}",
        pooled_t.len()
    );
    assert!(pooled.p_value <= filtered.p_value);

    // Crawl budget: how many post-interaction iterations does the Table 7
    // inference need?
    let o = i.obs;
    for k in [3usize, 10, 25] {
        let w = o.pre_iterations..(o.pre_iterations + k.min(o.post_iterations));
        let r = slot_test(w.clone(), &bids::common_slots(i, &echo, w));
        eprintln!(
            "[ablation] crawl budget {k:>2} post iterations: p={:.4} r={:.3}",
            r.p_value, r.effect_size
        );
        assert!(r.p_value < 0.05, "{k} post iterations: p={}", r.p_value);
    }
}

#[test]
fn paper_table9_spotify_connected_car_gap() {
    let t9 = audio::table9(ix());
    let cc = t9.share("Connected Car", alexa_adtech::StreamingService::Spotify);
    let fs = t9.share("Fashion & Style", alexa_adtech::StreamingService::Spotify);
    let vanilla = t9.share("Vanilla", alexa_adtech::StreamingService::Spotify);
    // Paper: CC gets about a fifth of the ads the other personas get.
    assert!(cc < fs / 3.0, "cc {cc} fs {fs}");
    assert!(cc < vanilla / 2.0, "cc {cc} vanilla {vanilla}");
    // Amazon Music is uniform.
    let am_cc = t9.share("Connected Car", alexa_adtech::StreamingService::AmazonMusic);
    let am_fs = t9.share(
        "Fashion & Style",
        alexa_adtech::StreamingService::AmazonMusic,
    );
    assert!((am_cc - am_fs).abs() < 0.15);
}

#[test]
fn paper_figure5_exclusive_brands() {
    let f5 = audio::figure5(ix());
    let fs_pandora =
        f5.exclusive_brands(alexa_adtech::StreamingService::Pandora, "Fashion & Style");
    assert!(
        fs_pandora.contains(&"Swiffer Wet Jet"),
        "Pandora FS exclusives: {fs_pandora:?}"
    );
    let cc_pandora = f5.exclusive_brands(alexa_adtech::StreamingService::Pandora, "Connected Car");
    assert!(
        cc_pandora.contains(&"Febreeze Car"),
        "Pandora CC exclusives: {cc_pandora:?}"
    );
    let fs_spotify =
        f5.exclusive_brands(alexa_adtech::StreamingService::Spotify, "Fashion & Style");
    assert!(
        fs_spotify.contains(&"Ashley") && fs_spotify.contains(&"Ross"),
        "Spotify FS exclusives: {fs_spotify:?}"
    );
}

#[test]
fn paper_sync_counts_exact() {
    let sa = partners::sync_analysis(ix());
    assert_eq!(sa.amazon_partners.len(), 41);
    assert_eq!(sa.downstream_parties.len(), 247);
    assert!(!sa.amazon_syncs_out);
}

#[test]
fn paper_table10_partners_bid_higher() {
    let t10 = partners::table10(ix());
    let mut median_wins = 0;
    for cat in SkillCategory::ALL {
        let (pm, _, nm, _) = t10.get(cat.label()).unwrap();
        if pm > nm {
            median_wins += 1;
        }
    }
    // Paper: partner medians higher for 6 of 9 interest personas.
    assert!(median_wins >= 5, "partner median wins: {median_wins}/9");
}

#[test]
fn paper_table11_echo_equals_web() {
    let t11 = significance::table11(ix());
    // Paper: 1 of 27 significant. Allow a small number.
    assert!(
        t11.significant_pairs() <= 5,
        "{} pairs",
        t11.significant_pairs()
    );
}

#[test]
fn paper_table12_interest_evolution() {
    use alexa_platform::DsarPhase;
    let t12 = profiling::table12(ix());
    assert_eq!(
        t12.interests(DsarPhase::AfterInstall, "Health & Fitness"),
        vec!["Electronics", "Home & Garden: DIY & Tools"]
    );
    assert_eq!(
        t12.interests(DsarPhase::AfterInteraction2, "Fashion & Style"),
        vec!["Fashion", "Video Entertainment"]
    );
    assert_eq!(t12.missing_files.len(), 5);
}

#[test]
fn paper_table13_disclosure_counts() {
    let t13 = policy::table13(ix(), false);
    let (clear, vague, omitted, nopolicy) = t13.get(alexa_net::DataType::VoiceRecording);
    // Paper: 20 clear / 18 vague / 147 omitted / 258 no policy. Our AVS pass
    // cannot audit streaming skills (same limitation as the paper's), so
    // totals run slightly below 446.
    let total = clear + vague + omitted + nopolicy;
    assert!((400..=446).contains(&total), "voice flows audited: {total}");
    assert!(clear <= 25, "clear {clear}");
    assert!(
        nopolicy > omitted,
        "no-policy {nopolicy} vs omitted {omitted}"
    );
    let (c2, v2, o2, n2) = t13.get(alexa_net::DataType::CustomerId);
    assert!(c2 <= 15, "customer-id clear {c2}");
    assert!(c2 + v2 < o2 + n2);
}

#[test]
fn paper_table14_org_coverage() {
    let t14 = policy::table14(ix());
    for org in [
        "Amazon Technologies, Inc.",
        "Chartable Holding Inc",
        "Podtrac Inc",
        "Spotify AB",
        "Triton Digital, Inc.",
        "Dilli Labs LLC",
        "Life Covenant Church, Inc.",
    ] {
        assert!(t14.rows.contains_key(org), "missing org {org}");
    }
    // ~32 skills contact non-Amazon endpoints (paper: 32).
    let non_amazon: BTreeSet<&String> = t14
        .rows
        .iter()
        .filter(|(org, _)| *org != alexa_net::AMAZON)
        .flat_map(|(_, (_, per_skill))| per_skill.keys())
        .collect();
    let n = non_amazon.len();
    assert!((28..=40).contains(&n), "non-Amazon skills: {n}");
}

#[test]
fn paper_validation_f1() {
    let v = policy::validation(ix());
    // Paper: 87.41% micro; ours must be high but imperfect.
    assert!(
        v.micro.f1 > 0.82 && v.micro.f1 < 1.0,
        "micro F1 {}",
        v.micro.f1
    );
    assert!(
        v.macro_avg.recall < v.macro_avg.precision,
        "quirks should cost recall"
    );
}

/// The cookie-sync structure by a naive two-pass scan of the raw crawl:
/// partners first, then everything they push onward.
fn naive_sync(obs: &Observations) -> SyncAnalysis {
    let syncs = || obs.crawl.values().flatten().flat_map(|v| &v.syncs);
    let amazon_partners: BTreeSet<String> = syncs()
        .filter(|s| s.to_org().as_str() == AMAZON_AD_ENDPOINT)
        .map(|s| s.from_org().to_string())
        .collect();
    let downstream_parties = syncs()
        .filter(|s| {
            amazon_partners.contains(s.from_org().as_str())
                && s.to_org().as_str() != AMAZON_AD_ENDPOINT
        })
        .map(|s| s.to_org().to_string())
        .collect();
    SyncAnalysis {
        amazon_syncs_out: syncs().any(|s| s.from_org().as_str() == AMAZON_AD_ENDPOINT),
        amazon_partners,
        downstream_parties,
    }
}

#[test]
fn index_sync_matches_naive_scan() {
    assert_eq!(ix().sync, naive_sync(obs()));
}

#[test]
fn index_orders_hand_built_labels_by_text() {
    // Hand-built records, their labels interned in an order that is not
    // text order: the sync structure must match a naive text scan, and slot
    // ids must rank by text, not by label id.
    let label = Label::intern;
    let sync = |from: &str, to: &str| SyncObservation::new(label(from), label(to), label("u"));
    let bid = |bidder: &str, slot: &str, cpm| Bid::new(label(bidder), label(slot), cpm);
    assert!(
        label("s#2").id() < label("s#1").id(),
        "ids must disagree with text order"
    );
    let visit = |iteration, syncs, bids| VisitRecord {
        iteration,
        syncs,
        bids,
        ..VisitRecord::default()
    };
    let mut obs = Observations::default();
    obs.crawl.insert(
        Persona::Vanilla.name(),
        vec![
            visit(
                0,
                vec![
                    sync("a.example", AMAZON_AD_ENDPOINT),
                    sync("a.example", "x.example"),
                    sync("b.example", "y.example"),
                ],
                vec![bid("a.example", "s#2", 1.0), bid("b.example", "s#1", 2.0)],
            ),
            visit(
                1,
                vec![
                    sync("a.example", "x.example"),
                    sync("a.example", AMAZON_AD_ENDPOINT),
                ],
                vec![bid("a.example", "s#1", 3.0), bid("a.example", "s#1", 4.0)],
            ),
        ],
    );
    obs.crawl.insert(
        Persona::WebHealth.name(),
        vec![visit(
            0,
            vec![
                sync(AMAZON_AD_ENDPOINT, "z.example"),
                sync("a.example", AMAZON_AD_ENDPOINT),
            ],
            vec![bid("b.example", "s#2", 5.0)],
        )],
    );
    let ix = AnalysisIndex::build(&obs);
    let want = naive_sync(&obs);
    assert_eq!(ix.sync, want);
    assert_eq!(want.amazon_partners.len(), 1);
    assert_eq!(want.downstream_parties.len(), 1);
    assert!(want.amazon_syncs_out);

    // Two distinct slot texts, ids in lexicographic order.
    let slots: Vec<&str> = ix.slots.iter().map(|&s| ix.str_of(s)).collect();
    assert_eq!(slots, ["s#1", "s#2"]);
    let rows = |p: Persona| {
        ix.bids_of(p)
            .in_window(&(0..usize::MAX))
            .map(|b| (b.iteration, b.slot, b.partner, b.cpm))
            .collect::<Vec<_>>()
    };
    assert_eq!(
        rows(Persona::Vanilla),
        [
            (0, 1, true, 1.0),
            (0, 0, false, 2.0),
            (1, 0, true, 3.0),
            (1, 0, true, 4.0)
        ]
    );
    assert_eq!(rows(Persona::WebHealth), [(0, 1, false, 5.0)]);
}

fn summary_bits(s: &Summary) -> [u64; 7] {
    let n = s.n as u64;
    [
        n,
        s.min.to_bits(),
        s.q1.to_bits(),
        s.median.to_bits(),
        s.q3.to_bits(),
        s.max.to_bits(),
        s.mean.to_bits(),
    ]
}

#[test]
fn bid_summaries_are_bit_identical_to_copying_stats() {
    let (i, o) = (ix(), obs());
    // Each rendered series must hold, bit for bit, the summary of a fresh
    // copy of each persona's series. (That the in-place summary equals a
    // stable-sort reference is a unit test of `alexa-stats`.)
    let assert_summaries = |series: &[(String, Summary)], want: &dyn Fn(Persona) -> Vec<f64>| {
        for (name, got) in series {
            let p = Persona::all()
                .into_iter()
                .find(|p| p.name() == *name)
                .unwrap();
            let expected = five_number_summary_in_place(&mut want(p)).unwrap();
            assert_eq!(summary_bits(got), summary_bits(&expected), "{name}");
        }
    };
    let echo = Persona::echo_personas();
    let post = o.post_window();
    let pooled = |personas: &[Persona], window: std::ops::Range<usize>| {
        let mask = i.common_slots(personas, &window);
        move |p: Persona| i.pooled_bids(p, &window, &mask)
    };

    let f3 = bids::figure3(i);
    assert_summaries(&f3.without_interaction, &pooled(&echo, o.pre_window()));
    assert_summaries(&f3.with_interaction, &pooled(&echo, post.clone()));
    let f7 = bids::figure7(i);
    assert_eq!(f7.series.len(), Persona::all().len());
    assert_summaries(&f7.series, &pooled(&Persona::all(), post.clone()));

    // Table 10 and Figure 6 split the common-slot bids by partner flag.
    let mask = i.common_slots(&echo, &post);
    let split = |p: Persona, partner: bool| -> Vec<f64> {
        i.bids_of(p)
            .in_window(&(0..usize::MAX))
            .filter(|b| post.contains(&b.iteration) && mask[b.slot])
            .filter(|b| b.partner == partner)
            .map(|b| b.cpm)
            .collect()
    };
    assert_summaries(&partners::figure6(i).series, &|p| split(p, true));

    let bits = |x: Option<f64>| x.unwrap_or(0.0).to_bits();
    let median = |xs: &[f64]| median_in_place(&mut xs.to_vec());
    let t5 = bids::table5(i);
    let t10 = partners::table10(i);
    for &p in &echo {
        let series = pooled(&echo, post.clone())(p);
        let (med, avg) = t5.get(&p.name()).unwrap();
        assert_eq!(med.to_bits(), bits(median(&series)), "{p}");
        assert_eq!(avg.to_bits(), bits(mean(&series)), "{p}");
        let (pm, pa, nm, na) = t10.get(&p.name()).unwrap();
        let (yes, no) = (split(p, true), split(p, false));
        assert_eq!(
            [pm, pa, nm, na].map(f64::to_bits),
            [
                bits(median(&yes)),
                bits(mean(&yes)),
                bits(median(&no)),
                bits(mean(&no))
            ],
            "{p}"
        );
    }
}

#[test]
fn bid_views_match_a_naive_scan_at_window_edges() {
    let o = obs();
    let last = o.pre_iterations + o.post_iterations;
    let pre_tail = o.pre_iterations.saturating_sub(3)..o.pre_iterations;
    let post_head = o.pre_iterations..(o.pre_iterations + 3).min(last);
    let windows = [
        pre_tail,
        post_head,
        o.pre_iterations..o.pre_iterations,
        last..last + 5,
        0..usize::MAX,
    ];
    // The paper run, and a copy holding only two personas' crawls: every
    // other persona has no crawl at all.
    let mut two = Observations {
        pre_iterations: o.pre_iterations,
        post_iterations: o.post_iterations,
        ..Observations::default()
    };
    for p in [Persona::Vanilla, Persona::WebHealth] {
        two.crawl.insert(p.name(), o.crawl[&p.name()].clone());
    }
    let two_ix = AnalysisIndex::build(&two);
    // Each bid as (iteration, slot rank, partner, CPM bits), by a scan of
    // the raw crawl that resolves slots and partners by text.
    let naive_bids = |ix: &AnalysisIndex, persona: Persona, window: &std::ops::Range<usize>| {
        let slots: Vec<&str> = ix.slots.iter().map(|&s| ix.str_of(s)).collect();
        ix.obs
            .visits_in(persona, window.clone())
            .iter()
            .flat_map(|v| v.bids.iter().map(move |b| (v.iteration, b)))
            .map(|(iteration, b)| {
                (
                    iteration,
                    slots.binary_search(&b.slot_id().as_str()).unwrap(),
                    ix.sync.amazon_partners.contains(b.bidder().as_str()),
                    b.cpm().to_bits(),
                )
            })
            .collect::<Vec<_>>()
    };
    for (i, crawled) in [(ix(), Persona::all().len()), (&two_ix, 2)] {
        let mut nonempty = 0;
        for p in Persona::all() {
            nonempty += usize::from(i.obs.crawl.contains_key(&p.name()));
            for window in &windows {
                let viewed: Vec<_> = i
                    .bids_of(p)
                    .in_window(window)
                    .map(|b| (b.iteration, b.slot, b.partner, b.cpm.to_bits()))
                    .collect();
                let naive = naive_bids(i, p, window);
                assert_eq!(viewed, naive, "{p} {window:?}");
                if window.is_empty() || window.start >= last {
                    assert!(viewed.is_empty(), "{p} {window:?}");
                }
            }
        }
        assert_eq!(nonempty, crawled);
    }
}
