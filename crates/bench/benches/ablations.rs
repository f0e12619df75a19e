//! Ablation benches for the design choices DESIGN.md §6 calls out:
//!
//! * common-slot filtering vs pooling every slot (§3.3's control);
//! * slot-mean sampling vs pooled-bid sampling for the significance tests;
//! * PoliCheck with vs without the platform policy (§7.2.2);
//! * exact vs asymptotic Mann–Whitney at the paper's sample size.
//!
//! Each variant is measured on the shared paper-scale run's analysis index;
//! the *value* differences between variants are printed once at startup so
//! the ablation results are visible alongside the timings.

#![expect(
    clippy::unwrap_used,
    reason = "bench setup outside the timed closures; a failure should abort the bench"
)]

use alexa_audit::analysis::bids::{common_slots, pooled_bids, slot_means};
use alexa_audit::{AnalysisIndex, Persona};
use alexa_bench::shared_paper_ix;
use alexa_stats::{mann_whitney_u, Alternative, MwuMethod};
use criterion::{criterion_group, criterion_main, Criterion};

/// The no-filter control: every slot in the index's slot universe.
fn all_slots(ix: &AnalysisIndex) -> Vec<bool> {
    vec![true; ix.slots.len()]
}

fn print_value_ablations(ix: &AnalysisIndex) {
    let personas = Persona::echo_personas();
    let window = ix.obs.post_window();
    let common = common_slots(ix, &personas, window.clone());
    let every = all_slots(ix);
    let fashion = Persona::Interest(alexa_platform::SkillCategory::FashionStyle);

    let with_filter = {
        let t = slot_means(ix, fashion, window.clone(), &common);
        let v = slot_means(ix, Persona::Vanilla, window.clone(), &common);
        mann_whitney_u(&t, &v, Alternative::Greater, MwuMethod::Asymptotic).unwrap()
    };
    let without_filter = {
        let t = slot_means(ix, fashion, window.clone(), &every);
        let v = slot_means(ix, Persona::Vanilla, window.clone(), &every);
        mann_whitney_u(&t, &v, Alternative::Greater, MwuMethod::Asymptotic).unwrap()
    };
    eprintln!(
        "[ablation] common-slot filter: p={:.4} r={:.3} ({} slots) | no filter: p={:.4} r={:.3} ({} slots)",
        with_filter.p_value,
        with_filter.effect_size,
        ix.slot_count(&common),
        without_filter.p_value,
        without_filter.effect_size,
        ix.slot_count(&every),
    );

    let pooled_t = pooled_bids(ix, fashion, window.clone(), &common);
    let pooled_v = pooled_bids(ix, Persona::Vanilla, window.clone(), &common);
    let pooled = mann_whitney_u(
        &pooled_t,
        &pooled_v,
        Alternative::Greater,
        MwuMethod::Asymptotic,
    )
    .unwrap();
    eprintln!(
        "[ablation] slot-mean sample: p={:.4} (n={}) | pooled-bid sample: p={:.6} (n={})",
        with_filter.p_value,
        ix.slot_count(&common),
        pooled.p_value,
        pooled_t.len(),
    );

    // Crawl-budget ablation (DESIGN.md §6): how many post-interaction
    // iterations does the Table 7 inference need?
    for k in [3usize, 10, 25] {
        let obs = ix.obs;
        let w = obs.pre_iterations..(obs.pre_iterations + k.min(obs.post_iterations));
        let slots_k = common_slots(ix, &personas, w.clone());
        let t = slot_means(ix, fashion, w.clone(), &slots_k);
        let v = slot_means(ix, Persona::Vanilla, w, &slots_k);
        let r = mann_whitney_u(&t, &v, Alternative::Greater, MwuMethod::Asymptotic).unwrap();
        eprintln!(
            "[ablation] crawl budget {k:>2} post iterations: p={:.4} r={:.3}",
            r.p_value, r.effect_size
        );
    }
}

fn bench_ablations(c: &mut Criterion) {
    let ix = shared_paper_ix();
    print_value_ablations(ix);

    let personas = Persona::echo_personas();
    let window = ix.obs.post_window();
    let common = common_slots(ix, &personas, window.clone());
    let every = all_slots(ix);
    let fashion = Persona::Interest(alexa_platform::SkillCategory::FashionStyle);

    let mut group = c.benchmark_group("ablation");
    group.bench_function("common_slot_filtering/on", |b| {
        b.iter(|| slot_means(ix, fashion, window.clone(), &common))
    });
    group.bench_function("common_slot_filtering/off", |b| {
        b.iter(|| slot_means(ix, fashion, window.clone(), &every))
    });
    group.bench_function("sampling/slot_means", |b| {
        b.iter(|| {
            let t = slot_means(ix, fashion, window.clone(), &common);
            let v = slot_means(ix, Persona::Vanilla, window.clone(), &common);
            mann_whitney_u(&t, &v, Alternative::Greater, MwuMethod::Asymptotic)
        })
    });
    group.bench_function("sampling/pooled_bids", |b| {
        b.iter(|| {
            let t = pooled_bids(ix, fashion, window.clone(), &common);
            let v = pooled_bids(ix, Persona::Vanilla, window.clone(), &common);
            mann_whitney_u(&t, &v, Alternative::Greater, MwuMethod::Asymptotic)
        })
    });

    // Exact vs asymptotic MWU at the paper's common-slot sample size.
    let t = slot_means(ix, fashion, window.clone(), &common);
    let v = slot_means(ix, Persona::Vanilla, window.clone(), &common);
    let t25: Vec<f64> = t.iter().copied().take(25).collect();
    let v25: Vec<f64> = v.iter().copied().take(25).collect();
    group.bench_function("mwu/exact_n25", |b| {
        b.iter(|| mann_whitney_u(&t25, &v25, Alternative::Greater, MwuMethod::Exact))
    });
    group.bench_function("mwu/asymptotic_n25", |b| {
        b.iter(|| mann_whitney_u(&t25, &v25, Alternative::Greater, MwuMethod::Asymptotic))
    });
    group.finish();
}

criterion_group!(benches, bench_ablations);
criterion_main!(benches);
