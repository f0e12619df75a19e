//! End-to-end audit cost: a full reduced-scale run, and each analysis on the
//! shared paper-scale run's analysis index — one bench per table/figure family,
//! so a regression in any reproduction path is visible.

use alexa_audit::analysis::{
    audio, bids, creatives, partners, policy, profiling, significance, traffic,
};
use alexa_audit::{AuditConfig, AuditRun};
use alexa_bench::shared_paper_ix;
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_audit(c: &mut Criterion) {
    let mut group = c.benchmark_group("audit");
    group.sample_size(10);
    group.bench_function("execute/small", |b| {
        b.iter(|| AuditRun::execute(AuditConfig::small(7)))
    });
    group.finish();

    let ix = shared_paper_ix();
    let mut group = c.benchmark_group("analysis");
    group.bench_function("table1_traffic", |b| b.iter(|| traffic::table1(ix)));
    group.bench_function("table2_shares", |b| {
        b.iter(|| traffic::table2(ix, traffic::KEEP_ALL))
    });
    group.bench_function("table5_bids", |b| b.iter(|| bids::table5(ix)));
    group.bench_function("figure3_boxes", |b| b.iter(|| bids::figure3(ix)));
    group.bench_function("table7_significance", |b| {
        b.iter(|| significance::table7(ix))
    });
    group.bench_function("table8_creatives", |b| b.iter(|| creatives::table8(ix)));
    group.bench_function("table9_audio", |b| b.iter(|| audio::table9(ix)));
    group.bench_function("table10_partners", |b| b.iter(|| partners::table10(ix)));
    group.bench_function("table11_echo_vs_web", |b| {
        b.iter(|| significance::table11(ix))
    });
    group.bench_function("table12_profiling", |b| b.iter(|| profiling::table12(ix)));
    group.bench_function("table13_policheck", |b| {
        b.iter(|| policy::table13(ix, false))
    });
    group.bench_function("table14_endpoints", |b| b.iter(|| policy::table14(ix)));
    group.bench_function("sync_recovery", |b| b.iter(|| partners::sync_analysis(ix)));
    group.finish();
}

criterion_group!(benches, bench_audit);
criterion_main!(benches);
