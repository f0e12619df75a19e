//! PoliCheck throughput: policy rendering, compilation, endpoint
//! classification, and data-type classification over the full catalog.

use alexa_net::DataType;
use alexa_platform::Marketplace;
use alexa_policy::{CompiledPolicy, PoliCheck, PolicyGenerator};
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_policheck(c: &mut Criterion) {
    let market = Marketplace::generate(42);
    let generator = PolicyGenerator::new();
    let docs: Vec<_> = market
        .all()
        .iter()
        .filter_map(|s| generator.render(s))
        .collect();
    let policies: Vec<CompiledPolicy> = docs.iter().map(CompiledPolicy::compile).collect();
    let checker = PoliCheck::new();

    let mut group = c.benchmark_group("policheck");
    group.bench_function("render_full_catalog", |b| {
        b.iter(|| {
            market
                .all()
                .iter()
                .filter_map(|s| generator.render(s))
                .count()
        })
    });
    group.bench_function("compile/188_docs", |b| {
        b.iter(|| docs.iter().map(CompiledPolicy::compile).count())
    });
    group.bench_function("classify_endpoint/188_docs", |b| {
        b.iter(|| {
            policies
                .iter()
                .map(|d| checker.classify_endpoint(Some(d), "Podtrac Inc"))
                .filter(|c| *c == alexa_policy::DisclosureClass::Vague)
                .count()
        })
    });
    group.bench_function("classify_data_type/188_docs", |b| {
        b.iter(|| {
            policies
                .iter()
                .map(|d| checker.classify_data_type(Some(d), DataType::VoiceRecording))
                .filter(|c| *c == alexa_policy::DisclosureClass::Clear)
                .count()
        })
    });
    group.bench_function("classify_with_platform_policy/188_docs", |b| {
        b.iter(|| {
            policies
                .iter()
                .map(|d| {
                    checker
                        .classify_data_type(Some(d), DataType::Timezone)
                        .min(checker.platform_data_type(DataType::Timezone))
                })
                .filter(|c| *c == alexa_policy::DisclosureClass::Clear)
                .count()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_policheck);
criterion_main!(benches);
