//! Capture-pipeline throughput: packet generation for a skill session and
//! the two-tap observation path (router opacification vs AVS plaintext).

#![expect(
    clippy::unwrap_used,
    reason = "bench setup outside the timed closures; a failure should abort the bench"
)]

use alexa_net::{AvsTap, RouterTap};
use alexa_platform::cloud::InteractionKind;
use alexa_platform::{AlexaCloud, Marketplace};
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_capture(c: &mut Criterion) {
    let market = Marketplace::generate(42);
    let garmin = market.by_name("Garmin").unwrap().clone();
    let kind = InteractionKind::Utterance("where is my car".into());

    let mut group = c.benchmark_group("capture");
    group.bench_function("session_traffic/garmin", |b| {
        let mut cloud = AlexaCloud::new();
        b.iter(|| cloud.session_traffic("bench", "AMZN1", &garmin, &kind, false))
    });

    // Pre-generate a packet batch for tap benchmarks.
    let mut cloud = AlexaCloud::new();
    let packets = cloud.session_traffic("bench", "AMZN1", &garmin, &kind, false);

    group.bench_function("router_tap/observe_session", |b| {
        b.iter(|| {
            let mut tap = RouterTap::new();
            tap.start("garmin");
            for p in &packets {
                tap.observe(p);
            }
            tap.stop();
            tap.into_captures()
        })
    });
    group.bench_function("avs_tap/observe_session", |b| {
        b.iter(|| {
            let mut tap = AvsTap::new();
            tap.start("garmin");
            for p in &packets {
                tap.observe(p);
            }
            tap.stop();
            tap.into_captures()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_capture);
criterion_main!(benches);
