//! Header-bidding auction throughput: bids per second for the standard
//! 30-bidder roster, with and without targeting segments.

use alexa_adtech::bidding::{standard_roster, SeasonModel, UserState};
use alexa_adtech::{AdSlot, Auction, SyncGraph};
use alexa_platform::SkillCategory;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_auction(c: &mut Criterion) {
    let graph = SyncGraph::generate(1);
    let auction = Auction {
        bidders: standard_roster(graph.partners()),
        season: SeasonModel::default(),
    };
    let slot = AdSlot {
        id: "bench#1",
        site: "bench".into(),
        quality: 1.0,
    };

    let blank = UserState::blank("bench");
    let mut targeted = UserState::blank("bench");
    targeted.amazon_customer = true;
    targeted.echo_segments.insert(SkillCategory::FashionStyle);

    let mut group = c.benchmark_group("auction");
    group.bench_function("request_bids/untargeted", |b| {
        b.iter_batched(
            || StdRng::seed_from_u64(9),
            |mut rng| auction.request_bids(&slot, &blank, 10, &mut rng),
            BatchSize::SmallInput,
        )
    });
    group.bench_function("request_bids/targeted", |b| {
        b.iter_batched(
            || StdRng::seed_from_u64(9),
            |mut rng| auction.request_bids(&slot, &targeted, 10, &mut rng),
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

criterion_group!(benches, bench_auction);
criterion_main!(benches);
