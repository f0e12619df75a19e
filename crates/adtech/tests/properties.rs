//! Property-based tests for the ad-tech substrate.

use alexa_adtech::{
    simulate_session, standard_roster, AdSlot, Auction, AudioAdExtractor, AudioEvent, Label,
    SeasonModel, StreamingService, StreamingSession, SyncGraph, Transcriber, UserState,
};
use alexa_platform::SkillCategory;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;

fn category() -> impl Strategy<Value = SkillCategory> {
    prop::sample::select(SkillCategory::ALL.to_vec())
}

/// Number of ad events in a session (ground truth).
fn ad_count(s: &StreamingSession) -> usize {
    s.events
        .iter()
        .filter(|e| matches!(e, AudioEvent::Ad { .. }))
        .count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn bids_are_positive_and_finite(
        seed in 0u64..1_000_000,
        quality in 0.05..5.0f64,
        iteration in 0usize..31,
        cat in category(),
    ) {
        let graph = SyncGraph::generate(1);
        let auction = Auction {
            bidders: standard_roster(graph.partners()),
            season: SeasonModel::default(),
        };
        let slot = AdSlot { id: Label::intern("p#1"), quality };
        let mut user = UserState::blank("prop");
        user.amazon_customer = true;
        user.echo_segments.insert(cat);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut bids = Vec::new();
        auction.request_bids_into(&slot, &auction.user_view(&user), &user, iteration, &mut rng, &mut bids);
        for bid in bids {
            prop_assert!(bid.cpm.is_finite());
            prop_assert!(bid.cpm > 0.0);
            prop_assert_eq!(bid.slot_id.as_str(), "p#1");
        }
    }

    #[test]
    fn sync_graph_invariants_for_any_seed(seed in 0u64..1_000_000) {
        let g = SyncGraph::generate(seed);
        prop_assert_eq!(g.partners().len(), 41);
        let all_downstream: BTreeSet<&String> =
            g.partners().iter().flat_map(|p| g.downstream_of(p)).collect();
        prop_assert_eq!(all_downstream.len(), 247);
        for p in g.partners() {
            prop_assert!(!g.downstream_of(p).is_empty());
            prop_assert!(!all_downstream.contains(p));
        }
    }

    #[test]
    fn audio_sessions_scale_with_hours(
        seed in 0u64..1_000_000,
        hours in 1.0..12.0f64,
    ) {
        let short = simulate_session(StreamingService::Pandora, None, hours, seed);
        let long = simulate_session(StreamingService::Pandora, None, hours * 2.0, seed);
        prop_assert!(ad_count(&long) >= ad_count(&short));
        // Ad load stays proportional (±40% tolerance for rounding).
        let expected = 32.0 * hours / 6.0;
        prop_assert!((ad_count(&short) as f64) > expected * 0.6);
        prop_assert!((ad_count(&short) as f64) < expected * 1.4 + 2.0);
    }

    #[test]
    fn extraction_never_exceeds_ground_truth(
        seed in 0u64..1_000_000,
        wer in 0.0..0.2f64,
    ) {
        let session =
            simulate_session(StreamingService::Spotify, Some(SkillCategory::FashionStyle), 3.0, seed);
        let transcripts = Transcriber { wer }.transcribe(&session, seed);
        let ads = AudioAdExtractor::new().extract(&transcripts);
        prop_assert!(ads.len() <= ad_count(&session));
        if wer == 0.0 {
            prop_assert_eq!(ads.len(), ad_count(&session));
        }
    }

    #[test]
    fn season_factor_is_bounded_and_unit_in_steady_state(
        boundary in 0usize..20,
        iteration in 0usize..100,
    ) {
        let s = SeasonModel::new(boundary);
        let f = s.factor(iteration);
        prop_assert!((1.0..=3.1).contains(&f));
        if iteration >= boundary + 3 {
            prop_assert_eq!(f, 1.0);
        }
    }
}
