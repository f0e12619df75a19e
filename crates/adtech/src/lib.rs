//! Advertising-technology substrate.
//!
//! The paper infers data usage and sharing from the *advertising ecosystem's
//! observable behaviour*: header-bidding bid values, served ad creatives,
//! cookie-sync redirects in crawl traffic, and audio ads on streaming
//! skills. This crate simulates that ecosystem with planted ground truth:
//!
//! * [`BrowserProfile`] — browser profiles and cookies (one fresh profile
//!   per persona, logged into the persona's Amazon account);
//! * [`SyncGraph`] — the cookie-syncing graph: 41 advertisers sync one-way
//!   with Amazon, and onward with 247 further third parties (§5.5);
//! * [`Auction`] — a `prebid.js`-style header-bidding auction whose CPMs
//!   respond to advertiser knowledge of the user, seasonal effects, and slot
//!   quality — the causal structure prior work established and the paper's
//!   inference method depends on;
//! * [`WebEcosystem`] — a Tranco-style ranked web with ~35% prebid adoption
//!   and per-site bidder rosters;
//! * [`Crawler`] — the OpenWPM-equivalent crawler that visits prebid sites,
//!   requests bids, records creatives and captures sync redirects;
//! * [`AdServer`] — display-creative inventory, including the specific
//!   personalized ads the paper observed (Table 8);
//! * [`Label`] — re-exported from `alexa-net`: the process-wide interner
//!   behind every crawl label (slot ids, orgs, cookie values, sites,
//!   creatives), so records carry 4-byte ids, not strings;
//! * [`simulate_session`] — streaming sessions on Amazon Music / Spotify /
//!   Pandora with inserted audio ads, a noisy [`Transcriber`], and ad
//!   extraction (§5.4).
//!
//! The audit framework reads **only the observables** (bids, creatives,
//! requests, transcripts); the planted parameters exist so tests can verify
//! recovery.

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]
#![warn(missing_docs)]
#![deny(clippy::indexing_slicing)]

mod adserver;
mod audio;
mod bidding;
mod crawler;
mod identity;
mod prebid;
mod sync;
mod website;

pub use adserver::{AdServer, Creative};
pub use alexa_net::Label;
pub use audio::{
    simulate_session, AudioAdExtractor, AudioEvent, StreamingService, StreamingSession, Transcriber,
};
pub use bidding::{standard_roster, AdSlot, Auction, Bid, Bidder, SeasonModel, UserState};
pub use crawler::{Crawler, SyncObservation, VisitRecord};
pub use identity::{BrowserProfile, Cookie};
pub use sync::SyncGraph;
pub use website::{WebEcosystem, Website};
