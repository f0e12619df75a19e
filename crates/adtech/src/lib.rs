//! Advertising-technology substrate.
//!
//! The paper infers data usage and sharing from the *advertising ecosystem's
//! observable behaviour*: header-bidding bid values, served ad creatives,
//! cookie-sync redirects in crawl traffic, and audio ads on streaming
//! skills. This crate simulates that ecosystem with planted ground truth:
//!
//! * [`identity`] — browser profiles and cookies (one fresh profile per
//!   persona, logged into the persona's Amazon account);
//! * [`sync`] — the cookie-syncing graph: 41 advertisers sync one-way with
//!   Amazon, and onward with 247 further third parties (§5.5);
//! * [`bidding`] — a `prebid.js`-style header-bidding auction whose CPMs
//!   respond to advertiser knowledge of the user, seasonal effects, and slot
//!   quality — the causal structure prior work established and the paper's
//!   inference method depends on;
//! * [`website`] — a Tranco-style ranked web with ~35% prebid adoption and
//!   per-site bidder rosters;
//! * [`crawler`] — the OpenWPM-equivalent crawler that visits prebid sites,
//!   requests bids, records creatives and captures sync redirects;
//! * [`adserver`] — display-creative inventory, including the specific
//!   personalized ads the paper observed (Table 8);
//! * [`label`] — the process-wide interner behind every crawl label (slot
//!   ids, orgs, cookie values), so records carry 4-byte ids, not strings;
//! * [`audio`] — streaming sessions on Amazon Music / Spotify / Pandora with
//!   inserted audio ads, a noisy transcriber, and ad extraction (§5.4).
//!
//! The audit framework reads **only the observables** (bids, creatives,
//! requests, transcripts); the planted parameters exist so tests can verify
//! recovery.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::indexing_slicing)]

pub mod adserver;
pub mod audio;
pub mod bidding;
pub mod crawler;
pub mod identity;
pub mod label;
pub mod prebid;
pub mod sync;
pub mod website;

pub use adserver::{AdServer, Creative};
pub use audio::{AudioAdExtractor, AudioEvent, StreamingService, StreamingSession, Transcriber};
pub use bidding::{AdSlot, Auction, Bid, Bidder, SeasonModel, UserState};
pub use crawler::{Crawler, SyncObservation, VisitRecord};
pub use identity::{BrowserProfile, Cookie};
pub use label::Label;
pub use sync::SyncGraph;
pub use website::{WebEcosystem, Website};
