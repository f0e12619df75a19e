//! Simulation of the Amazon smart-speaker platform.
//!
//! The paper audits a black-box ecosystem: Echo devices, the Alexa cloud,
//! and a marketplace of ~200K third-party skills. Since none of that is
//! accessible to a reproduction, this crate implements a deterministic,
//! seeded model of the ecosystem with **planted ground truth** — which
//! endpoints each skill contacts, which data types it collects, what its
//! privacy policy discloses, and which advertising interests Amazon infers.
//!
//! The audit framework in `alexa-audit` never reads that ground truth: it
//! only sees what the paper's authors saw (captured packets, DSAR exports,
//! policy documents, ads). Ground truth exists so tests can verify that the
//! audit *recovers* it.
//!
//! Main components:
//!
//! * [`SkillCategory`] / [`Skill`] / [`Marketplace`] — the 450-skill catalog
//!   (9 categories × top-50), with the paper's named skills pinned to their
//!   documented endpoints (Tables 1, 4 and 14) and the remainder sampled to
//!   match the paper's measured marginals.
//! * [`VoicePipeline`] — wake-word detection, utterance transcription and
//!   intent routing, including the paper's observed misrouting of a small
//!   fraction of utterances to the built-in assistant.
//! * [`EchoDevice`] — one device model at either vantage point: the
//!   certified Echo behind the router (encrypted traffic, any endpoint) or
//!   the instrumented AVS SDK build (plaintext visibility, but Amazon-only
//!   endpoints and no streaming skills).
//! * [`AlexaCloud`] — mediates every interaction, relays to skill backends,
//!   emits device metrics, and feeds the [`Profiler`].
//! * [`Profiler`] — Amazon's interest-inference model, its internal targeting
//!   segments, and the DSAR export interface with its observed flakiness.

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]
#![deny(clippy::indexing_slicing)]
#![warn(missing_docs)]

mod category;
mod certification;
mod cloud;
mod device;
mod marketplace;
mod profiler;
mod skill;
mod storepage;
mod voice;

pub use category::SkillCategory;
// Only tests call these today; they carry §4.2's certification-gap claim
// (EXPERIMENTS.md) until the claim ledger computes it.
pub use certification::{dynamic_review, static_review, Review, Violation};
pub use cloud::AlexaCloud;
pub use device::{DeviceError, EchoDevice};
pub use marketplace::Marketplace;
pub use profiler::{DsarExport, DsarPhase, Interest, Profiler};
pub use skill::{DisclosureLevel, Permission, PolicySpec, Skill, SkillId};
pub use storepage::{parse_invocation, parse_sample_utterances, render_store_page};
pub use voice::{RoutedIntent, VoiceConfig, VoicePipeline};

/// The entry of a non-empty constant list that `k` selects, wrapping.
#[expect(
    clippy::indexing_slicing,
    reason = "k % len < len, and every list passed is a non-empty constant"
)]
fn pick<T: Copy>(list: &[T], k: u64) -> T {
    list[(k % list.len() as u64) as usize]
}
