//! The observable bundle every analysis consumes.
//!
//! `Observations` holds **only what a real auditor could record**: captures,
//! bids, creatives, sync redirects, audio transcripts, DSAR exports, policy
//! documents, and public marketplace metadata. Planted ground truth (which
//! endpoints a skill *would* contact, which advertisers hold segments, what
//! a policy *intended* to disclose) never enters this struct — the
//! integration tests enforce that analyses recover it from here alone.

use crate::persona::Persona;
use alexa_adtech::{StreamingService, VisitRecord};
use alexa_fault::{CoverageReport, Fnv1a};
use alexa_net::{Capture, OrgMap};
use alexa_platform::{DsarExport, DsarPhase, SkillCategory};
use alexa_policy::PolicyDoc;
use std::collections::BTreeMap;

/// Public marketplace metadata for one skill — everything visible on the
/// skill's store page (used e.g. to map capture labels back to names).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SkillMeta {
    /// Marketplace id (capture label).
    pub id: String,
    /// Display name.
    pub name: String,
    /// Vendor organization name.
    pub vendor: String,
    /// Store category.
    pub category: SkillCategory,
    /// Review count.
    pub reviews: u32,
    /// Whether the store page advertises streaming content.
    pub streaming: bool,
    /// Whether the store page links a privacy policy (visible even when the
    /// link is dead).
    pub policy_link: bool,
}

/// The full observable record of one audit run.
#[derive(Debug, Clone, Default)]
pub struct Observations {
    /// Seed the run was executed with (for provenance).
    pub seed: u64,
    /// Number of pre-interaction crawl iterations.
    pub pre_iterations: usize,
    /// Number of post-interaction crawl iterations.
    pub post_iterations: usize,
    /// Router-tap captures (encrypted view) per Echo persona, one capture
    /// per skill session.
    pub router_captures: BTreeMap<Persona, Vec<Capture>>,
    /// AVS Echo captures (plaintext view), one capture per skill, from the
    /// dedicated AVS lab account.
    pub avs_captures: Vec<Capture>,
    /// Crawl records per persona: all visits, all iterations.
    pub crawl: BTreeMap<Persona, Vec<VisitRecord>>,
    /// Audio transcripts per (persona, streaming service).
    pub audio: BTreeMap<(Persona, StreamingService), Vec<String>>,
    /// DSAR exports per (persona, request phase).
    pub dsar: BTreeMap<(Persona, DsarPhase), DsarExport>,
    /// Downloaded policy documents per skill id (`None` = no retrievable
    /// policy).
    pub policies: BTreeMap<String, Option<PolicyDoc>>,
    /// Public marketplace metadata for the 450 studied skills.
    pub catalog: Vec<SkillMeta>,
    /// Skills that failed to load during installation, per persona.
    pub failed_installs: BTreeMap<Persona, Vec<String>>,
    /// The auditor's domain→organization database (DuckDuckGo entities +
    /// Crunchbase + WHOIS in the paper; observable public information).
    pub orgs: OrgMap,
    /// Coverage accounting for the run: observed/expected per pipeline
    /// section, injected-fault and retry totals, degraded shards.
    pub coverage: CoverageReport,
}

impl Observations {
    /// All crawl visits for a persona within an iteration range.
    pub fn visits_in(
        &self,
        persona: Persona,
        iterations: std::ops::Range<usize>,
    ) -> Vec<&VisitRecord> {
        self.crawl
            .get(&persona)
            .map(|v| {
                v.iter()
                    .filter(|r| iterations.contains(&r.iteration))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Iteration range of the pre-interaction window.
    pub fn pre_window(&self) -> std::ops::Range<usize> {
        0..self.pre_iterations
    }

    /// Iteration range of the post-interaction window.
    pub fn post_window(&self) -> std::ops::Range<usize> {
        self.pre_iterations..self.pre_iterations + self.post_iterations
    }

    /// A stable content hash of the complete observable record.
    ///
    /// Two runs produce the same digest iff every observable — captures,
    /// bids, transcripts, DSAR exports, policies, catalog, org database —
    /// rendered identically. The determinism tests use this to enforce the
    /// engine's core invariant: for a fixed config, sequential and parallel
    /// execution are byte-identical.
    ///
    /// The value is FNV-1a over the text
    /// `"{seed}|{pre}|{post}|{router:?}|{avs:?}|{crawl:?}|{audio:?}|…"`.
    /// All fields except `orgs` are `Vec`s or `BTreeMap`s, whose `Debug`
    /// rendering is already canonical; `orgs` is backed by a `HashMap` and
    /// is hashed through its sorted-entries view instead. The text is
    /// never materialized. The captures and `crawl`, 99% of its
    /// bytes, are hashed by typed walks over the records that emit the same
    /// bytes without `core::fmt`: constant fragments and labels (hosts,
    /// sites, creatives and the crawl's ids) as O(1) jumps, bid CPMs
    /// through an in-tree shortest-float writer. The
    /// remaining fields stream their `Debug` output into the hasher.
    pub fn digest(&self) -> u64 {
        use std::fmt::Write as _;

        let mut w = Fnv1a::new();
        // Fnv1a's fmt::Write never fails; the Results are discardable.
        let _ = write!(
            w,
            "{}|{}|{}|",
            self.seed, self.pre_iterations, self.post_iterations,
        );
        let mut labels = crate::crawl_digest::LabelJumps::new();
        crate::capture_digest::hash_capture_map(&mut w, &mut labels, &self.router_captures);
        w.byte(b'|');
        crate::capture_digest::hash_captures(&mut w, &mut labels, &self.avs_captures);
        w.byte(b'|');
        crate::crawl_digest::hash_crawl(&mut w, &mut labels, &self.crawl);
        let _ = write!(
            w,
            "|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
            self.audio,
            self.dsar,
            self.policies,
            self.catalog,
            self.failed_installs,
            self.orgs.entries_sorted(),
        );
        // Coverage joins the digest only for faulted runs: the `none`
        // profile must stay byte-identical to pre-fault-plane baselines,
        // while any active profile holds its coverage accounting to the
        // same jobs-independence contract as the observables.
        if self.coverage.profile != "none" {
            let _ = write!(w, "|{:?}", self.coverage);
        }
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_partition_iterations() {
        let obs = Observations {
            pre_iterations: 6,
            post_iterations: 25,
            ..Observations::default()
        };
        assert_eq!(obs.pre_window(), 0..6);
        assert_eq!(obs.post_window(), 6..31);
    }

    #[test]
    fn visits_in_filters_by_iteration() {
        let mut obs = Observations::default();
        let mk = |iteration| VisitRecord {
            iteration,
            ..VisitRecord::default()
        };
        obs.crawl
            .insert(Persona::Vanilla, vec![mk(0), mk(3), mk(9)]);
        assert_eq!(obs.visits_in(Persona::Vanilla, 0..4).len(), 2);
        assert_eq!(obs.visits_in(Persona::Vanilla, 4..20).len(), 1);
        assert!(obs.visits_in(Persona::WebHealth, 0..20).is_empty());
    }
}
