//! End-to-end experiment orchestration (§3, Figure 1).
//!
//! [`AuditRun::execute`] drives the full study with a single seed:
//!
//! 1. generate the marketplace and the AVS-Echo **plaintext pass** over all
//!    450 skills (data-type visibility, Amazon-only endpoints);
//! 2. provision the nine interest personas + vanilla, each with its own
//!    Amazon account, Echo, fresh browser profile and unique IP;
//! 3. **install phase**: each interest persona installs its category's
//!    top-50 skills, one router-tap capture per skill; first DSAR;
//! 4. **pre-interaction crawls** (6 iterations over the prebid sites);
//! 5. **interaction phase**: replay each skill's sample utterances through
//!    the Echo, one capture per skill; second DSAR;
//! 6. **post-interaction crawls** (25 iterations), recording bids,
//!    creatives and sync redirects; third DSAR;
//! 7. **audio sessions** on Amazon Music / Spotify / Pandora for the
//!    Connected Car, Fashion & Style and vanilla personas;
//! 8. **policy download** for every catalog skill.
//!
//! The output is an [`Observations`] bundle containing only observables.
//!
//! # Sharded parallel execution
//!
//! The run decomposes into independent units of work — 13 persona shards,
//! one AVS pass per skill category, one policy download per skill — and the
//! engine executes each kind of unit through an order-preserving parallel
//! map ([`alexa_exec::par_map`]). Every shard owns its complete device-side
//! state: its own [`AlexaCloud`] (per-account profiler slice, clock, DNS
//! table), its own [`EchoDevice`] and [`Tap`] — at [`Vantage::Router`] for
//! a persona, [`Vantage::Avs`] for a category — and a persona's
//! [`BrowserProfile`], all seeded from the master seed and the shard's
//! *fixed index* in the persona (or category) list, never from execution
//! order. Shared inputs — the
//! marketplace, the web ecosystem, the crawler and its sync graph — are
//! borrowed read-only by all shards.
//!
//! The invariant this buys: for a fixed [`AuditConfig`], the produced
//! [`Observations`] are **byte-identical for every `jobs` value**, including
//! fully sequential `Some(1)`. The determinism regression tests enforce this
//! by hashing complete runs ([`Observations::digest`]).

use crate::analysis::defense::{self, voice_text, Measurement};
use crate::index::AnalysisIndex;
use crate::observations::{Observations, SkillMeta};
use crate::persona::Persona;
use alexa_adtech::{
    simulate_session, standard_roster, Auction, BrowserProfile, Crawler, SeasonModel,
    StreamingService, SyncGraph, Transcriber, UserState, WebEcosystem, Website,
};
use alexa_exec::par_map;
use alexa_fault::{
    retry, Coverage, CoverageReport, FaultChannel, FaultLedger, FaultPlane, FaultProfile,
    RetryBudget, RetryOutcome, RetryPolicy,
};
use alexa_net::{Capture, OrgMap, Packet, Payload, Record, Tap, TapStats, Vantage, Verdict};
use alexa_obs::{Recorder, ShardLog};
use alexa_platform::{parse_invocation, parse_sample_utterances, render_store_page};
use alexa_platform::{
    AlexaCloud, DeviceError, DsarExport, DsarPhase, EchoDevice, Marketplace, SkillCategory,
};
use alexa_policy::PolicyFetcher;

/// User-side defenses from the paper's §8.1, applied during a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DefenseMode {
    /// No defense — the paper's measurement condition.
    #[default]
    None,
    /// Router firewall blocking advertising & tracking endpoints
    /// ("Blocking without Breaking"-style selective filtering).
    Firewall,
    /// On-device transcription: only the text of commands leaves the
    /// device, never the voice recording.
    TextOnly,
}

/// Tunable parameters of an audit run.
#[derive(Debug, Clone)]
pub struct AuditConfig {
    /// Master seed: two runs with equal configs are bit-identical.
    pub seed: u64,
    /// Skills installed per category (the paper's top-50).
    pub skills_per_category: usize,
    /// Prebid-supported sites crawled per iteration.
    ///
    /// The paper crawls 200 real sites but obtains a much smaller *common
    /// slot* set (real slot loading is flaky). Our simulated slots load
    /// reliably, so the default keeps the effective common-slot sample near
    /// the paper's statistical scale (≈ 50 slots).
    pub crawl_sites: usize,
    /// Size of the ranked web the prebid probe scans.
    pub web_size: usize,
    /// Crawl iterations before skill interaction (paper: 6).
    pub pre_iterations: usize,
    /// Crawl iterations after skill interaction (paper: 25).
    pub post_iterations: usize,
    /// Hours of audio streamed per (persona, service) session (paper: 6).
    pub audio_hours: f64,
    /// Maximum utterances replayed per skill during interaction.
    pub utterances_per_skill: usize,
    /// User-side defense active during the run (§8.1 evaluation).
    pub defense: DefenseMode,
    /// Fault profile driving the deterministic fault plane. `none()` (the
    /// default) reproduces the pre-fault-plane pipeline byte for byte.
    pub fault: FaultProfile,
    /// Worker threads for the sharded engine: `None` = one per hardware
    /// thread, `Some(1)` = fully sequential. The produced [`Observations`]
    /// are byte-identical for every value.
    pub jobs: Option<usize>,
}

impl AuditConfig {
    /// The paper-scale configuration.
    pub fn paper(seed: u64) -> AuditConfig {
        AuditConfig {
            seed,
            skills_per_category: 50,
            crawl_sites: 7,
            web_size: 700,
            pre_iterations: 6,
            post_iterations: 25,
            audio_hours: 6.0,
            utterances_per_skill: 4,
            defense: DefenseMode::None,
            fault: FaultProfile::none(),
            jobs: None,
        }
    }

    /// A reduced configuration for fast tests.
    pub fn small(seed: u64) -> AuditConfig {
        AuditConfig {
            seed,
            skills_per_category: 10,
            crawl_sites: 6,
            web_size: 120,
            pre_iterations: 2,
            post_iterations: 6,
            audio_hours: 1.0,
            utterances_per_skill: 2,
            defense: DefenseMode::None,
            fault: FaultProfile::none(),
            jobs: None,
        }
    }

    /// The same configuration with a defense enabled.
    pub fn with_defense(mut self, defense: DefenseMode) -> AuditConfig {
        self.defense = defense;
        self
    }

    /// The same configuration with a fault profile enabled.
    pub fn with_faults(mut self, fault: FaultProfile) -> AuditConfig {
        self.fault = fault;
        self
    }

    /// The same configuration with an explicit worker-thread count.
    pub fn with_jobs(mut self, jobs: Option<usize>) -> AuditConfig {
        self.jobs = jobs;
        self
    }
}

/// The configured defense, built once per shard and applied to each of its
/// outgoing packet batches.
///
/// * `Firewall`: drop packets to advertising & tracking endpoints at the
///   router (they never reach the network, so they never reach a tap). The
///   verdict depends on the endpoint alone, so one firewall serves every
///   batch.
/// * `TextOnly`: replace every voice-recording record with the locally
///   transcribed text command — the content needed for functionality, minus
///   the acoustic channel (mood, health, accent, …) the paper warns about.
pub(crate) enum Defense {
    None,
    Firewall(alexa_net::Firewall),
    TextOnly,
}

impl Defense {
    pub(crate) fn new(mode: DefenseMode) -> Defense {
        match mode {
            DefenseMode::None => Defense::None,
            DefenseMode::Firewall => Defense::Firewall(alexa_net::Firewall::new()),
            DefenseMode::TextOnly => Defense::TextOnly,
        }
    }

    /// Apply the defense to one outgoing packet batch.
    pub(crate) fn apply(&mut self, packets: Vec<alexa_net::Packet>) -> Vec<alexa_net::Packet> {
        use alexa_net::{DataType, Payload, Record};
        match self {
            Defense::None => packets,
            Defense::Firewall(fw) => fw.filter_batch(packets),
            Defense::TextOnly => packets
                .into_iter()
                .map(|mut p| {
                    if let Payload::Plain(records) = &mut p.payload {
                        for r in records.iter_mut() {
                            if r.data_type == DataType::VoiceRecording {
                                *r = Record::new(DataType::TextCommand, r.value.clone());
                            }
                        }
                    }
                    p
                })
                .collect(),
        }
    }
}

/// A shard's tap plus an optional *firewall shadow*: a second tap on the
/// same fault plane that only sees what an A&T firewall forwards of each
/// batch. Tap faults key off a packet's sequence number within its session,
/// which the firewall shifts, so the shadow records exactly what the tap of
/// an executed `Firewall` run records, without executing that run.
struct ShadowedTap {
    tap: Tap,
    shadow: Option<(alexa_net::Firewall, Tap)>,
}

impl ShadowedTap {
    /// Taps at `vantage` on `plane`; the shadow exists only when `shadow`
    /// is set.
    fn new(vantage: Vantage, plane: &FaultPlane, shadow: bool) -> ShadowedTap {
        let make = || Tap::with_faults(vantage, plane.clone());
        ShadowedTap {
            tap: make(),
            shadow: shadow.then(|| (alexa_net::Firewall::new(), make())),
        }
    }

    fn start(&mut self, label: &str) {
        self.tap.start(label);
        if let Some((_, shadow)) = &mut self.shadow {
            shadow.start(label);
        }
    }

    /// Observe one offered batch on the tap, and its forwarded part on the
    /// shadow. The shadow's copy of each payload holds no more than its
    /// measurement reads: the router's ciphertext size, or the AVS records'
    /// types (tap faults act on record positions, never values).
    fn observe_batch(&mut self, packets: Vec<Packet>) {
        if let Some((fw, shadow)) = &mut self.shadow {
            let allowed = packets.iter().filter(|p| fw.judge(p) == Verdict::Allow);
            let copy = |payload: &Payload| match (shadow.vantage(), payload) {
                (Vantage::Avs, Payload::Plain(records)) => Payload::Plain(
                    records
                        .iter()
                        .map(|r| Record::new(r.data_type, ""))
                        .collect(),
                ),
                (Vantage::Avs, encrypted) => encrypted.clone(),
                (Vantage::Router, payload) => payload.encrypt(),
            };
            let forwarded = allowed
                .map(|p| Packet {
                    payload: copy(&p.payload),
                    ..*p
                })
                .collect();
            shadow.observe_batch(forwarded);
        }
        self.tap.observe_batch(packets);
    }

    fn stop(&mut self) {
        self.tap.stop();
        if let Some((_, shadow)) = &mut self.shadow {
            shadow.stop();
        }
    }
}

/// Everything one persona shard produces; merged into [`Observations`] in
/// fixed persona order after all shards finish.
#[derive(Default)]
pub(crate) struct PersonaShard {
    /// Router-tap captures (`Some` for Echo personas, even when empty).
    pub(crate) router_captures: Option<Vec<Capture>>,
    /// The firewall shadow's router captures (Echo personas of a shadowed
    /// run only).
    pub(crate) shadow_captures: Option<Vec<Capture>>,
    /// Skills whose install failed.
    pub(crate) failed_installs: Vec<String>,
    /// DSAR exports, one per request phase (Echo personas only).
    pub(crate) dsar: Vec<(DsarPhase, DsarExport)>,
    /// All crawl visits, all iterations, in crawl order.
    pub(crate) crawl: Vec<alexa_adtech::VisitRecord>,
    /// Audio transcripts per streaming service (audio personas only).
    pub(crate) audio: Vec<(StreamingService, Vec<String>)>,
    /// Injected-fault and retry accounting for this shard.
    pub(crate) ledger: FaultLedger,
    /// Skill installs: observed successes / planned.
    pub(crate) installs: Coverage,
    /// Skill interactions (utterances): observed / planned.
    pub(crate) interactions: Coverage,
    /// Crawl visits: observed / planned.
    pub(crate) visits: Coverage,
}

/// Everything one AVS-category shard produces.
pub(crate) struct AvsShard {
    pub(crate) captures: Vec<Capture>,
    /// The firewall shadow's (voice, text) record counts, when shadowed.
    pub(crate) shadow_flows: Option<(usize, usize)>,
    pub(crate) ledger: FaultLedger,
    /// Skills whose plaintext pass completed: observed / planned.
    pub(crate) skills: Coverage,
}

/// Fold a retried device operation into a shard ledger.
///
/// Injected faults and retries always count. Only *transient* final failures
/// count as losses: a modeled failure (`fails_to_load`, `NotAwake`, …) is
/// pipeline behavior, not a fault — its final attempt was not injected.
fn absorb_outcome<T>(
    ledger: &mut FaultLedger,
    channel: FaultChannel,
    out: &RetryOutcome<T, DeviceError>,
) {
    if out.succeeded() || matches!(&out.result, Err(e) if e.is_transient()) {
        ledger.record(channel, out);
    } else {
        ledger.inject(channel, u64::from(out.retries));
        ledger.retries += u64::from(out.retries);
        ledger.backoff_ms += out.backoff_ms;
    }
}

/// Count a shard's tap in its log, and fold the tap's packet-level fault
/// counters into the shard's ledger.
fn absorb_tap(log: &mut ShardLog, ledger: &mut FaultLedger, stats: TapStats) {
    log.add("tap.sessions", stats.sessions as u64);
    log.add("tap.flows", stats.packets as u64);
    log.add("tap.bytes", stats.bytes as u64);
    ledger.inject(FaultChannel::PacketDrop, stats.dropped as u64);
    ledger.inject(FaultChannel::FlowTruncation, stats.truncated as u64);
}

/// Run one persona's complete timeline against its own cloud + device stack.
///
/// `all_index` is the persona's fixed position in [`Persona::all`]; every
/// seed and identifier below derives from such fixed indices so the shard's
/// output is independent of which worker runs it and when.
///
/// `log` is the shard's private event log (span taxonomy in DESIGN.md §9).
/// Recording never reads or advances any RNG, so the produced shard is
/// byte-identical whether the log is enabled or not.
#[expect(
    clippy::too_many_arguments,
    reason = "the shard's shared inputs are borrowed one by one from the run"
)]
pub(crate) fn run_persona_shard(
    config: &AuditConfig,
    market: &Marketplace,
    crawler: &Crawler,
    sites: &[&Website],
    plane: &FaultPlane,
    persona: Persona,
    all_index: usize,
    shadow: bool,
    log: &mut ShardLog,
) -> PersonaShard {
    // Open the shard's allocation window here — not at log creation — so it
    // covers exactly the shard body and none of the caller's staging work.
    log.alloc_open();
    let mut out = PersonaShard::default();
    let account = persona.account();
    let rpolicy = RetryPolicy::standard();
    let mut budget = RetryBudget::new(plane.profile().retry_budget());
    // Per-shard cloud: the profiler only ever holds per-account state and no
    // persona reads another's account, so giving each shard its own cloud
    // preserves every observable relationship while removing all sharing.
    let mut cloud = AlexaCloud::new();
    let mut defense = Defense::new(config.defense);
    let echo_index = Persona::echo_personas()
        .into_iter()
        .position(|p| p == persona);
    let (mut device, mut tap, mut profile) = log.span("boot", |l| {
        l.work(1); // one provisioning step per persona
        let device = echo_index.map(|i| {
            let seed = config.seed ^ (i as u64 + 1);
            EchoDevice::new(Vantage::Router, &account, seed, plane.clone())
        });
        let tap = ShadowedTap::new(Vantage::Router, plane, shadow);
        let profile = BrowserProfile::fresh(persona.name(), all_index as u8 + 1, Some(&account));
        (device, tap, profile)
    });

    // ---- Install phase (§3.1: top skills of the persona's category) -----
    log.span("install", |l| {
        if let (Some(device), Some(cat)) = (device.as_mut(), persona.category()) {
            for skill in market.top_skills(cat, config.skills_per_category) {
                out.installs.expected += 1;
                l.work(1); // one install attempt
                tap.start(&skill.id.0);
                let attempt = retry(
                    &rpolicy,
                    &mut budget,
                    config.seed,
                    || format!("{account}/install/{}", skill.id.0),
                    |_| device.install(&mut cloud, skill),
                    DeviceError::is_transient,
                );
                absorb_outcome(&mut out.ledger, FaultChannel::InstallFailure, &attempt);
                match attempt.result {
                    Ok(packets) => {
                        out.installs.observed += 1;
                        l.work(packets.len() as u64);
                        tap.observe_batch(defense.apply(packets));
                    }
                    Err(_) => out.failed_installs.push(skill.id.0.clone()),
                }
                tap.stop();
            }
        }
    });
    // First DSAR: after installation (§6.1).
    if persona.has_echo() {
        log.span("dsar.after_install", |l| {
            l.work(1); // one DSAR export
            out.dsar.push((
                DsarPhase::AfterInstall,
                cloud
                    .profiler
                    .dsar_export(&account, DsarPhase::AfterInstall),
            ));
        });
    }

    // ---- Pre-interaction crawls ------------------------------------------
    log.span("crawl.pre", |l| {
        crawl_window(
            config,
            crawler,
            sites,
            plane,
            &rpolicy,
            &mut budget,
            persona,
            &cloud,
            &mut profile,
            &mut out,
            0..config.pre_iterations,
            l,
        );
    });

    // ---- Interaction phase -----------------------------------------------
    log.span("interact", |l| {
        if let (Some(device), Some(cat)) = (device.as_mut(), persona.category()) {
            for skill in market.top_skills(cat, config.skills_per_category) {
                if !device.has_skill(&skill.id) {
                    continue; // failed install
                }
                tap.start(&skill.id.0);
                for utterance in scraped_script(skill)
                    .iter()
                    .take(config.utterances_per_skill)
                {
                    out.interactions.expected += 1;
                    l.work(1); // one replayed utterance
                    let spoken = format!("Alexa, {utterance}");
                    let attempt = retry(
                        &rpolicy,
                        &mut budget,
                        config.seed,
                        || format!("{account}/interact/{}/{utterance}", skill.id.0),
                        |_| device.interact(&mut cloud, skill, &spoken),
                        DeviceError::is_transient,
                    );
                    absorb_outcome(&mut out.ledger, FaultChannel::InteractionFailure, &attempt);
                    match attempt.result {
                        Ok(packets) => {
                            out.interactions.observed += 1;
                            l.work(packets.len() as u64);
                            tap.observe_batch(defense.apply(packets));
                        }
                        // Injected outage survived retry: the utterance is lost.
                        Err(e) if e.is_transient() => {}
                        // Modeled behavior (e.g. the device didn't wake): the
                        // interaction happened and was observed to do nothing.
                        Err(_) => out.interactions.observed += 1,
                    }
                }
                tap.stop();
            }
        }
    });
    // Second DSAR: after interaction.
    if persona.has_echo() {
        log.span("dsar.after_interaction1", |l| {
            l.work(1); // one DSAR export
            out.dsar.push((
                DsarPhase::AfterInteraction1,
                cloud
                    .profiler
                    .dsar_export(&account, DsarPhase::AfterInteraction1),
            ));
        });
    }

    // ---- Post-interaction crawls -----------------------------------------
    log.span("crawl.post", |l| {
        crawl_window(
            config,
            crawler,
            sites,
            plane,
            &rpolicy,
            &mut budget,
            persona,
            &cloud,
            &mut profile,
            &mut out,
            config.pre_iterations..config.pre_iterations + config.post_iterations,
            l,
        );
    });
    // Third DSAR: second request after interaction.
    if persona.has_echo() {
        log.span("dsar.after_interaction2", |l| {
            l.work(1); // one DSAR export
            out.dsar.push((
                DsarPhase::AfterInteraction2,
                cloud
                    .profiler
                    .dsar_export(&account, DsarPhase::AfterInteraction2),
            ));
        });
    }

    let tap_stats = tap.tap.stats();
    let shadow = tap.shadow.map(|(_, shadow)| shadow.into_captures());
    let captures = tap.tap.into_captures();
    if persona.has_echo() {
        out.router_captures = Some(captures);
        out.shadow_captures = shadow;
    }

    // ---- Audio-ad sessions (§3.3: two interest personas + vanilla) -------
    if let Some(pi) = Persona::AUDIO.iter().position(|p| *p == persona) {
        log.span("audio", |l| {
            // Audio targeting keys off the segments the profiler actually
            // holds — the same ground-truth channel the web auctions use —
            // not off the persona label.
            let segment = cloud
                .profiler
                .targeting_segments(&account)
                .into_iter()
                .next();
            let transcriber = Transcriber::default();
            for (si, service) in StreamingService::ALL.into_iter().enumerate() {
                let session_seed = config.seed ^ ((pi as u64 + 1) << 8) ^ ((si as u64 + 1) << 16);
                let session = simulate_session(service, segment, config.audio_hours, session_seed);
                let transcripts = transcriber.transcribe(&session, session_seed);
                l.work(1 + transcripts.len() as u64); // one session + its transcripts
                out.audio.push((service, transcripts));
            }
        });
    }

    // Shard-level counts: what the tap captured, what the crawls observed,
    // and what the persona's timeline produced.
    absorb_tap(log, &mut out.ledger, tap_stats);
    log.add("install.failed", out.failed_installs.len() as u64);
    log.add("dsar.exports", out.dsar.len() as u64);
    log.add("crawl.visits", out.crawl.len() as u64);
    log.add(
        "crawl.bids",
        out.crawl.iter().map(|v| v.bids.len() as u64).sum(),
    );
    log.add(
        "crawl.creatives",
        out.crawl.iter().map(|v| v.creatives.len() as u64).sum(),
    );
    log.add(
        "crawl.syncs",
        out.crawl.iter().map(|v| v.syncs.len() as u64).sum(),
    );
    log.add(
        "audio.transcripts",
        out.audio.iter().map(|(_, t)| t.len() as u64).sum(),
    );

    // Circuit breaker: an exhausted retry budget marks the shard degraded —
    // the run completes and reports reduced coverage instead of panicking.
    out.ledger.degraded = budget.exhausted();
    if plane.is_active() {
        log.add("fault.injected", out.ledger.total_injected());
        log.add("fault.retries", out.ledger.retries);
        log.add("fault.losses", out.ledger.losses);
    }
    log.alloc_seal();

    out
}

/// One crawl window (pre- or post-interaction) for a persona shard.
///
/// With an inactive plane this is byte-for-byte the original crawl loop.
/// With faults active, each visit retries under the shard budget when the
/// `crawl_timeout` channel fires, and surviving visits pass through the
/// crawler's bid-loss filter. Each attempted visit advances the shard's
/// virtual work clock by one unit.
#[expect(
    clippy::too_many_arguments,
    reason = "one crawl window borrows the shard's state piece by piece"
)]
fn crawl_window(
    config: &AuditConfig,
    crawler: &Crawler,
    sites: &[&Website],
    plane: &FaultPlane,
    rpolicy: &RetryPolicy,
    budget: &mut RetryBudget,
    persona: Persona,
    cloud: &AlexaCloud,
    profile: &mut BrowserProfile,
    out: &mut PersonaShard,
    window: std::ops::Range<usize>,
    log: &mut ShardLog,
) {
    for iteration in window {
        let user = user_state(persona, cloud);
        for site in sites {
            out.visits.expected += 1;
            log.work(1); // one crawl visit attempt
            if !plane.is_active() {
                out.visits.observed += 1;
                out.crawl
                    .push(crawler.visit(site, profile, &user, iteration, config.seed));
                continue;
            }
            let key = format!(
                "{}/crawl/{}/{iteration}",
                persona.name(),
                site.domain.as_str()
            );
            let timeout = plane.key(FaultChannel::CrawlTimeout).str(&key).byte(b'#');
            let attempt = retry(
                rpolicy,
                budget,
                config.seed,
                || key.clone(),
                |n| {
                    if plane.fires_at(timeout.u64(n.into())) {
                        Err(())
                    } else {
                        Ok(crawler.visit_with_faults(site, profile, &user, iteration, config.seed))
                    }
                },
                |_: &()| true,
            );
            out.ledger.record(FaultChannel::CrawlTimeout, &attempt);
            if let Ok((record, lost_bids)) = attempt.result {
                out.visits.observed += 1;
                out.ledger.inject(FaultChannel::BidLoss, lost_bids);
                if lost_bids > 0 {
                    out.ledger.losses += lost_bids;
                }
                out.crawl.push(record);
            }
        }
    }
}

/// The AVS Echo plaintext pass for one skill category (§3.2), with its own
/// lab device and cloud seeded from the category's fixed index.
pub(crate) fn run_avs_shard(
    config: &AuditConfig,
    market: &Marketplace,
    plane: &FaultPlane,
    cat_index: usize,
    cat: SkillCategory,
    shadow: bool,
    log: &mut ShardLog,
) -> AvsShard {
    log.alloc_open(); // see run_persona_shard: window == shard body only
    let mut cloud = AlexaCloud::new();
    let mut avs = EchoDevice::new(
        Vantage::Avs,
        "avs-lab",
        config.seed ^ 0xa5a5 ^ ((cat_index as u64 + 1) << 32),
        plane.clone(),
    );
    let mut tap = ShadowedTap::new(Vantage::Avs, plane, shadow);
    let mut defense = Defense::new(config.defense);
    let rpolicy = RetryPolicy::standard();
    let mut budget = RetryBudget::new(plane.profile().retry_budget());
    let mut ledger = FaultLedger::new();
    let mut skills_cov = Coverage::default();
    log.span("skills", |l| {
        for skill in market.top_skills(cat, config.skills_per_category) {
            skills_cov.expected += 1;
            l.work(1); // one plaintext-pass skill
            tap.start(&skill.id.0);
            let attempt = retry(
                &rpolicy,
                &mut budget,
                config.seed,
                || format!("avs/{}/install", skill.id.0),
                |_| avs.install(&mut cloud, skill),
                DeviceError::is_transient,
            );
            absorb_outcome(&mut ledger, FaultChannel::InstallFailure, &attempt);
            if let Ok(install_packets) = attempt.result {
                skills_cov.observed += 1;
                l.work(install_packets.len() as u64);
                tap.observe_batch(defense.apply(install_packets));
                for utterance in scraped_script(skill)
                    .iter()
                    .take(config.utterances_per_skill)
                {
                    let spoken = format!("Alexa, {utterance}");
                    let attempt = retry(
                        &rpolicy,
                        &mut budget,
                        config.seed,
                        || format!("avs/{}/interact/{utterance}", skill.id.0),
                        |_| avs.interact(&mut cloud, skill, &spoken),
                        DeviceError::is_transient,
                    );
                    absorb_outcome(&mut ledger, FaultChannel::InteractionFailure, &attempt);
                    if let Ok(packets) = attempt.result {
                        l.work(1 + packets.len() as u64);
                        tap.observe_batch(defense.apply(packets));
                    }
                }
                let uninstall = avs.uninstall(&mut cloud, skill);
                l.work(uninstall.len() as u64);
                tap.observe_batch(defense.apply(uninstall));
            }
            tap.stop();
        }
    });
    absorb_tap(log, &mut ledger, tap.tap.stats());
    ledger.degraded = budget.exhausted();
    if plane.is_active() {
        log.add("fault.injected", ledger.total_injected());
        log.add("fault.retries", ledger.retries);
        log.add("fault.losses", ledger.losses);
    }
    // Reduced here, so no plaintext copy outlives the shard.
    let shadow_flows = tap.shadow.take().map(|(_, shadow)| {
        voice_text(
            shadow.into_captures().iter().flat_map(|c| &c.packets),
            false,
        )
    });
    log.alloc_seal();
    AvsShard {
        captures: tap.tap.into_captures(),
        shadow_flows,
        ledger,
        skills: skills_cov,
    }
}

/// Run one shard group on `config.jobs` workers, one shard per item: each
/// shard fills its own [`ShardLog`] under its fixed structural index and
/// the item's label, and submits it, and the results come back in item
/// order whatever the schedule.
fn fan_out<I: Copy + Send + Sync, T: Send>(
    config: &AuditConfig,
    rec: &Recorder,
    group: &str,
    items: &[I],
    label: fn(I) -> &'static str,
    run: &(impl Fn(usize, I, &mut ShardLog) -> T + Sync),
) -> Vec<T> {
    par_map(config.jobs, items.to_vec(), |i, item| {
        let mut log = rec.shard(group, i, label(item));
        let shard = run(i, item, &mut log);
        rec.submit(log);
        shard
    })
}

/// The experiment driver.
pub struct AuditRun;

impl AuditRun {
    /// Execute the full audit and return the observable record.
    ///
    /// Work is distributed over `config.jobs` worker threads; the result is
    /// byte-identical for every worker count (see the module docs).
    pub fn execute(config: AuditConfig) -> Observations {
        Self::execute_with(config, &Recorder::disabled())
    }

    /// Execute the full audit with an observability [`Recorder`] attached.
    ///
    /// Every pipeline stage is timed via [`Recorder::stage`] and every
    /// persona / AVS-category shard fills its own [`ShardLog`], submitted
    /// under the shard's fixed structural index so the merged report is
    /// deterministic in everything but wall-clock values. Recording never
    /// touches an RNG or a control-flow decision: the produced
    /// [`Observations`] — and its digest — are identical to an untraced run
    /// (enforced by `crates/audit/tests/observability.rs`).
    pub fn execute_with(config: AuditConfig, rec: &Recorder) -> Observations {
        Self::run(config, false, rec).0
    }

    /// [`AuditRun::execute_with`], plus the `Firewall` run's
    /// [`Measurement`] when faults make the defense lens inexact.
    ///
    /// Tap faults key off a packet's sequence number within its capture
    /// session, and a firewall shifts those numbers, so under an active fault
    /// profile the baseline index cannot tell what a firewalled tap would
    /// have recorded. Each persona and AVS shard then also feeds its offered
    /// batches to a *firewall shadow* tap, and the `merge` stage measures
    /// the shadows. Everything upstream of a tap is defense-independent, so
    /// the measurement equals that of an executed `Firewall` run. `Some`
    /// only when the fault plane is active and `config.defense` is `None`;
    /// otherwise this is exactly `execute_with`. The [`Observations`] are
    /// the same either way.
    pub fn execute_with_firewall_shadow(
        config: AuditConfig,
        rec: &Recorder,
    ) -> (Observations, Option<Measurement>) {
        Self::run(config, true, rec)
    }

    fn run(
        config: AuditConfig,
        shadow: bool,
        rec: &Recorder,
    ) -> (Observations, Option<Measurement>) {
        let config = &config;
        // The fault plane's seed is derived from (not equal to) the master
        // seed so fault decisions never correlate with simulation draws.
        let plane = FaultPlane::new(config.seed ^ 0xfa417, config.fault.clone());
        let shadow = shadow && plane.is_active() && config.defense == DefenseMode::None;
        let market = rec.stage("marketplace", || Marketplace::generate(config.seed));
        let mut orgs = OrgMap::new();
        market.register_orgs(&mut orgs);

        let mut obs = Observations {
            seed: config.seed,
            pre_iterations: config.pre_iterations,
            post_iterations: config.post_iterations,
            orgs,
            ..Observations::default()
        };

        // Public marketplace metadata (the store pages).
        obs.catalog = market
            .all()
            .iter()
            .map(|s| SkillMeta {
                id: s.id.0.clone(),
                name: s.name.clone(),
                vendor: s.vendor.clone(),
                category: s.category,
                reviews: s.reviews,
                streaming: s.streaming,
                policy_link: s.policy.has_link,
            })
            .collect();

        // ---- AVS Echo plaintext pass, one shard per category (§3.2) -----
        let avs_shards = rec.stage("avs.pass", || {
            fan_out(
                config,
                rec,
                "avs",
                &SkillCategory::ALL,
                SkillCategory::label,
                &|ci, cat, log| run_avs_shard(config, &market, &plane, ci, cat, shadow, log),
            )
        });
        let mut coverage = CoverageReport::new(config.fault.name());
        let mut shadow_flows = (0, 0);
        for (cat, shard) in SkillCategory::ALL.iter().zip(avs_shards) {
            coverage.section("avs.skills").merge(shard.skills);
            coverage.merge_ledger(&format!("avs/{}", cat.label()), &shard.ledger);
            obs.avs_captures.extend(shard.captures);
            if let Some((voice, text)) = shard.shadow_flows {
                shadow_flows = (shadow_flows.0 + voice, shadow_flows.1 + text);
            }
        }

        // ---- Shared read-only web + ad ecosystem -------------------------
        let (web, crawler) = rec.stage("web.ecosystem", || {
            let sync_graph = SyncGraph::generate(config.seed);
            let web = WebEcosystem::generate(config.seed, config.web_size);
            let auction = Auction {
                bidders: standard_roster(sync_graph.partners()),
                season: SeasonModel::new(config.pre_iterations),
            };
            (web, Crawler::new(auction, sync_graph))
        });
        let sites = web.prebid_sites(config.crawl_sites);

        // ---- Persona shards ----------------------------------------------
        let personas = Persona::all();
        let shards = rec.stage("persona.shards", || {
            fan_out(
                config,
                rec,
                "persona",
                &personas,
                Persona::name,
                &|i, persona, log| {
                    run_persona_shard(
                        config, &market, &crawler, &sites, &plane, persona, i, shadow, log,
                    )
                },
            )
        });

        // Merge in fixed persona order (par_map preserves input order).
        let firewall = rec.stage("merge", || {
            let mut shadow_captures = std::collections::BTreeMap::new();
            for (persona, shard) in Persona::all().into_iter().zip(shards) {
                if let Some(captures) = shard.router_captures {
                    obs.router_captures.insert(persona, captures);
                }
                if let Some(captures) = shard.shadow_captures {
                    shadow_captures.insert(persona, captures);
                }
                if !shard.failed_installs.is_empty() {
                    obs.failed_installs.insert(persona, shard.failed_installs);
                }
                for (phase, export) in shard.dsar {
                    obs.dsar.insert((persona, phase), export);
                }
                obs.crawl.insert(persona, shard.crawl);
                for (service, transcripts) in shard.audio {
                    obs.audio.insert((persona, service), transcripts);
                }
                coverage.section("skill.installs").merge(shard.installs);
                coverage
                    .section("skill.interactions")
                    .merge(shard.interactions);
                coverage.section("crawl.visits").merge(shard.visits);
                coverage.merge_ledger(persona.name(), &shard.ledger);
            }
            shadow.then(|| measure_shadow(&mut obs, shadow_captures, shadow_flows))
        });

        // ---- Policy download ---------------------------------------------
        let (policies, policy_cov, policy_ledger) = rec.stage("policy.download", || {
            let fetcher = PolicyFetcher::new(config.seed, plane.clone());
            let skills: Vec<&alexa_platform::Skill> = market.all().iter().collect();
            let fetched = par_map(config.jobs, skills, |_, skill| {
                (skill.id.0.clone(), fetcher.fetch(skill))
            });
            let mut cov = Coverage::default();
            let mut ledger = FaultLedger::new();
            let mut map = std::collections::BTreeMap::new();
            for (id, outcome) in fetched {
                cov.expected += 1;
                ledger.record(FaultChannel::PolicyDownload, &outcome);
                // A lost download omits the catalog entry entirely;
                // `Ok(None)` is the modeled "no retrievable policy" answer
                // and counts as observed.
                if let Ok(doc) = outcome.result {
                    cov.observed += 1;
                    map.insert(id, doc);
                }
            }
            (map, cov, ledger)
        });
        obs.policies = policies;
        rec.count("policy.documents", obs.policies.len() as u64);
        coverage.section("policy.downloads").merge(policy_cov);
        coverage.merge_ledger("policy", &policy_ledger);

        if plane.is_active() {
            rec.count("fault.injected", coverage.total_injected());
            rec.count("fault.retries", coverage.retries);
            rec.count("fault.losses", coverage.losses);
        }
        obs.coverage = coverage;

        (obs, firewall)
    }
}

/// Measure a firewall shadow: its router captures indexed against the
/// baseline's catalog and org map (moved over and back, not cloned), plus
/// the AVS shadows' `(voice, text)` record counts. Equal, field for field,
/// to [`defense::measure`] of an executed `Firewall` run.
fn measure_shadow(
    obs: &mut Observations,
    router_captures: std::collections::BTreeMap<Persona, Vec<Capture>>,
    (voice, text): (usize, usize),
) -> Measurement {
    let traffic = Observations {
        router_captures,
        catalog: std::mem::take(&mut obs.catalog),
        orgs: std::mem::take(&mut obs.orgs),
        ..Observations::default()
    };
    let mut m = defense::measure(&AnalysisIndex::build(&traffic), DefenseMode::None);
    (m.voice_flows, m.text_flows) = (voice, text);
    obs.catalog = traffic.catalog;
    obs.orgs = traffic.orgs;
    m
}

/// The interaction script for a skill, scraped from its marketplace store
/// page exactly as the paper's crawler did (§3.1.1) — the audit never reads
/// the simulation's ground-truth utterance list.
fn scraped_script(skill: &alexa_platform::Skill) -> Vec<String> {
    let page = render_store_page(skill);
    let mut script = Vec::new();
    if let Some(invocation) = parse_invocation(&page) {
        script.push(format!("open {invocation}"));
    }
    script.extend(parse_sample_utterances(&page));
    script
}

/// Build the ecosystem-visible user state for a persona at crawl time.
///
/// For Echo personas the interest segments come from Amazon's profiler
/// (hidden from the auditor; visible to the ad stack). Web personas carry
/// their priming topic.
fn user_state(persona: Persona, cloud: &AlexaCloud) -> UserState {
    let mut user = UserState::blank(persona.name());
    match persona {
        Persona::Interest(_) | Persona::Vanilla => {
            user.amazon_customer = true;
            user.echo_segments = cloud.profiler.targeting_segments(&persona.account());
        }
        Persona::WebHealth | Persona::WebScience | Persona::WebComputers => {
            user.amazon_customer = true; // crawls run logged into Amazon (§3.3)
            if let Some(topic) = persona.web_topic() {
                user.web_segments.insert(topic.to_string());
            }
        }
    }
    user
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_run_produces_all_observables() {
        let obs = AuditRun::execute(AuditConfig::small(3));
        assert_eq!(obs.catalog.len(), 450);
        assert_eq!(obs.router_captures.len(), 10);
        assert!(!obs.avs_captures.is_empty());
        assert_eq!(obs.crawl.len(), 13);
        assert_eq!(obs.audio.len(), 9);
        assert_eq!(obs.dsar.len(), 30);
        assert_eq!(obs.policies.len(), 450);
    }

    #[test]
    fn vanilla_has_no_skill_captures() {
        let obs = AuditRun::execute(AuditConfig::small(3));
        assert!(obs.router_captures[&Persona::Vanilla].is_empty());
        assert!(!obs.router_captures[&Persona::Interest(SkillCategory::ConnectedCar)].is_empty());
    }

    #[test]
    fn crawl_covers_all_iterations() {
        let cfg = AuditConfig::small(3);
        let total = cfg.pre_iterations + cfg.post_iterations;
        let obs = AuditRun::execute(cfg.clone());
        let visits = &obs.crawl[&Persona::Vanilla];
        assert_eq!(visits.len(), total * cfg.crawl_sites);
        let max_iter = visits.iter().map(|v| v.iteration).max().unwrap();
        assert_eq!(max_iter, total - 1);
    }

    #[test]
    fn runs_are_reproducible() {
        let a = AuditRun::execute(AuditConfig::small(11));
        let b = AuditRun::execute(AuditConfig::small(11));
        let bids = |o: &Observations| {
            o.crawl[&Persona::Interest(SkillCategory::FashionStyle)]
                .iter()
                .flat_map(|v| v.bids.iter().map(|b| (b.slot_id(), b.cpm())))
                .collect::<Vec<_>>()
        };
        assert_eq!(bids(&a), bids(&b));
    }
}
