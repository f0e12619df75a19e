//! Defense evaluation (§8.1): what each user-side defense actually buys.
//!
//! The paper proposes two concrete defenses — selective traffic filtering
//! and on-device transcription — but does not evaluate them. This module
//! closes that loop by comparing the observable record with and without
//! each defense:
//!
//! * **Firewall**: advertising & tracking traffic should vanish while every
//!   functional third-party flow survives ("blocking without breaking");
//! * **Text-only**: voice recordings should vanish from every capture while
//!   skill functionality (and therefore traffic volume) is preserved;
//! * **the sobering result**: neither network defense touches the *bid
//!   uplift*, because Amazon's interest inference happens server-side from
//!   the interaction content the platform necessarily receives. Only the
//!   platform itself can turn that off — the paper's transparency argument.

use crate::analysis::{bids, traffic};
use crate::experiment::DefenseMode;
use crate::index::{AnalysisIndex, HostInfo};
use crate::persona::Persona;
use alexa_net::{DataType, Firewall, Packet, Verdict};
use std::fmt::Write as _;

/// The defense-sensitive traffic observables of one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// A&T share of all router packets (Table 2's total).
    pub ad_tracking_share: f64,
    /// Third-party A&T domains, summed over personas (Table 3).
    pub ad_tracking_domains: usize,
    /// Functional third-party domains, summed over personas (Table 3).
    pub functional_domains: usize,
    /// Voice-recording records in the AVS plaintext captures.
    pub voice_flows: usize,
    /// Text-command records in the AVS plaintext captures.
    pub text_flows: usize,
}

/// Measure a run as if `lens` had been active at its tap (`None`: as
/// observed). Exact, because every defense is a pure per-packet transform at
/// the tap (`experiment::Defense`) that nothing upstream reads: the
/// firewall becomes one [`Firewall`] verdict per distinct host, text-only a
/// voice → text remap. Oracle tests hold this equal to measuring a
/// genuinely re-executed defended run.
///
/// Under faults the firewall lens is the one exception: tap faults key off
/// a packet's sequence number within its session, which the firewall
/// shifts. There the firewall comes from the shadow tap of
/// [`crate::AuditRun::execute_with_firewall_shadow`] instead. Text-only
/// changes no packet count and stays exact.
pub fn measure(ix: &AnalysisIndex, lens: DefenseMode) -> Measurement {
    let fw = Firewall::new();
    let blocked = |d: &alexa_net::Domain| {
        lens == DefenseMode::Firewall && fw.judge_remote(d) == Verdict::Block
    };
    let keep = |h: &HostInfo| !blocked(&h.host);

    let t3 = traffic::table3(ix, keep);
    let avs = ix.obs.avs_captures.iter().flat_map(|c| &c.packets);
    let (voice_flows, text_flows) = voice_text(
        avs.filter(|p| !blocked(&p.remote)),
        lens == DefenseMode::TextOnly,
    );
    Measurement {
        ad_tracking_share: traffic::table2(ix, keep).total_ad_tracking,
        ad_tracking_domains: t3.rows.iter().map(|r| r.1).sum(),
        functional_domains: t3.rows.iter().map(|r| r.2).sum(),
        voice_flows,
        text_flows,
    }
}

/// The voice-recording and text-command records in `packets`, as
/// `(voice, text)`; `text_only` counts each voice recording as the text
/// command it would have been transcribed to.
pub(crate) fn voice_text<'p>(
    packets: impl Iterator<Item = &'p Packet>,
    text_only: bool,
) -> (usize, usize) {
    let (mut voice, mut text) = (0, 0);
    for p in packets {
        for r in p.payload.records().unwrap_or_default() {
            match r.data_type {
                DataType::VoiceRecording if text_only => text += 1,
                DataType::VoiceRecording => voice += 1,
                DataType::TextCommand => text += 1,
                _ => {}
            }
        }
    }
    (voice, text)
}

/// Median CPM uplift of the strongest interest persona over vanilla
/// (Table 5). Crawl bids never pass a tap, so this is one number per run,
/// whatever the defense.
pub fn bid_uplift(ix: &AnalysisIndex) -> f64 {
    let t5 = bids::table5(ix);
    let Some((vanilla, _)) = t5.get(Persona::Vanilla) else {
        return 0.0;
    };
    if vanilla == 0.0 {
        return 0.0;
    }
    t5.rows
        .iter()
        .filter(|r| r.0 != Persona::Vanilla)
        .map(|r| r.1 / vanilla)
        .fold(0.0, f64::max)
}

/// Comparison of one defense against the undefended baseline.
#[derive(Debug, Clone)]
pub struct DefenseReport {
    /// Name of the defense evaluated.
    pub defense: String,
    /// The undefended run's observables.
    pub baseline: Measurement,
    /// The defended run's observables: the target observable should vanish
    /// while functional domains must not shrink (no broken skills).
    pub defended: Measurement,
    /// [`bid_uplift`], baseline → defended (server-side profiling is out of
    /// the defense's reach, so this should *not* drop).
    pub bid_uplift: (f64, f64),
}

/// Pair a defended measurement with the baseline's.
pub fn compare(
    defense: &str,
    baseline: Measurement,
    defended: Measurement,
    bid_uplift: (f64, f64),
) -> DefenseReport {
    DefenseReport {
        defense: defense.to_string(),
        baseline,
        defended,
        bid_uplift,
    }
}

impl DefenseReport {
    /// Stream the comparison into `out`; returns render work units.
    pub fn render_into(&self, out: &mut String) -> usize {
        let (b, d) = (&self.baseline, &self.defended);
        let _ = write!(
            out,
            "Defense evaluation: {}\n\
               A&T traffic share:          {:.2}% -> {:.2}%\n\
               A&T third-party domains:    {} -> {}\n\
               functional 3rd-p. domains:  {} -> {}\n\
               voice-recording flows:      {} -> {}\n\
               text-command flows:         {} -> {}\n\
               max median bid uplift:      {:.2}x -> {:.2}x\n",
            self.defense,
            100.0 * b.ad_tracking_share,
            100.0 * d.ad_tracking_share,
            b.ad_tracking_domains,
            d.ad_tracking_domains,
            b.functional_domains,
            d.functional_domains,
            b.voice_flows,
            d.voice_flows,
            b.text_flows,
            d.text_flows,
            self.bid_uplift.0,
            self.bid_uplift.1,
        );
        7
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observations::Observations;
    use crate::{AuditConfig, AuditRun};
    use alexa_fault::FaultProfile;
    use alexa_obs::Recorder;
    use std::sync::OnceLock;

    fn baseline() -> &'static AnalysisIndex<'static> {
        crate::analysis::test_support::ix()
    }

    /// The index of a genuinely re-executed `Firewall` or `TextOnly` run.
    fn executed(mode: DefenseMode) -> &'static AnalysisIndex<'static> {
        static OBS: [OnceLock<Observations>; 2] = [OnceLock::new(), OnceLock::new()];
        static IX: [OnceLock<AnalysisIndex<'static>>; 2] = [OnceLock::new(), OnceLock::new()];
        let i = usize::from(mode == DefenseMode::TextOnly);
        let run = || AuditRun::execute(AuditConfig::small(2222).with_defense(mode));
        IX[i].get_or_init(|| AnalysisIndex::build(OBS[i].get_or_init(run)))
    }

    /// The baseline against the executed run of `mode`.
    fn report(mode: DefenseMode) -> DefenseReport {
        let defended = executed(mode);
        compare(
            &format!("{mode:?}"),
            measure(baseline(), DefenseMode::None),
            measure(defended, DefenseMode::None),
            (bid_uplift(baseline()), bid_uplift(defended)),
        )
    }

    /// Every field, and the share bit for bit.
    fn fields(m: Measurement) -> (u64, Measurement) {
        (m.ad_tracking_share.to_bits(), m)
    }

    #[test]
    fn firewall_removes_ad_tracking_without_breaking() {
        let r = report(DefenseMode::Firewall);
        assert!(r.baseline.ad_tracking_share > 0.0);
        assert_eq!(
            r.defended.ad_tracking_share, 0.0,
            "A&T traffic survived the firewall"
        );
        assert_eq!(r.defended.ad_tracking_domains, 0);
        // Functionality preserved: functional third-party domains intact.
        assert_eq!(r.baseline.functional_domains, r.defended.functional_domains);
    }

    #[test]
    fn firewall_does_not_stop_server_side_profiling() {
        // The paper's deeper point: Amazon's inference is out of reach of a
        // network filter. Bid uplift persists.
        let r = report(DefenseMode::Firewall);
        assert!(r.bid_uplift.1 > 1.5, "uplift gone: {:?}", r.bid_uplift);
    }

    #[test]
    fn text_only_eliminates_voice_recordings() {
        let r = report(DefenseMode::TextOnly);
        assert!(r.baseline.voice_flows > 0);
        assert_eq!(r.defended.voice_flows, 0, "voice recordings still flowing");
        assert!(r.defended.text_flows > 0, "no text commands replaced them");
        // Functionality (and thus traffic shape) preserved.
        assert_eq!(r.baseline.functional_domains, r.defended.functional_domains);
    }

    #[test]
    fn renders() {
        let s = crate::analysis::test_support::rendered(|out| {
            report(DefenseMode::Firewall).render_into(out)
        });
        assert!(s.contains("A&T traffic share"));
        assert!(s.contains("bid uplift"));
    }

    /// The equivalence the repro pipeline relies on: what it derives for
    /// `mode` — the baseline read through `mode`'s lens, or under faults the
    /// firewall shadow — is exactly what a re-executed run sees, and the
    /// defense does not move the uplift by a single bit.
    fn assert_lens_matches_executed_run(mode: DefenseMode, seed: u64, fault: &FaultProfile) {
        let config = AuditConfig::small(seed).with_faults(fault.clone());
        let case = format!("{mode:?}, seed {seed}, {}", fault.name());
        let (obs, shadow) =
            AuditRun::execute_with_firewall_shadow(config.clone(), &Recorder::disabled());
        assert_eq!(shadow.is_some(), fault.is_active(), "{case}: shadow");
        let base = AnalysisIndex::build(&obs);
        let derived = match (mode, shadow) {
            (DefenseMode::Firewall, Some(firewall)) => firewall,
            _ => measure(&base, mode),
        };
        let run = AuditRun::execute(config.with_defense(mode));
        let executed = AnalysisIndex::build(&run);
        assert_eq!(
            fields(derived),
            fields(measure(&executed, DefenseMode::None)),
            "{case}"
        );
        assert_eq!(
            bid_uplift(&executed).to_bits(),
            bid_uplift(&base).to_bits(),
            "{case}: uplift"
        );
    }

    /// Seeds × fault profiles of the faulted oracle cases.
    fn faulted_cases() -> impl Iterator<Item = (u64, FaultProfile)> {
        [7, 2222].into_iter().flat_map(|seed| {
            [
                FaultProfile::flaky(),
                FaultProfile::degraded(),
                FaultProfile::hostile(),
            ]
            .map(|fault| (seed, fault))
        })
    }

    #[test]
    fn derived_firewall_matches_executed_run() {
        assert_lens_matches_executed_run(DefenseMode::Firewall, 2222, &FaultProfile::none());
    }

    #[test]
    fn derived_text_only_matches_executed_run() {
        assert_lens_matches_executed_run(DefenseMode::TextOnly, 2222, &FaultProfile::none());
    }

    #[test]
    fn firewall_shadow_matches_executed_run_under_faults() {
        for (seed, fault) in faulted_cases() {
            assert_lens_matches_executed_run(DefenseMode::Firewall, seed, &fault);
        }
    }

    #[test]
    fn derived_text_only_matches_executed_run_under_faults() {
        for (seed, fault) in faulted_cases() {
            assert_lens_matches_executed_run(DefenseMode::TextOnly, seed, &fault);
        }
    }

    #[test]
    fn lens_matches_the_tap_transform_on_blocked_avs_traffic() {
        // The executed fixtures never send plaintext records to an A&T
        // host; this record does, at both capture sites.
        use alexa_net::{Capture, Domain, Packet, Payload, Record};
        let mut cap = Capture::new("skill");
        for (host, data_type) in [
            ("dts.podtrac.com", DataType::VoiceRecording),
            ("avs-alexa-na.amazon.com", DataType::VoiceRecording),
            ("api.amazon.com", DataType::TextCommand),
        ] {
            let (ip, record) = (std::net::Ipv4Addr::LOCALHOST, Record::new(data_type, "x"));
            let remote = Domain::parse(host).expect("valid host");
            cap.packets.push(Packet::outgoing(
                0,
                remote,
                ip,
                Payload::Plain(vec![record]),
            ));
        }
        let mut obs = Observations::default();
        obs.router_captures
            .insert(Persona::Vanilla, vec![cap.clone()]);
        obs.avs_captures.push(cap);
        for mode in [DefenseMode::Firewall, DefenseMode::TextOnly] {
            let mut defended = obs.clone();
            let router = defended.router_captures.values_mut().flatten();
            for cap in router.chain(&mut defended.avs_captures) {
                cap.packets =
                    crate::experiment::Defense::new(mode).apply(std::mem::take(&mut cap.packets));
            }
            let executed = measure(&AnalysisIndex::build(&defended), DefenseMode::None);
            let lensed = measure(&AnalysisIndex::build(&obs), mode);
            assert_eq!(fields(lensed), fields(executed), "{mode:?}");
        }
    }

    #[test]
    fn no_lens_reproduces_the_plain_tables() {
        let ix = baseline();
        let m = measure(ix, DefenseMode::None);
        let share = traffic::table2(ix, traffic::KEEP_ALL).total_ad_tracking;
        assert_eq!(m.ad_tracking_share.to_bits(), share.to_bits());
        let t3 = traffic::table3(ix, traffic::KEEP_ALL).rows;
        let sums = t3.iter().fold((0, 0), |(at, f), r| (at + r.1, f + r.2));
        assert_eq!((m.ad_tracking_domains, m.functional_domains), sums);
    }
}
