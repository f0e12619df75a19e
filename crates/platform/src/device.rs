//! The Echo device model, at either of the paper's vantage points (§3.2).
//!
//! One [`EchoDevice`] type serves both; its [`Vantage`] says which device
//! it is:
//!
//! * [`Vantage::Router`] — a certified 4th-generation Echo behind the RPi
//!   router. Talks to Amazon *and* skill backends; its traffic is only
//!   observable encrypted (the router's [`alexa_net::Tap`] opacifies
//!   payloads).
//! * [`Vantage::Avs`] — the AVS Device SDK instrumented on a Raspberry Pi.
//!   Logs payloads before encryption, but is **uncertified**: streaming
//!   skills are unsupported, and it only communicates with Amazon.
//!
//! Both run the same [`VoicePipeline`] (wake word → transcript → routing),
//! so the occasional fall-through of generic utterances to the built-in
//! assistant (§3.1.1) happens on both.

use crate::cloud::{AlexaCloud, InteractionKind};
use crate::skill::{Skill, SkillId};
use crate::voice::{RoutedIntent, VoicePipeline};
use alexa_fault::{FaultChannel, FaultPlane, Fnv1a};
use alexa_net::{Packet, Vantage};
use std::collections::{BTreeMap, BTreeSet};

/// Errors surfaced by device operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeviceError {
    /// The skill's backend did not respond at install time (4 skills).
    SkillFailedToLoad(SkillId),
    /// Interaction attempted with a skill that is not installed.
    NotInstalled(SkillId),
    /// Streaming skills are unsupported on the uncertified AVS Echo (§3.2).
    StreamingUnsupported(SkillId),
    /// The spoken phrase did not wake the device.
    NotAwake,
    /// Injected fault: skill enablement timed out. Transient — worth a
    /// retry.
    InstallTimeout(SkillId),
    /// Injected fault: the voice service gave no response. Transient.
    ServiceUnavailable(SkillId),
}

impl DeviceError {
    /// Whether a retry can plausibly succeed. Only the injected transient
    /// faults qualify; modeled failures (broken skill, wrong device, no
    /// wake) are permanent or behavioral.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            DeviceError::InstallTimeout(_) | DeviceError::ServiceUnavailable(_)
        )
    }
}

impl std::fmt::Display for DeviceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeviceError::SkillFailedToLoad(id) => write!(f, "skill {id} failed to load"),
            DeviceError::NotInstalled(id) => write!(f, "skill {id} is not installed"),
            DeviceError::StreamingUnsupported(id) => {
                write!(f, "streaming skill {id} unsupported on AVS Echo")
            }
            DeviceError::NotAwake => write!(f, "device did not wake"),
            DeviceError::InstallTimeout(id) => write!(f, "skill {id} enablement timed out"),
            DeviceError::ServiceUnavailable(id) => {
                write!(f, "voice service unavailable for skill {id}")
            }
        }
    }
}

impl std::error::Error for DeviceError {}

/// An Echo bound to an Amazon account, seen from one [`Vantage`].
#[derive(Debug)]
pub struct EchoDevice {
    vantage: Vantage,
    account: String,
    customer_id: String,
    installed: BTreeSet<SkillId>,
    pipeline: VoicePipeline,
    fault: FaultPlane,
    /// Per-(operation, skill) call counts: each call gets a fresh fault
    /// decision, so a retried operation can succeed. Only populated when
    /// the plane is active.
    fault_attempts: BTreeMap<&'static str, BTreeMap<String, u32>>,
}

impl EchoDevice {
    /// Provision a device at `vantage` bound to an Amazon account, its
    /// install/interact paths routed through `plane`. An inactive plane
    /// leaves behavior untouched.
    pub fn new(vantage: Vantage, account: &str, seed: u64, plane: FaultPlane) -> EchoDevice {
        // Customer IDs look like Amazon's directed IDs; derived from the
        // account so captures can be correlated per persona.
        let h = Fnv1a::hash_parts(&[account]);
        EchoDevice {
            vantage,
            account: account.to_string(),
            customer_id: format!("amzn1.account.{h:016X}"),
            installed: BTreeSet::new(),
            pipeline: VoicePipeline::new(seed),
            fault: plane,
            fault_attempts: BTreeMap::new(),
        }
    }

    /// Whether a skill is currently installed.
    pub fn has_skill(&self, id: &SkillId) -> bool {
        self.installed.contains(id)
    }

    /// Does an injected fault fire for this call? Keys are structural
    /// (`account/skill/op#call-number`), and the call number makes every
    /// retry an independent decision. Inactive planes cost one branch.
    fn fault_fires(&mut self, channel: FaultChannel, op: &'static str, skill: &SkillId) -> bool {
        if !self.fault.is_active() {
            return false;
        }
        let calls = self.fault_attempts.entry(op).or_default();
        let n = match calls.get_mut(skill.0.as_str()) {
            Some(n) => {
                *n += 1;
                *n
            }
            None => {
                calls.insert(skill.0.clone(), 1);
                1
            }
        };
        // `{account}/{skill}/{op}#{n}`
        let key = self.fault.key(channel).str(&self.account).byte(b'/');
        let key = key.str(&skill.0).byte(b'/').str(op).byte(b'#');
        self.fault.fires_at(key.u64(n.into()))
    }

    /// Install (enable) a skill. Returns the traffic of the enablement.
    pub fn install(
        &mut self,
        cloud: &mut AlexaCloud,
        skill: &Skill,
    ) -> Result<Vec<Packet>, DeviceError> {
        if skill.fails_to_load {
            return Err(DeviceError::SkillFailedToLoad(skill.id.clone()));
        }
        if self.vantage == Vantage::Avs && skill.streaming {
            return Err(DeviceError::StreamingUnsupported(skill.id.clone()));
        }
        if self.fault_fires(FaultChannel::InstallFailure, "install", &skill.id) {
            return Err(DeviceError::InstallTimeout(skill.id.clone()));
        }
        self.installed.insert(skill.id.clone());
        Ok(cloud.session_traffic(
            &self.account,
            &self.customer_id,
            skill,
            &InteractionKind::Install,
            self.vantage,
        ))
    }

    /// Speak to the device during a skill session.
    pub fn interact(
        &mut self,
        cloud: &mut AlexaCloud,
        skill: &Skill,
        spoken: &str,
    ) -> Result<Vec<Packet>, DeviceError> {
        if !self.installed.contains(&skill.id) {
            return Err(DeviceError::NotInstalled(skill.id.clone()));
        }
        if self.vantage == Vantage::Avs && skill.streaming {
            return Err(DeviceError::StreamingUnsupported(skill.id.clone()));
        }
        // Fault check precedes the wake roll so injected outages never
        // consume the pipeline's RNG stream.
        if self.fault_fires(FaultChannel::InteractionFailure, "interact", &skill.id) {
            return Err(DeviceError::ServiceUnavailable(skill.id.clone()));
        }
        if !self.pipeline.wakes(spoken) {
            return Err(DeviceError::NotAwake);
        }
        let transcript = self.pipeline.transcribe(strip_wake_word(spoken));
        let kind = match self.pipeline.route(&transcript, skill) {
            RoutedIntent::Skill(_) => InteractionKind::Utterance(transcript),
            RoutedIntent::BuiltIn => InteractionKind::BuiltInUtterance(transcript),
        };
        Ok(cloud.session_traffic(&self.account, &self.customer_id, skill, &kind, self.vantage))
    }

    /// Uninstall a skill.
    pub fn uninstall(&mut self, cloud: &mut AlexaCloud, skill: &Skill) -> Vec<Packet> {
        self.installed.remove(&skill.id);
        cloud.session_traffic(
            &self.account,
            &self.customer_id,
            skill,
            &InteractionKind::Uninstall,
            self.vantage,
        )
    }
}

/// Remove a leading wake word ("alexa," / "alexa") from a spoken phrase.
fn strip_wake_word(spoken: &str) -> &str {
    let trimmed = spoken.trim_start();
    for prefix in ["alexa,", "Alexa,", "alexa", "Alexa"] {
        if let Some(rest) = trimmed.strip_prefix(prefix) {
            return rest.trim_start();
        }
    }
    trimmed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::category::SkillCategory;
    use crate::skill::PolicySpec;
    use alexa_net::{DataType, Domain};

    fn skill(streaming: bool, backends: &[&str]) -> Skill {
        Skill {
            id: SkillId("skill-y".into()),
            name: "Skill Y".into(),
            vendor: "Vendor".into(),
            category: SkillCategory::PetsAnimals,
            invocation: "skill y".into(),
            sample_utterances: vec!["play dog sounds".into()],
            reviews: 9,
            streaming,
            fails_to_load: false,
            requires_account_linking: false,
            permissions: vec![],
            backends: backends.iter().map(|b| Domain::parse(b).unwrap()).collect(),
            collects: vec![DataType::VoiceRecording, DataType::SkillId],
            policy: PolicySpec::none(),
        }
    }

    #[test]
    fn echo_installs_and_interacts() {
        let mut cloud = AlexaCloud::new();
        let mut echo = EchoDevice::new(Vantage::Router, "persona-pets", 11, FaultPlane::disabled());
        let s = skill(false, &["dillilabs.com"]);
        let install = echo.install(&mut cloud, &s).unwrap();
        assert!(!install.is_empty());
        assert!(echo.has_skill(&s.id));
        let traffic = echo
            .interact(&mut cloud, &s, "Alexa, open skill y")
            .unwrap();
        assert!(traffic.iter().any(|p| p.remote.as_str() == "dillilabs.com"));
    }

    #[test]
    fn interact_requires_install() {
        let mut cloud = AlexaCloud::new();
        let mut echo = EchoDevice::new(Vantage::Router, "p", 1, FaultPlane::disabled());
        let s = skill(false, &[]);
        assert_eq!(
            echo.interact(&mut cloud, &s, "Alexa, hello"),
            Err(DeviceError::NotInstalled(s.id.clone()))
        );
    }

    #[test]
    fn avs_rejects_streaming_skills() {
        let mut cloud = AlexaCloud::new();
        let mut avs = EchoDevice::new(Vantage::Avs, "p", 2, FaultPlane::disabled());
        let s = skill(true, &[]);
        assert_eq!(
            avs.install(&mut cloud, &s),
            Err(DeviceError::StreamingUnsupported(s.id.clone()))
        );
    }

    #[test]
    fn avs_traffic_is_amazon_only_even_with_backends() {
        let mut cloud = AlexaCloud::new();
        let mut avs = EchoDevice::new(Vantage::Avs, "p", 3, FaultPlane::disabled());
        let s = skill(false, &["play.podtrac.com"]);
        avs.install(&mut cloud, &s).unwrap();
        let traffic = avs.interact(&mut cloud, &s, "Alexa, open skill y").unwrap();
        let orgs = alexa_net::OrgMap::new();
        for p in &traffic {
            assert_eq!(orgs.org_of(&p.remote), Some(alexa_net::AMAZON));
        }
    }

    #[test]
    fn failing_skill_install_errors() {
        let mut cloud = AlexaCloud::new();
        let mut echo = EchoDevice::new(Vantage::Router, "p", 4, FaultPlane::disabled());
        let mut s = skill(false, &[]);
        s.fails_to_load = true;
        assert_eq!(
            echo.install(&mut cloud, &s),
            Err(DeviceError::SkillFailedToLoad(s.id.clone()))
        );
    }

    #[test]
    fn phrases_without_wake_word_usually_ignored() {
        let mut cloud = AlexaCloud::new();
        let mut echo = EchoDevice::new(Vantage::Router, "p", 5, FaultPlane::disabled());
        let s = skill(false, &[]);
        echo.install(&mut cloud, &s).unwrap();
        let ignored = (0..200)
            .filter(|_| {
                echo.interact(&mut cloud, &s, "play dog sounds") == Err(DeviceError::NotAwake)
            })
            .count();
        assert!(ignored > 180, "ignored {ignored}/200");
    }

    #[test]
    fn customer_ids_are_stable_and_distinct() {
        let mut s = skill(false, &[]);
        s.collects.push(DataType::CustomerId);
        // The customer ID the device transmits on install.
        let sent = |account: &str, seed: u64| {
            let mut echo = EchoDevice::new(Vantage::Router, account, seed, FaultPlane::disabled());
            let traffic = echo.install(&mut AlexaCloud::new(), &s).unwrap();
            let records = traffic.iter().filter_map(|p| p.payload.records());
            let mut ids = records
                .flatten()
                .filter(|r| r.data_type == DataType::CustomerId);
            ids.next().expect("a customer id is sent").value.clone()
        };
        assert_eq!(sent("persona-a", 1), sent("persona-a", 99));
        assert_ne!(sent("persona-a", 1), sent("persona-b", 1));
    }

    #[test]
    fn uninstall_removes_skill() {
        let mut cloud = AlexaCloud::new();
        let mut echo = EchoDevice::new(Vantage::Router, "p", 6, FaultPlane::disabled());
        let s = skill(false, &[]);
        echo.install(&mut cloud, &s).unwrap();
        echo.uninstall(&mut cloud, &s);
        assert!(!echo.has_skill(&s.id));
    }

    #[test]
    fn injected_install_fault_is_transient_and_retryable() {
        use alexa_fault::FaultProfile;
        let s = skill(false, &[]);
        // Scan for a seed where the first install attempt faults but a
        // retry succeeds — proving per-call fault decisions.
        let mut proved = false;
        for seed in 0..64u64 {
            let plane = FaultPlane::new(seed, FaultProfile::uniform(0.5));
            let mut echo = EchoDevice::new(Vantage::Router, "p", 7, plane);
            let mut cloud = AlexaCloud::new();
            let first = echo.install(&mut cloud, &s);
            if let Err(e) = &first {
                assert_eq!(*e, DeviceError::InstallTimeout(s.id.clone()));
                assert!(e.is_transient());
                assert!(
                    !echo.has_skill(&s.id),
                    "faulted install must not mutate state"
                );
                if echo.install(&mut cloud, &s).is_ok() {
                    assert!(echo.has_skill(&s.id));
                    proved = true;
                    break;
                }
            }
        }
        assert!(proved, "no seed produced fault-then-success in 64 tries");
    }

    #[test]
    fn full_fault_rate_blocks_every_interaction() {
        use alexa_fault::FaultProfile;
        let mut cloud = AlexaCloud::new();
        let plane = FaultPlane::new(3, FaultProfile::uniform(1.0));
        let mut echo = EchoDevice::new(Vantage::Router, "p", 8, plane);
        let s = skill(false, &[]);
        assert_eq!(
            echo.install(&mut cloud, &s),
            Err(DeviceError::InstallTimeout(s.id.clone()))
        );
        // Installed out of band, so every interaction reaches the plane.
        echo.installed.insert(s.id.clone());
        for _ in 0..5 {
            let err = echo
                .interact(&mut cloud, &s, "Alexa, open skill y")
                .unwrap_err();
            assert_eq!(err, DeviceError::ServiceUnavailable(s.id.clone()));
            assert!(err.is_transient());
        }
    }

    #[test]
    fn modeled_failures_are_not_transient() {
        let s = skill(false, &[]);
        assert!(!DeviceError::SkillFailedToLoad(s.id.clone()).is_transient());
        assert!(!DeviceError::NotAwake.is_transient());
        assert!(!DeviceError::StreamingUnsupported(s.id.clone()).is_transient());
        assert!(!DeviceError::NotInstalled(s.id).is_transient());
    }

    #[test]
    fn strip_wake_word_variants() {
        assert_eq!(strip_wake_word("Alexa, open garmin"), "open garmin");
        assert_eq!(strip_wake_word("alexa stop"), "stop");
        assert_eq!(strip_wake_word("open garmin"), "open garmin");
    }
}
