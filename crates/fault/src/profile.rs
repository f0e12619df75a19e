//! Fault channels and named fault profiles.

use std::fmt;
use std::str::FromStr;

/// The failure modes the pipeline can inject, one per lossy subsystem
/// touchpoint. Each maps to a real-world failure the paper (or the related
/// audits it cites) had to survive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultChannel {
    /// Skill enablement times out (`alexa-platform`).
    InstallFailure,
    /// Voice interaction gets no response from the service (`alexa-platform`).
    InteractionFailure,
    /// A tap loses a packet on capture (`alexa-net`).
    PacketDrop,
    /// A captured flow is recorded truncated (`alexa-net`).
    FlowTruncation,
    /// A crawled page fails to finish loading (`alexa-adtech`).
    CrawlTimeout,
    /// A bid response is lost before the auction record is written
    /// (`alexa-adtech`).
    BidLoss,
    /// A privacy-policy page cannot be downloaded (`alexa-policy`).
    PolicyDownload,
}

impl FaultChannel {
    /// Every channel, in a fixed order (also the rate-table order).
    pub const ALL: [FaultChannel; 7] = [
        FaultChannel::InstallFailure,
        FaultChannel::InteractionFailure,
        FaultChannel::PacketDrop,
        FaultChannel::FlowTruncation,
        FaultChannel::CrawlTimeout,
        FaultChannel::BidLoss,
        FaultChannel::PolicyDownload,
    ];

    /// Stable label used in counters, metrics JSON and report sections.
    pub fn label(&self) -> &'static str {
        match self {
            FaultChannel::InstallFailure => "install",
            FaultChannel::InteractionFailure => "interaction",
            FaultChannel::PacketDrop => "packet_drop",
            FaultChannel::FlowTruncation => "flow_truncation",
            FaultChannel::CrawlTimeout => "crawl_timeout",
            FaultChannel::BidLoss => "bid_loss",
            FaultChannel::PolicyDownload => "policy_download",
        }
    }

    pub(crate) fn index(&self) -> usize {
        FaultChannel::ALL
            .iter()
            .position(|c| c == self)
            .unwrap_or(0)
    }
}

/// The channel labels in [`FaultChannel::ALL`] order. This is the
/// declaration `alexa-analyzer` extracts to validate `fault.*`
/// observability names (lint AO02); a test pins it to [`FaultChannel::label`]
/// so the two can never diverge.
pub const CHANNEL_LABELS: &[&str] = &[
    "install",
    "interaction",
    "packet_drop",
    "flow_truncation",
    "crawl_timeout",
    "bid_loss",
    "policy_download",
];

/// A named set of per-channel fault rates plus the per-shard retry budget
/// that goes with it.
///
/// Presets trace the paper's field conditions: `flaky` is the everyday
/// loss the campaign actually saw (a few failed installs, 4 dead policy
/// pages), `degraded` models a bad capture day, and `hostile` is the
/// stress tier where circuit breakers are expected to open.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultProfile {
    name: String,
    rates: [f64; 7],
    retry_budget: u32,
}

/// Error from parsing an unknown profile name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileParseError(pub String);

impl fmt::Display for ProfileParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown fault profile '{}' (expected none|flaky|degraded|hostile)",
            self.0
        )
    }
}

impl std::error::Error for ProfileParseError {}

impl Default for FaultProfile {
    fn default() -> FaultProfile {
        FaultProfile::none()
    }
}

impl FaultProfile {
    /// No faults at all — the pipeline behaves exactly as without this crate.
    pub fn none() -> FaultProfile {
        FaultProfile {
            name: "none".into(),
            rates: [0.0; 7],
            retry_budget: 0,
        }
    }

    /// Everyday transient loss; retries recover almost everything.
    pub fn flaky() -> FaultProfile {
        FaultProfile {
            name: "flaky".into(),
            // install, interaction, drop, truncation, crawl, bid, policy
            rates: [0.05, 0.03, 0.01, 0.01, 0.05, 0.02, 0.05],
            retry_budget: 96,
        }
    }

    /// A bad capture day: visible losses survive the retry budget.
    pub fn degraded() -> FaultProfile {
        FaultProfile {
            name: "degraded".into(),
            rates: [0.15, 0.10, 0.05, 0.05, 0.15, 0.10, 0.15],
            retry_budget: 48,
        }
    }

    /// Stress tier: budgets exhaust, circuit breakers open, shards degrade.
    pub fn hostile() -> FaultProfile {
        FaultProfile {
            name: "hostile".into(),
            rates: [0.40, 0.35, 0.25, 0.20, 0.45, 0.35, 0.50],
            retry_budget: 16,
        }
    }

    /// Every channel at the same rate — the `--fault-rate` override. The
    /// rate is clamped to `[0, 1]`; `uniform(1.0)` faults everything.
    pub fn uniform(rate: f64) -> FaultProfile {
        let r = rate.clamp(0.0, 1.0);
        FaultProfile {
            name: format!("uniform({r})"),
            rates: [r; 7],
            retry_budget: 32,
        }
    }

    /// The profile's name (`none`, `flaky`, …, or `uniform(r)`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The injection rate for one channel, in `[0, 1]`.
    pub fn rate(&self, channel: FaultChannel) -> f64 {
        self.rates[channel.index()]
    }

    /// How many retries one shard may spend before its breaker opens.
    pub fn retry_budget(&self) -> u32 {
        self.retry_budget
    }

    /// Whether any channel can fire at all.
    pub fn is_active(&self) -> bool {
        self.rates.iter().any(|&r| r > 0.0)
    }
}

impl FromStr for FaultProfile {
    type Err = ProfileParseError;

    fn from_str(s: &str) -> Result<FaultProfile, ProfileParseError> {
        match s {
            "none" => Ok(FaultProfile::none()),
            "flaky" => Ok(FaultProfile::flaky()),
            "degraded" => Ok(FaultProfile::degraded()),
            "hostile" => Ok(FaultProfile::hostile()),
            other => Err(ProfileParseError(other.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_order_by_severity() {
        let tiers = [
            FaultProfile::none(),
            FaultProfile::flaky(),
            FaultProfile::degraded(),
            FaultProfile::hostile(),
        ];
        for pair in tiers.windows(2) {
            for ch in FaultChannel::ALL {
                assert!(
                    pair[0].rate(ch) < pair[1].rate(ch),
                    "{} !< {} on {}",
                    pair[0].name(),
                    pair[1].name(),
                    ch.label()
                );
            }
        }
    }

    #[test]
    fn none_is_inactive_and_default() {
        assert!(!FaultProfile::none().is_active());
        assert_eq!(FaultProfile::default(), FaultProfile::none());
        assert!(FaultProfile::flaky().is_active());
    }

    #[test]
    fn uniform_clamps_and_names() {
        let p = FaultProfile::uniform(1.7);
        assert_eq!(p.rate(FaultChannel::BidLoss), 1.0);
        assert_eq!(p.name(), "uniform(1)");
        assert_eq!(
            FaultProfile::uniform(-3.0).rate(FaultChannel::PacketDrop),
            0.0
        );
    }

    #[test]
    fn parse_round_trips_presets() {
        for name in ["none", "flaky", "degraded", "hostile"] {
            let p: FaultProfile = name.parse().unwrap();
            assert_eq!(p.name(), name);
        }
        assert!("chaotic".parse::<FaultProfile>().is_err());
    }

    #[test]
    fn channel_labels_are_unique() {
        let labels: std::collections::BTreeSet<_> =
            FaultChannel::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), FaultChannel::ALL.len());
    }

    #[test]
    fn channel_labels_const_matches_label_method() {
        let from_method: Vec<&str> = FaultChannel::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(CHANNEL_LABELS, from_method.as_slice());
    }
}
