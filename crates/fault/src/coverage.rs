//! Coverage accounting: what the run observed versus what it planned.

use crate::profile::FaultChannel;
use crate::retry::RetryOutcome;
use alexa_obs::ledger::{count, entries, items, text, Fail};
use alexa_obs::Json;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Observed-versus-expected counts for one report section.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Coverage {
    /// Units of work that completed and produced an observation.
    pub observed: u64,
    /// Units of work the experiment planned.
    pub expected: u64,
}

impl Coverage {
    /// Build from raw counts.
    pub fn new(observed: u64, expected: u64) -> Coverage {
        Coverage { observed, expected }
    }

    /// Observed fraction in `[0, 1]`; a section with nothing planned counts
    /// as fully covered.
    pub fn ratio(&self) -> f64 {
        if self.expected == 0 {
            1.0
        } else {
            self.observed as f64 / self.expected as f64
        }
    }

    /// Fold another section's counts into this one.
    pub fn merge(&mut self, other: Coverage) {
        self.observed += other.observed;
        self.expected += other.expected;
    }
}

/// Per-shard fault bookkeeping, filled single-threaded by the owning worker
/// and merged in structural order — the same discipline as `ShardLog`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultLedger {
    /// Injected faults per channel label.
    pub injected: BTreeMap<&'static str, u64>,
    /// Retries spent.
    pub retries: u64,
    /// Virtual backoff accumulated, in milliseconds.
    pub backoff_ms: u64,
    /// Operations abandoned after their retries ran out.
    pub losses: u64,
    /// Whether this shard's retry budget exhausted (breaker opened).
    pub degraded: bool,
}

impl FaultLedger {
    /// A fresh ledger.
    pub fn new() -> FaultLedger {
        FaultLedger::default()
    }

    /// Count `n` injected faults on a channel.
    pub fn inject(&mut self, channel: FaultChannel, n: u64) {
        if n > 0 {
            *self.injected.entry(channel.label()).or_default() += n;
        }
    }

    /// Fold one retried operation's outcome in: each failed attempt is an
    /// injected fault; a final failure is a loss.
    pub fn record<T, E>(&mut self, channel: FaultChannel, out: &RetryOutcome<T, E>) {
        let failed_attempts = if out.succeeded() {
            u64::from(out.attempts - 1)
        } else {
            u64::from(out.attempts)
        };
        self.inject(channel, failed_attempts);
        self.retries += u64::from(out.retries);
        self.backoff_ms += out.backoff_ms;
        if !out.succeeded() {
            self.losses += 1;
        }
    }

    /// Total injected faults across channels.
    pub fn total_injected(&self) -> u64 {
        self.injected.values().sum()
    }

    /// Fold another shard's ledger into this one.
    pub fn merge(&mut self, other: &FaultLedger) {
        for (label, n) in &other.injected {
            *self.injected.entry(label).or_default() += n;
        }
        self.retries += other.retries;
        self.backoff_ms += other.backoff_ms;
        self.losses += other.losses;
        self.degraded |= other.degraded;
    }
}

/// The run-level coverage summary carried on `Observations` and rendered at
/// the top of the report.
///
/// Participates in the observation digest whenever the profile is not
/// `none`, so coverage itself is held to the jobs-independence contract.
#[derive(Debug, Clone, PartialEq)]
pub struct CoverageReport {
    /// Name of the fault profile the run executed under.
    pub profile: String,
    /// Observed/expected per pipeline section, keyed by section name.
    pub sections: BTreeMap<String, Coverage>,
    /// Injected faults per channel label, summed over shards.
    pub injected: BTreeMap<String, u64>,
    /// Retries spent across all shards.
    pub retries: u64,
    /// Virtual backoff across all shards, milliseconds.
    pub backoff_ms: u64,
    /// Operations lost for good.
    pub losses: u64,
    /// Shards whose retry budget exhausted (circuit breaker opened).
    pub degraded_shards: Vec<String>,
}

impl Default for CoverageReport {
    fn default() -> CoverageReport {
        CoverageReport::new("none")
    }
}

impl CoverageReport {
    /// An empty report for a run under `profile`.
    pub fn new(profile: &str) -> CoverageReport {
        CoverageReport {
            profile: profile.to_string(),
            sections: BTreeMap::new(),
            injected: BTreeMap::new(),
            retries: 0,
            backoff_ms: 0,
            losses: 0,
            degraded_shards: Vec::new(),
        }
    }

    /// The (created-on-demand) coverage row for `section`.
    pub fn section(&mut self, section: &str) -> &mut Coverage {
        self.sections.entry(section.to_string()).or_default()
    }

    /// Fold a shard's fault ledger in; a degraded ledger records the shard
    /// name in [`CoverageReport::degraded_shards`].
    pub fn merge_ledger(&mut self, shard: &str, ledger: &FaultLedger) {
        for (label, n) in &ledger.injected {
            *self.injected.entry(label.to_string()).or_default() += n;
        }
        self.retries += ledger.retries;
        self.backoff_ms += ledger.backoff_ms;
        self.losses += ledger.losses;
        if ledger.degraded {
            self.degraded_shards.push(shard.to_string());
        }
    }

    /// Total injected faults across channels.
    pub fn total_injected(&self) -> u64 {
        self.injected.values().sum()
    }

    /// Total observations across sections.
    pub fn total_observed(&self) -> u64 {
        self.sections.values().map(|c| c.observed).sum()
    }

    /// A run is degraded when fault-attributable losses survived retry or a
    /// shard's breaker opened. (Incomplete sections alone do not qualify:
    /// some losses — e.g. skills that genuinely fail to load — are modeled
    /// behavior, not injected faults.)
    pub fn is_degraded(&self) -> bool {
        self.losses > 0 || !self.degraded_shards.is_empty()
    }

    /// Deterministic JSON export, embedded in run-ledger bundle manifests.
    ///
    /// Every field is a structural count or a fixed name — nothing
    /// schedule- or wall-clock-dependent — so the document honors the same
    /// byte-equality contract as the rest of the bundle.
    pub fn to_json(&self) -> Json {
        let count = |(k, n): (&String, &u64)| (k.clone(), Json::Int(*n));
        let sections = self.sections.iter().map(|(name, cov)| {
            let counts = vec![
                ("observed".into(), Json::Int(cov.observed)),
                ("expected".into(), Json::Int(cov.expected)),
            ];
            (name.clone(), Json::Obj(counts))
        });
        let shards = self.degraded_shards.iter().map(|s| Json::Str(s.clone()));
        Json::Obj(vec![
            ("profile".into(), Json::Str(self.profile.clone())),
            ("sections".into(), Json::Obj(sections.collect())),
            (
                "injected".into(),
                Json::Obj(self.injected.iter().map(count).collect()),
            ),
            ("retries".into(), Json::Int(self.retries)),
            ("backoff_ms".into(), Json::Int(self.backoff_ms)),
            ("losses".into(), Json::Int(self.losses)),
            ("degraded_shards".into(), Json::Arr(shards.collect())),
        ])
    }

    /// Decode [`CoverageReport::to_json`]'s document: its typed inverse, so
    /// re-encoding the result reproduces the document byte for byte. An
    /// error names the field, relative to the document.
    pub fn from_json(json: &Json) -> Result<CoverageReport, Fail> {
        let a_count = |n: &Json| n.as_u64().ok_or_else(|| ": not a count".to_string());
        Ok(CoverageReport {
            profile: text(json, "profile")?,
            sections: entries(json, "sections", |s| {
                Ok(Coverage::new(count(s, "observed")?, count(s, "expected")?))
            })?,
            injected: entries(json, "injected", a_count)?,
            retries: count(json, "retries")?,
            backoff_ms: count(json, "backoff_ms")?,
            losses: count(json, "losses")?,
            degraded_shards: items(json, "degraded_shards", |s| {
                s.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| ": not a string".into())
            })?,
        })
    }

    /// Human-readable coverage block for the report header.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "## Coverage (fault profile: {})", self.profile);
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "{:<24} {:>10} {:>10} {:>9}",
            "section", "observed", "expected", "coverage"
        );
        for (name, cov) in &self.sections {
            let _ = writeln!(
                out,
                "{:<24} {:>10} {:>10} {:>8.1}%",
                name,
                cov.observed,
                cov.expected,
                cov.ratio() * 100.0
            );
        }
        if self.injected.is_empty() {
            let _ = writeln!(out, "faults injected: none");
        } else {
            let parts: Vec<String> = self
                .injected
                .iter()
                .map(|(label, n)| format!("{label}={n}"))
                .collect();
            let _ = writeln!(out, "faults injected: {}", parts.join(" "));
            let _ = writeln!(
                out,
                "retries: {} (virtual backoff {} ms); losses: {}",
                self.retries, self.backoff_ms, self.losses
            );
        }
        if !self.degraded_shards.is_empty() {
            let _ = writeln!(out, "degraded shards: {}", self.degraded_shards.join(", "));
        }
        let _ = writeln!(
            out,
            "run status: {}",
            if self.is_degraded() {
                "DEGRADED (valid, reduced coverage)"
            } else {
                "complete"
            }
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::retry::{retry, RetryBudget, RetryPolicy};

    #[test]
    fn ratio_handles_empty_sections() {
        assert_eq!(Coverage::default().ratio(), 1.0);
        assert_eq!(Coverage::new(3, 4).ratio(), 0.75);
        assert_eq!(Coverage::new(4, 4).ratio(), 1.0);
    }

    #[test]
    fn ledger_records_outcomes() {
        let mut ledger = FaultLedger::new();
        let mut budget = RetryBudget::new(8);
        let ok = retry(
            &RetryPolicy::standard(),
            &mut budget,
            1,
            || "a".into(),
            |attempt| if attempt < 2 { Err(()) } else { Ok(()) },
            |_| true,
        );
        let lost = retry(
            &RetryPolicy::standard(),
            &mut budget,
            1,
            || "b".into(),
            |_| Err::<(), _>(()),
            |_| true,
        );
        ledger.record(FaultChannel::InstallFailure, &ok);
        ledger.record(FaultChannel::InstallFailure, &lost);
        // ok: 1 failed attempt; lost: 4 failed attempts.
        assert_eq!(ledger.injected["install"], 5);
        assert_eq!(ledger.losses, 1);
        assert_eq!(ledger.retries, 1 + 3);
        assert!(ledger.backoff_ms > 0);
    }

    #[test]
    fn report_merges_ledgers_and_flags_degraded() {
        let mut report = CoverageReport::new("hostile");
        report.section("installs").merge(Coverage::new(8, 10));
        let mut a = FaultLedger::new();
        a.inject(FaultChannel::PacketDrop, 3);
        a.retries = 2;
        let mut b = FaultLedger::new();
        b.inject(FaultChannel::PacketDrop, 1);
        b.losses = 2;
        b.degraded = true;
        report.merge_ledger("Fashion", &a);
        report.merge_ledger("Dating", &b);
        assert_eq!(report.injected["packet_drop"], 4);
        assert_eq!(report.losses, 2);
        assert_eq!(report.degraded_shards, vec!["Dating".to_string()]);
        assert!(report.is_degraded());
        assert_eq!(report.total_injected(), 4);
        assert_eq!(report.total_observed(), 8);
    }

    #[test]
    fn clean_report_is_not_degraded() {
        let mut report = CoverageReport::new("none");
        report.section("installs").merge(Coverage::new(10, 10));
        assert!(!report.is_degraded());
        let text = report.render();
        assert!(text.contains("run status: complete"));
        assert!(text.contains("faults injected: none"));
    }

    #[test]
    fn json_export_is_structural_and_complete() {
        let mut report = CoverageReport::new("flaky");
        report
            .section("skill.installs")
            .merge(Coverage::new(48, 50));
        let mut ledger = FaultLedger::new();
        ledger.inject(FaultChannel::InstallFailure, 2);
        ledger.retries = 4;
        ledger.backoff_ms = 120;
        ledger.losses = 2;
        ledger.degraded = true;
        report.merge_ledger("Dating", &ledger);
        let rendered = report.to_json().render();
        assert!(rendered.contains("\"degraded_shards\": [\"Dating\"]"));
        // The decoder inverts the encoder, byte for byte.
        let decoded = CoverageReport::from_json(&Json::parse(&rendered).expect("parses"));
        assert_eq!(decoded.as_ref(), Ok(&report));
        assert_eq!(decoded.map(|d| d.to_json().render()), Ok(rendered.clone()));
        // A field outside the format is an error that names it.
        for (from, to, field) in [
            ("\"losses\": 2", "\"losses\": \"lots\"", "losses:"),
            ("48", "-48", "sections.skill.installs.observed:"),
            (
                "\"install\": 2",
                "\"install\": 2.5",
                "injected.install: not a count",
            ),
            ("[\"Dating\"]", "[7]", "degraded_shards[0]: not a string"),
        ] {
            let edited = Json::parse(&rendered.replacen(from, to, 1)).expect("parses");
            let err = CoverageReport::from_json(&edited).expect_err(to);
            assert!(err.starts_with(field), "{err}");
        }
    }

    #[test]
    fn render_carries_observed_expected_counts() {
        let mut report = CoverageReport::new("degraded");
        report.section("crawl.visits").merge(Coverage::new(37, 40));
        let mut ledger = FaultLedger::new();
        ledger.inject(FaultChannel::CrawlTimeout, 3);
        ledger.retries = 5;
        ledger.backoff_ms = 350;
        ledger.losses = 3;
        report.merge_ledger("web", &ledger);
        let text = report.render();
        assert!(text.contains("crawl.visits"));
        assert!(text.contains("37"));
        assert!(text.contains("40"));
        assert!(text.contains("crawl_timeout=3"));
        assert!(text.contains("DEGRADED"));
    }
}
