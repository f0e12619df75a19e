//! Artifact-name dispatch: stream any named report artifact from the shared
//! [`AnalysisIndex`] into a caller-owned buffer.
//!
//! This is the one table mapping the artifact vocabulary ([`ARTIFACTS`]) to
//! the analysis functions. [`render_into`] covers every name but
//! `defenses`: that artifact pairs the baseline with defended measurements,
//! which under faults take the firewall shadow of
//! `AuditRun::execute_with_firewall_shadow`, so the bench crate
//! orchestrates it.

use crate::analysis::{audio, bids, creatives, partners, policy, profiling, significance, traffic};
use crate::index::AnalysisIndex;
use std::fmt::Write as _;

/// Every report artifact, in paper order — `repro all` renders exactly this
/// list. The last, `defenses`, is bench-orchestrated (see the module docs);
/// [`render_into`] renders all the others.
pub const ARTIFACTS: &[&str] = &[
    "table1", "table2", "table3", "table4", "figure2", "table5", "table6", "figure3", "table7",
    "table8", "table9", "figure5", "sync", "table10", "figure6", "table11", "figure7", "table12",
    "stats71", "table13", "table13p", "table14", "validate", "liars", "defenses",
];

/// Stream one named artifact into `out`.
///
/// Returns the artifact's render work units, or `None` for an unknown name
/// (including `defenses` — see the module docs).
// analyzer:allow(AS01) -- taint is table7/table11's timing instrumentation; durations are volatile aggregates, never part of the committed bytes
pub fn render_into(ix: &AnalysisIndex, artifact: &str, out: &mut String) -> Option<usize> {
    Some(match artifact {
        "table1" => traffic::table1(ix).render_into(out),
        "table2" => traffic::table2(ix, traffic::KEEP_ALL).render_into(out),
        "table3" => traffic::table3(ix, traffic::KEEP_ALL).render_into(out),
        "table4" => traffic::table4(ix).render_into(out),
        "figure2" => traffic::figure2(ix).render_into(out),
        "table5" => bids::table5(ix).render_into(out),
        "table6" => bids::table6(ix).render_into(out),
        "figure3" => bids::figure3(ix).render_into(out),
        "table7" => significance::table7(ix).render_into(out),
        "table8" => creatives::table8(ix).render_into(out),
        "table9" => audio::table9(ix).render_into(out),
        "figure5" => audio::figure5(ix).render_into(out),
        "sync" => partners::sync_analysis(ix).render_into(out),
        "table10" => partners::table10(ix).render_into(out),
        "figure6" => partners::figure6(ix).render_into(out),
        "table11" => significance::table11(ix).render_into(out),
        "figure7" => bids::figure7(ix).render_into(out),
        "table12" => profiling::table12(ix).render_into(out),
        "stats71" => policy::policy_stats(ix).render_into(out),
        "table13" => policy::table13(ix, false).render_into(out),
        "table13p" => {
            let t = policy::table13(ix, true);
            let work = t.render_into(out);
            let _ = writeln!(
                out,
                "(platform policy included — all flows disclosed: {})",
                t.all_disclosed()
            );
            work + 1
        }
        "table14" => policy::table14(ix).render_into(out),
        "validate" => policy::validation(ix).render_into(out),
        "liars" => {
            let flows = policy::incorrect_flows(ix);
            out.push_str("Policies that DENY flows their traffic shows (PoliCheck 'incorrect'):\n");
            let mut work = 1;
            for (skill, dt) in &flows {
                let _ = writeln!(out, "  {skill}: denies collecting {dt}");
                work += 1;
            }
            if flows.is_empty() {
                out.push_str("  (none)\n");
                work += 1;
            }
            work
        }
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::test_support::ix;

    #[test]
    fn every_artifact_renders_nonempty_with_positive_work() {
        for name in ARTIFACTS.iter().filter(|&&a| a != "defenses") {
            let mut out = String::new();
            let work = render_into(ix(), name, &mut out).expect(name);
            assert!(!out.is_empty(), "{name}: empty render");
            assert!(work > 0, "{name}: zero work units");
        }
    }

    #[test]
    fn unknown_names_are_none() {
        let mut out = String::new();
        assert!(render_into(ix(), "defenses", &mut out).is_none());
        assert!(render_into(ix(), "nope", &mut out).is_none());
        assert!(out.is_empty());
    }

    #[test]
    fn renders_append_instead_of_clobbering() {
        let mut out = String::from("prefix\n");
        render_into(ix(), "sync", &mut out).expect("sync");
        assert!(out.starts_with("prefix\n"));
        assert!(out.len() > "prefix\n".len());
    }
}
