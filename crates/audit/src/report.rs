//! Full-report assembly: every table and figure streamed into one document
//! from a single shared [`AnalysisIndex`].

use crate::analysis::{audio, bids, creatives, partners, policy, profiling, significance, traffic};
use crate::index::AnalysisIndex;
use crate::observations::Observations;
use std::fmt::Write as _;

/// Render the complete audit report (all tables and figures, in paper
/// order) as one text document.
// analyzer:allow(AS01) -- taint is table7/table11's timing instrumentation; durations are volatile aggregates, never part of the committed bytes
pub fn full_report(obs: &Observations) -> String {
    let ix = AnalysisIndex::build(obs);
    let mut out = String::with_capacity(64 * 1024);
    full_report_into(&ix, &mut out);
    out
}

/// Stream the complete report into `out`; returns render work units.
// analyzer:allow(AS01) -- taint is table7/table11's timing instrumentation; durations are volatile aggregates, never part of the committed bytes
pub fn full_report_into(ix: &AnalysisIndex, out: &mut String) -> usize {
    let obs = ix.obs;
    let mut work = 0usize;

    let _ = writeln!(
        out,
        "ECHO AUDIT REPORT (seed {}, {} pre + {} post crawl iterations)",
        obs.seed, obs.pre_iterations, obs.post_iterations
    );
    out.push('\n');
    work += 1;
    out.push_str(&obs.coverage.render());
    out.push('\n');
    work += 1;

    // Each research-question section opens with the observed/expected counts
    // of the pipeline stages its tables are computed from, so a degraded run
    // is readable as such next to every result.
    let section_note = |out: &mut String, keys: &[&str]| -> usize {
        let parts: Vec<String> = keys
            .iter()
            .filter_map(|k| {
                obs.coverage.sections.get(*k).map(|c| {
                    format!(
                        "{k} {}/{} ({:.1}%)",
                        c.observed,
                        c.expected,
                        c.ratio() * 100.0
                    )
                })
            })
            .collect();
        if parts.is_empty() {
            out.push('\n');
            0
        } else {
            let _ = writeln!(out, "[section coverage — {}]", parts.join(", "));
            out.push('\n');
            1
        }
    };

    out.push_str("== RQ1: Which organizations collect and propagate user data? ==\n\n");
    work += 1;
    work += section_note(out, &["avs.skills", "skill.installs", "skill.interactions"]);
    work += traffic::table1(ix).render_into(out);
    out.push('\n');
    work += traffic::table2(ix, traffic::KEEP_ALL).render_into(out);
    out.push('\n');
    work += traffic::table3(ix, traffic::KEEP_ALL).render_into(out);
    out.push('\n');
    work += traffic::table4(ix).render_into(out);
    out.push('\n');

    out.push_str("== RQ2: Is voice data used beyond functional purposes? ==\n\n");
    work += 1;
    work += section_note(out, &["crawl.visits", "skill.interactions"]);
    work += bids::table5(ix).render_into(out);
    out.push('\n');
    work += bids::table6(ix).render_into(out);
    out.push('\n');
    work += bids::figure3(ix).render_into(out);
    out.push('\n');
    work += significance::table7(ix).render_into(out);
    out.push('\n');
    work += creatives::table8(ix).render_into(out);
    out.push('\n');
    work += audio::table9(ix).render_into(out);
    out.push('\n');
    work += audio::figure5(ix).render_into(out);
    out.push('\n');
    work += partners::sync_analysis(ix).render_into(out);
    out.push('\n');
    work += partners::table10(ix).render_into(out);
    out.push('\n');
    work += partners::figure6(ix).render_into(out);
    out.push('\n');
    work += significance::table11(ix).render_into(out);
    out.push('\n');
    work += bids::figure7(ix).render_into(out);
    out.push('\n');
    work += profiling::table12(ix).render_into(out);
    out.push('\n');

    work += bids::render_table5_cis_into(&bids::table5_median_cis(ix), out);
    out.push('\n');

    out.push_str("== RQ3: Are practices consistent with privacy policies? ==\n\n");
    work += 1;
    work += section_note(out, &["policy.downloads"]);
    work += policy::policy_stats(ix).render_into(out);
    out.push('\n');
    work += policy::table13(ix, false).render_into(out);
    out.push('\n');
    work += policy::table14(ix).render_into(out);
    out.push('\n');
    work += policy::validation(ix).render_into(out);
    out.push('\n');

    let liars = policy::incorrect_flows(ix);
    if !liars.is_empty() {
        let _ = writeln!(
            out,
            "Policies denying observed flows (PoliCheck 'incorrect'): {}",
            liars
                .iter()
                .map(|(s, dt)| format!("{s} ({dt})"))
                .collect::<Vec<_>>()
                .join("; ")
        );
        out.push('\n');
        work += 1;
    }

    work
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::test_support::{ix, obs};

    #[test]
    fn full_report_contains_every_artifact() {
        let r = full_report(obs());
        for needle in [
            "## Coverage (fault profile:",
            "run status:",
            "Table 1:",
            "Table 2:",
            "Table 3:",
            "Table 4:",
            "Table 5:",
            "Table 6:",
            "Figure 3a",
            "Figure 3b",
            "Table 7:",
            "Table 8:",
            "Table 9:",
            "Figure 5:",
            "Table 10:",
            "Figure 6:",
            "Table 11:",
            "Figure 7:",
            "Table 12:",
            "Table 13:",
            "Table 14:",
            "Cookie syncing",
            "PoliCheck validation",
        ] {
            assert!(r.contains(needle), "missing {needle}");
        }
    }

    #[test]
    fn streaming_report_matches_wrapper_and_counts_work() {
        let mut streamed = String::new();
        let work = full_report_into(ix(), &mut streamed);
        assert_eq!(streamed, full_report(obs()));
        assert!(work > 100, "implausibly low render work: {work}");
    }
}
