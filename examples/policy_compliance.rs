//! Privacy-policy compliance check: run the adapted PoliCheck over the
//! observed flows and print the disclosure breakdown, with and without the
//! platform's own policy (§7.2.2).
//!
//! ```sh
//! cargo run --release --example policy_compliance
//! ```

#![expect(
    clippy::unwrap_used,
    reason = "an example reads best as straight-line code; every artifact name here is known"
)]

use alexa_audit::analysis::policy;
use alexa_audit::{render_into, AnalysisIndex, AuditConfig, AuditRun};
use std::fmt::Write as _;

fn main() {
    let obs = AuditRun::execute(AuditConfig::small(42));
    let ix = AnalysisIndex::build(&obs);

    let mut report = String::new();
    for artifact in ["stats71", "table13"] {
        render_into(&ix, artifact, &mut report).unwrap();
        report.push('\n');
    }

    report.push_str("--- With Amazon's platform policy consulted (§7.2.2) ---\n\n");
    let upgraded = policy::table13(&ix, true);
    upgraded.render_into(&mut report);
    let _ = writeln!(
        report,
        "\nAll flows disclosed once the platform policy is included: {}\n",
        upgraded.all_disclosed()
    );

    for artifact in ["table14", "validate"] {
        render_into(&ix, artifact, &mut report).unwrap();
        report.push('\n');
    }
    print!("{report}");
}
