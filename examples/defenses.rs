//! Evaluate the paper's proposed defenses (§8.1) by reading the audit's
//! observable record through each defense's lens:
//!
//! * a router **firewall** that blocks advertising & tracking endpoints;
//! * **on-device transcription** (text-only voice channel).
//!
//! Both are pure per-packet transforms at the capture tap, so one
//! undefended run measures all three conditions exactly.
//!
//! ```sh
//! cargo run --release --example defenses
//! ```

use alexa_audit::analysis::defense;
use alexa_audit::{AnalysisIndex, AuditConfig, AuditRun, DefenseMode};

fn main() {
    let seed = 42;
    println!("Running baseline audit (seed {seed}) ...\n");
    let baseline = AuditRun::execute(AuditConfig::small(seed));
    let ix = AnalysisIndex::build(&baseline);

    let base = defense::measure(&ix, DefenseMode::None);
    // Crawl bids never pass the tap: the uplift is the same under any lens.
    let uplift = defense::bid_uplift(&ix);
    for (name, mode) in [
        (
            "A&T firewall (blocking without breaking)",
            DefenseMode::Firewall,
        ),
        ("on-device transcription (text-only)", DefenseMode::TextOnly),
    ] {
        let defended = defense::measure(&ix, mode);
        let mut report = String::new();
        defense::compare(name, base, defended, (uplift, uplift)).render_into(&mut report);
        println!("{report}");
    }

    println!(
        "Takeaway: both defenses remove their target observable (tracker traffic;\n\
         raw voice recordings) without breaking skill functionality — but neither\n\
         touches the bid uplift, because interest inference happens server-side\n\
         from content the platform necessarily receives. Transparency and control\n\
         at the platform level remain necessary, as the paper argues."
    );
}
