//! `obs-diff` — compare run-ledger bundles and gate bench regressions.
//!
//! ```sh
//! obs-diff diff RUN_A RUN_B                 # full cross-run comparison
//! obs-diff diff A B --format json           # machine-readable findings
//! obs-diff gate --baseline B --candidate C  # bench gate (BENCH_audit.json)
//! obs-diff campaign CAMPAIGN_DIR            # verify a campaign directory
//! obs-diff profile RUN_DIR                  # folded-stack profile (flamegraph input)
//! ```
//!
//! The thresholds are fixed: growth beyond 25% (time, work units) or 10%
//! (allocated bytes) is a regression, and the gate's `--format json`
//! report prints both.
//!
//! # Exit codes
//!
//! The first three variants of `alexa_obs::Exit`:
//!
//! * `0` — bundles equivalent / gate passed / profile printed.
//! * `1` — drift or regression found / gate failed.
//! * `2` — usage error, unreadable or malformed input (including a bundle
//!   or campaign manifest field, or a bench entry field, that parses but
//!   does not decode).

#![deny(clippy::indexing_slicing)]

use alexa_obs::Exit;
use alexa_obsdiff::{check_campaign, diff_bundles, load_bundle, run_gate, LoadedBundle};
use std::path::Path;

fn usage(code: Exit) -> ! {
    eprintln!(
        "usage: obs-diff diff BASELINE_DIR CANDIDATE_DIR [--format human|json]\n\
                obs-diff gate --baseline FILE --candidate FILE [--format human|json]\n\
                obs-diff campaign CAMPAIGN_DIR [--format human|json]\n\
                obs-diff profile BUNDLE_DIR"
    );
    code.exit();
}

/// Output format of either subcommand.
#[derive(PartialEq)]
enum Format {
    Human,
    Json,
}

fn parse_format(value: &str) -> Format {
    match value {
        "human" => Format::Human,
        "json" => Format::Json,
        other => {
            eprintln!("error: unknown format {other:?} (expected human or json)");
            Exit::Usage.exit();
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        usage(Exit::Usage);
    };
    match command.as_str() {
        "diff" => cmd_diff(rest),
        "gate" => cmd_gate(rest),
        "campaign" => cmd_campaign(rest),
        "profile" => cmd_profile(rest),
        "--help" | "-h" => usage(Exit::Clean),
        other => {
            eprintln!("error: unknown command {other:?}");
            usage(Exit::Usage);
        }
    }
}

fn cmd_diff(args: &[String]) -> ! {
    let mut dirs: Vec<&str> = Vec::new();
    let mut format = Format::Human;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--format" => format = parse_format(&value(&mut it, "--format")),
            flag if flag.starts_with('-') => {
                eprintln!("error: unknown flag {flag:?}");
                usage(Exit::Usage);
            }
            dir => dirs.push(dir),
        }
    }
    let [a, b] = dirs.as_slice() else {
        eprintln!("error: diff expects exactly two bundle directories");
        usage(Exit::Usage);
    };
    let (bundle_a, bundle_b) = (load(a), load(b));
    let report = diff_bundles(&bundle_a, &bundle_b);
    match format {
        Format::Human => print!("{}", report.render_human()),
        Format::Json => println!("{}", report.to_json().render()),
    }
    finish(report.clean())
}

fn cmd_gate(args: &[String]) -> ! {
    let mut baseline: Option<String> = None;
    let mut candidate: Option<String> = None;
    let mut format = Format::Human;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--baseline" => baseline = Some(value(&mut it, "--baseline")),
            "--candidate" => candidate = Some(value(&mut it, "--candidate")),
            "--format" => format = parse_format(&value(&mut it, "--format")),
            other => {
                eprintln!("error: unknown argument {other:?}");
                usage(Exit::Usage);
            }
        }
    }
    let (Some(baseline), Some(candidate)) = (baseline, candidate) else {
        eprintln!("error: gate requires --baseline and --candidate");
        usage(Exit::Usage);
    };
    match run_gate(Path::new(&baseline), Path::new(&candidate)) {
        Ok(report) => {
            match format {
                Format::Human => print!("{}", report.render_human()),
                Format::Json => println!("{}", report.to_json().render()),
            }
            finish(report.passed())
        }
        Err(e) => {
            eprintln!("error: {e}");
            Exit::Usage.exit();
        }
    }
}

fn cmd_campaign(args: &[String]) -> ! {
    let mut dirs: Vec<&str> = Vec::new();
    let mut format = Format::Human;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--format" => format = parse_format(&value(&mut it, "--format")),
            flag if flag.starts_with('-') => {
                eprintln!("error: unknown flag {flag:?}");
                usage(Exit::Usage);
            }
            dir => dirs.push(dir),
        }
    }
    let [dir] = dirs.as_slice() else {
        eprintln!("error: campaign expects exactly one campaign directory");
        usage(Exit::Usage);
    };
    match check_campaign(Path::new(dir)) {
        Ok(check) => {
            match format {
                Format::Human => print!("{}", check.render_human()),
                Format::Json => println!("{}", check.to_json().render()),
            }
            finish(check.clean())
        }
        Err(e) => {
            eprintln!("error: {e}");
            Exit::Usage.exit();
        }
    }
}

/// Print the folded-stack work profile the bundle's trace implies.
fn cmd_profile(args: &[String]) -> ! {
    let [dir] = args else {
        eprintln!("error: profile expects exactly one bundle directory");
        usage(Exit::Usage);
    };
    print!("{}", load(dir).report.folded_profile());
    Exit::Clean.exit()
}

/// Load a bundle, or end with a usage error naming what is wrong with it.
fn load(dir: &str) -> LoadedBundle {
    load_bundle(Path::new(dir)).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        Exit::Usage.exit();
    })
}

/// Exit clean, or with findings.
fn finish(clean: bool) -> ! {
    if clean {
        Exit::Clean.exit();
    }
    Exit::Findings.exit()
}

/// The next argument as a flag value, or a usage error.
fn value(it: &mut std::slice::Iter<'_, String>, flag: &str) -> String {
    it.next().cloned().unwrap_or_else(|| {
        eprintln!("error: {flag} expects a value");
        Exit::Usage.exit();
    })
}
