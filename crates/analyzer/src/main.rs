//! `alexa-analyzer` CLI — run the workspace lint pass. See
//! `crates/analyzer/src/lib.rs` and DESIGN.md §11.
//!
//! Exit codes: `0` clean, `1` findings, `2` usage error or an unreadable
//! workspace (a source file or a name registry).

use std::path::PathBuf;
use std::process::ExitCode;

use alexa_analyzer::{analyze, findings, Config, CATALOG};

const USAGE: &str = "\
alexa-analyzer — determinism & observability lints for the audit workspace

USAGE:
    cargo run -p alexa-analyzer -- [OPTIONS]

OPTIONS:
    --root <DIR>        workspace root (default: .)
    --format <FMT>      output format: human | json (default: human)
    --out <FILE>        also write the report to FILE
    --list-lints        print the lint catalog and exit
    -h, --help          print this help
";

struct Cli {
    root: PathBuf,
    json: bool,
    out: Option<PathBuf>,
    list_lints: bool,
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        root: PathBuf::from("."),
        json: false,
        out: None,
        list_lints: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => cli.root = take_value(&mut args, "--root")?.into(),
            "--format" => {
                cli.json = match take_value(&mut args, "--format")?.as_str() {
                    "human" => false,
                    "json" => true,
                    other => return Err(format!("unknown format {other:?} (human|json)")),
                }
            }
            "--out" => cli.out = Some(take_value(&mut args, "--out")?.into()),
            "--list-lints" => cli.list_lints = true,
            "-h" | "--help" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(cli)
}

fn take_value(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
    args.next().ok_or_else(|| format!("{flag} needs a value"))
}

fn list_lints() {
    println!("{:<6} {:<22} summary", "id", "slug");
    for s in CATALOG {
        println!("{:<6} {:<22} {}", s.id, s.slug, s.summary);
    }
}

fn main() -> ExitCode {
    let cli = match parse_cli() {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };

    if cli.list_lints {
        list_lints();
        return ExitCode::SUCCESS;
    }

    let report = match analyze(&cli.root, &Config::workspace()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

    let rendered = if cli.json {
        findings::render_json(&report.findings)
    } else {
        let mut out = String::new();
        for f in &report.findings {
            out.push_str(&f.render_human());
            out.push('\n');
        }
        out.push_str(&format!(
            "{} files scanned, {} finding(s)\n",
            report.files_scanned,
            report.findings.len()
        ));
        out
    };

    print!("{rendered}");
    if let Some(path) = &cli.out {
        if let Err(e) = std::fs::write(path, &rendered) {
            eprintln!("error: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    if report.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
