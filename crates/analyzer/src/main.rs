//! `alexa-analyzer` CLI — run the workspace lint pass and gate on the
//! ratchet baseline. See `crates/analyzer/src/lib.rs` and DESIGN.md §11.
//!
//! Exit codes: `0` clean, `1` new findings or baseline drift, `2` usage or
//! configuration error.

use std::path::PathBuf;
use std::process::ExitCode;

use alexa_analyzer::{analyze, config, findings, fix, sarif, Config, CATALOG};

const USAGE: &str = "\
alexa-analyzer — determinism & panic-safety lints for the audit workspace

USAGE:
    cargo run -p alexa-analyzer -- [OPTIONS]

OPTIONS:
    --root <DIR>        workspace root (default: .)
    --config <FILE>     analyzer config (default: <root>/analyzer.toml)
    --format <FMT>      output format: human | json | sarif (default: human)
    --out <FILE>        also write the report to FILE
    --list-lints        print the lint catalog and exit
    --write-baseline    rewrite the [[baseline]] section of the config to
                        match current findings (the ratchet update)
    --fix               delete stale analyzer:allow escapes and ratchet the
                        baseline down to reality, then re-run the analysis
    -h, --help          print this help
";

struct Cli {
    root: PathBuf,
    config: Option<PathBuf>,
    format: Format,
    out: Option<PathBuf>,
    list_lints: bool,
    write_baseline: bool,
    fix: bool,
}

#[derive(PartialEq)]
enum Format {
    Human,
    Json,
    Sarif,
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        root: PathBuf::from("."),
        config: None,
        format: Format::Human,
        out: None,
        list_lints: false,
        write_baseline: false,
        fix: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => cli.root = take_value(&mut args, "--root")?.into(),
            "--config" => cli.config = Some(take_value(&mut args, "--config")?.into()),
            "--format" => {
                cli.format = match take_value(&mut args, "--format")?.as_str() {
                    "human" => Format::Human,
                    "json" => Format::Json,
                    "sarif" => Format::Sarif,
                    other => return Err(format!("unknown format {other:?} (human|json|sarif)")),
                }
            }
            "--out" => cli.out = Some(take_value(&mut args, "--out")?.into()),
            "--list-lints" => cli.list_lints = true,
            "--write-baseline" => cli.write_baseline = true,
            "--fix" => cli.fix = true,
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
    println!("{:<6} {:<22} {:<5} summary", "id", "slug", "sev");
    for s in CATALOG {
        println!(
            "{:<6} {:<22} {:<5} {}",
            s.id,
            s.slug,
            s.default_severity.label(),
            s.summary
        );
    }
}

fn load_config(cfg_path: &PathBuf) -> Result<(String, Config), String> {
    let src = std::fs::read_to_string(cfg_path)
        .map_err(|e| format!("cannot read {}: {e}", cfg_path.display()))?;
    let cfg = Config::parse(&src).map_err(|e| e.to_string())?;
    Ok((src, cfg))
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

    let cfg_path = cli
        .config
        .clone()
        .unwrap_or_else(|| cli.root.join("analyzer.toml"));
    let (mut cfg_src, mut cfg) = match load_config(&cfg_path) {
        Ok(v) => v,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::from(2);
        }
    };

    let mut report = match analyze(&cli.root, &cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

    if cli.fix {
        let outcome = match fix::apply(&cli.root, &cfg_path, &cfg_src, &cfg, &report) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        };
        println!("{}", outcome.render_human());
        if outcome.changed() {
            // Re-analyze against the rewritten tree and config so the
            // report (and the exit code) reflect the post-fix state.
            (cfg_src, cfg) = match load_config(&cfg_path) {
                Ok(v) => v,
                Err(msg) => {
                    eprintln!("error: {msg}");
                    return ExitCode::from(2);
                }
            };
            report = match analyze(&cli.root, &cfg) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::from(2);
                }
            };
        }
    }

    if cli.write_baseline {
        let fresh = report.fresh_baseline();
        let head = config::baseline_header(&cfg_src);
        let rendered = format!("{head}{}", config::render_baseline(&fresh));
        if let Err(e) = std::fs::write(&cfg_path, &rendered) {
            eprintln!("error: cannot write {}: {e}", cfg_path.display());
            return ExitCode::from(2);
        }
        println!(
            "wrote {} baseline entries ({} findings) to {}",
            fresh.len(),
            fresh.iter().map(|b| b.count).sum::<usize>(),
            cfg_path.display()
        );
        return ExitCode::SUCCESS;
    }

    let rendered = match cli.format {
        Format::Json => {
            let mut all: Vec<findings::Finding> = report.new_findings.clone();
            all.extend(report.warnings.iter().cloned());
            all.sort_by(|a, b| (&a.path, a.line, a.lint).cmp(&(&b.path, b.line, b.lint)));
            findings::render_json(&all, &report.drift, report.baselined, report.clean())
        }
        Format::Sarif => {
            let mut all: Vec<findings::Finding> = report.new_findings.clone();
            all.extend(report.warnings.iter().cloned());
            all.sort_by(|a, b| (&a.path, a.line, a.lint).cmp(&(&b.path, b.line, b.lint)));
            sarif::render(&all, &report.drift)
        }
        Format::Human => {
            let mut out = String::new();
            for f in &report.new_findings {
                out.push_str(&f.render_human());
                out.push('\n');
            }
            for d in &report.drift {
                out.push_str(&d.render_human());
                out.push('\n');
            }
            for w in &report.warnings {
                out.push_str(&w.render_human());
                out.push('\n');
            }
            out.push_str(&format!(
                "{} files scanned, {} new finding(s), {} baseline drift(s), {} baselined, {} warning(s)\n",
                report.files_scanned,
                report.new_findings.len(),
                report.drift.len(),
                report.baselined,
                report.warnings.len()
            ));
            out
        }
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
        // analyzer gate failure, not a repro-pipeline exit — documented
        // contract is 0/1/2 for this binary.
        ExitCode::from(1) // analyzer:allow(AS04) -- gate exit, this bin's contract is 0/1/2
    }
}
