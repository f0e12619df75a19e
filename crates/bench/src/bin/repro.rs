//! `repro` — regenerate every table and figure of the paper.
//!
//! ```sh
//! repro all                 # everything, in paper order
//! repro table5 figure3      # specific artifacts
//! repro --seed 11 table7    # different seed
//! repro --jobs 4 all        # cap the engine's worker threads
//! repro --trace all         # human-readable span tree on stderr
//! repro --metrics-out m.json all   # JSON metrics export (- = stderr)
//! repro --run-dir run-a all        # self-describing run-ledger bundle
//! repro --fault-profile flaky all  # run under a fault-plane preset
//! repro --fault-profile uniform:0.2 all  # one fault rate on every channel
//! repro --bench             # time a paper-scale run, append to BENCH_audit.json
//! repro --bench --fault-profile flaky  # the same, under a fault profile
//! repro --list              # list artifact names
//! repro campaign plan.json  # execute a declarative experiment plan
//! ```
//!
//! Output is byte-identical for every `--jobs` value (the engine's
//! determinism invariant); `--jobs 1` is the sequential reference. The
//! observability flags never change stdout: the trace goes to stderr and the
//! metrics to their own file, so traced and untraced runs stay diffable.
//! `--metrics-out -` streams to **stderr** instead of a file, keeping
//! stdout byte-exact either way.
//!
//! `--run-dir DIR` writes a three-file run-ledger bundle (manifest, trace,
//! memory — see `alexa_obs::bundle`) whose bytes depend only on `(seed,
//! fault profile)`, never on `--jobs`; compare bundles with the `obs-diff`
//! tool, which derives every other view (counter totals, summaries,
//! histograms, the folded-stack work profile via `obs-diff profile`) from
//! the decoded ledger. Its `memory.json` is the deterministic allocation
//! plane: per-stage and per-shard allocation counts and bytes plus size
//! histograms (OS peak RSS stays on the volatile channel of the metrics
//! document, never there). An existing bundle of another run identity or
//! of an older bundle schema is refused (exit 2), never overwritten.
//!
//! `repro campaign PLAN [--out DIR]` executes a declarative experiment plan
//! (seeds × faults × defenses × jobs, with repeats) into a
//! campaign directory of cell bundles plus derived analysis tables, resuming
//! over cells that are already complete — see `alexa_bench::campaign`.
//!
//! Any unknown artifact name or flag is a usage error (exit 2) — including
//! alongside `all` — so a typo in a CI invocation can never pass green.
//! So are `--bench` and `--list` next to artifact names or `all`: they
//! take none, so the names would be silently ignored. `--bench` and
//! `--list` together are one too: the list would silently skip the bench.
//!
//! # Exit codes
//!
//! One variant of `alexa_obs::Exit` each:
//!
//! * `0` — complete run (campaigns: including when some cells degraded —
//!   degradation is recorded per cell in `campaign.json`).
//! * `1` — I/O failure, or a campaign determinism violation (instances of
//!   one cell identity differ byte-wise).
//! * `2` — usage error (unknown flag/artifact, bad value, `--bench` or
//!   `--list` with artifact names or with each other, invalid plan,
//!   `--run-dir` pointing at a foreign directory).
//! * `3` — **degraded but valid**: injected faults cost observations after
//!   retry, or a shard's retry budget exhausted. The report (with its
//!   coverage block) is still fully rendered and deterministic.

#![deny(clippy::indexing_slicing)]

use alexa_audit::{AuditConfig, AuditRun, Observations};
use alexa_bench::{campaign, render_artifacts, ARTIFACTS};
use alexa_fault::FaultProfile;
use alexa_obs::bench::BenchEntry;
use alexa_obs::bundle::BundleSpec;
use alexa_obs::{Exit, Json, Recorder};
use std::path::Path;
use std::sync::Arc;

/// Write `body` to `path`, with `-` streaming to stderr. File write errors
/// are fatal ([`Exit::Findings`]): a CI artifact silently missing is worse
/// than a loud failure.
fn write_output(path: &str, what: &str, body: &str) {
    if path == "-" {
        eprint!("{body}");
        return;
    }
    write_or_exit(path, what, body);
    eprintln!("{what} written to {path}");
}

/// Write `body` to the file `path`; a failure is fatal ([`Exit::Findings`]).
fn write_or_exit(path: &str, what: &str, body: &str) {
    if let Err(e) = std::fs::write(path, body) {
        eprintln!("error: cannot write {what} to {path:?}: {e}");
        Exit::Findings.exit();
    }
}

/// `--bench`: time the paper-scale execute plus a full `repro all` rendering
/// pass under `fault` and append the data point — with the recorder's
/// per-stage breakdown — to `BENCH_audit.json` at the repo root, as one
/// [`BenchEntry`], the type `obs-diff gate` decodes. The entry records its
/// fault profile, which keys it in the gate. Returns the
/// observations so the observability surfaces (`--run-dir`, ...) can
/// describe the benched run.
#[expect(
    clippy::disallowed_types,
    reason = "--bench times the run; the timings go to BENCH_audit.json, never into a report"
)]
fn run_bench(seed: u64, jobs: Option<usize>, fault: &FaultProfile, rec: &Recorder) -> Observations {
    let workers = alexa_exec::effective_jobs(jobs);
    eprintln!(
        "benchmarking paper-scale audit (seed {seed}, {workers} worker(s), fault profile {}) ...",
        fault.name()
    );

    // The same execution `repro all` makes: under faults the `defenses`
    // firewall row comes from the shadow tap of this one run.
    let t0 = std::time::Instant::now();
    let config = AuditConfig::paper(seed)
        .with_faults(fault.clone())
        .with_jobs(jobs);
    let (obs, firewall) = AuditRun::execute_with_firewall_shadow(config, rec);
    let execute_ms = t0.elapsed().as_millis() as u64;

    let t1 = std::time::Instant::now();
    let rendered = render_artifacts(&obs, ARTIFACTS, jobs, firewall, rec);
    let render_ms = t1.elapsed().as_millis() as u64;
    let rendered_bytes = rendered.iter().map(String::len).sum();

    // The recorder's per-stage breakdown (wall time, work units,
    // allocated bytes) is what later perf changes regress against.
    let hardware_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let timings = [execute_ms, render_ms];
    let entry = BenchEntry::new(
        &rec.report(),
        seed,
        jobs,
        fault.name(),
        hardware_threads,
        timings,
        rendered_bytes,
    )
    .to_json()
    .render();

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_audit.json");
    // Append as JSON lines so successive benchmark points accumulate.
    let mut log = std::fs::read_to_string(path).unwrap_or_default();
    log.push_str(&entry);
    log.push('\n');
    write_or_exit(path, "BENCH_audit.json", &log);
    eprintln!("execute: {execute_ms} ms, render all: {render_ms} ms");
    println!("{entry}");
    obs
}

/// Write every observability surface the flags asked for: the stderr trace,
/// the `--metrics-out` document (`-` for stderr) and the `--run-dir`
/// run-ledger bundle.
fn emit_observability(rec: &Recorder, cli: &Cli, obs: &Observations) {
    if !rec.is_enabled() {
        return;
    }
    let report = rec.report();
    if cli.trace {
        eprint!("{}", report.render_tree());
    }
    if let Some(path) = cli.metrics_out.as_deref() {
        let cov = &obs.coverage;
        let mut fields = vec![
            ("seed".to_string(), Json::Int(cli.seed)),
            (
                "jobs".to_string(),
                cli.jobs.map_or(Json::Null, |n| Json::Int(n as u64)),
            ),
            ("fault_profile".to_string(), Json::Str(cov.profile.clone())),
            (
                "fault_injected".to_string(),
                Json::Int(cov.total_injected()),
            ),
            ("fault_retries".to_string(), Json::Int(cov.retries)),
            ("fault_backoff_ms".to_string(), Json::Int(cov.backoff_ms)),
            ("fault_losses".to_string(), Json::Int(cov.losses)),
            ("degraded".to_string(), Json::Bool(cov.is_degraded())),
        ];
        match report.to_json() {
            Json::Obj(inner) => fields.extend(inner),
            other => fields.push(("report".to_string(), other)),
        }
        write_output(path, "metrics", &(Json::Obj(fields).render() + "\n"));
    }
    if let Some(dir) = cli.run_dir.as_deref() {
        let mut spec = run_dir_spec(cli);
        spec.observations_digest = obs.digest();
        spec.coverage = Some(obs.coverage.to_json());
        if let Err(e) = alexa_obs::bundle::write_bundle(Path::new(dir), &spec, &report) {
            eprintln!("error: cannot write run bundle to {dir:?}: {e}");
            Exit::Findings.exit();
        }
        eprintln!("run bundle written to {dir}");
    }
}

/// The run-identity spec of this invocation's `--run-dir` bundle (digest
/// and coverage are filled in after the run; identity ignores both).
fn run_dir_spec(cli: &Cli) -> BundleSpec {
    BundleSpec {
        seed: cli.seed,
        fault_profile: cli.fault.name().to_string(),
        defense: None,
        campaign: None,
        observations_digest: 0,
        coverage: None,
    }
}

/// Refuse a `--run-dir` target that is non-empty and not this experiment's
/// bundle ([`Exit::Usage`]) — checked *before* the run so hours of execution can
/// never end by destroying foreign data. The same predicate drives the
/// campaign runner's resume detection.
fn guard_run_dir(cli: &Cli) {
    let Some(dir) = cli.run_dir.as_deref() else {
        return;
    };
    if let Err(conflict) = alexa_obs::bundle::check_run_dir(Path::new(dir), &run_dir_spec(cli)) {
        eprintln!("error: {conflict}");
        Exit::Usage.exit();
    }
}

fn usage(code: Exit) -> ! {
    eprintln!(
        "usage: repro [--seed N] [--jobs N] [--trace] [--metrics-out PATH] [--run-dir DIR] \
         [--fault-profile none|flaky|degraded|hostile|uniform:R] \
         <artifact>... | all | --bench | --list"
    );
    eprintln!("       repro campaign PLAN [--out DIR]");
    eprintln!("--metrics-out PATH accepts '-' to stream to stderr");
    eprintln!("artifacts: {}", ARTIFACTS.join(" "));
    code.exit();
}

/// `repro campaign PLAN [--out DIR]` — execute a declarative experiment
/// plan. Own tiny argument grammar: the campaign's axes (seed, faults,
/// jobs, ...) live in the plan document, not on the command line.
fn run_campaign_cli(args: &[String]) -> ! {
    let mut plan: Option<String> = None;
    let mut out: Option<String> = None;
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => match args.next() {
                Some(dir) => out = Some(dir.clone()),
                None => {
                    eprintln!("error: --out expects a directory");
                    Exit::Usage.exit();
                }
            },
            "--help" | "-h" => usage(Exit::Clean),
            flag if flag.starts_with('-') => {
                eprintln!("error: unknown campaign flag {flag:?}");
                usage(Exit::Usage);
            }
            path => {
                if plan.is_some() {
                    eprintln!("error: campaign expects exactly one plan file");
                    usage(Exit::Usage);
                }
                plan = Some(path.to_string());
            }
        }
    }
    let Some(plan) = plan else {
        eprintln!("error: campaign expects a plan file");
        usage(Exit::Usage);
    };
    let rec = Arc::new(Recorder::new());
    alexa_obs::install_global(rec.clone());
    match campaign::run_campaign(Path::new(&plan), out.as_deref().map(Path::new), &rec) {
        Ok(summary) => {
            print!("{}", summary.render());
            Exit::Clean.exit();
        }
        Err(e) => {
            eprintln!("error: {e}");
            e.exit_code().exit();
        }
    }
}

struct Cli {
    seed: u64,
    jobs: Option<usize>,
    trace: bool,
    metrics_out: Option<String>,
    run_dir: Option<String>,
    fault: FaultProfile,
    bench: bool,
    list: bool,
    all: bool,
    artifacts: Vec<String>,
}

/// Parse and *fully validate* the command line: every artifact name is
/// checked against the known list (even when `all` is also present) and
/// unknown flags are rejected, so a typo is a usage error instead of silently
/// rendering nothing.
fn parse_cli() -> Cli {
    let mut cli = Cli {
        seed: 7,
        jobs: None,
        trace: false,
        metrics_out: None,
        run_dir: None,
        fault: FaultProfile::none(),
        bench: false,
        list: false,
        all: false,
        artifacts: Vec::new(),
    };
    let mut args = std::env::args().skip(1).peekable();
    let value = |args: &mut std::iter::Peekable<std::iter::Skip<std::env::Args>>, flag: &str| {
        args.next().unwrap_or_else(|| {
            eprintln!("error: {flag} expects a value");
            Exit::Usage.exit();
        })
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => {
                cli.seed = value(&mut args, "--seed").parse().unwrap_or_else(|_| {
                    eprintln!("error: --seed expects an integer");
                    Exit::Usage.exit();
                })
            }
            "--jobs" => {
                // Zero workers is invalid here as in a plan's `jobs` axis,
                // not a silent alias of one.
                match value(&mut args, "--jobs").parse() {
                    Ok(n) if n > 0 => cli.jobs = Some(n),
                    _ => {
                        eprintln!("error: --jobs expects a positive integer");
                        Exit::Usage.exit();
                    }
                }
            }
            "--trace" => cli.trace = true,
            "--metrics-out" => cli.metrics_out = Some(value(&mut args, "--metrics-out")),
            "--run-dir" => {
                let dir = value(&mut args, "--run-dir");
                if dir == "-" {
                    eprintln!("error: --run-dir expects a directory, not '-'");
                    Exit::Usage.exit();
                }
                cli.run_dir = Some(dir);
            }
            "--fault-profile" => {
                cli.fault = value(&mut args, "--fault-profile")
                    .parse()
                    .unwrap_or_else(|e| {
                        eprintln!("error: {e}");
                        Exit::Usage.exit();
                    })
            }
            "--bench" => cli.bench = true,
            "--list" => cli.list = true,
            "--help" | "-h" => usage(Exit::Clean),
            "all" => cli.all = true,
            flag if flag.starts_with('-') => {
                eprintln!("error: unknown flag {flag:?}");
                usage(Exit::Usage);
            }
            artifact => {
                if !ARTIFACTS.contains(&artifact) {
                    eprintln!("error: unknown artifact {artifact:?} (try --list)");
                    Exit::Usage.exit();
                }
                cli.artifacts.push(artifact.to_string());
            }
        }
    }
    let named = cli.all || !cli.artifacts.is_empty();
    if cli.bench && named {
        eprintln!("error: --bench runs every artifact and takes no artifact names");
        usage(Exit::Usage);
    }
    if cli.list && (named || cli.bench) {
        eprintln!("error: --list lists every artifact and takes no artifact names or --bench");
        usage(Exit::Usage);
    }
    cli
}

fn main() {
    // The campaign subcommand has its own grammar; dispatch before the
    // flag parser so plan paths are never mistaken for artifact names.
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Some(("campaign", rest)) = argv.split_first().map(|(c, r)| (c.as_str(), r)) {
        run_campaign_cli(rest);
    }

    let cli = parse_cli();
    if cli.list {
        for a in ARTIFACTS {
            println!("{a}");
        }
        return;
    }
    guard_run_dir(&cli);

    // The recorder: enabled whenever any observability surface is on, and
    // installed globally so leaf libraries (stats, crawler) feed it too.
    let observing = cli.trace || cli.metrics_out.is_some() || cli.run_dir.is_some() || cli.bench;
    let rec = Arc::new(if observing {
        Recorder::new()
    } else {
        Recorder::disabled()
    });
    alexa_obs::install_global(rec.clone());

    if cli.bench {
        let obs = run_bench(cli.seed, cli.jobs, &cli.fault, &rec);
        emit_observability(&rec, &cli, &obs);
        Exit::Clean.exit(); // without teardown, see the end of `main`
    }
    if cli.artifacts.is_empty() && !cli.all {
        usage(Exit::Usage);
    }

    let wanted: Vec<&str> = if cli.all {
        ARTIFACTS.to_vec()
    } else {
        cli.artifacts.iter().map(String::as_str).collect()
    };

    if cli.fault.is_active() {
        eprintln!("fault profile: {}", cli.fault.name());
    }
    eprintln!("running paper-scale audit (seed {}) ...", cli.seed);
    let config = AuditConfig::paper(cli.seed)
        .with_faults(cli.fault.clone())
        .with_jobs(cli.jobs);
    // Under faults the `defenses` firewall row comes from a shadow tap in
    // this one run; fault-free, the shadow never starts.
    let (obs, firewall) = if wanted.contains(&"defenses") {
        AuditRun::execute_with_firewall_shadow(config, &rec)
    } else {
        (AuditRun::execute_with(config, &rec), None)
    };
    // Under an active fault profile the coverage block leads stdout, so any
    // artifact subset still reports what the run actually observed. It is
    // deterministic (counts only), keeping jobs-diff CI byte-exact.
    if cli.fault.is_active() {
        println!("{}", obs.coverage.render());
    }
    for artifact in render_artifacts(&obs, &wanted, cli.jobs, firewall, &rec) {
        println!("{artifact}");
    }
    emit_observability(&rec, &cli, &obs);
    // Exit without dropping what `main` still holds. The observation graph
    // is hundreds of thousands of small allocations (~30 MB at paper scale);
    // the OS reclaims it at once, so freeing it piece by piece first only
    // costs time. `Exit::exit` still flushes stdout.
    if obs.coverage.is_degraded() {
        eprintln!("run degraded: injected faults cost observations (exit 3)");
        Exit::Degraded.exit();
    }
    Exit::Clean.exit();
}
