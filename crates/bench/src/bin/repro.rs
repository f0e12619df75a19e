//! `repro` — regenerate every table and figure of the paper.
//!
//! ```sh
//! repro all                 # everything, in paper order
//! repro table5 figure3      # specific artifacts
//! repro --seed 11 table7    # different seed
//! repro --jobs 4 all        # cap the engine's worker threads
//! repro --trace all         # human-readable span tree on stderr
//! repro --metrics-out m.json all   # JSON metrics export
//! repro --mem-out mem.json all     # deterministic allocation-plane export
//! repro --trace-out t.txt all      # span tree to a file (- = stderr)
//! repro --profile-out p.folded all # folded-stack work profile
//! repro --run-dir run-a all        # self-describing run-ledger bundle
//! repro --fault-profile flaky all  # run under a fault-plane preset
//! repro --fault-rate 0.2 all       # uniform fault rate on every channel
//! repro --bench             # time a paper-scale run, write BENCH_audit.json
//! repro --list              # list artifact names
//! repro campaign plan.json  # execute a declarative experiment plan
//! ```
//!
//! Output is byte-identical for every `--jobs` value (the engine's
//! determinism invariant); `--jobs 1` is the sequential reference. The
//! observability flags never change stdout: the trace goes to stderr and the
//! metrics to their own file, so traced and untraced runs stay diffable.
//! Every output flag accepts `-` to stream to **stderr** instead of a file,
//! keeping stdout byte-exact either way.
//!
//! `--run-dir DIR` writes a five-file run-ledger bundle (manifest, metrics,
//! trace, memory, folded profile — see `alexa_obs::bundle`) whose bytes
//! depend only on `(seed, fault profile)`, never on `--jobs`; compare
//! bundles with the `obs-diff` tool. `--mem-out` exports the same
//! deterministic memory document standalone: per-stage and per-shard
//! allocation counts and bytes plus size histograms, byte-identical across
//! `--jobs` values (OS peak RSS stays on the volatile channel of the metrics
//! document, never here).
//!
//! `repro campaign PLAN [--out DIR]` executes a declarative experiment plan
//! (seeds × faults × defenses × jobs, with repeats) into a
//! campaign directory of cell bundles plus derived analysis tables, resuming
//! over cells that are already complete — see `alexa_bench::campaign`.
//!
//! Any unknown artifact name or flag is a hard error (exit 2) — including
//! alongside `all` — so a typo in a CI invocation can never pass green.
//!
//! # Exit codes
//!
//! * `0` — complete run (campaigns: including when some cells degraded —
//!   degradation is recorded per cell in `campaign.json`).
//! * `1` — I/O failure, or a campaign determinism violation (instances of
//!   one cell identity differ byte-wise).
//! * `2` — usage error (unknown flag/artifact, bad value, invalid plan,
//!   `--run-dir` pointing at a foreign directory).
//! * `3` — **degraded but valid**: injected faults cost observations after
//!   retry, or a shard's retry budget exhausted. The report (with its
//!   coverage block) is still fully rendered and deterministic.

use alexa_audit::{AuditConfig, AuditRun, Observations};
use alexa_bench::{campaign, render_artifacts, ARTIFACTS};
use alexa_fault::FaultProfile;
use alexa_obs::bundle::BundleSpec;
use alexa_obs::{Json, Recorder};
use std::path::Path;
use std::sync::Arc;

/// Write `body` to `path`, with `-` streaming to stderr. File write errors
/// are fatal (exit 1): a CI artifact silently missing is worse than a loud
/// failure.
fn write_output(path: &str, what: &str, body: &str) {
    if path == "-" {
        eprint!("{body}");
        return;
    }
    write_or_exit(path, what, body);
    eprintln!("{what} written to {path}");
}

/// Write `body` to the file `path`; a failure is fatal (exit 1).
fn write_or_exit(path: &str, what: &str, body: &str) {
    if let Err(e) = std::fs::write(path, body) {
        eprintln!("error: cannot write {what} to {path:?}: {e}");
        std::process::exit(1);
    }
}

/// `--bench`: time the paper-scale execute plus a full `repro all` rendering
/// pass and append the data point — with the recorder's per-stage breakdown
/// — to `BENCH_audit.json` at the repo root. Returns the observations so the
/// observability surfaces (`--run-dir`, ...) can describe the benched run.
#[expect(
    clippy::disallowed_types,
    reason = "--bench times the run; the timings go to BENCH_audit.json, never into a report"
)]
fn run_bench(seed: u64, jobs: Option<usize>, rec: &Recorder) -> Observations {
    let workers = alexa_exec::effective_jobs(jobs);
    eprintln!("benchmarking paper-scale audit (seed {seed}, {workers} worker(s)) ...");

    let t0 = std::time::Instant::now();
    let obs = AuditRun::execute_with(AuditConfig::paper(seed).with_jobs(jobs), rec);
    let execute_ms = t0.elapsed().as_millis() as u64;

    let t1 = std::time::Instant::now();
    let rendered = render_artifacts(&obs, ARTIFACTS, jobs, None, rec);
    let render_ms = t1.elapsed().as_millis() as u64;
    let rendered_bytes: usize = rendered.iter().map(String::len).sum();

    // Per-stage wall times from the recorder, millisecond precision — the
    // breakdown future perf PRs regress against — plus the deterministic
    // work-unit figure per stage (schedule-independent context).
    let report = rec.report();
    let stages: Vec<(String, Json)> = report
        .stages
        .iter()
        .filter(|s| s.depth == 0)
        .map(|s| (s.name.clone(), Json::Int(s.dur_us / 1000)))
        .collect();
    let stage_work: Vec<(String, Json)> = report
        .stages
        .iter()
        .filter(|s| s.depth == 0)
        .map(|s| (s.name.clone(), Json::Int(s.work)))
        .collect();
    // Per-stage allocated bytes: deterministic for a fixed seed, so the
    // obs-diff gate can hold a much tighter threshold on these than on the
    // (noisy) wall-clock columns.
    let stage_alloc: Vec<(String, Json)> = report
        .stages
        .iter()
        .filter(|s| s.depth == 0)
        .map(|s| (s.name.clone(), Json::Int(s.alloc_bytes)))
        .collect();
    let total_ms = execute_ms + render_ms;

    let entry = Json::Obj(vec![
        ("seed".into(), Json::Int(seed)),
        (
            "jobs".into(),
            jobs.map_or(Json::Null, |n| Json::Int(n as u64)),
        ),
        (
            "hardware_threads".into(),
            Json::Int(
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1) as u64,
            ),
        ),
        ("execute_ms".into(), Json::Int(execute_ms)),
        ("render_all_ms".into(), Json::Int(render_ms)),
        ("total_ms".into(), Json::Int(total_ms)),
        ("rendered_bytes".into(), Json::Int(rendered_bytes as u64)),
        ("stages".into(), Json::Obj(stages)),
        ("stage_work".into(), Json::Obj(stage_work)),
        ("stage_alloc".into(), Json::Obj(stage_alloc)),
    ])
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
/// `--trace-out` / `--metrics-out` / `--profile-out` documents (each taking
/// `-` for stderr) and the `--run-dir` run-ledger bundle.
fn emit_observability(rec: &Recorder, cli: &Cli, obs: &Observations) {
    if !rec.is_enabled() {
        return;
    }
    let report = rec.report();
    if cli.trace {
        eprint!("{}", report.render_tree());
    }
    if let Some(path) = cli.trace_out.as_deref() {
        write_output(path, "trace", &report.render_tree());
    }
    if let Some(path) = cli.profile_out.as_deref() {
        write_output(path, "profile", &report.folded_profile());
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
    if let Some(path) = cli.mem_out.as_deref() {
        // Same document as the bundle's memory.json: the deterministic
        // allocation plane only — OS RSS stays on the volatile channel.
        write_output(
            path,
            "memory",
            &(report.ledger_memory_json().render() + "\n"),
        );
    }
    if let Some(dir) = cli.run_dir.as_deref() {
        let mut spec = run_dir_spec(cli);
        spec.observations_digest = obs.digest();
        spec.coverage = Some(obs.coverage.to_json());
        if let Err(e) = alexa_obs::bundle::write_bundle(Path::new(dir), &spec, &report) {
            eprintln!("error: cannot write run bundle to {dir:?}: {e}");
            std::process::exit(1);
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
/// bundle (exit 2) — checked *before* the run so hours of execution can
/// never end by destroying foreign data. The same predicate drives the
/// campaign runner's resume detection.
fn guard_run_dir(cli: &Cli) {
    let Some(dir) = cli.run_dir.as_deref() else {
        return;
    };
    if let Err(conflict) = alexa_obs::bundle::check_run_dir(Path::new(dir), &run_dir_spec(cli)) {
        eprintln!("error: {conflict}");
        std::process::exit(2);
    }
}

fn usage(code: i32) -> ! {
    eprintln!(
        "usage: repro [--seed N] [--jobs N] [--trace] [--metrics-out PATH] \
         [--mem-out PATH] [--trace-out PATH] [--profile-out PATH] [--run-dir DIR] \
         [--fault-profile none|flaky|degraded|hostile] [--fault-rate R] \
         <artifact>... | all | --bench | --list"
    );
    eprintln!("       repro campaign PLAN [--out DIR]");
    eprintln!("output PATHs accept '-' to stream to stderr");
    eprintln!("artifacts: {}", ARTIFACTS.join(" "));
    std::process::exit(code);
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
                    std::process::exit(2);
                }
            },
            "--help" | "-h" => usage(0),
            flag if flag.starts_with('-') => {
                eprintln!("error: unknown campaign flag {flag:?}");
                usage(2);
            }
            path => {
                if plan.is_some() {
                    eprintln!("error: campaign expects exactly one plan file");
                    usage(2);
                }
                plan = Some(path.to_string());
            }
        }
    }
    let Some(plan) = plan else {
        eprintln!("error: campaign expects a plan file");
        usage(2);
    };
    let rec = Arc::new(Recorder::new());
    alexa_obs::install_global(rec.clone());
    match campaign::run_campaign(Path::new(&plan), out.as_deref().map(Path::new), &rec) {
        Ok(summary) => {
            print!("{}", summary.render());
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(e.exit_code());
        }
    }
}

struct Cli {
    seed: u64,
    jobs: Option<usize>,
    trace: bool,
    metrics_out: Option<String>,
    mem_out: Option<String>,
    trace_out: Option<String>,
    profile_out: Option<String>,
    run_dir: Option<String>,
    fault: FaultProfile,
    bench: bool,
    list: bool,
    all: bool,
    artifacts: Vec<String>,
}

/// Parse and *fully validate* the command line: every artifact name is
/// checked against the known list (even when `all` is also present) and
/// unknown flags are rejected, so a typo exits 2 instead of silently
/// rendering nothing.
fn parse_cli() -> Cli {
    let mut cli = Cli {
        seed: 7,
        jobs: None,
        trace: false,
        metrics_out: None,
        mem_out: None,
        trace_out: None,
        profile_out: None,
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
            std::process::exit(2);
        })
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => {
                cli.seed = value(&mut args, "--seed").parse().unwrap_or_else(|_| {
                    eprintln!("error: --seed expects an integer");
                    std::process::exit(2);
                })
            }
            "--jobs" => {
                cli.jobs = Some(value(&mut args, "--jobs").parse().unwrap_or_else(|_| {
                    eprintln!("error: --jobs expects an integer");
                    std::process::exit(2);
                }))
            }
            "--trace" => cli.trace = true,
            "--metrics-out" => cli.metrics_out = Some(value(&mut args, "--metrics-out")),
            "--mem-out" => cli.mem_out = Some(value(&mut args, "--mem-out")),
            "--trace-out" => cli.trace_out = Some(value(&mut args, "--trace-out")),
            "--profile-out" => cli.profile_out = Some(value(&mut args, "--profile-out")),
            "--run-dir" => {
                let dir = value(&mut args, "--run-dir");
                if dir == "-" {
                    eprintln!("error: --run-dir expects a directory, not '-'");
                    std::process::exit(2);
                }
                cli.run_dir = Some(dir);
            }
            "--fault-profile" => {
                cli.fault = value(&mut args, "--fault-profile")
                    .parse()
                    .unwrap_or_else(|e| {
                        eprintln!("error: {e}");
                        std::process::exit(2);
                    })
            }
            "--fault-rate" => {
                let rate: f64 = value(&mut args, "--fault-rate")
                    .parse()
                    .unwrap_or_else(|_| {
                        eprintln!("error: --fault-rate expects a number in [0, 1]");
                        std::process::exit(2);
                    });
                if !(0.0..=1.0).contains(&rate) {
                    eprintln!("error: --fault-rate expects a number in [0, 1]");
                    std::process::exit(2);
                }
                cli.fault = FaultProfile::uniform(rate);
            }
            "--bench" => cli.bench = true,
            "--list" => cli.list = true,
            "--help" | "-h" => usage(0),
            "all" => cli.all = true,
            flag if flag.starts_with('-') => {
                eprintln!("error: unknown flag {flag:?}");
                usage(2);
            }
            artifact => {
                if !ARTIFACTS.contains(&artifact) {
                    eprintln!("error: unknown artifact {artifact:?} (try --list)");
                    std::process::exit(2);
                }
                cli.artifacts.push(artifact.to_string());
            }
        }
    }
    cli
}

fn main() {
    // The campaign subcommand has its own grammar; dispatch before the
    // flag parser so plan paths are never mistaken for artifact names.
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("campaign") {
        run_campaign_cli(&argv[1..]);
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
    let observing = cli.trace
        || cli.metrics_out.is_some()
        || cli.mem_out.is_some()
        || cli.trace_out.is_some()
        || cli.profile_out.is_some()
        || cli.run_dir.is_some()
        || cli.bench;
    let rec = Arc::new(if observing {
        Recorder::new()
    } else {
        Recorder::disabled()
    });
    alexa_obs::install_global(rec.clone());

    if cli.bench {
        let obs = run_bench(cli.seed, cli.jobs, &rec);
        emit_observability(&rec, &cli, &obs);
        std::process::exit(0); // without teardown, see the end of `main`
    }
    if cli.artifacts.is_empty() && !cli.all {
        usage(2);
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
    let degraded = obs.coverage.is_degraded();
    if degraded {
        eprintln!("run degraded: injected faults cost observations (exit 3)");
    }
    // Exit without dropping what `main` still holds. The observation graph
    // is hundreds of thousands of small allocations (~30 MB at paper scale);
    // the OS reclaims it at once, so freeing it piece by piece first only
    // costs time. `process::exit` still flushes stdout.
    std::process::exit(if degraded { 3 } else { 0 });
}
