//! `alexa-benchmark` — see `benchmark/README.md`.
//!
//! ```sh
//! alexa-benchmark run [--workload W]... [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! alexa-benchmark trace ...          # same as run --trace 1
//! alexa-benchmark bless              # rewrite benchmark/reference.json
//! alexa-benchmark compare A.json... -- B.json...
//! ```
//!
//! `run` builds the release `repro` from the checkout, measures each
//! workload for `--seconds` (default: `run_seconds` of `BENCHMARK.json`)
//! and prints every metric with its unit and sample count. With a single
//! `--workload`, the last line of stdout is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}` — the end-to-end metrics
//! untraced, the per-layer metrics with `--trace 1`.
//!
//! Exit codes: 0 when every item checked out, 1 when an item failed or a
//! comparison found a regression, 2 on a usage or set-up error.

use alexa_benchmark::compare::{compare, load_bounds};
use alexa_benchmark::measure::{run_workload, Budget};
use alexa_benchmark::reference::bless;
use alexa_benchmark::trace::trace_workload;
use alexa_benchmark::workload::Workload;
use alexa_benchmark::{
    build_repro, hardware_threads, read_json, render_json, rustc_version, Paths,
};
use alexa_obs::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

const USAGE: &str = "usage: alexa-benchmark run [--workload report|report-flaky|campaign]... \
[--seed N] [--seconds S] [--trace 0|1] [--out FILE]
       alexa-benchmark trace [same flags as run]
       alexa-benchmark bless
       alexa-benchmark compare RESULT... -- RESULT...";

fn fail(code: i32, msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(code);
}

struct RunArgs {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_run(args: &[String], trace: bool) -> RunArgs {
    let mut run = RunArgs {
        workloads: Vec::new(),
        seed: 7,
        seconds: None,
        trace,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .unwrap_or_else(|| fail(2, &format!("{flag} expects a value\n{USAGE}")))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value();
                let w = Workload::parse(&name)
                    .unwrap_or_else(|| fail(2, &format!("unknown workload {name:?}")));
                run.workloads.push(w);
            }
            "--seed" => {
                run.seed = value()
                    .parse()
                    .unwrap_or_else(|_| fail(2, "--seed expects an integer"))
            }
            "--seconds" => {
                let s: f64 = value()
                    .parse()
                    .unwrap_or_else(|_| fail(2, "--seconds expects a number"));
                if !(s.is_finite() && s >= 0.0) {
                    fail(2, "--seconds expects a non-negative number");
                }
                run.seconds = Some(s);
            }
            "--trace" => match value().as_str() {
                "0" => run.trace = false,
                "1" => run.trace = true,
                _ => fail(2, "--trace expects 0 or 1"),
            },
            "--out" => run.out = Some(PathBuf::from(value())),
            other => fail(2, &format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    if run.workloads.is_empty() {
        run.workloads = Workload::ALL.to_vec();
    }
    run
}

/// `run_seconds` from `BENCHMARK.json`.
fn default_seconds(paths: &Paths) -> f64 {
    read_json(&paths.definition())
        .ok()
        .and_then(|d| d.get("run_seconds").and_then(Json::as_f64))
        .unwrap_or_else(|| fail(2, "BENCHMARK.json has no run_seconds"))
}

/// Measure one untraced workload in a child process of this executable, so
/// its `getrusage(RUSAGE_CHILDREN)` sees only that workload's processes.
fn measure_in_child(w: Workload, seed: u64, seconds: f64) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["measure", "--workload", w.name()])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot spawn the measuring process: {e}"))?;
    if !out.status.success() {
        return Err(format!("measuring {} failed ({})", w.name(), out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let last = text.lines().last().unwrap_or_default();
    Json::parse(last).map_err(|e| format!("measuring process printed no result: {e}"))
}

/// The human-readable summary of one workload document.
fn print_summary(doc: &Json) {
    let s = |k: &str| doc.get(k).map(render_json).unwrap_or_default();
    println!(
        "== {} (base seed {}): {} attempted, {} failed, {} checked byte-exact, {} contract-only",
        doc.get("workload").and_then(Json::as_str).unwrap_or("?"),
        s("base_seed"),
        s("attempted"),
        s("failed"),
        s("checked_exact"),
        s("checked_contract")
    );
    if let Some(ratio) = doc.get("failed_ratio") {
        println!(
            "  {:<34} {:>14}  failed/attempted",
            "failed_ratio",
            render_json(ratio)
        );
    }
    for (name, m) in doc.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
        let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
        println!(
            "  {name:<34} {value:>14.4}  {:<8} n={}",
            m.get("unit").and_then(Json::as_str).unwrap_or(""),
            m.get("n").map(render_json).unwrap_or_default()
        );
    }
    for f in doc.get("failures").and_then(Json::as_arr).unwrap_or(&[]) {
        println!("  FAILED {}", f.as_str().unwrap_or(""));
    }
}

/// The contract line: correctness and the metrics' values and units.
fn result_line(doc: &Json) -> String {
    let int = |k: &str| doc.get(k).and_then(Json::as_u64).unwrap_or(0);
    let metrics = doc
        .get("metrics")
        .and_then(Json::as_obj)
        .unwrap_or(&[])
        .iter()
        .map(|(name, m)| {
            let keep = |k: &str| (k.to_string(), m.get(k).cloned().unwrap_or(Json::Null));
            (name.clone(), Json::Obj(vec![keep("value"), keep("unit")]))
        })
        .collect();
    render_json(&Json::Obj(vec![
        ("correct".into(), Json::Bool(int("failed") == 0)),
        ("attempted".into(), Json::Int(int("attempted"))),
        ("failed".into(), Json::Int(int("failed"))),
        ("metrics".into(), Json::Obj(metrics)),
    ]))
}

fn write_file(path: &Path, body: &str) {
    if let Err(e) = std::fs::write(path, body) {
        fail(2, &format!("cannot write {}: {e}", path.display()));
    }
}

fn cmd_run(args: RunArgs) -> i32 {
    let paths = Paths::detect();
    let repro = build_repro(&paths).unwrap_or_else(|e| fail(2, &e));
    let seconds = args.seconds.unwrap_or_else(|| default_seconds(&paths));
    let mut docs = Vec::new();
    for &w in &args.workloads {
        eprintln!(
            "{} {} for {seconds} s (base seed {}) ...",
            if args.trace { "tracing" } else { "measuring" },
            w.name(),
            args.seed
        );
        let doc = if args.trace {
            let run = trace_workload(
                &paths,
                &repro,
                &paths.reference(),
                w,
                args.seed,
                Budget::seconds(seconds),
            )
            .unwrap_or_else(|e| fail(2, &e));
            let spans = match &args.out {
                Some(out) => out.with_extension(format!("{}.spans.jsonl", w.name())),
                None => paths.work.join(format!("{}.spans.jsonl", w.name())),
            };
            if let Some(dir) = spans.parent() {
                let _ = std::fs::create_dir_all(dir);
            }
            write_file(&spans, &run.tracer.to_jsonl());
            eprintln!("spans written to {}", spans.display());
            run.to_json()
        } else {
            measure_in_child(w, args.seed, seconds).unwrap_or_else(|e| fail(2, &e))
        };
        print_summary(&doc);
        docs.push(doc);
    }
    let all_ok = docs
        .iter()
        .all(|d| d.get("failed").and_then(Json::as_u64) == Some(0));
    if let Some(out) = &args.out {
        let result = Json::Obj(vec![
            (
                "kind".into(),
                Json::Str(if args.trace { "trace" } else { "run" }.into()),
            ),
            (
                "hardware_threads".into(),
                Json::Int(hardware_threads() as u64),
            ),
            ("base_seed".into(), Json::Int(args.seed)),
            ("seconds".into(), Json::Float(seconds)),
            ("rustc".into(), Json::Str(rustc_version())),
            ("workloads".into(), Json::Arr(docs.clone())),
        ]);
        write_file(out, &(render_json(&result) + "\n"));
        eprintln!("results written to {}", out.display());
    }
    if let [doc] = docs.as_slice() {
        println!("{}", result_line(doc));
    }
    if all_ok {
        0
    } else {
        1
    }
}

/// `measure` (internal): one untraced workload, its document on stdout.
fn cmd_measure(args: RunArgs) -> i32 {
    let paths = Paths::detect();
    let [workload] = args.workloads.as_slice() else {
        fail(2, "measure takes exactly one --workload");
    };
    let seconds = args.seconds.unwrap_or_else(|| default_seconds(&paths));
    let run = run_workload(
        &paths,
        &paths.repro(),
        &paths.reference(),
        *workload,
        args.seed,
        Budget::seconds(seconds),
    )
    .unwrap_or_else(|e| fail(2, &e));
    println!("{}", render_json(&run.to_json()));
    0
}

fn cmd_bless() -> i32 {
    let paths = Paths::detect();
    let repro = build_repro(&paths).unwrap_or_else(|e| fail(2, &e));
    match bless(&paths, &repro) {
        Ok(r) => {
            println!(
                "reference written to {}: {} report, {} report-flaky, {} campaign digests",
                paths.reference().display(),
                r.report.len(),
                r.report_flaky.len(),
                r.campaign.len()
            );
            0
        }
        Err(e) => fail(1, &e),
    }
}

fn cmd_compare(args: &[String]) -> i32 {
    let Some(split) = args.iter().position(|a| a == "--") else {
        fail(
            2,
            &format!("compare needs two sets separated by --\n{USAGE}"),
        );
    };
    let load = |files: &[String]| -> Vec<Json> {
        if files.is_empty() {
            fail(2, "compare needs at least one result per set");
        }
        files
            .iter()
            .map(|f| read_json(Path::new(f)).unwrap_or_else(|e| fail(2, &e)))
            .collect()
    };
    let (a, b) = (load(&args[..split]), load(&args[split + 1..]));
    let bounds = load_bounds(&Paths::detect().definition()).unwrap_or_else(|e| fail(2, &e));
    let (table, worse) = compare(&a, &b, &bounds);
    print!("{table}");
    if worse {
        1
    } else {
        0
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or_default();
    let code = match args.first().map(String::as_str) {
        Some("run") => cmd_run(parse_run(rest, false)),
        Some("trace") => cmd_run(parse_run(rest, true)),
        Some("measure") => cmd_measure(parse_run(rest, false)),
        Some("bless") if rest.is_empty() => cmd_bless(),
        Some("compare") => cmd_compare(rest),
        Some("--help" | "-h") => {
            println!("{USAGE}");
            0
        }
        _ => fail(2, USAGE),
    };
    std::process::exit(code);
}
