//! Untraced end-to-end measurement: the release `repro` driven from
//! outside by one closed-loop client, one child process at a time.
//!
//! A workload runs in a process of its own (`alexa-benchmark measure`), so
//! `getrusage(RUSAGE_CHILDREN)` there covers exactly that workload's `repro`
//! processes and nothing the parent did, such as building them.

use crate::reference::Reference;
use crate::stats::{median, nearest_rank, samples_beyond};
use crate::workload::{
    campaign_plan, check_campaign, check_report, item_seed, report_args, Check, Workload,
    CAMPAIGN_DEFENSES, CAMPAIGN_FAULTS, CAMPAIGN_JOBS,
};
use crate::{fnv1a64, metric_json, read_json, Paths};
use alexa_obs::Json;
use std::io::Read as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// The end-to-end metrics every untraced run reports: name and unit.
pub const END_TO_END: [(&str, &str); 6] = [
    ("throughput_per_s", "items/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("cpu_ms_per_item", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Set-up runs this many times per workload run; `setup_s` is the median.
pub const SETUPS: usize = 3;
/// Untimed report items per set-up (the first set-up runs them cold).
const WARMUP_ITEMS: usize = 2;
/// The timed loop runs at least this many items, whatever the budget.
const MIN_ITEMS: usize = 3;

/// How long the timed loop runs.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Stop starting new items once this many seconds have passed...
    pub seconds: f64,
    /// ...or once this many items have completed.
    pub max_items: usize,
}

impl Budget {
    /// A budget bounded by time alone.
    pub fn seconds(seconds: f64) -> Budget {
        Budget {
            seconds,
            max_items: usize::MAX,
        }
    }
}

/// One item: its seed, its time from spawn to exit with stdout read and
/// hashed, and how its output checked out.
#[derive(Debug, Clone)]
pub struct Item {
    /// Item seed.
    pub seed: u64,
    /// Milliseconds from spawn to exit, stdout fully read and hashed.
    pub ms: f64,
    /// Output check.
    pub check: Check,
}

/// Everything one untraced workload run measured.
#[derive(Debug, Clone)]
pub struct WorkloadRun {
    /// The workload.
    pub workload: Workload,
    /// Base seed: item `i` runs seed `base + i`.
    pub base_seed: u64,
    /// Seconds per set-up, one per repetition.
    pub setup_s: Vec<f64>,
    /// Untimed warm-up items of every set-up.
    pub warmups: Vec<Item>,
    /// Timed items.
    pub items: Vec<Item>,
    /// Wall time of the timed loop.
    pub loop_s: f64,
    /// User + system CPU of the timed items' processes.
    pub cpu_ms: f64,
    /// Largest `ru_maxrss` among this workload's `repro` processes.
    pub peak_rss_kb: u64,
}

impl WorkloadRun {
    fn all_items(&self) -> impl Iterator<Item = &Item> {
        self.warmups.iter().chain(&self.items)
    }

    /// Items run, warm-ups included.
    pub fn attempted(&self) -> usize {
        self.warmups.len() + self.items.len()
    }

    /// Items that failed, warm-ups included.
    pub fn failed(&self) -> usize {
        self.all_items()
            .filter(|i| matches!(i.check, Check::Failed(_)))
            .count()
    }

    /// Every end-to-end metric: `(name, value, unit, sample count)`.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str, usize)> {
        let n = self.items.len();
        let lat: Vec<f64> = self.items.iter().map(|i| i.ms).collect();
        let values = [
            n as f64 / self.loop_s,
            nearest_rank(&lat, 50.0),
            nearest_rank(&lat, 90.0),
            self.cpu_ms / n as f64,
            self.peak_rss_kb as f64 * 1024.0 / 1e6,
            median(&self.setup_s),
        ];
        let counts = [n, n, n, n, self.attempted(), self.setup_s.len()];
        END_TO_END
            .iter()
            .zip(values)
            .zip(counts)
            .map(|((&(name, unit), v), c)| (name, v, unit, c))
            .collect()
    }

    /// The workload's result document.
    pub fn to_json(&self) -> Json {
        let count = |want: fn(&Check) -> bool| {
            Json::Int(self.all_items().filter(|i| want(&i.check)).count() as u64)
        };
        let failures = self
            .all_items()
            .filter_map(|i| match &i.check {
                Check::Failed(why) => Some(Json::Str(format!("seed {}: {why}", i.seed))),
                _ => None,
            })
            .collect();
        let floats = |v: &mut dyn Iterator<Item = f64>| Json::Arr(v.map(Json::Float).collect());
        let metrics = self
            .metrics()
            .into_iter()
            .map(|(name, v, unit, n)| (name.to_string(), metric_json(v, unit, n)))
            .collect();
        Json::Obj(vec![
            ("workload".into(), Json::Str(self.workload.name().into())),
            ("base_seed".into(), Json::Int(self.base_seed)),
            ("loop".into(), Json::Str("closed, 1 client".into())),
            ("attempted".into(), Json::Int(self.attempted() as u64)),
            ("failed".into(), Json::Int(self.failed() as u64)),
            (
                "failed_ratio".into(),
                Json::Float(self.failed() as f64 / self.attempted().max(1) as f64),
            ),
            ("checked_exact".into(), count(|c| *c == Check::Exact)),
            ("checked_contract".into(), count(|c| *c == Check::Contract)),
            ("failures".into(), Json::Arr(failures)),
            (
                "p90_samples_beyond".into(),
                Json::Int(samples_beyond(self.items.len(), 90.0) as u64),
            ),
            ("metrics".into(), Json::Obj(metrics)),
            (
                "samples".into(),
                Json::Obj(vec![
                    (
                        "item_seeds".into(),
                        Json::Arr(self.items.iter().map(|i| Json::Int(i.seed)).collect()),
                    ),
                    (
                        "latency_ms".into(),
                        floats(&mut self.items.iter().map(|i| i.ms)),
                    ),
                    ("setup_s".into(), floats(&mut self.setup_s.iter().copied())),
                    ("loop_s".into(), Json::Float(self.loop_s)),
                    ("cpu_ms".into(), Json::Float(self.cpu_ms)),
                    ("peak_rss_kb".into(), Json::Int(self.peak_rss_kb)),
                ]),
            ),
        ])
    }
}

/// A finished child process: exit code, stdout and its digest, milliseconds.
pub(crate) struct Finished {
    pub(crate) code: Option<i32>,
    pub(crate) stdout: Vec<u8>,
    pub(crate) digest: u64,
    pub(crate) ms: f64,
}

/// Spawn `repro args`, read its stdout to the end, hash it, and wait.
pub(crate) fn run_repro(repro: &Path, args: &[String]) -> Result<Finished, String> {
    let start = Instant::now();
    let mut child = Command::new(repro)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("cannot spawn {}: {e}", repro.display()))?;
    let mut stdout = Vec::new();
    let read = child
        .stdout
        .take()
        .map(|mut pipe| pipe.read_to_end(&mut stdout));
    let status = child.wait().map_err(|e| format!("wait: {e}"))?;
    let digest = fnv1a64(&stdout);
    let ms = start.elapsed().as_secs_f64() * 1e3;
    if let Some(Err(e)) = read {
        return Err(format!("reading stdout: {e}"));
    }
    Ok(Finished {
        code: status.code(),
        stdout,
        digest,
        ms,
    })
}

/// What one workload needs to run its items.
struct Runner<'a> {
    repro: &'a Path,
    work: PathBuf,
    workload: Workload,
    reference: Reference,
}

impl Runner<'_> {
    /// Run one report item.
    fn report_item(&self, seed: u64) -> Item {
        let args = report_args(seed, self.workload.fault());
        match run_repro(self.repro, &args) {
            Ok(f) => {
                let want = self.reference.report_digest(self.workload, seed);
                Item {
                    seed,
                    ms: f.ms,
                    check: check_report(self.workload, f.code, &f.stdout, f.digest, want),
                }
            }
            Err(e) => Item {
                seed,
                ms: 0.0,
                check: Check::Failed(e),
            },
        }
    }

    /// Run one campaign over `seed` with the given axes; the plan is
    /// written and the campaign directory removed outside the item's time.
    fn campaign_item(&self, seed: u64, faults: &[&str], defenses: &[&str]) -> Item {
        let failed = |e: String| Item {
            seed,
            ms: 0.0,
            check: Check::Failed(e),
        };
        let plan = self.work.join(format!("plan-s{seed}.json"));
        let out = self.work.join("campaign");
        let _ = std::fs::remove_dir_all(&out);
        let text = campaign_plan("bench", &[seed], faults, defenses, CAMPAIGN_JOBS);
        if let Err(e) = std::fs::write(&plan, text) {
            return failed(format!("{}: {e}", plan.display()));
        }
        let args = [
            "campaign".to_string(),
            plan.display().to_string(),
            "--out".to_string(),
            out.display().to_string(),
        ];
        let item = match run_repro(self.repro, &args) {
            Ok(f) => {
                let manifest = read_json(&out.join("campaign.json")).ok();
                let cells = faults.len() * defenses.len() * CAMPAIGN_JOBS.len();
                let check = check_campaign(f.code, &f.stdout, manifest.as_ref(), cells, |id| {
                    self.reference.cell_digest(id)
                });
                Item {
                    seed,
                    ms: f.ms,
                    check,
                }
            }
            Err(e) => failed(e),
        };
        let _ = std::fs::remove_dir_all(&out);
        let _ = std::fs::remove_file(&plan);
        item
    }

    /// Run item `i` of the timed loop.
    fn item(&self, base: u64, i: usize) -> Item {
        let seed = item_seed(base, i);
        match self.workload {
            Workload::Campaign => self.campaign_item(seed, CAMPAIGN_FAULTS, CAMPAIGN_DEFENSES),
            _ => self.report_item(seed),
        }
    }
}

/// Check that `repro --list` names exactly the artifacts `repro all` renders.
fn list_check(repro: &Path) -> Result<(), String> {
    let f = run_repro(repro, &["--list".to_string()])?;
    let text = String::from_utf8_lossy(&f.stdout);
    let listed: Vec<&str> = text.lines().collect();
    if f.code != Some(0) || listed != alexa_bench::ARTIFACTS {
        return Err(format!("repro --list is off (exit {:?})", f.code));
    }
    Ok(())
}

/// Measure one workload: set up [`SETUPS`] times, then run the timed loop.
///
/// Set-up is the `repro --list` sanity check, the reference load and the
/// untimed warm-up items; a failure there aborts the run.
pub fn run_workload(
    paths: &Paths,
    repro: &Path,
    reference: &Path,
    workload: Workload,
    base: u64,
    budget: Budget,
) -> Result<WorkloadRun, String> {
    let work = paths.scratch("measure")?;
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut warmups = Vec::new();
    let mut runner = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        list_check(repro)?;
        let r = Runner {
            repro,
            work: work.clone(),
            workload,
            reference: Reference::load(reference)?,
        };
        match workload {
            Workload::Campaign => warmups.push(r.campaign_item(base, &["none"], &["none"])),
            _ => warmups.extend((0..WARMUP_ITEMS).map(|i| r.report_item(item_seed(base, i)))),
        }
        setup_s.push(start.elapsed().as_secs_f64());
        runner = Some(r);
    }
    let runner = runner.expect("SETUPS is positive");

    let before = children_usage();
    let start = Instant::now();
    let mut items = Vec::new();
    while items.len() < budget.max_items
        && (items.len() < MIN_ITEMS || start.elapsed().as_secs_f64() < budget.seconds)
    {
        items.push(runner.item(base, items.len()));
    }
    let loop_s = start.elapsed().as_secs_f64();
    let after = children_usage();
    let _ = std::fs::remove_dir_all(&work);
    Ok(WorkloadRun {
        workload,
        base_seed: base,
        setup_s,
        warmups,
        items,
        loop_s,
        cpu_ms: after.cpu_ms - before.cpu_ms,
        peak_rss_kb: after.maxrss_kb,
    })
}

/// Resource usage of this process's terminated, waited-for children.
struct ChildrenUsage {
    cpu_ms: f64,
    maxrss_kb: u64,
}

#[cfg(not(target_os = "linux"))]
compile_error!("the benchmark reads Linux `getrusage` (ru_maxrss in kB)");

fn children_usage() -> ChildrenUsage {
    use std::os::raw::{c_int, c_long};

    #[repr(C)]
    struct Timeval {
        sec: c_long,
        usec: c_long,
    }

    /// `struct rusage` on Linux: two timevals, then fourteen longs.
    #[repr(C)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        maxrss: c_long,
        rest: [c_long; 13],
    }

    const RUSAGE_CHILDREN: c_int = -1;

    extern "C" {
        fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
    }

    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `ru` is a live, writable `struct rusage` laid out as Linux
    // defines it (`repr(C)`, all fields `long`), and `getrusage` writes only
    // within it; RUSAGE_CHILDREN is a valid `who`. std links libc already.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut ru) };
    if rc != 0 {
        return ChildrenUsage {
            cpu_ms: 0.0,
            maxrss_kb: 0,
        };
    }
    let ms = |t: &Timeval| t.sec as f64 * 1e3 + t.usec as f64 / 1e3;
    ChildrenUsage {
        cpu_ms: ms(&ru.utime) + ms(&ru.stime),
        maxrss_kb: u64::try_from(ru.maxrss).unwrap_or(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_usage_grows_after_a_child_exits() {
        let before = children_usage();
        let status = Command::new("sh")
            .args(["-c", "i=0; while [ $i -lt 20000 ]; do i=$((i+1)); done"])
            .status()
            .expect("sh runs");
        assert!(status.success());
        let after = children_usage();
        assert!(after.cpu_ms >= before.cpu_ms);
        assert!(after.maxrss_kb > 0);
    }
}
