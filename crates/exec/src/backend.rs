//! Interchangeable shard execution backends (DESIGN.md §15).
//!
//! The in-process [`par_map`] runs a closure over owned items; a backend
//! runs **serializable shards**: each unit of work is a [`ShardSpec`] whose
//! payload is an opaque JSON string, and each finished shard hands back a
//! [`ShardOutcome`] — either a result payload or a typed loss. Every
//! backend commits its outcomes through the ordered [`Committer`], so the
//! merged vector is a pure function of the specs regardless of which
//! substrate executed them or how it interleaved:
//!
//! * [`ThreadBackend`] — today's `par_map` semantics: the shard closure runs
//!   in-process on scoped worker threads.
//! * [`ProcessBackend`] — a pool of child processes speaking a line-oriented
//!   JSON protocol over stdin/stdout, with per-shard wall-clock timeouts,
//!   crash detection (non-zero exit, malformed output, dead pipe) and a
//!   bounded respawn budget. A dead worker degrades its shard, never the
//!   run.
//!
//! Failure taxonomy: a shard whose own execution returns `Err` is a
//! **shard error** (the payload's producer decides what that means); a
//! worker that crashes, times out or desyncs its protocol is a **lost
//! shard** ([`ShardOutcome::Lost`]). Both degrade gracefully — callers
//! account lost shards into coverage (exit 3) instead of panicking the run.
//! Pool accounting lands only in [`BackendStats`], never in the shard
//! payloads, so a respawn can never change committed bytes.
//!
//! [`par_map`]: crate::par_map

use crate::{job_policy, locked, par_map};
use alexa_obs::Json;
use std::collections::VecDeque;
use std::fmt;
use std::io::{BufRead, BufReader, Write};
use std::str::FromStr;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::Duration;

/// Protocol version of the shard wire format.
const WIRE_VERSION: u64 = 1;

/// One serializable unit of work.
///
/// `index` is the shard's structural position in its group's work list —
/// the committer orders outcomes by it, and backends require the specs of
/// one run to carry exactly the indexes `0..n`. `payload` is an opaque
/// string (by convention a rendered JSON document) that the executing side
/// decodes; the backend never looks inside it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSpec {
    /// Structural group name ("persona", "avs", ...).
    pub group: String,
    /// Fixed index within the group's work list.
    pub index: usize,
    /// Human label (persona name, category label).
    pub label: String,
    /// Opaque serialized input for the shard.
    pub payload: String,
}

impl ShardSpec {
    /// Encode the spec as one line of the worker protocol.
    pub fn to_wire_line(&self) -> String {
        Json::Obj(vec![
            ("v".into(), Json::Int(WIRE_VERSION)),
            ("group".into(), Json::Str(self.group.clone())),
            ("index".into(), Json::Int(self.index as u64)),
            ("label".into(), Json::Str(self.label.clone())),
            ("payload".into(), Json::Str(self.payload.clone())),
        ])
        .render()
    }

    /// Decode a protocol line back into a spec (the worker side).
    pub fn from_wire_line(line: &str) -> Result<ShardSpec, String> {
        let j = Json::parse(line).map_err(|e| format!("shard spec line: {e}"))?;
        if j.get("v").and_then(Json::as_u64) != Some(WIRE_VERSION) {
            return Err("shard spec line: unsupported protocol version".to_string());
        }
        let field = |k: &str| {
            j.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("shard spec line: missing string field {k:?}"))
        };
        Ok(ShardSpec {
            group: field("group")?,
            index: j
                .get("index")
                .and_then(Json::as_u64)
                .ok_or("shard spec line: missing index")? as usize,
            label: field("label")?,
            payload: field("payload")?,
        })
    }
}

/// Encode a worker's reply for shard `index` as one protocol line.
pub fn encode_reply(index: usize, result: &Result<String, String>) -> String {
    let mut fields = vec![
        ("v".to_string(), Json::Int(WIRE_VERSION)),
        ("index".to_string(), Json::Int(index as u64)),
        ("ok".to_string(), Json::Bool(result.is_ok())),
    ];
    match result {
        Ok(payload) => fields.push(("payload".to_string(), Json::Str(payload.clone()))),
        Err(error) => fields.push(("error".to_string(), Json::Str(error.clone()))),
    }
    Json::Obj(fields).render()
}

/// Decode a worker reply line into `(index, result)`.
pub fn decode_reply(line: &str) -> Result<(usize, Result<String, String>), String> {
    let j = Json::parse(line).map_err(|e| format!("worker reply line: {e}"))?;
    if j.get("v").and_then(Json::as_u64) != Some(WIRE_VERSION) {
        return Err("worker reply line: unsupported protocol version".to_string());
    }
    let index = j
        .get("index")
        .and_then(Json::as_u64)
        .ok_or("worker reply line: missing index")? as usize;
    let ok = j
        .get("ok")
        .and_then(Json::as_bool)
        .ok_or("worker reply line: missing ok flag")?;
    let result = if ok {
        Ok(j.get("payload")
            .and_then(Json::as_str)
            .ok_or("worker reply line: ok without payload")?
            .to_string())
    } else {
        Err(j
            .get("error")
            .and_then(Json::as_str)
            .ok_or("worker reply line: error without message")?
            .to_string())
    };
    Ok((index, result))
}

/// A successfully executed shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardResult {
    /// The spec's structural index.
    pub index: usize,
    /// Opaque serialized output.
    pub payload: String,
}

/// What one shard came to: a result, or a typed loss.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardOutcome {
    /// The shard executed and returned a payload.
    Done(ShardResult),
    /// The shard was lost — worker crash, timeout or malformed protocol.
    /// The run degrades; it never panics.
    Lost {
        /// The spec's structural index.
        index: usize,
        /// Human-readable cause, surfaced in the coverage report.
        error: String,
    },
}

impl ShardOutcome {
    /// The structural index this outcome belongs to.
    pub fn index(&self) -> usize {
        match self {
            ShardOutcome::Done(r) => r.index,
            ShardOutcome::Lost { index, .. } => *index,
        }
    }
}

/// Pool counters.
///
/// These are *volatile* observability: they describe how the substrate
/// behaved (respawns, timeouts, crashes), never what the shards computed,
/// and they must stay out of every run-ledger surface.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BackendStats {
    /// Shards offered to the backend.
    pub shards: u64,
    /// Shards committed with a result payload.
    pub committed: u64,
    /// Shards lost to the failure taxonomy above.
    pub lost: u64,
    /// Child processes spawned (initial pool).
    pub workers_spawned: u64,
    /// Child processes respawned after a failure.
    pub workers_respawned: u64,
    /// Per-shard wall-clock timeouts that killed a worker.
    pub timeouts: u64,
    /// Worker crashes (non-zero exit, dead pipe, EOF mid-shard).
    pub crashes: u64,
    /// Protocol violations (unparseable or misindexed replies).
    pub malformed: u64,
}

/// A finished backend pass: outcomes in structural-index order plus the
/// substrate's own accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackendRun {
    /// One outcome per spec, sorted by index — the committer's guarantee.
    pub outcomes: Vec<ShardOutcome>,
    /// Pool counters for volatile observability.
    pub stats: BackendStats,
}

/// The shard executor a backend drives: decode the spec's payload, do the
/// work, re-encode the result. `Err` is a shard-level failure the producer
/// of the payload defined; worker failures never reach this function.
pub type ExecFn<'a> = &'a (dyn Fn(&ShardSpec) -> Result<String, String> + Sync);

/// Typed misuse of the ordered committer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommitError {
    /// An outcome named an index outside `0..len`.
    OutOfRange {
        /// The offending index.
        index: usize,
        /// The committer's capacity.
        len: usize,
    },
    /// Two outcomes claimed the same index.
    Duplicate(usize),
    /// `into_ordered` found an index with no outcome.
    Missing(usize),
}

impl fmt::Display for CommitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommitError::OutOfRange { index, len } => {
                write!(f, "shard index {index} out of range for {len} shard(s)")
            }
            CommitError::Duplicate(i) => write!(f, "shard index {i} committed twice"),
            CommitError::Missing(i) => write!(f, "no outcome committed for shard index {i}"),
        }
    }
}

impl std::error::Error for CommitError {}

/// The ordered committer: outcomes arrive in any order (worker completion
/// order) and leave in structural-index order — exactly
/// once each. This is the single point that turns "whichever substrate ran
/// it, in whatever interleaving" back into the deterministic merge order
/// the digest guarantee needs.
#[derive(Debug)]
pub struct Committer {
    slots: Vec<Option<ShardOutcome>>,
}

impl Committer {
    /// A committer expecting exactly the indexes `0..n`.
    pub fn new(n: usize) -> Committer {
        Committer {
            slots: (0..n).map(|_| None).collect(),
        }
    }

    /// Offer one outcome; rejects out-of-range and duplicate indexes.
    pub fn offer(&mut self, outcome: ShardOutcome) -> Result<(), CommitError> {
        let index = outcome.index();
        let len = self.slots.len();
        match self.slots.get_mut(index) {
            None => Err(CommitError::OutOfRange { index, len }),
            Some(Some(_)) => Err(CommitError::Duplicate(index)),
            Some(slot) => {
                *slot = Some(outcome);
                Ok(())
            }
        }
    }

    /// Finish the commit: every index must have exactly one outcome.
    pub fn into_ordered(self) -> Result<Vec<ShardOutcome>, CommitError> {
        let mut out = Vec::with_capacity(self.slots.len());
        for (i, slot) in self.slots.into_iter().enumerate() {
            match slot {
                Some(outcome) => out.push(outcome),
                None => return Err(CommitError::Missing(i)),
            }
        }
        Ok(out)
    }
}

/// Commit an arbitrary-order outcome batch for `n` shards.
fn commit_all(n: usize, outcomes: Vec<ShardOutcome>) -> Result<Vec<ShardOutcome>, CommitError> {
    let mut committer = Committer::new(n);
    for outcome in outcomes {
        committer.offer(outcome)?;
    }
    committer.into_ordered()
}

/// Which backend a run should use — the `--backend` knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendChoice {
    /// In-process scoped worker threads (the default).
    #[default]
    Thread,
    /// A pool of `repro --shard-worker` child processes.
    Process,
}

impl BackendChoice {
    /// Every choice, in CLI documentation order.
    pub const ALL: [BackendChoice; 2] = [BackendChoice::Thread, BackendChoice::Process];

    /// The stable CLI/plan token for this choice.
    pub fn label(&self) -> &'static str {
        match self {
            BackendChoice::Thread => "thread",
            BackendChoice::Process => "process",
        }
    }
}

/// Error from parsing an unknown backend token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackendParseError(pub String);

impl fmt::Display for BackendParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown backend '{}' (expected thread|process)", self.0)
    }
}

impl std::error::Error for BackendParseError {}

impl FromStr for BackendChoice {
    type Err = BackendParseError;

    fn from_str(s: &str) -> Result<BackendChoice, BackendParseError> {
        BackendChoice::ALL
            .iter()
            .copied()
            .find(|c| c.label() == s)
            .ok_or_else(|| BackendParseError(s.to_string()))
    }
}

/// In-process backend wrapping today's [`par_map`] semantics: the shard
/// closure runs on scoped worker threads, clamped to hardware.
///
/// [`par_map`]: crate::par_map
#[derive(Debug, Clone, Copy, Default)]
pub struct ThreadBackend;

impl ThreadBackend {
    /// Execute every spec on scoped threads and commit the outcomes in
    /// structural-index order. The specs must carry exactly the indexes
    /// `0..specs.len()`; anything else is a typed [`CommitError`].
    pub fn run(
        &self,
        jobs: Option<usize>,
        specs: Vec<ShardSpec>,
        exec_fn: ExecFn<'_>,
    ) -> Result<BackendRun, CommitError> {
        let n = specs.len();
        let outcomes = par_map(jobs, specs, |_, spec| match exec_fn(&spec) {
            Ok(payload) => ShardOutcome::Done(ShardResult {
                index: spec.index,
                payload,
            }),
            Err(error) => ShardOutcome::Lost {
                index: spec.index,
                error,
            },
        });
        let outcomes = commit_all(n, outcomes)?;
        let stats = tally(n, &outcomes);
        Ok(BackendRun { outcomes, stats })
    }
}

/// Shared commit accounting.
fn tally(n: usize, outcomes: &[ShardOutcome]) -> BackendStats {
    let lost = outcomes
        .iter()
        .filter(|o| matches!(o, ShardOutcome::Lost { .. }))
        .count() as u64;
    BackendStats {
        shards: n as u64,
        committed: n as u64 - lost,
        lost,
        ..BackendStats::default()
    }
}

/// A pool of child worker processes speaking the line protocol.
///
/// Sizing comes from [`job_policy`] *without* the hardware clamp — separate
/// processes are true parallelism even on a 1-thread host. Each pool slot
/// runs a coordinator thread that feeds its child one spec at a time and
/// waits at most `timeout_ms` per shard; a timeout, crash, or protocol
/// violation kills the child, loses that shard, and (bounded by
/// `max_respawns` across the pool) replaces the worker for the remaining
/// queue. If every worker dies with the respawn budget spent, the leftover
/// shards are committed as lost — the run degrades, it never hangs.
#[derive(Debug, Clone)]
pub struct ProcessBackend {
    /// Child command line: program plus fixed arguments.
    pub worker_cmd: Vec<String>,
    /// Per-shard wall-clock budget before the worker is declared hung.
    pub timeout_ms: u64,
    /// Total worker replacements the pool may perform.
    pub max_respawns: u32,
}

impl ProcessBackend {
    /// A pool running `worker_cmd` with the default 30 s per-shard timeout
    /// and a respawn budget matching one replacement per pool slot later
    /// resolved by [`job_policy`].
    pub fn new(worker_cmd: Vec<String>) -> ProcessBackend {
        ProcessBackend {
            worker_cmd,
            timeout_ms: 30_000,
            max_respawns: 8,
        }
    }
}

/// One live child: the process handle plus the reader-thread channel that
/// delivers its stdout lines.
struct Worker {
    child: std::process::Child,
    lines: mpsc::Receiver<String>,
}

impl Worker {
    fn spawn(cmd: &[String]) -> Result<Worker, String> {
        let (prog, args) = cmd
            .split_first()
            .ok_or("process backend: empty worker command")?;
        let mut child = std::process::Command::new(prog)
            .args(args)
            .stdin(std::process::Stdio::piped())
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {prog}: {e}"))?;
        let stdout = child
            .stdout
            .take()
            .ok_or("process backend: worker has no stdout pipe")?;
        let (tx, lines) = mpsc::channel();
        // Detached reader: exits on child EOF (or when the receiver is
        // dropped), so it can never outlive the pool by more than a pipe
        // close.
        std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        Ok(Worker { child, lines })
    }

    /// Send one spec line; a write failure is a dead pipe (= crash).
    fn send(&mut self, spec: &ShardSpec) -> Result<(), String> {
        let stdin = self
            .child
            .stdin
            .as_mut()
            .ok_or("process backend: worker has no stdin pipe")?;
        writeln!(stdin, "{}", spec.to_wire_line()).map_err(|e| format!("dead pipe: {e}"))?;
        stdin.flush().map_err(|e| format!("dead pipe: {e}"))
    }

    /// Kill and reap the child, returning its exit description.
    fn kill(mut self) -> String {
        let _ = self.child.kill();
        match self.child.wait() {
            Ok(status) => format!("{status}"),
            Err(e) => format!("wait failed: {e}"),
        }
    }

    /// Reap a child that already exited, returning its exit description.
    fn reap(mut self) -> String {
        match self.child.wait() {
            Ok(status) => format!("{status}"),
            Err(e) => format!("wait failed: {e}"),
        }
    }

    /// Close stdin and wait for a clean exit (end of queue).
    fn retire(mut self) {
        drop(self.child.stdin.take());
        let _ = self.child.wait();
    }
}

impl ProcessBackend {
    /// Execute every spec in the child pool and commit the outcomes in
    /// structural-index order. The shard executor runs in the children
    /// (`repro --shard-worker`); the parent only shuttles payload strings.
    pub fn run(
        &self,
        jobs: Option<usize>,
        specs: Vec<ShardSpec>,
    ) -> Result<BackendRun, CommitError> {
        let n = specs.len();
        let pool = job_policy(jobs, false).min(n.max(1));
        let queue: Mutex<VecDeque<ShardSpec>> = Mutex::new(specs.into());
        let outcomes: Mutex<Vec<ShardOutcome>> = Mutex::new(Vec::with_capacity(n));
        let stats: Mutex<BackendStats> = Mutex::new(BackendStats::default());
        let respawns = AtomicU32::new(0);
        let timeout = Duration::from_millis(self.timeout_ms);

        let take_respawn = || loop {
            let used = respawns.load(Ordering::Relaxed);
            if used >= self.max_respawns {
                return false;
            }
            if respawns
                .compare_exchange(used, used + 1, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                return true;
            }
        };

        std::thread::scope(|scope| {
            for _ in 0..pool {
                scope.spawn(|| {
                    let mut worker: Option<Worker> = None;
                    let mut spawned_once = false;
                    loop {
                        let Some(spec) = locked(&queue).pop_front() else {
                            break;
                        };
                        if worker.is_none() {
                            // The first child per slot is the pool itself;
                            // replacements draw from the shared budget.
                            if spawned_once && !take_respawn() {
                                // No budget: hand the spec back for a
                                // surviving slot (or the final drain).
                                locked(&queue).push_front(spec);
                                break;
                            }
                            match Worker::spawn(&self.worker_cmd) {
                                Ok(w) => {
                                    let mut s = locked(&stats);
                                    if spawned_once {
                                        s.workers_respawned += 1;
                                    } else {
                                        s.workers_spawned += 1;
                                    }
                                    spawned_once = true;
                                    worker = Some(w);
                                }
                                Err(e) => {
                                    spawned_once = true;
                                    locked(&outcomes).push(ShardOutcome::Lost {
                                        index: spec.index,
                                        error: e,
                                    });
                                    continue;
                                }
                            }
                        }
                        let Some(w) = worker.as_mut() else { continue };
                        if let Err(e) = w.send(&spec) {
                            let status = worker.take().map(Worker::kill).unwrap_or_default();
                            locked(&stats).crashes += 1;
                            locked(&outcomes).push(ShardOutcome::Lost {
                                index: spec.index,
                                error: format!(
                                    "worker crashed before accepting shard: {e} ({status})"
                                ),
                            });
                            continue;
                        }
                        match w.lines.recv_timeout(timeout) {
                            Ok(line) => match decode_reply(&line) {
                                Ok((index, result)) if index == spec.index => {
                                    locked(&outcomes).push(match result {
                                        Ok(payload) => {
                                            ShardOutcome::Done(ShardResult { index, payload })
                                        }
                                        Err(error) => ShardOutcome::Lost { index, error },
                                    });
                                }
                                Ok((index, _)) => {
                                    let status =
                                        worker.take().map(Worker::kill).unwrap_or_default();
                                    locked(&stats).malformed += 1;
                                    locked(&outcomes).push(ShardOutcome::Lost {
                                        index: spec.index,
                                        error: format!(
                                            "worker answered shard {index} for shard {} — \
                                             protocol desync, worker killed ({status})",
                                            spec.index
                                        ),
                                    });
                                }
                                Err(e) => {
                                    let status =
                                        worker.take().map(Worker::kill).unwrap_or_default();
                                    locked(&stats).malformed += 1;
                                    locked(&outcomes).push(ShardOutcome::Lost {
                                        index: spec.index,
                                        error: format!("malformed worker output: {e} ({status})"),
                                    });
                                }
                            },
                            Err(mpsc::RecvTimeoutError::Timeout) => {
                                let status = worker.take().map(Worker::kill).unwrap_or_default();
                                locked(&stats).timeouts += 1;
                                locked(&outcomes).push(ShardOutcome::Lost {
                                    index: spec.index,
                                    error: format!(
                                        "worker exceeded {} ms on shard {}/{} and was killed \
                                         ({status})",
                                        self.timeout_ms, spec.group, spec.index
                                    ),
                                });
                            }
                            Err(mpsc::RecvTimeoutError::Disconnected) => {
                                let status = worker.take().map(Worker::reap).unwrap_or_default();
                                locked(&stats).crashes += 1;
                                locked(&outcomes).push(ShardOutcome::Lost {
                                    index: spec.index,
                                    error: format!(
                                        "worker died mid-shard {}/{} ({status})",
                                        spec.group, spec.index
                                    ),
                                });
                            }
                        }
                    }
                    if let Some(w) = worker.take() {
                        w.retire();
                    }
                });
            }
        });

        // Every slot dead with the budget spent: the leftovers are lost, the
        // run continues degraded.
        let mut collected = outcomes.into_inner().unwrap_or_else(|p| p.into_inner());
        for spec in locked(&queue).drain(..) {
            collected.push(ShardOutcome::Lost {
                index: spec.index,
                error: format!(
                    "worker pool exhausted (respawn budget {} spent) before shard {}/{}",
                    self.max_respawns, spec.group, spec.index
                ),
            });
        }

        let outcomes = commit_all(n, collected)?;
        let mut final_stats = stats.into_inner().unwrap_or_else(|p| p.into_inner());
        let commit_counts = tally(n, &outcomes);
        final_stats.shards = commit_counts.shards;
        final_stats.committed = commit_counts.committed;
        final_stats.lost = commit_counts.lost;
        Ok(BackendRun {
            outcomes,
            stats: final_stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn specs(n: usize) -> Vec<ShardSpec> {
        (0..n)
            .map(|i| ShardSpec {
                group: "g".to_string(),
                index: i,
                label: format!("item-{i}"),
                payload: format!("{i}"),
            })
            .collect()
    }

    fn double(spec: &ShardSpec) -> Result<String, String> {
        let n: u64 = spec.payload.parse().map_err(|_| "not a number")?;
        Ok(format!("{}", n * 2))
    }

    #[test]
    fn wire_lines_round_trip() {
        let spec = ShardSpec {
            group: "persona".into(),
            index: 3,
            label: "Connected Car".into(),
            payload: r#"{"v": 1, "nested": "payload\nwith newline"}"#.into(),
        };
        let line = spec.to_wire_line();
        assert!(!line.contains('\n'), "wire lines must be single-line");
        assert_eq!(ShardSpec::from_wire_line(&line), Ok(spec));

        for result in [Ok("out".to_string()), Err("boom".to_string())] {
            let line = encode_reply(7, &result);
            assert!(!line.contains('\n'));
            assert_eq!(decode_reply(&line), Ok((7, result)));
        }
        assert!(ShardSpec::from_wire_line("not json").is_err());
        assert!(decode_reply(r#"{"v": 9, "index": 0, "ok": true}"#).is_err());
    }

    #[test]
    fn committer_orders_and_rejects_misuse() {
        let mut c = Committer::new(3);
        let done = |i: usize| {
            ShardOutcome::Done(ShardResult {
                index: i,
                payload: format!("p{i}"),
            })
        };
        c.offer(done(2)).unwrap();
        c.offer(done(0)).unwrap();
        assert_eq!(c.offer(done(0)), Err(CommitError::Duplicate(0)));
        assert_eq!(
            c.offer(done(9)),
            Err(CommitError::OutOfRange { index: 9, len: 3 })
        );
        // Missing index 1.
        let mut full = Committer::new(3);
        full.offer(done(2)).unwrap();
        full.offer(done(0)).unwrap();
        assert_eq!(full.into_ordered(), Err(CommitError::Missing(1)));

        c.offer(done(1)).unwrap();
        let ordered = c.into_ordered().unwrap();
        let indexes: Vec<usize> = ordered.iter().map(ShardOutcome::index).collect();
        assert_eq!(indexes, vec![0, 1, 2]);
    }

    #[test]
    fn thread_backend_matches_sequential_reference() {
        let backend = ThreadBackend;
        let runs: Vec<BackendRun> = [Some(1), Some(4), None]
            .into_iter()
            .map(|jobs| backend.run(jobs, specs(37), &double).unwrap())
            .collect();
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[0], runs[2]);
        assert_eq!(runs[0].stats.committed, 37);
        assert_eq!(runs[0].stats.lost, 0);
        match &runs[0].outcomes[5] {
            ShardOutcome::Done(r) => assert_eq!(r.payload, "10"),
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn thread_backend_degrades_shard_errors_without_panicking() {
        let backend = ThreadBackend;
        let run = backend
            .run(Some(2), specs(4), &|spec| {
                if spec.index == 2 {
                    Err("shard exploded".to_string())
                } else {
                    double(spec)
                }
            })
            .unwrap();
        assert_eq!(run.stats.lost, 1);
        assert!(matches!(
            &run.outcomes[2],
            ShardOutcome::Lost { error, .. } if error == "shard exploded"
        ));
    }

    #[test]
    fn process_backend_empty_command_degrades_every_shard() {
        let backend = ProcessBackend {
            worker_cmd: vec![],
            timeout_ms: 1_000,
            max_respawns: 1,
        };
        let run = backend.run(Some(2), specs(3)).unwrap();
        assert_eq!(run.stats.lost, 3);
        assert!(run
            .outcomes
            .iter()
            .all(|o| matches!(o, ShardOutcome::Lost { .. })));
    }

    #[test]
    fn process_backend_runs_shards_through_a_real_child() {
        // `cat` echoes each spec line back; the reply decoder then rejects
        // it as a protocol violation (a spec line is not a reply line), so
        // this exercises spawn, send, receive, and malformed handling
        // without needing a real worker binary.
        let backend = ProcessBackend {
            worker_cmd: vec!["cat".to_string()],
            timeout_ms: 5_000,
            max_respawns: 8,
        };
        let run = backend.run(Some(2), specs(3)).unwrap();
        assert_eq!(run.outcomes.len(), 3);
        assert_eq!(run.stats.lost + run.stats.committed, 3);
        assert!(run.stats.malformed > 0, "cat replies must be malformed");
    }

    #[test]
    fn process_backend_times_out_hung_workers() {
        // `sleep` accepts the spec but never replies: every shard must come
        // back as a timeout loss within the (short) budget, not hang.
        let backend = ProcessBackend {
            worker_cmd: vec!["sleep".to_string(), "30".to_string()],
            timeout_ms: 200,
            max_respawns: 2,
        };
        let run = backend.run(Some(2), specs(3)).unwrap();
        assert_eq!(run.stats.lost, 3);
        assert!(run.stats.timeouts + run.stats.crashes > 0);
        assert!(run
            .outcomes
            .iter()
            .all(|o| matches!(o, ShardOutcome::Lost { .. })));
    }

    #[test]
    fn process_backend_detects_crashing_workers() {
        // `false` exits 1 immediately: dead pipe / EOF on every shard, and
        // the respawn budget bounds the number of attempts.
        let backend = ProcessBackend {
            worker_cmd: vec!["false".to_string()],
            timeout_ms: 1_000,
            max_respawns: 2,
        };
        let run = backend.run(Some(1), specs(6)).unwrap();
        assert_eq!(run.stats.lost, 6);
        assert!(run.stats.crashes > 0);
        assert!(run.stats.workers_respawned <= 2);
    }

    #[test]
    fn backend_choice_parses_and_labels() {
        for choice in BackendChoice::ALL {
            assert_eq!(choice.label().parse::<BackendChoice>(), Ok(choice));
        }
        assert!("quantum".parse::<BackendChoice>().is_err());
        assert_eq!(BackendChoice::default(), BackendChoice::Thread);
    }
}
