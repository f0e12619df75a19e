//! `alexa-obs` — structured observability for the audit pipeline.
//!
//! The reproduction's core invariant is that a fixed seed produces a
//! byte-identical `Observations` record for any worker count. That rules
//! out any tracing design where the *act of observing* can perturb the run
//! (global sequence numbers feeding RNGs, interleaved logs merged in arrival
//! order, ...). This crate provides the observability primitives that stay
//! on the right side of the line:
//!
//! * [`ShardLog`] — a single-threaded event log owned by one structural unit
//!   of work (a persona shard, an AVS category shard, an artifact render).
//!   Spans carry monotonic timing; counters are plain named `u64`s. A shard
//!   log never takes a lock while the shard runs.
//! * [`Recorder`] — the thread-safe collector. Shard logs are submitted
//!   under their `(group, structural index)` key and merged in **key order**,
//!   never in completion order, so the report's *structure* (groups, labels,
//!   span names, counter values) is identical for `jobs = 1` and `jobs = N`;
//!   only the wall-clock numbers differ. Top-level pipeline stages are timed
//!   with [`Recorder::stage`], and leaf libraries (stats, crawler) feed
//!   name-keyed [`Aggregate`]s whose totals are order-independent sums.
//! * [`Report`] — an immutable snapshot with a human-readable span tree
//!   ([`Report::render_tree`], the `repro --trace` output) and a JSON export
//!   ([`Report::to_json`], the `repro --metrics-out` payload) built on the
//!   dependency-free [`Json`] value type (which also parses:
//!   [`Json::parse`]).
//! * **Run-ledger bundles** ([`bundle`]) — `repro --run-dir` writes a
//!   three-file directory (manifest / trace / memory) whose every byte is
//!   deterministic: durations are virtual **work units**
//!   ([`ShardLog::work`]) and histograms use fixed log2 buckets
//!   ([`Histogram`]). Each fact is stored once; [`Report::from_ledger`]
//!   decodes the two ledger documents and
//!   [`BundleSpec::from_manifest`](bundle::BundleSpec::from_manifest) the
//!   manifest, each beside its encoder, and every other view (summaries
//!   with nearest-rank percentiles, [`Summary`]; the folded profile) is
//!   derived from the decoded report. Bundles from different worker counts
//!   are byte-identical and diffable with the `obs-diff` tool.
//! * [`Exit`] — the exit-code contract (0 clean, 1 findings, 2 usage,
//!   3 degraded) that every binary ends through.
//!
//! **Determinism contract.** Recording never reads or advances any RNG,
//! never influences control flow of the instrumented code, and the disabled
//! recorder ([`Recorder::disabled`], the default for plain
//! `AuditRun::execute`) is a no-op. The integration test
//! `crates/audit/tests/observability.rs` pins the contract by asserting the
//! observations digest is identical with tracing enabled and disabled.
//!
//! `Observations`: the observable bundle in `alexa-audit`.

// `deny`, not `forbid`: in `alloc`, the allocation meter's `GlobalAlloc`
// impl and the glibc `malloc_trim` call are the sanctioned
// `#[expect(unsafe_code)]` escapes.
#![deny(unsafe_code)]
#![deny(clippy::indexing_slicing)]
#![warn(missing_docs)]

pub mod alloc;
pub mod bundle;
pub mod campaign;
mod exit;
mod hist;
mod json;
pub mod ledger;
pub mod names;
mod recorder;
mod report;
mod shard;

pub use alloc::{peak_rss_kb, release_free_memory, AllocSnapshot};
pub use exit::Exit;
pub use hist::{percentile, Histogram, Summary};
pub use json::{Json, JsonParseError};
pub use ledger::{LedgerError, ManifestError};
pub use recorder::{agg_count, agg_time, global, install_global, Recorder};
pub use report::{Aggregate, Report, ShardReport, StageRec};
pub use shard::{ShardLog, SpanRec};
