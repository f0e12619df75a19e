//! `alexa-obsdiff` — cross-run comparison of run-ledger bundles and the
//! bench regression gate.
//!
//! The `obs-diff` binary has four subcommands:
//!
//! * `obs-diff diff A B` loads two run-ledger bundles (directories written
//!   by `repro --run-dir`, see `alexa_obs::bundle`) and reports every
//!   difference: per-stage work deltas, counter drift (including `fault.*`),
//!   aggregate shifts, percentile/histogram movement, coverage regressions,
//!   and added/removed stages, shards or spans — every view derived from
//!   the bundles' decoded ledgers (`Report::from_ledger`). Two bundles of
//!   the same run identity (seed, fault profile, defense, campaign cell)
//!   must diff clean — CI relies on it — and a digest mismatch between
//!   them is a determinism regression; across identities it is a note.
//! * `obs-diff gate --baseline B --candidate C` is the bench regression
//!   gate over `BENCH_audit.json` (one `alexa_obs::bench::BenchEntry` per
//!   line, appended by `repro --bench`), a typed-error Rust port of the
//!   retired `ci/bench_gate.py`.
//! * `obs-diff campaign DIR` re-verifies a campaign directory written by
//!   `repro campaign` from nothing but its files: every listed cell bundle
//!   loads, records the campaign's plan hash / cell identity / digest, and
//!   instances of one identity are byte-identical across `jobs` and
//!   `repeat`.
//! * `obs-diff profile DIR` prints the folded-stack work profile
//!   (flamegraph input) derived from a bundle's trace.
//!
//! Everything here only *reads* observability artifacts; nothing feeds back
//! into a run, so the determinism contract is untouched.

#![forbid(unsafe_code)]
#![deny(clippy::indexing_slicing)]
#![warn(missing_docs)]
#![deny(unreachable_pub)]

mod bundle;
mod campaign;
mod diff;
mod gate;

pub use bundle::{load_bundle, BundleError, LoadedBundle};
pub use campaign::{
    cell_spec, check_campaign, verify_instances, CampaignCheck, CampaignCheckError,
    InstanceDivergence,
};
pub use diff::{diff_bundles, DiffReport, Finding, Severity};
pub use gate::{run_gate, GateError, GateReport};
