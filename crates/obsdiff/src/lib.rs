//! `alexa-obsdiff` — cross-run comparison of run-ledger bundles and the
//! bench regression gate.
//!
//! The `obs-diff` binary has three subcommands:
//!
//! * `obs-diff diff A B` loads two run-ledger bundles (directories written
//!   by `repro --run-dir`, see `alexa_obs::bundle`) and reports every
//!   difference: per-stage work deltas, counter drift (including `fault.*`),
//!   aggregate shifts, percentile/histogram movement, coverage regressions,
//!   and added/removed stages, shards or spans. Two bundles from the same
//!   `(seed, fault profile)` must diff clean — CI relies on it.
//! * `obs-diff gate --baseline B --candidate C` is the bench regression
//!   gate over `BENCH_audit.json` (JSON-lines appended by `repro --bench`),
//!   a typed-error Rust port of the retired `ci/bench_gate.py`.
//! * `obs-diff campaign DIR` re-verifies a campaign directory written by
//!   `repro campaign` from nothing but its files: every listed cell bundle
//!   loads, records the campaign's plan hash / cell identity / digest, and
//!   instances of one identity are byte-identical across `jobs` and
//!   `repeat`.
//!
//! Everything here only *reads* observability artifacts; nothing feeds back
//! into a run, so the determinism contract is untouched.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bundle;
pub mod campaign;
pub mod diff;
pub mod gate;

pub use bundle::{load_bundle, BundleError, LoadedBundle};
pub use campaign::{
    check_campaign, verify_instances, CampaignCheck, CampaignCheckError, InstanceDivergence,
};
pub use diff::{diff_bundles, DiffOptions, DiffReport, Finding, Severity};
pub use gate::{run_gate, GateError, GateReport};
