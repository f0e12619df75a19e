//! Statistics substrate for the `echoaudit` workspace.
//!
//! The auditing methodology of the paper rests on a small number of
//! statistical primitives, reimplemented here from scratch so the workspace
//! has no numerical dependencies:
//!
//! * **Descriptive statistics** ([`descriptive`]) — medians, means and
//!   five-number summaries used throughout Tables 5, 6, 10 and the CPM
//!   box-plot figures (Figures 3, 6, 7).
//! * **Mann–Whitney U** ([`mannwhitney`]) — the significance test used to
//!   compare bid distributions between treatment (interest) and control
//!   (vanilla / web) personas (Tables 7 and 11).
//! * **Rank-biserial effect size** ([`effect`]) — the effect-size measure the
//!   paper reports alongside p-values, with the paper's small/medium/large
//!   bands.
//! * **Classification metrics** ([`classify`]) — micro-/macro-averaged
//!   precision, recall and F1, used to validate the PoliCheck reimplementation
//!   exactly as the paper does in §7.2.3.
//!
//! * **Bootstrap intervals** ([`bootstrap`]) and **multiple-testing
//!   corrections** ([`correction`]) — robustness machinery for the audit's
//!   ablations (the paper reports raw p-values over 9 + 27 simultaneous
//!   tests).
//!
//! All functions are deterministic; the bootstrap draws its resamples from
//! an explicit seed. Degenerate inputs (empty samples, zero resamples,
//! out-of-range levels) surface as typed [`StatsError`]s — library code
//! never panics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bootstrap;
pub mod classify;
pub mod correction;
pub mod descriptive;
pub mod effect;
pub mod error;
pub mod mannwhitney;
pub mod normal;
pub mod rank;

pub use bootstrap::{bootstrap_ci, bootstrap_mean_ci, bootstrap_median_ci, BootstrapCi};
pub use classify::{ConfusionMatrix, PrfScores};
pub use correction::{benjamini_hochberg, holm_bonferroni, significant_after};
pub use descriptive::{
    five_number_summary, five_number_summary_in_place, mean, median, median_in_place, quantile,
    stddev, variance, Summary,
};
pub use effect::{rank_biserial, EffectMagnitude};
pub use error::StatsError;
pub use mannwhitney::{
    mann_whitney_permutation, mann_whitney_u, Alternative, MwuMethod, MwuResult,
};
pub use rank::midranks;
