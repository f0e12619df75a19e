//! Statistics substrate for the `echoaudit` workspace.
//!
//! The auditing methodology of the paper rests on a small number of
//! statistical primitives, reimplemented here from scratch so the workspace
//! has no numerical dependencies:
//!
//! * **Descriptive statistics** — means, medians and five-number
//!   summaries used throughout Tables 5, 6, 10 and the CPM box-plot figures
//!   (Figures 3, 6, 7).
//! * **Mann–Whitney U** ([`mann_whitney_u`]) — the significance test used
//!   to compare bid distributions between treatment (interest) and control
//!   (vanilla / web) personas (Tables 7 and 11), with the rank-biserial
//!   effect size the paper reports alongside p-values and its
//!   small/medium/large bands ([`EffectMagnitude`]).
//! * **Classification metrics** ([`ConfusionMatrix`]) — micro-/macro-averaged
//!   precision, recall and F1, used to validate the PoliCheck reimplementation
//!   exactly as the paper does in §7.2.3.
//! * **Multiple-testing corrections** ([`holm_bonferroni`],
//!   [`benjamini_hochberg`]) — robustness machinery for the audit's
//!   ablations (the paper reports raw p-values over 9 + 27 simultaneous
//!   tests).
//!
//! All functions are deterministic. Degenerate inputs (empty samples)
//! surface as `None` or a typed [`StatsError`] — library code never panics.

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]
#![deny(clippy::indexing_slicing)]
#![warn(missing_docs)]

mod classify;
mod correction;
mod descriptive;
mod effect;
mod error;
mod mannwhitney;
mod normal;
mod rank;

pub use classify::{ConfusionMatrix, PrfScores};
pub use correction::{benjamini_hochberg, holm_bonferroni};
pub use descriptive::{five_number_summary_in_place, mean, median_in_place, Summary};
pub use effect::EffectMagnitude;
pub use error::StatsError;
pub use mannwhitney::{mann_whitney_u, Alternative, MwuResult};
