//! `alexa-audit` — the paper's contribution: an auditing framework that
//! measures data **collection**, **usage**, and **sharing** in a smart
//! speaker ecosystem from the outside.
//!
//! The framework's position is adversarial-observational: it controls a set
//! of [`Persona`]s (what they install, say, and browse) and observes only
//! what a real auditor could observe — network captures from two vantage
//! points, header-bidding bids, served creatives, cookie-sync redirects,
//! audio-ad transcripts, DSAR exports, and privacy-policy documents. All of
//! that is bundled in [`Observations`]; every analysis is a pure function
//! of it.
//!
//! Every analysis reads the shared [`AnalysisIndex`] — built **once** per
//! run from the observations — instead of rescanning the captures:
//!
//! ```no_run
//! use alexa_audit::{AnalysisIndex, AuditConfig, AuditRun};
//!
//! let observations = AuditRun::execute(AuditConfig::paper(7));
//! let index = AnalysisIndex::build(&observations);
//! let table5 = alexa_audit::analysis::bids::table5(&index);
//! let mut report = String::new();
//! table5.render_into(&mut report);
//! print!("{report}");
//! ```
//!
//! One module per research question:
//!
//! * [`analysis::traffic`] — RQ1, who collects/propagates data
//!   (Tables 1–4, Figure 2);
//! * [`analysis::bids`], [`analysis::significance`], [`analysis::creatives`],
//!   [`analysis::audio`], [`analysis::partners`] — RQ2, is interaction data
//!   used for ad targeting (Tables 5–11, Figures 3, 5, 6, 7);
//! * [`analysis::profiling`] — RQ2, interest inference via DSAR (Table 12);
//! * [`analysis::policy`] — RQ3, policy compliance (Tables 13, 14, §7.2.3
//!   validation).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(unreachable_pub)]
#![deny(clippy::indexing_slicing)]

pub mod analysis;
mod artifacts;
mod capture_digest;
mod crawl_digest;
mod experiment;
mod index;
mod observations;
mod persona;
mod table;

pub use artifacts::{render_into, ARTIFACTS};
pub use experiment::{AuditConfig, AuditRun, DefenseMode};
pub use index::AnalysisIndex;
pub use observations::{Observations, SkillMeta};
pub use persona::Persona;
pub use table::TextTable;
