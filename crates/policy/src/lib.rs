//! Privacy-policy analysis: generator, ontologies and the PoliCheck
//! reimplementation.
//!
//! §7 of the paper adapts **PoliCheck** (Andow et al., USENIX Security '20)
//! to check whether the data flows observed in network traffic are disclosed
//! in skills' privacy policies. Two adapted variants exist because of the
//! two-vantage-point capture setup:
//!
//! * **endpoint analysis** (§7.2.1) — entities only, from the *encrypted*
//!   Amazon Echo traffic: is the contacted organization named (clear),
//!   referred to by category / "third party" (vague), or absent (omitted)?
//! * **data-type analysis** (§7.2.2) — data types only, from the *plaintext*
//!   AVS Echo traffic: is the collected data type disclosed with an exact
//!   term, a hypernym, or not at all?
//!
//! Because the real marketplace's policy documents are unavailable, the
//! [`PolicyGenerator`] renders realistic English policy text from each skill's
//! planted [`alexa_platform::PolicySpec`]; the analyzer sees **only the
//! text**, and [`validate_against_ground_truth`] measures recovery against the spec exactly like
//! the paper's §7.2.3 validation (micro/macro P/R/F1).

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]
#![deny(clippy::indexing_slicing)]
#![warn(missing_docs)]

mod document;
mod extractor;
mod fetcher;
mod generator;
mod ontology;
mod policheck;
mod validate;

pub use document::PolicyDoc;
pub use extractor::FlowExtractor;
pub use fetcher::{FetchError, PolicyFetcher};
pub use generator::PolicyGenerator;
pub use ontology::{DataOntology, EntityOntology, OntologyCategory};
pub use policheck::{CompiledPolicy, DisclosureClass, PoliCheck};
pub use validate::validate_against_ground_truth;
