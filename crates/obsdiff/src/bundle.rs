//! Loading run-ledger bundles from disk with typed errors.
//!
//! Every file goes through the one decoder beside its encoder: the manifest
//! through `BundleSpec::from_manifest`, its coverage through
//! `CoverageReport::from_json`, the ledger documents through
//! `Report::from_ledger`. A field that parses but does not decode is an
//! error naming it (`obs-diff` exits 2), never a default.

use alexa_fault::CoverageReport;
use alexa_obs::bundle::{BundleSpec, MANIFEST_FILE, MEMORY_FILE, SCHEMA_VERSION, TRACE_FILE};
use alexa_obs::ledger::under;
use alexa_obs::{Json, JsonParseError, LedgerError, ManifestError, Report};
use std::fmt;
use std::path::{Path, PathBuf};

/// Why a bundle could not be loaded. Every variant names the offending file
/// so CI output points straight at the artifact.
#[derive(Debug, Clone, PartialEq)]
pub enum BundleError {
    /// A bundle file is missing or unreadable.
    Unreadable {
        /// The file that failed to read.
        path: PathBuf,
        /// The I/O error text.
        error: String,
    },
    /// A bundle JSON document failed to parse.
    Malformed {
        /// The file that failed to parse.
        path: PathBuf,
        /// Position and cause of the parse failure.
        error: JsonParseError,
    },
    /// The bundle was written by an incompatible schema version.
    SchemaMismatch {
        /// The manifest that declared the version.
        path: PathBuf,
        /// The version found in the manifest.
        found: u64,
    },
    /// A bundle document parsed but does not decode: the manifest (its
    /// coverage included) or a ledger document.
    Ledger {
        /// The document that failed to decode.
        path: PathBuf,
        /// The typed decode failure.
        error: LedgerError,
    },
}

impl fmt::Display for BundleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BundleError::Unreadable { path, error } => {
                write!(f, "cannot read {}: {error}", path.display())
            }
            BundleError::Malformed { path, error } => {
                write!(f, "{}: {error}", path.display())
            }
            BundleError::SchemaMismatch { path, found } => write!(
                f,
                "{}: bundle schema {found} unsupported (this tool reads schema {SCHEMA_VERSION})",
                path.display()
            ),
            BundleError::Ledger { path, error } => write!(f, "{}: {error}", path.display()),
        }
    }
}

/// One run-ledger bundle, decoded: its manifest, its coverage report and
/// its run report.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadedBundle {
    /// `manifest.json`, decoded ([`BundleSpec::from_manifest`]). Its
    /// coverage is decoded into [`LoadedBundle::coverage`], so
    /// `manifest.coverage` is `None`.
    pub manifest: BundleSpec,
    /// The manifest's coverage report, decoded
    /// ([`CoverageReport::from_json`]), when the run tracked coverage.
    pub coverage: Option<CoverageReport>,
    /// `trace.json` and `memory.json`, decoded ([`Report::from_ledger`]).
    /// Every derived view (stage work, counter totals, summaries,
    /// histograms, the folded profile) is a method of it.
    pub report: Report,
}

/// Read one JSON document of a bundle.
fn read_json(dir: &Path, file: &str) -> Result<Json, BundleError> {
    let path = dir.join(file);
    let text = std::fs::read_to_string(&path).map_err(|e| BundleError::Unreadable {
        path: path.clone(),
        error: e.to_string(),
    })?;
    Json::parse(text.trim_end()).map_err(|error| BundleError::Malformed { path, error })
}

/// Load and decode a bundle directory written by `repro --run-dir`.
///
/// Every file must be readable and well-formed JSON, and must decode: the
/// manifest (schema first, then every field, its coverage included) and
/// the two ledger documents into one consistent [`Report`]. A field that
/// parses but does not decode is a [`BundleError::Ledger`] naming it.
pub fn load_bundle(dir: &Path) -> Result<LoadedBundle, BundleError> {
    let path = dir.join(MANIFEST_FILE);
    let undecodable = |detail| BundleError::Ledger {
        path: path.clone(),
        error: LedgerError {
            file: MANIFEST_FILE,
            detail,
        },
    };
    let manifest = BundleSpec::from_manifest(&read_json(dir, MANIFEST_FILE)?);
    let mut manifest = manifest.map_err(|e| match e {
        ManifestError::Schema { found } => BundleError::SchemaMismatch {
            path: path.clone(),
            found,
        },
        ManifestError::Field(detail) => undecodable(detail),
    })?;
    let coverage = manifest
        .coverage
        .take()
        .map(|c| CoverageReport::from_json(&c).map_err(|f| undecodable(under("coverage", f))));
    let coverage = coverage.transpose()?;
    let trace = read_json(dir, TRACE_FILE)?;
    let memory = read_json(dir, MEMORY_FILE)?;
    let report = Report::from_ledger(&trace, &memory).map_err(|error| BundleError::Ledger {
        path: dir.join(error.file),
        error,
    })?;
    Ok(LoadedBundle {
        manifest,
        coverage,
        report,
    })
}
