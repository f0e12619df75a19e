//! Loading run-ledger bundles from disk with typed errors.

use alexa_obs::bundle::{MANIFEST_FILE, MEMORY_FILE, SCHEMA_VERSION, TRACE_FILE};
use alexa_obs::{Json, JsonParseError, LedgerError, Report};
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
    /// A required manifest field is absent or has the wrong type.
    MissingField {
        /// The file the field was expected in.
        path: PathBuf,
        /// The dotted field name.
        field: &'static str,
    },
    /// The bundle was written by an incompatible schema version.
    SchemaMismatch {
        /// The manifest that declared the version.
        path: PathBuf,
        /// The version found in the manifest.
        found: u64,
    },
    /// A ledger document parsed but does not decode into a run report.
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
            BundleError::MissingField { path, field } => {
                write!(f, "{}: missing or mistyped field {field:?}", path.display())
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

/// One run-ledger bundle: its manifest and the run report decoded from its
/// ledger documents.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadedBundle {
    /// The directory the bundle was read from.
    pub dir: PathBuf,
    /// `manifest.json`, parsed.
    pub manifest: Json,
    /// `trace.json` and `memory.json`, decoded ([`Report::from_ledger`]).
    /// Every derived view (stage work, counter totals, summaries,
    /// histograms, the folded profile) is a method of it.
    pub report: Report,
}

impl LoadedBundle {
    /// The run's master seed.
    pub fn seed(&self) -> Option<u64> {
        self.manifest.get("seed").and_then(Json::as_u64)
    }

    /// The run's fault-profile name.
    pub fn fault_profile(&self) -> Option<&str> {
        self.manifest.get("fault_profile").and_then(Json::as_str)
    }

    /// The run's observations digest (fixed-width hex).
    pub fn observations_digest(&self) -> Option<&str> {
        self.manifest
            .get("observations_digest")
            .and_then(Json::as_str)
    }

    /// The embedded coverage report, when the run tracked coverage.
    pub fn coverage(&self) -> Option<&Json> {
        self.manifest.get("coverage")
    }
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

/// Load and validate a bundle directory written by `repro --run-dir`.
///
/// Validation covers readability, JSON well-formedness, the manifest's
/// required fields and schema version, and the decoding of the two ledger
/// documents into one consistent [`Report`].
pub fn load_bundle(dir: &Path) -> Result<LoadedBundle, BundleError> {
    let manifest = read_json(dir, MANIFEST_FILE)?;
    let manifest_path = dir.join(MANIFEST_FILE);
    for field in ["seed", "fault_profile", "observations_digest"] {
        if manifest.get(field).is_none() {
            return Err(BundleError::MissingField {
                path: manifest_path.clone(),
                field,
            });
        }
    }
    match manifest.get("schema").and_then(Json::as_u64) {
        Some(SCHEMA_VERSION) => {}
        Some(found) => {
            return Err(BundleError::SchemaMismatch {
                path: manifest_path,
                found,
            })
        }
        None => {
            return Err(BundleError::MissingField {
                path: manifest_path,
                field: "schema",
            })
        }
    }
    let trace = read_json(dir, TRACE_FILE)?;
    let memory = read_json(dir, MEMORY_FILE)?;
    let report = Report::from_ledger(&trace, &memory).map_err(|error| BundleError::Ledger {
        path: dir.join(error.file),
        error,
    })?;
    Ok(LoadedBundle {
        dir: dir.to_path_buf(),
        manifest,
        report,
    })
}
