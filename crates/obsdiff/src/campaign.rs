//! `obs-diff campaign` — integrity verification of a campaign directory.
//!
//! The campaign runner (`repro campaign`) already asserts byte-equality of
//! instances while it runs; this entry point re-verifies a campaign
//! directory *after the fact*, from nothing but its files — the check CI
//! runs on a cached or downloaded campaign artifact before trusting it:
//!
//! 1. `campaign.json` parses, carries a supported schema, and lists every
//!    cell with its digest.
//! 2. Every listed cell bundle loads, and its bundle manifest records the
//!    campaign's plan hash, the cell's identity, and the digest the
//!    campaign manifest claims.
//! 3. Instances of one cell identity (differing only in `jobs` or
//!    `repeat`) are byte-identical, file by file ([`verify_instances`],
//!    the same check the runner applies) — each differing file is a
//!    determinism violation.

use crate::bundle::load_bundle;
use alexa_obs::bundle::{MANIFEST_FILE, MEMORY_FILE, METRICS_FILE, PROFILE_FILE, TRACE_FILE};
use alexa_obs::campaign::{CAMPAIGN_FILE, CAMPAIGN_SCHEMA_VERSION, CELLS_DIR};
use alexa_obs::Json;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::{Path, PathBuf};

/// Why a campaign directory could not be checked at all (usage-shaped
/// failures; integrity violations are [`CampaignCheck::findings`]).
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignCheckError {
    /// `campaign.json` is missing or unreadable.
    Unreadable {
        /// The manifest path.
        path: PathBuf,
        /// The I/O error text.
        error: String,
    },
    /// `campaign.json` is not valid JSON or lacks required fields.
    Malformed {
        /// The manifest path.
        path: PathBuf,
        /// What is wrong with it.
        detail: String,
    },
    /// The manifest was written by an incompatible schema version.
    SchemaMismatch {
        /// The manifest path.
        path: PathBuf,
        /// The version found.
        found: u64,
    },
}

impl fmt::Display for CampaignCheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignCheckError::Unreadable { path, error } => {
                write!(f, "cannot read {}: {error}", path.display())
            }
            CampaignCheckError::Malformed { path, detail } => {
                write!(f, "{}: {detail}", path.display())
            }
            CampaignCheckError::SchemaMismatch { path, found } => write!(
                f,
                "{}: campaign schema {found} unsupported (this tool reads schema \
                 {CAMPAIGN_SCHEMA_VERSION})",
                path.display()
            ),
        }
    }
}

impl std::error::Error for CampaignCheckError {}

/// The outcome of verifying one campaign directory.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignCheck {
    /// Campaign name from the manifest.
    pub name: String,
    /// Plan hash every cell must record.
    pub plan_hash: String,
    /// Number of cell instances listed by the manifest.
    pub cells: usize,
    /// Number of distinct cell identities.
    pub identities: usize,
    /// Every integrity violation found, in deterministic order. Empty
    /// means the directory is internally consistent.
    pub findings: Vec<String>,
}

impl CampaignCheck {
    /// Whether the campaign directory passed every check.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Human-readable report, one line per finding plus a summary line.
    pub fn render_human(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for finding in &self.findings {
            let _ = writeln!(out, "FAIL {finding}");
        }
        let _ = writeln!(
            out,
            "campaign {}: {} cell(s), {} identit{} — {}",
            self.name,
            self.cells,
            self.identities,
            if self.identities == 1 { "y" } else { "ies" },
            if self.clean() {
                "verified".to_string()
            } else {
                format!("{} violation(s)", self.findings.len())
            }
        );
        out
    }

    /// Machine-readable report.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".into(), Json::Str(self.name.clone())),
            ("plan_hash".into(), Json::Str(self.plan_hash.clone())),
            ("cells".into(), Json::Int(self.cells as u64)),
            ("identities".into(), Json::Int(self.identities as u64)),
            ("clean".into(), Json::Bool(self.clean())),
            (
                "findings".into(),
                Json::Arr(self.findings.iter().map(|f| Json::Str(f.clone())).collect()),
            ),
        ])
    }
}

/// One bundle file that differs between two instances of a cell identity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstanceDivergence {
    /// The cell identity.
    pub id: String,
    /// The bundle file that differs.
    pub file: &'static str,
    /// The reference (first) instance's key.
    pub reference: String,
    /// The divergent instance's key.
    pub divergent: String,
}

/// Byte-compare every bundle file of each cell identity's instances against
/// the identity's first instance. `cells` lists `(identity, key)` pairs in
/// plan order, each bundle living under `cells_dir/<key>`. Divergences come
/// back in identity order; a file missing from either side counts as one.
///
/// A byte match is the strictest instance check there is: identical bytes
/// always diff clean.
pub fn verify_instances(cells_dir: &Path, cells: &[(String, String)]) -> Vec<InstanceDivergence> {
    const FILES: [&str; 5] = [
        METRICS_FILE,
        TRACE_FILE,
        MEMORY_FILE,
        PROFILE_FILE,
        MANIFEST_FILE,
    ];
    let mut groups: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (id, key) in cells {
        groups.entry(id).or_default().push(key);
    }
    let mut divergences = Vec::new();
    for (id, keys) in groups {
        let Some((reference, rest)) = keys.split_first() else {
            continue;
        };
        let read = |key: &str| FILES.map(|file| std::fs::read(cells_dir.join(key).join(file)).ok());
        let expected = read(reference);
        for other in rest {
            for (&file, (a, b)) in FILES.iter().zip(expected.iter().zip(read(other))) {
                if a.is_none() || *a != b {
                    divergences.push(InstanceDivergence {
                        id: id.to_string(),
                        file,
                        reference: reference.to_string(),
                        divergent: other.to_string(),
                    });
                }
            }
        }
    }
    divergences
}

/// One cell row of `campaign.json`, as this checker needs it.
struct CellRow {
    key: String,
    id: String,
    digest: String,
}

fn manifest_str(row: &Json, field: &str) -> Option<String> {
    row.get(field).and_then(Json::as_str).map(str::to_string)
}

/// Verify `dir` as a campaign directory. Returns the check outcome (whose
/// findings list the integrity violations) or an error when the campaign
/// manifest itself is unusable.
pub fn check_campaign(dir: &Path) -> Result<CampaignCheck, CampaignCheckError> {
    let manifest_path = dir.join(CAMPAIGN_FILE);
    let text =
        std::fs::read_to_string(&manifest_path).map_err(|e| CampaignCheckError::Unreadable {
            path: manifest_path.clone(),
            error: e.to_string(),
        })?;
    let manifest = Json::parse(text.trim_end()).map_err(|e| CampaignCheckError::Malformed {
        path: manifest_path.clone(),
        detail: e.to_string(),
    })?;
    match manifest.get("schema").and_then(Json::as_u64) {
        Some(CAMPAIGN_SCHEMA_VERSION) => {}
        Some(found) => {
            return Err(CampaignCheckError::SchemaMismatch {
                path: manifest_path,
                found,
            })
        }
        None => {
            return Err(CampaignCheckError::Malformed {
                path: manifest_path,
                detail: "missing or mistyped field \"schema\"".into(),
            })
        }
    }
    let missing = |field: &str| CampaignCheckError::Malformed {
        path: manifest_path.clone(),
        detail: format!("missing or mistyped field {field:?}"),
    };
    let name = manifest_str(&manifest, "name").ok_or_else(|| missing("name"))?;
    let plan_hash = manifest_str(&manifest, "plan_hash").ok_or_else(|| missing("plan_hash"))?;
    let rows: Vec<CellRow> = manifest
        .get("cells")
        .and_then(Json::as_arr)
        .ok_or_else(|| missing("cells"))?
        .iter()
        .map(|row| {
            Some(CellRow {
                key: manifest_str(row, "key")?,
                id: manifest_str(row, "id")?,
                digest: manifest_str(row, "digest")?,
            })
        })
        .collect::<Option<Vec<CellRow>>>()
        .ok_or_else(|| missing("cells[].key/id/digest"))?;

    let mut findings = Vec::new();
    // Cells whose bundle loads, as `(identity, key)` for the instance check.
    let mut loaded: Vec<(String, String)> = Vec::new();

    // Per-cell integrity: the bundle loads and records what the campaign
    // manifest claims for it.
    for row in &rows {
        let cell_dir = dir.join(CELLS_DIR).join(&row.key);
        let bundle = match load_bundle(&cell_dir) {
            Ok(b) => b,
            Err(e) => {
                findings.push(format!("cell {}: {e}", row.key));
                continue;
            }
        };
        let campaign = bundle.manifest.get("campaign");
        let recorded_hash = campaign
            .and_then(|c| c.get("plan_hash"))
            .and_then(Json::as_str);
        if recorded_hash != Some(plan_hash.as_str()) {
            findings.push(format!(
                "cell {}: bundle records plan hash {:?}, campaign manifest says {:?}",
                row.key, recorded_hash, plan_hash
            ));
        }
        let recorded_id = campaign.and_then(|c| c.get("cell")).and_then(Json::as_str);
        if recorded_id != Some(row.id.as_str()) {
            findings.push(format!(
                "cell {}: bundle records identity {:?}, campaign manifest says {:?}",
                row.key, recorded_id, row.id
            ));
        }
        if bundle.observations_digest() != Some(row.digest.as_str()) {
            findings.push(format!(
                "cell {}: bundle digest {:?} does not match the campaign manifest's {:?}",
                row.key,
                bundle.observations_digest(),
                row.digest
            ));
        }
        loaded.push((row.id.clone(), row.key.clone()));
    }

    // Cross-instance determinism over the cells that loaded (the others
    // are already reported above).
    for d in verify_instances(&dir.join(CELLS_DIR), &loaded) {
        findings.push(format!(
            "identity {}: {} differs between instances {} and {}",
            d.id, d.file, d.reference, d.divergent
        ));
    }

    let identities = rows
        .iter()
        .map(|row| row.id.as_str())
        .collect::<BTreeSet<_>>()
        .len();
    Ok(CampaignCheck {
        name,
        plan_hash,
        cells: rows.len(),
        identities,
        findings,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_campaign_manifest_is_an_error() {
        let dir = std::env::temp_dir().join(format!("obsdiff-camp-miss-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let err = check_campaign(&dir).expect_err("must fail");
        assert!(matches!(err, CampaignCheckError::Unreadable { .. }));
    }

    #[test]
    fn unsupported_schema_is_an_error() {
        let dir = std::env::temp_dir().join(format!("obsdiff-camp-schema-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        std::fs::write(dir.join(CAMPAIGN_FILE), "{\"schema\": 99}\n").expect("write");
        let err = check_campaign(&dir).expect_err("must fail");
        assert_eq!(
            err,
            CampaignCheckError::SchemaMismatch {
                path: dir.join(CAMPAIGN_FILE),
                found: 99
            }
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn listed_but_missing_cells_are_findings_not_errors() {
        let dir = std::env::temp_dir().join(format!("obsdiff-camp-cells-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        std::fs::write(
            dir.join(CAMPAIGN_FILE),
            "{\"schema\": 1, \"name\": \"x\", \"plan_hash\": \"aa\", \"cells\": \
             [{\"key\": \"s7-fnone-dnone-j1-r0\", \"id\": \"s7-fnone-dnone\", \
             \"digest\": \"00\"}]}\n",
        )
        .expect("write");
        let check = check_campaign(&dir).expect("manifest is well-formed");
        assert!(!check.clean());
        assert_eq!(check.cells, 1);
        assert_eq!(check.identities, 1);
        assert!(check.findings[0].contains("s7-fnone-dnone-j1-r0"));
        assert!(check.render_human().contains("1 violation(s)"));
        assert_eq!(
            check.to_json().get("clean").and_then(Json::as_bool),
            Some(false)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
