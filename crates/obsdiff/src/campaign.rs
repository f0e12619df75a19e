//! `obs-diff campaign` — integrity verification of a campaign directory.
//!
//! The campaign runner (`repro campaign`) already asserts byte-equality of
//! instances while it runs; this entry point re-verifies a campaign
//! directory *after the fact*, from nothing but its files — the check CI
//! runs on a cached or downloaded campaign artifact before trusting it:
//!
//! 1. `campaign.json` decodes through the one decoder beside its encoder
//!    (`CampaignManifest::from_json`): a supported schema, a plan whose
//!    hash and name it records, and every cell of the plan with its digest.
//! 2. Every listed cell bundle loads, and its bundle manifest records the
//!    run identity the cell's row names (seed, fault profile, defense, the
//!    campaign's plan hash and the cell's identity), the digest the row
//!    claims, and coverage that is degraded exactly when the row says so.
//! 3. Instances of one cell identity (differing only in `jobs` or
//!    `repeat`) are byte-identical, file by file ([`verify_instances`],
//!    the same check the runner applies) — each differing file is a
//!    determinism violation.

use crate::bundle::load_bundle;
use alexa_fault::{CoverageReport, FaultProfile};
use alexa_obs::bundle::{BundleSpec, CampaignCell, FILES};
use alexa_obs::campaign::{
    CampaignManifest, CellCoord, CAMPAIGN_FILE, CAMPAIGN_SCHEMA_VERSION, CELLS_DIR,
};
use alexa_obs::{Json, ManifestError};
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

/// The bundle manifest of one campaign cell, with digest 0 and no
/// coverage: its seed, its fault variant under the profile's name, its
/// defense (absent when `none`) and its cell identity in the plan.
/// `repro campaign` writes it and [`check_campaign`] checks each bundle
/// against it, so the runner and the checker agree on what a cell is.
pub fn cell_spec(plan_hash: &str, coord: &CellCoord) -> BundleSpec {
    let fault = coord.fault.parse::<FaultProfile>();
    BundleSpec {
        seed: coord.seed,
        fault_profile: fault.map_or_else(|_| coord.fault.clone(), |f| f.name().to_string()),
        defense: (coord.defense != "none").then(|| coord.defense.clone()),
        campaign: Some(CampaignCell {
            plan_hash: plan_hash.to_string(),
            cell: coord.id(),
        }),
        observations_digest: 0,
        coverage: None,
    }
}

/// Verify `dir` as a campaign directory. Returns the check outcome (whose
/// findings list the integrity violations) or an error when the campaign
/// manifest itself is unusable: unreadable, not JSON, or not decodable
/// ([`CampaignManifest::from_json`]).
pub fn check_campaign(dir: &Path) -> Result<CampaignCheck, CampaignCheckError> {
    let path = dir.join(CAMPAIGN_FILE);
    let text = std::fs::read_to_string(&path).map_err(|e| CampaignCheckError::Unreadable {
        path: path.clone(),
        error: e.to_string(),
    })?;
    let malformed = |detail| CampaignCheckError::Malformed {
        path: path.clone(),
        detail,
    };
    let doc = Json::parse(text.trim_end()).map_err(|e| malformed(e.to_string()))?;
    let manifest = CampaignManifest::from_json(&doc).map_err(|e| match e {
        ManifestError::Schema { found } => CampaignCheckError::SchemaMismatch {
            path: path.clone(),
            found,
        },
        ManifestError::Field(detail) => malformed(detail),
    })?;
    let plan_hash = manifest.plan.hash();

    let mut findings = Vec::new();
    // Cells whose bundle loads, as `(identity, key)` for the instance check.
    let mut loaded: Vec<(String, String)> = Vec::new();

    // Per-cell integrity: the bundle loads and records what the campaign
    // manifest claims for it.
    for row in &manifest.cells {
        let (key, id) = (row.coord.key(), row.coord.id());
        let bundle = match load_bundle(&dir.join(CELLS_DIR).join(&key)) {
            Ok(b) => b,
            Err(e) => {
                findings.push(format!("cell {key}: {e}"));
                continue;
            }
        };
        // The bundle's run identity is the one the row's coordinates name.
        let claimed = cell_spec(&plan_hash, &row.coord);
        let recorded = bundle.manifest.identity().fields();
        for ((field, found), (_, claim)) in recorded.into_iter().zip(claimed.identity().fields()) {
            if found != claim {
                findings.push(format!(
                    "cell {key}: bundle records {field} {found}, campaign manifest says {claim}"
                ));
            }
        }
        let degraded = bundle
            .coverage
            .as_ref()
            .is_some_and(CoverageReport::is_degraded);
        if degraded != row.degraded {
            findings.push(format!(
                "cell {key}: bundle records degraded {degraded}, campaign manifest says {}",
                row.degraded
            ));
        }
        let digest = bundle.manifest.observations_digest;
        if digest != row.digest {
            findings.push(format!(
                "cell {key}: bundle digest {digest:016x} does not match the campaign \
                 manifest's {:016x}",
                row.digest
            ));
        }
        loaded.push((id, key));
    }

    // Cross-instance determinism over the cells that loaded (the others
    // are already reported above).
    for d in verify_instances(&dir.join(CELLS_DIR), &loaded) {
        findings.push(format!(
            "identity {}: {} differs between instances {} and {}",
            d.id, d.file, d.reference, d.divergent
        ));
    }

    let cells = &manifest.cells;
    let identities = cells.iter().map(|c| c.coord.id()).collect::<BTreeSet<_>>();
    Ok(CampaignCheck {
        name: manifest.plan.name.clone(),
        plan_hash,
        cells: cells.len(),
        identities: identities.len(),
        findings,
    })
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "the process id keeps scratch directories of concurrent test runs apart"
)]
mod tests {
    use super::*;
    use alexa_obs::bundle::{write_bundle, BundleSpec};
    use alexa_obs::campaign::{campaign_manifest, CellRecord, Plan};
    use alexa_obs::Recorder;

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
    fn bundle_of_another_run_identity_is_a_finding() {
        let dir = std::env::temp_dir().join(format!("obsdiff-camp-ident-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let plan =
            Plan::parse(r#"{"schema": 1, "name": "x", "seeds": [7], "defenses": ["firewall"]}"#)
                .expect("plan");
        let coord = plan.cells().into_iter().next().expect("one cell");
        let spec = BundleSpec {
            seed: 8,
            fault_profile: "none".into(),
            defense: None,
            campaign: Some(CampaignCell {
                plan_hash: plan.hash(),
                cell: coord.id(),
            }),
            observations_digest: 0,
            coverage: None,
        };
        let cell_dir = dir.join(CELLS_DIR).join(coord.key());
        write_bundle(&cell_dir, &spec, &Recorder::new().report()).expect("write bundle");
        let record = CellRecord {
            coord,
            digest: 0,
            degraded: false,
        };
        let manifest = campaign_manifest(&plan, &[record]).render();
        std::fs::write(dir.join(CAMPAIGN_FILE), manifest).expect("write");
        let check = check_campaign(&dir).expect("manifest is well-formed");
        assert_eq!(
            check.findings,
            [
                "cell s7-fnone-dfirewall-j1-r0: bundle records seed 8, campaign manifest says 7",
                "cell s7-fnone-dfirewall-j1-r0: bundle records defense none, campaign manifest \
                 says firewall",
            ]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn listed_but_missing_cells_are_findings_not_errors() {
        let dir = std::env::temp_dir().join(format!("obsdiff-camp-cells-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let plan = Plan::parse(r#"{"schema": 1, "name": "x", "seeds": [7]}"#).expect("plan");
        let cells = plan.cells().into_iter().map(|coord| CellRecord {
            coord,
            digest: 0,
            degraded: false,
        });
        let manifest = campaign_manifest(&plan, &cells.collect::<Vec<_>>()).render();
        std::fs::write(dir.join(CAMPAIGN_FILE), manifest).expect("write");
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
