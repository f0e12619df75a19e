//! Run-ledger bundles: self-describing directories capturing one audit run.
//!
//! A bundle is three files ([`FILES`]) written by `repro --run-dir`:
//!
//! * `manifest.json` — identity: schema version, seed, fault profile, the
//!   observations digest, and an optional coverage report.
//! * `trace.json` — the full span tree in work units, the per-shard
//!   counters, and the aggregates' counts and calls.
//! * `memory.json` — the deterministic allocation plane: per-stage and
//!   per-shard allocation deltas and per-group size histograms (OS-level
//!   RSS is volatile and deliberately absent).
//!
//! Each fact is stored once. The views a reader wants — per-stage work,
//! counter totals, work summaries and histograms, the folded-stack profile
//! (flamegraph input) — are functions of the two
//! ledger documents: `obs-diff` decodes them with
//! [`Report::from_ledger`](crate::Report::from_ledger) and derives each
//! view through the one [`Report`] method that computes it.
//!
//! Every byte of every file is a pure function of `(seed, fault profile,
//! config)`: durations are virtual work units, maps are ordered, and the
//! manifest deliberately **omits the worker count** — the bundle is the same
//! for `--jobs 1`, `4` and `8` (`"jobs_independent": true` records the
//! guarantee). Two bundles are therefore directly comparable with `obs-diff`,
//! and CI asserts their byte-equality across worker counts.

use crate::json::Json;
use crate::report::Report;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// Version of the bundle layout and JSON schemas. Bump on any change to the
/// file set or to the meaning/shape of an existing field.
///
/// History: 1 = four-file bundle (manifest/metrics/trace/profile); 2 =
/// adds `memory.json` plus allocation-delta fields on trace spans and
/// metrics aggregates; 3 = three-file bundle (manifest/trace/memory):
/// `metrics.json` and `profile.folded` are gone, their one new fact (the
/// aggregates' counts and calls) moves into `trace.json`, and
/// `memory.json` drops its derived per-group `summaries`.
pub const SCHEMA_VERSION: u64 = 3;

/// File name of the bundle manifest.
pub const MANIFEST_FILE: &str = "manifest.json";
/// File name of the deterministic trace document.
pub const TRACE_FILE: &str = "trace.json";
/// File name of the deterministic memory document.
pub const MEMORY_FILE: &str = "memory.json";

/// Every file of a bundle, in write order: the manifest, which marks the
/// bundle complete, comes last.
pub const FILES: [&str; 3] = [TRACE_FILE, MEMORY_FILE, MANIFEST_FILE];

/// The campaign-cell identity a bundle may carry when it was produced by
/// `repro campaign` rather than a standalone `repro --run-dir` run.
///
/// The cell id is the **jobs- and repeat-free** identity (see
/// `alexa_obs::campaign::CellCoord::id`): recording an instance coordinate
/// here would break the byte-equality of one cell identity's bundles
/// across worker counts and repeats.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignCell {
    /// Hash of the canonical plan the cell belongs to (`Plan::hash`).
    pub plan_hash: String,
    /// The cell's identity key, e.g. `s7-fflaky-dnone`.
    pub cell: String,
}

/// The run-identity facts recorded in a bundle's manifest.
#[derive(Debug, Clone)]
pub struct BundleSpec {
    /// Master seed of the run.
    pub seed: u64,
    /// Name of the fault profile ("none", "flaky", "hostile", ...).
    pub fault_profile: String,
    /// Defense mode of the run, when one differs from the measurement
    /// condition (`None` for undefended runs — the field is then absent
    /// from the manifest, keeping pre-campaign bundles byte-stable).
    pub defense: Option<String>,
    /// Campaign-cell identity, when the bundle is a campaign cell.
    pub campaign: Option<CampaignCell>,
    /// `Observations::digest()` of the produced observations.
    pub observations_digest: u64,
    /// Pre-rendered coverage report (`CoverageReport::to_json`), if the run
    /// tracked coverage. Passed in as [`Json`] so this crate needs no
    /// dependency on the fault plane.
    pub coverage: Option<Json>,
}

impl BundleSpec {
    /// The manifest document for this run.
    ///
    /// The digest is rendered as fixed-width hex so the manifest is stable
    /// to parse and diff. There is no `jobs` field by design: the whole
    /// bundle is worker-count-independent and recording the count would
    /// break byte-equality across `--jobs` values.
    pub fn manifest_json(&self) -> Json {
        let mut fields = vec![
            ("schema".to_string(), Json::Int(SCHEMA_VERSION)),
            ("seed".to_string(), Json::Int(self.seed)),
            (
                "fault_profile".to_string(),
                Json::Str(self.fault_profile.clone()),
            ),
            (
                "observations_digest".to_string(),
                Json::Str(format!("{:016x}", self.observations_digest)),
            ),
            ("jobs_independent".to_string(), Json::Bool(true)),
        ];
        if let Some(defense) = &self.defense {
            fields.push(("defense".to_string(), Json::Str(defense.clone())));
        }
        if let Some(cell) = &self.campaign {
            fields.push((
                "campaign".to_string(),
                Json::Obj(vec![
                    ("plan_hash".to_string(), Json::Str(cell.plan_hash.clone())),
                    ("cell".to_string(), Json::Str(cell.cell.clone())),
                ]),
            ));
        }
        if let Some(cov) = &self.coverage {
            fields.push(("coverage".to_string(), cov.clone()));
        }
        Json::Obj(fields)
    }

    /// Whether `manifest` (a parsed `manifest.json`) records the same run
    /// identity as this spec: bundle schema, seed, fault profile, defense,
    /// and — when either side is a campaign cell — plan hash and cell id.
    ///
    /// The schema is part of the identity because the file set is: writing
    /// this schema's files over an older bundle would leave the old
    /// schema's extra files beside them, a directory no loader reads.
    ///
    /// The observations digest is deliberately **not** part of the match:
    /// identity says "this directory holds a bundle of the same
    /// experiment", not "the same bytes" — overwriting a same-identity
    /// bundle refreshes it, overwriting a different-identity one destroys
    /// evidence. Both `repro --run-dir`'s overwrite guard and the campaign
    /// runner's resume detection build on this one predicate.
    pub fn matches_manifest(&self, manifest: &Json) -> bool {
        let schema_ok = manifest.get("schema").and_then(Json::as_u64) == Some(SCHEMA_VERSION);
        let seed_ok = manifest.get("seed").and_then(Json::as_u64) == Some(self.seed);
        let fault_ok = manifest.get("fault_profile").and_then(Json::as_str)
            == Some(self.fault_profile.as_str());
        let defense_ok = manifest.get("defense").and_then(Json::as_str) == self.defense.as_deref();
        let campaign_ok = match (&self.campaign, manifest.get("campaign")) {
            (None, None) => true,
            (Some(cell), Some(found)) => {
                found.get("plan_hash").and_then(Json::as_str) == Some(cell.plan_hash.as_str())
                    && found.get("cell").and_then(Json::as_str) == Some(cell.cell.as_str())
            }
            _ => false,
        };
        schema_ok && seed_ok && fault_ok && defense_ok && campaign_ok
    }
}

/// What [`check_run_dir`] found at the target directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunDirState {
    /// The directory is absent or empty — writing creates a fresh bundle.
    Fresh,
    /// The directory holds a bundle manifest matching the spec's identity —
    /// writing refreshes the same experiment's bundle.
    Matching,
}

/// Why a run directory must not be written to.
#[derive(Debug, Clone, PartialEq)]
pub enum RunDirConflict {
    /// The directory is non-empty but holds no readable bundle manifest —
    /// it is not ours to overwrite.
    NotABundle {
        /// The directory that was checked.
        dir: PathBuf,
        /// Why the manifest could not be read.
        detail: String,
    },
    /// The directory holds a bundle of a *different* experiment.
    Mismatched {
        /// The directory that was checked.
        dir: PathBuf,
        /// The identity the existing manifest records.
        found: String,
    },
}

impl fmt::Display for RunDirConflict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunDirConflict::NotABundle { dir, detail } => write!(
                f,
                "{} is non-empty but not a run bundle ({detail}); refusing to overwrite",
                dir.display()
            ),
            RunDirConflict::Mismatched { dir, found } => write!(
                f,
                "{} holds a bundle of a different run ({found}); refusing to overwrite",
                dir.display()
            ),
        }
    }
}

/// Check whether `dir` may receive a bundle for `spec`.
///
/// A missing or empty directory is [`RunDirState::Fresh`]; a directory
/// whose `manifest.json` matches the spec's identity
/// ([`BundleSpec::matches_manifest`]) is [`RunDirState::Matching`]; any
/// other non-empty directory is a conflict — the caller must refuse
/// rather than silently destroy whatever lives there.
pub fn check_run_dir(dir: &Path, spec: &BundleSpec) -> Result<RunDirState, RunDirConflict> {
    let Ok(mut entries) = std::fs::read_dir(dir) else {
        return Ok(RunDirState::Fresh); // absent (or unreadable: surfaces on write)
    };
    if entries.next().is_none() {
        return Ok(RunDirState::Fresh);
    }
    let manifest_path = dir.join(MANIFEST_FILE);
    let text = std::fs::read_to_string(&manifest_path).map_err(|e| RunDirConflict::NotABundle {
        dir: dir.to_path_buf(),
        detail: format!("cannot read {MANIFEST_FILE}: {e}"),
    })?;
    let manifest = Json::parse(text.trim_end()).map_err(|e| RunDirConflict::NotABundle {
        dir: dir.to_path_buf(),
        detail: format!("{MANIFEST_FILE}: {e}"),
    })?;
    if spec.matches_manifest(&manifest) {
        Ok(RunDirState::Matching)
    } else {
        let found = format!(
            "schema {}, seed {}, fault profile {:?}, defense {:?}, campaign cell {:?}",
            manifest.get("schema").and_then(Json::as_u64).unwrap_or(0),
            manifest.get("seed").and_then(Json::as_u64).unwrap_or(0),
            manifest
                .get("fault_profile")
                .and_then(Json::as_str)
                .unwrap_or("?"),
            manifest.get("defense").and_then(Json::as_str),
            manifest
                .get("campaign")
                .and_then(|c| c.get("cell"))
                .and_then(Json::as_str),
        );
        Err(RunDirConflict::Mismatched {
            dir: dir.to_path_buf(),
            found,
        })
    }
}

/// Write the bundle files ([`FILES`]) for one run into `dir` (created if
/// needed), each JSON document with a trailing newline.
///
/// The manifest is written **last**: its presence marks the bundle
/// complete, so a crash mid-write leaves a directory that loaders and the
/// campaign resume logic treat as partial (re-executed) rather than done.
pub fn write_bundle(dir: &Path, spec: &BundleSpec, report: &Report) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    for (file, doc) in [
        (TRACE_FILE, report.ledger_trace_json()),
        (MEMORY_FILE, report.ledger_memory_json()),
        (MANIFEST_FILE, spec.manifest_json()),
    ] {
        let mut text = doc.render();
        text.push('\n');
        std::fs::write(dir.join(file), text)?;
    }
    Ok(())
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "the process id keeps scratch directories of concurrent test runs apart"
)]
mod tests {
    use super::*;
    use crate::Recorder;

    fn spec() -> BundleSpec {
        BundleSpec {
            seed: 7,
            fault_profile: "none".into(),
            defense: None,
            campaign: None,
            observations_digest: 0xdead_beef,
            coverage: None,
        }
    }

    #[test]
    fn manifest_is_jobs_free_and_versioned() {
        let m = spec().manifest_json();
        assert_eq!(m.get("schema").and_then(Json::as_u64), Some(SCHEMA_VERSION));
        assert_eq!(m.get("seed").and_then(Json::as_u64), Some(7));
        assert_eq!(m.get("fault_profile").and_then(Json::as_str), Some("none"));
        assert_eq!(
            m.get("observations_digest").and_then(Json::as_str),
            Some("00000000deadbeef")
        );
        assert_eq!(
            m.get("jobs_independent").and_then(Json::as_bool),
            Some(true)
        );
        assert!(m.get("jobs").is_none(), "manifest must not record --jobs");
    }

    #[test]
    fn manifest_records_campaign_cell_identity_when_present() {
        let mut s = spec();
        s.defense = Some("firewall".into());
        s.campaign = Some(CampaignCell {
            plan_hash: "abc123".into(),
            cell: "s7-fnone-dfirewall".into(),
        });
        let m = s.manifest_json();
        assert_eq!(m.get("defense").and_then(Json::as_str), Some("firewall"));
        let cell = m.get("campaign").expect("campaign field");
        assert_eq!(cell.get("plan_hash").and_then(Json::as_str), Some("abc123"));
        assert_eq!(
            cell.get("cell").and_then(Json::as_str),
            Some("s7-fnone-dfirewall")
        );
        // A plain spec's manifest stays byte-identical to the pre-campaign
        // schema: no defense, no campaign field.
        let plain = spec().manifest_json().render();
        assert!(!plain.contains("defense") && !plain.contains("campaign"));
    }

    #[test]
    fn manifest_identity_matching_ignores_digest_but_not_identity() {
        let s = spec();
        let mut same = spec();
        same.observations_digest = 0x1234; // different bytes, same experiment
        assert!(s.matches_manifest(&same.manifest_json()));

        let mut other_seed = spec();
        other_seed.seed = 8;
        assert!(!s.matches_manifest(&other_seed.manifest_json()));

        let mut other_fault = spec();
        other_fault.fault_profile = "flaky".into();
        assert!(!s.matches_manifest(&other_fault.manifest_json()));

        let mut defended = spec();
        defended.defense = Some("firewall".into());
        assert!(!s.matches_manifest(&defended.manifest_json()));
        assert!(defended.matches_manifest(&defended.manifest_json()));

        let mut cell = spec();
        cell.campaign = Some(CampaignCell {
            plan_hash: "aa".into(),
            cell: "s7-fnone-dnone".into(),
        });
        assert!(!s.matches_manifest(&cell.manifest_json()));
        assert!(cell.matches_manifest(&cell.manifest_json()));
        let mut other_plan = cell.clone();
        other_plan.campaign = Some(CampaignCell {
            plan_hash: "bb".into(),
            cell: "s7-fnone-dnone".into(),
        });
        assert!(!cell.matches_manifest(&other_plan.manifest_json()));
    }

    #[test]
    fn check_run_dir_distinguishes_fresh_matching_and_conflicting() {
        let base = std::env::temp_dir().join(format!("obs-rundir-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);

        // Absent and empty directories are fresh.
        assert_eq!(check_run_dir(&base, &spec()), Ok(RunDirState::Fresh));
        std::fs::create_dir_all(&base).expect("mkdir");
        assert_eq!(check_run_dir(&base, &spec()), Ok(RunDirState::Fresh));

        // A non-empty directory without a manifest is not a bundle.
        std::fs::write(base.join("notes.txt"), "precious").expect("write");
        assert!(matches!(
            check_run_dir(&base, &spec()),
            Err(RunDirConflict::NotABundle { .. })
        ));

        // A matching manifest allows a refresh; a mismatched one refuses.
        let mut manifest = spec().manifest_json().render();
        manifest.push('\n');
        std::fs::write(base.join(MANIFEST_FILE), manifest).expect("write manifest");
        assert_eq!(check_run_dir(&base, &spec()), Ok(RunDirState::Matching));
        let mut other = spec();
        other.seed = 99;
        let err = check_run_dir(&base, &other).expect_err("must refuse");
        assert!(matches!(err, RunDirConflict::Mismatched { .. }));
        assert!(err.to_string().contains("refusing to overwrite"));

        // An older schema's bundle of the same identity refuses too, and
        // the message names the directory and the schema it found.
        let older = spec().manifest_json().render().replacen(
            &format!("\"schema\": {SCHEMA_VERSION}"),
            "\"schema\": 2",
            1,
        );
        std::fs::write(base.join(MANIFEST_FILE), older).expect("write old manifest");
        let err = check_run_dir(&base, &spec()).expect_err("must refuse");
        let msg = err.to_string();
        assert!(msg.contains(&base.display().to_string()), "{msg}");
        assert!(msg.contains("schema 2, seed 7"), "{msg}");

        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn write_bundle_writes_manifest_last() {
        // The completion marker must be the manifest, the last of the files
        // written: a mid-write crash leaves a manifest-less directory.
        let rec = Recorder::new();
        rec.stage("persona.shards", || {
            let mut log = rec.shard("persona", 0, "Vanilla");
            log.alloc_open();
            log.span("install", |l| l.work(4));
            log.alloc_seal();
            rec.submit(log);
        });
        let dir = std::env::temp_dir().join(format!("obs-bundle-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        write_bundle(&dir, &spec(), &rec.report()).expect("bundle write");
        assert_eq!(FILES.last(), Some(&MANIFEST_FILE));
        // Every bundle file, and nothing else: newline-terminated JSON of
        // this schema.
        assert_eq!(
            std::fs::read_dir(&dir).expect("read dir").count(),
            FILES.len()
        );
        for file in FILES {
            let body = std::fs::read_to_string(dir.join(file)).expect("bundle file");
            assert!(body.ends_with('\n'), "{file}");
            let parsed = Json::parse(body.trim_end()).expect("bundle file parses");
            let schema = parsed.get("schema").and_then(Json::as_u64);
            assert_eq!(schema, Some(SCHEMA_VERSION), "{file}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_embeds_coverage_when_present() {
        let mut s = spec();
        s.coverage = Some(Json::Obj(vec![(
            "profile".into(),
            Json::Str("flaky".into()),
        )]));
        let m = s.manifest_json();
        assert_eq!(
            m.get("coverage")
                .and_then(|c| c.get("profile"))
                .and_then(Json::as_str),
            Some("flaky")
        );
    }
}
