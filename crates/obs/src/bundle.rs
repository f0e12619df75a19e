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
//! The manifest decodes beside its encoder ([`BundleSpec::from_manifest`]),
//! and its [`RunIdentity`] is the one definition of "the same run": the
//! overwrite guard ([`check_run_dir`]), the campaign resume and `obs-diff`'s
//! determinism finding all compare it.
//!
//! Every byte of every file is a pure function of `(seed, fault profile,
//! config)`: durations are virtual work units, maps are ordered, and the
//! manifest deliberately **omits the worker count** — the bundle is the same
//! for `--jobs 1`, `4` and `8` (`"jobs_independent": true` records the
//! guarantee). Two bundles are therefore directly comparable with `obs-diff`,
//! and CI asserts their byte-equality across worker counts.

use crate::json::Json;
use crate::ledger::{count, digest, field, schema_first, text, under, Fail, ManifestError};
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
#[derive(Debug, Clone, PartialEq)]
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
        let text = |s: &String| Json::Str(s.clone());
        let digest = format!("{:016x}", self.observations_digest);
        let mut fields = vec![
            ("schema".into(), Json::Int(SCHEMA_VERSION)),
            ("seed".into(), Json::Int(self.seed)),
            ("fault_profile".into(), text(&self.fault_profile)),
            ("observations_digest".into(), Json::Str(digest)),
            ("jobs_independent".into(), Json::Bool(true)),
        ];
        fields.extend(self.defense.as_ref().map(|d| ("defense".into(), text(d))));
        fields.extend(self.campaign.as_ref().map(|cell| {
            let cell = vec![
                ("plan_hash".into(), text(&cell.plan_hash)),
                ("cell".into(), text(&cell.cell)),
            ];
            ("campaign".into(), Json::Obj(cell))
        }));
        fields.extend(self.coverage.clone().map(|c| ("coverage".into(), c)));
        Json::Obj(fields)
    }

    /// Decode a parsed `manifest.json`: the typed inverse of
    /// [`BundleSpec::manifest_json`]. The schema is read first; the digest
    /// must be exactly 16 lowercase hex digits. The coverage report stays a
    /// JSON object (the fault plane, above this crate, decodes it).
    pub fn from_manifest(manifest: &Json) -> Result<BundleSpec, ManifestError> {
        schema_first(manifest, SCHEMA_VERSION)?;
        decode_manifest(manifest).map_err(ManifestError::Field)
    }

    /// The run this bundle belongs to.
    pub fn identity(&self) -> RunIdentity<'_> {
        RunIdentity {
            seed: self.seed,
            fault_profile: &self.fault_profile,
            defense: self.defense.as_deref(),
            campaign: self.campaign.as_ref(),
        }
    }
}

/// A manifest past its schema, in the order the encoder writes it.
fn decode_manifest(m: &Json) -> Result<BundleSpec, Fail> {
    let (seed, fault_profile) = (count(m, "seed")?, text(m, "fault_profile")?);
    let observations_digest = digest(m, "observations_digest")?;
    if !field(m, "jobs_independent", Json::as_bool)? {
        return Err("jobs_independent: must be true".into());
    }
    let defense = m.get("defense").map(|_| text(m, "defense")).transpose()?;
    let campaign = m.get("campaign").map(|cell| {
        let decode = |c| {
            Ok(CampaignCell {
                plan_hash: text(c, "plan_hash")?,
                cell: text(c, "cell")?,
            })
        };
        decode(cell).map_err(|f| under("campaign", f))
    });
    let coverage = m
        .get("coverage")
        .map(|_| field(m, "coverage", |c| c.as_obj().is_some().then(|| c.clone())));
    Ok(BundleSpec {
        seed,
        fault_profile,
        defense,
        campaign: campaign.transpose()?,
        observations_digest,
        coverage: coverage.transpose()?,
    })
}

/// What makes two bundles runs of the same experiment: seed, fault
/// profile, defense and campaign cell (the schema is implied: only this
/// schema's manifests decode). The digest is not part of it: equal
/// identities must produce equal digests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunIdentity<'a> {
    /// Master seed.
    pub seed: u64,
    /// Fault profile name.
    pub fault_profile: &'a str,
    /// Defense mode, `None` for an undefended run.
    pub defense: Option<&'a str>,
    /// Campaign-cell identity, `None` outside a campaign.
    pub campaign: Option<&'a CampaignCell>,
}

impl RunIdentity<'_> {
    /// Each field as `(manifest field, value)`, in manifest order; an
    /// absent optional field reads `none`.
    pub fn fields(&self) -> [(&'static str, String); 4] {
        let campaign = self
            .campaign
            .map(|c| format!("cell {} of plan {}", c.cell, c.plan_hash));
        [
            ("seed", self.seed.to_string()),
            ("fault_profile", self.fault_profile.to_string()),
            ("defense", self.defense.unwrap_or("none").to_string()),
            ("campaign", campaign.unwrap_or_else(|| "none".into())),
        ]
    }
}

/// What [`check_run_dir`] found at the target directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunDirState {
    /// The directory is absent or empty — writing creates a fresh bundle.
    Fresh,
    /// The directory holds a bundle manifest of the spec's run identity —
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
    /// The directory holds a bundle of a *different* run: another
    /// identity, another schema, or a manifest that does not decode.
    Mismatched {
        /// The directory that was checked.
        dir: PathBuf,
        /// What the existing manifest records instead.
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
/// A missing or empty directory is [`RunDirState::Fresh`]; one whose
/// manifest decodes to the spec's [`RunIdentity`] is
/// [`RunDirState::Matching`] (overwriting refreshes the same experiment's
/// bundle). Anything else is a conflict the caller must refuse rather than
/// destroy evidence — a manifest of another schema too, since writing this
/// schema's files over it would leave its extra files beside them.
pub fn check_run_dir(dir: &Path, spec: &BundleSpec) -> Result<RunDirState, RunDirConflict> {
    let Ok(mut entries) = std::fs::read_dir(dir) else {
        return Ok(RunDirState::Fresh); // absent (or unreadable: surfaces on write)
    };
    if entries.next().is_none() {
        return Ok(RunDirState::Fresh);
    }
    let not_a_bundle = |detail| RunDirConflict::NotABundle {
        dir: dir.to_path_buf(),
        detail,
    };
    let text = std::fs::read_to_string(dir.join(MANIFEST_FILE))
        .map_err(|e| not_a_bundle(format!("cannot read {MANIFEST_FILE}: {e}")))?;
    let manifest =
        Json::parse(text.trim_end()).map_err(|e| not_a_bundle(format!("{MANIFEST_FILE}: {e}")))?;
    let found = match BundleSpec::from_manifest(&manifest) {
        Ok(found) if found.identity() == spec.identity() => return Ok(RunDirState::Matching),
        Ok(found) => {
            let fields = found.identity().fields();
            fields.map(|(k, v)| format!("{k} {v}")).join(", ")
        }
        Err(ManifestError::Schema { found }) => {
            format!("schema {found}, this tool writes {SCHEMA_VERSION}")
        }
        Err(ManifestError::Field(detail)) => format!("{MANIFEST_FILE} does not decode: {detail}"),
    };
    Err(RunDirConflict::Mismatched {
        dir: dir.to_path_buf(),
        found,
    })
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

    /// `spec` through its manifest and back: the decoder inverts the
    /// encoder, and re-encoding reproduces the bytes.
    fn round_trip(spec: &BundleSpec) -> String {
        let text = spec.manifest_json().render();
        let decoded = BundleSpec::from_manifest(&Json::parse(&text).expect("manifest parses"));
        assert_eq!(decoded.as_ref(), Ok(spec));
        assert_eq!(
            decoded.map(|d| d.manifest_json().render()),
            Ok(text.clone())
        );
        text
    }

    #[test]
    fn manifest_is_jobs_free_and_versioned() {
        let text = round_trip(&spec());
        let head = format!("{{\"schema\": {SCHEMA_VERSION}, \"seed\": 7, ");
        assert!(text.starts_with(&head), "{text}");
        assert!(text.contains("\"observations_digest\": \"00000000deadbeef\""));
        assert!(text.contains("\"jobs_independent\": true"));
        assert!(!text.contains("jobs\""), "manifest must not record --jobs");
    }

    #[test]
    fn manifest_records_campaign_cell_identity_when_present() {
        let mut s = spec();
        s.defense = Some("firewall".into());
        s.campaign = Some(CampaignCell {
            plan_hash: "abc123".into(),
            cell: "s7-fnone-dfirewall".into(),
        });
        let text = round_trip(&s);
        assert!(text.contains("\"cell\": \"s7-fnone-dfirewall\""), "{text}");
        // A plain spec's manifest stays byte-identical to the pre-campaign
        // schema: no defense, no campaign field.
        let plain = round_trip(&spec());
        assert!(!plain.contains("defense") && !plain.contains("campaign"));
    }

    #[test]
    fn manifest_embeds_coverage_when_present() {
        let mut s = spec();
        s.coverage = Some(Json::Obj(vec![(
            "profile".into(),
            Json::Str("flaky".into()),
        )]));
        let text = round_trip(&s);
        assert!(
            text.ends_with("\"coverage\": {\"profile\": \"flaky\"}}"),
            "{text}"
        );
    }

    #[test]
    fn manifest_decoder_names_the_field_it_refuses() {
        let text = spec().manifest_json().render();
        let decode = |from: &str, to: &str| {
            let edited = text.replacen(from, to, 1);
            BundleSpec::from_manifest(&Json::parse(&edited).expect("edited manifest parses"))
        };
        let schema = format!("\"schema\": {SCHEMA_VERSION}");
        // The schema is read first, whatever else is wrong.
        let older = decode(&schema, "\"schema\": 2, \"seed\": \"7\"");
        assert_eq!(older, Err(ManifestError::Schema { found: 2 }));
        for (from, to, field) in [
            ("\"seed\": 7", "\"seed\": \"7\"", "seed:"),
            ("\"none\"", "3", "fault_profile:"),
            ("\"00000000deadbeef\"", "\"00\"", "observations_digest:"),
            (
                "\"00000000deadbeef\"",
                "\"00000000DEADBEEF\"",
                "observations_digest:",
            ),
            ("true", "false", "jobs_independent:"),
            ("true", "true, \"defense\": 1", "defense:"),
            (
                "true",
                "true, \"campaign\": {\"cell\": 1}",
                "campaign.plan_hash:",
            ),
            ("true", "true, \"coverage\": []", "coverage:"),
        ] {
            match decode(from, to) {
                Err(ManifestError::Field(detail)) => assert!(detail.starts_with(field), "{detail}"),
                other => panic!("{to}: expected a field error, got {other:?}"),
            }
        }
    }

    #[test]
    fn manifest_identity_matching_ignores_digest_but_not_identity() {
        let s = spec();
        let mut same = spec();
        same.observations_digest = 0x1234; // different bytes, same experiment
        assert_eq!(s.identity(), same.identity());
        let mut cell = spec();
        cell.campaign = Some(CampaignCell {
            plan_hash: "aa".into(),
            cell: "s7-fnone-dnone".into(),
        });
        let mut other_plan = cell.clone();
        other_plan.campaign = Some(CampaignCell {
            plan_hash: "bb".into(),
            cell: "s7-fnone-dnone".into(),
        });
        let (mut other_seed, mut other_fault, mut defended) = (spec(), spec(), spec());
        other_seed.seed = 8;
        other_fault.fault_profile = "flaky".into();
        defended.defense = Some("firewall".into());
        for other in [&other_seed, &other_fault, &defended, &cell] {
            assert_ne!(s.identity(), other.identity(), "{:?}", other.identity());
        }
        assert_ne!(cell.identity(), other_plan.identity());
        assert_eq!(
            defended.identity().fields()[2],
            ("defense", "firewall".into())
        );
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

        // A manifest that parses but does not decode refuses, naming the
        // field.
        let mistyped = spec().manifest_json().render().replacen("7", "\"7\"", 1);
        std::fs::write(base.join(MANIFEST_FILE), mistyped).expect("write mistyped manifest");
        let err = check_run_dir(&base, &spec()).expect_err("must refuse");
        let msg = err.to_string();
        assert!(msg.contains("decode: seed: missing or mistyped)"), "{msg}");

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
        assert!(msg.contains("(schema 2, this tool writes"), "{msg}");

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
}
