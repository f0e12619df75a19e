//! Declarative experiment plans and campaign manifests.
//!
//! A **plan** is a JSON document declaring a variant matrix — seeds × fault
//! profiles × defense modes × worker counts, with repeats — that the
//! `repro campaign` runner executes into one run-ledger bundle per cell
//! under a campaign directory. This module owns the *schemas*: the plan
//! parser (strict, typed errors, offsets via [`Json::parse`] for syntax
//! failures), the deterministic cell enumeration and keying, the plan hash,
//! and the `campaign.json` manifest: its encoder ([`campaign_manifest`]) and,
//! beside it, its one decoder ([`CampaignManifest::from_json`]), which the
//! runner's resume and `obs-diff campaign` share. Execution lives in
//! `alexa-bench`; cross-cell comparison in `alexa-obsdiff`.
//!
//! # Cell identity vs cell instance
//!
//! Worker count and repeat index are *instance* coordinates, not identity:
//! the engine guarantees byte-identical bundles for any `--jobs` value, and
//! a repeat of a deterministic run must reproduce the same bytes. A cell's
//! **id** (`s7-fflaky-dnone`) therefore names `(seed, fault, defense)` only,
//! and is what the bundle manifest records; the **key**
//! (`s7-fflaky-dnone-j4-r0`) adds `(jobs, repeat)` and names the cell's
//! directory under `cells/`. The campaign runner asserts that every
//! instance of one id produced byte-identical bundles — the executable form
//! of the determinism contract that CI shell loops used to check.

use crate::json::{Json, JsonParseError};
use crate::ledger::{digest, field, items, schema_first, Fail, ManifestError};
use std::fmt;

/// Version of the plan document schema. Bump on any change to the meaning
/// or shape of a plan field.
pub const PLAN_SCHEMA_VERSION: u64 = 1;

/// Version of the `campaign.json` manifest schema.
pub const CAMPAIGN_SCHEMA_VERSION: u64 = 1;

/// File name of the campaign manifest inside a campaign directory.
pub const CAMPAIGN_FILE: &str = "campaign.json";

/// Subdirectory of a campaign directory holding one bundle per cell key.
pub const CELLS_DIR: &str = "cells";

/// Subdirectory of a campaign directory holding derived analysis tables.
pub const TABLES_DIR: &str = "tables";

/// The fault presets a plan may name (mirrors `alexa-fault`'s catalog; the
/// fault crate sits above this one, so the names are pinned here and a test
/// on the bench side keeps the two in sync).
pub const FAULT_PRESETS: &[&str] = &["none", "flaky", "degraded", "hostile"];

/// The defense modes a plan may name (mirrors `alexa-audit`'s
/// `DefenseMode`; same layering note as [`FAULT_PRESETS`]).
pub const DEFENSE_MODES: &[&str] = &["none", "firewall", "text-only"];

/// Problem scale of a plan's cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scale {
    /// The paper-scale configuration (`AuditConfig::paper`).
    #[default]
    Paper,
    /// The reduced test configuration (`AuditConfig::small`).
    Small,
}

impl Scale {
    /// The plan-document spelling of this scale.
    pub fn label(self) -> &'static str {
        match self {
            Scale::Paper => "paper",
            Scale::Small => "small",
        }
    }
}

/// A parsed, validated experiment plan.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Campaign name — a filesystem-safe slug, used for the default
    /// campaign directory.
    pub name: String,
    /// Problem scale every cell runs at.
    pub scale: Scale,
    /// Master seeds, in plan order.
    pub seeds: Vec<u64>,
    /// Fault variants: preset names or `uniform:R` rates, in plan order.
    pub faults: Vec<String>,
    /// Defense modes, in plan order.
    pub defenses: Vec<String>,
    /// Worker counts, in plan order.
    pub jobs: Vec<usize>,
    /// How many times each `(seed, fault, defense, jobs)` cell repeats.
    pub repeats: u32,
}

/// Why a plan document was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// Not valid JSON; carries the byte offset and line of the failure.
    Syntax(JsonParseError),
    /// The document declares an unsupported plan schema version.
    SchemaMismatch {
        /// The version the document declared (0 when absent).
        found: u64,
    },
    /// A field is missing, mistyped, out of range, or unknown.
    Field {
        /// The dotted field name.
        field: String,
        /// What is wrong with it.
        problem: String,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::Syntax(e) => write!(f, "plan is not valid JSON: {e} (offset {})", e.offset),
            PlanError::SchemaMismatch { found } => write!(
                f,
                "plan schema {found} unsupported (this tool reads schema {PLAN_SCHEMA_VERSION})"
            ),
            PlanError::Field { field, problem } => write!(f, "plan field {field:?}: {problem}"),
        }
    }
}

impl std::error::Error for PlanError {}

/// One cell instance of a plan's variant matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellCoord {
    /// Master seed.
    pub seed: u64,
    /// Fault variant (`none`, `flaky`, ..., or `uniform:R`).
    pub fault: String,
    /// Defense mode (`none`, `firewall`, `text-only`).
    pub defense: String,
    /// Worker count the cell executes with.
    pub jobs: usize,
    /// Repeat index, `0..plan.repeats`.
    pub repeat: u32,
}

impl CellCoord {
    /// The cell's jobs- and repeat-free identity, e.g. `s7-fflaky-dnone`.
    ///
    /// This is what the cell's bundle manifest records: every instance of
    /// one id must produce byte-identical bundles, so the id must not
    /// mention the instance coordinates.
    pub fn id(&self) -> String {
        format!(
            "s{}-f{}-d{}",
            self.seed,
            key_token(&self.fault),
            key_token(&self.defense)
        )
    }

    /// The cell's directory key under `cells/`, e.g. `s7-fflaky-dnone-j4-r0`.
    pub fn key(&self) -> String {
        format!("{}-j{}-r{}", self.id(), self.jobs, self.repeat)
    }
}

/// A plan value reduced to a filesystem- and key-safe token: lowercase
/// alphanumerics and dots survive, everything else is dropped
/// (`text-only` → `textonly`, `uniform:0.25` → `uniform0.25`).
fn key_token(value: &str) -> String {
    value
        .chars()
        .filter(|c| c.is_ascii_alphanumeric() || *c == '.')
        .map(|c| c.to_ascii_lowercase())
        .collect()
}

/// The uniform fault rate of a `uniform:R` spec, if `spec` has that form
/// and `R` parses as a finite number in `[0, 1]`.
pub fn uniform_fault_rate(spec: &str) -> Option<f64> {
    let rate: f64 = spec.strip_prefix("uniform:")?.parse().ok()?;
    (rate.is_finite() && (0.0..=1.0).contains(&rate)).then_some(rate)
}

/// Whether `spec` is a valid plan fault variant.
pub fn is_valid_fault(spec: &str) -> bool {
    FAULT_PRESETS.contains(&spec) || uniform_fault_rate(spec).is_some()
}

impl Plan {
    /// Parse and fully validate a plan document.
    ///
    /// The parser is strict in the same way `repro`'s CLI is: unknown
    /// fields, duplicate variants, empty axes and out-of-range values are
    /// all hard errors, so a typo in a committed CI plan can never
    /// silently shrink a matrix.
    pub fn parse(src: &str) -> Result<Plan, PlanError> {
        Plan::from_json(&Json::parse(src).map_err(PlanError::Syntax)?)
    }

    /// Validate a parsed plan document, as [`Plan::parse`] does.
    pub fn from_json(doc: &Json) -> Result<Plan, PlanError> {
        let fields = doc.as_obj().ok_or_else(|| PlanError::Field {
            field: "(root)".into(),
            problem: "plan must be a JSON object".into(),
        })?;
        const KNOWN: &[&str] = &[
            "schema", "name", "scale", "seeds", "faults", "defenses", "jobs", "repeats",
        ];
        for (key, _) in fields {
            if !KNOWN.contains(&key.as_str()) {
                return Err(PlanError::Field {
                    field: key.clone(),
                    problem: format!("unknown field (known: {})", KNOWN.join(", ")),
                });
            }
        }
        match doc.get("schema").and_then(Json::as_u64) {
            Some(PLAN_SCHEMA_VERSION) => {}
            other => {
                return Err(PlanError::SchemaMismatch {
                    found: other.unwrap_or(0),
                })
            }
        }
        let name = doc
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| field_err("name", "required string"))?;
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-' || c == '_')
        {
            return Err(field_err(
                "name",
                "must be a non-empty slug of [a-z0-9_-] characters",
            ));
        }
        let scale = match doc.get("scale") {
            None => Scale::Paper,
            Some(v) => match v.as_str() {
                Some("paper") => Scale::Paper,
                Some("small") => Scale::Small,
                _ => return Err(field_err("scale", "expected \"paper\" or \"small\"")),
            },
        };
        let seeds = required_axis(doc, "seeds", |v| v.as_u64())?;
        let faults = optional_axis(doc, "faults", vec!["none".to_string()], |v| {
            v.as_str().filter(|s| is_valid_fault(s)).map(str::to_string)
        })?;
        let defenses = optional_axis(doc, "defenses", vec!["none".to_string()], |v| {
            v.as_str()
                .filter(|s| DEFENSE_MODES.contains(s))
                .map(str::to_string)
        })?;
        let jobs = optional_axis(doc, "jobs", vec![1usize], |v| {
            v.as_u64()
                .filter(|n| (1..=512).contains(n))
                .map(|n| n as usize)
        })?;
        let repeats = match doc.get("repeats") {
            None => 1,
            Some(v) => v
                .as_u64()
                .filter(|n| (1..=64).contains(n))
                .ok_or_else(|| field_err("repeats", "expected an integer in [1, 64]"))?
                as u32,
        };
        Ok(Plan {
            name: name.to_string(),
            scale,
            seeds,
            faults,
            defenses,
            jobs,
            repeats,
        })
    }

    /// The canonical JSON form of this plan: every field explicit, plan
    /// order preserved. Parsing the canonical form yields an equal plan,
    /// so the [`Plan::hash`] is stable under reformatting of the source
    /// document.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("schema".into(), Json::Int(PLAN_SCHEMA_VERSION)),
            ("name".into(), Json::Str(self.name.clone())),
            ("scale".into(), Json::Str(self.scale.label().into())),
            (
                "seeds".into(),
                Json::Arr(self.seeds.iter().map(|s| Json::Int(*s)).collect()),
            ),
            (
                "faults".into(),
                Json::Arr(self.faults.iter().map(|f| Json::Str(f.clone())).collect()),
            ),
            (
                "defenses".into(),
                Json::Arr(self.defenses.iter().map(|d| Json::Str(d.clone())).collect()),
            ),
            (
                "jobs".into(),
                Json::Arr(self.jobs.iter().map(|j| Json::Int(*j as u64)).collect()),
            ),
            ("repeats".into(), Json::Int(self.repeats as u64)),
        ])
    }

    /// FNV-1a hash of the canonical plan rendering, as fixed-width hex.
    /// Two plans with equal matrices hash equal regardless of source
    /// formatting; any semantic change invalidates every cell.
    pub fn hash(&self) -> String {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in self.to_json().render().bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        format!("{h:016x}")
    }

    /// Every cell instance of the matrix, in deterministic plan order:
    /// seeds × faults × defenses × jobs × repeats, outermost first.
    pub fn cells(&self) -> Vec<CellCoord> {
        let mut out = Vec::new();
        for &seed in &self.seeds {
            for fault in &self.faults {
                for defense in &self.defenses {
                    for &jobs in &self.jobs {
                        for repeat in 0..self.repeats {
                            out.push(CellCoord {
                                seed,
                                fault: fault.clone(),
                                defense: defense.clone(),
                                jobs,
                                repeat,
                            });
                        }
                    }
                }
            }
        }
        out
    }
}

fn field_err(field: &str, problem: &str) -> PlanError {
    PlanError::Field {
        field: field.to_string(),
        problem: problem.to_string(),
    }
}

/// A required non-empty duplicate-free array field.
fn required_axis<T: PartialEq>(
    doc: &Json,
    field: &'static str,
    convert: impl Fn(&Json) -> Option<T>,
) -> Result<Vec<T>, PlanError> {
    let items = doc
        .get(field)
        .and_then(Json::as_arr)
        .ok_or_else(|| field_err(field, "required array"))?;
    axis_items(field, items, convert)
}

/// An optional array field with a default, duplicate-free when present.
fn optional_axis<T: PartialEq>(
    doc: &Json,
    field: &'static str,
    default: Vec<T>,
    convert: impl Fn(&Json) -> Option<T>,
) -> Result<Vec<T>, PlanError> {
    match doc.get(field) {
        None => Ok(default),
        Some(v) => {
            let items = v
                .as_arr()
                .ok_or_else(|| field_err(field, "expected an array"))?;
            axis_items(field, items, convert)
        }
    }
}

fn axis_items<T: PartialEq>(
    field: &'static str,
    items: &[Json],
    convert: impl Fn(&Json) -> Option<T>,
) -> Result<Vec<T>, PlanError> {
    if items.is_empty() {
        return Err(field_err(field, "must not be empty"));
    }
    let mut out = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let value = convert(item).ok_or_else(|| PlanError::Field {
            field: format!("{field}[{i}]"),
            problem: format!("invalid value {}", item.render()),
        })?;
        if out.contains(&value) {
            return Err(PlanError::Field {
                field: format!("{field}[{i}]"),
                problem: "duplicate value".to_string(),
            });
        }
        out.push(value);
    }
    Ok(out)
}

/// One completed cell instance as recorded in `campaign.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct CellRecord {
    /// The instance coordinates.
    pub coord: CellCoord,
    /// `Observations::digest()` of the cell's run (fixed-width hex in the
    /// document).
    pub digest: u64,
    /// Whether the cell's run was degraded (fault losses survived retry).
    pub degraded: bool,
}

/// The deterministic `campaign.json` manifest document.
///
/// The manifest is a pure function of the plan and the cell results — it
/// records no execution status, timing, or host facts — so a resumed
/// campaign and a fresh one finish with byte-identical manifests.
pub fn campaign_manifest(plan: &Plan, cells: &[CellRecord]) -> Json {
    let rows = cells
        .iter()
        .map(|c| {
            Json::Obj(vec![
                ("key".into(), Json::Str(c.coord.key())),
                ("id".into(), Json::Str(c.coord.id())),
                ("seed".into(), Json::Int(c.coord.seed)),
                ("fault".into(), Json::Str(c.coord.fault.clone())),
                ("defense".into(), Json::Str(c.coord.defense.clone())),
                ("jobs".into(), Json::Int(c.coord.jobs as u64)),
                ("repeat".into(), Json::Int(c.coord.repeat as u64)),
                ("digest".into(), Json::Str(format!("{:016x}", c.digest))),
                ("degraded".into(), Json::Bool(c.degraded)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("schema".into(), Json::Int(CAMPAIGN_SCHEMA_VERSION)),
        ("name".into(), Json::Str(plan.name.clone())),
        ("plan_hash".into(), Json::Str(plan.hash())),
        ("plan".into(), plan.to_json()),
        ("cells".into(), Json::Arr(rows)),
    ])
}

/// A decoded `campaign.json`: the plan and its cell records.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignManifest {
    /// The plan the campaign executed.
    pub plan: Plan,
    /// One record per cell of the plan, in plan order.
    pub cells: Vec<CellRecord>,
}

impl CampaignManifest {
    /// Decode a parsed `campaign.json`: the typed inverse of
    /// [`campaign_manifest`]. The schema is read first, then the facts —
    /// the plan and each cell's digest and degradation — and every other
    /// field must be what the encoder derives from them (the name, the
    /// plan hash, the rows' coordinates, keys and ids).
    pub fn from_json(doc: &Json) -> Result<CampaignManifest, ManifestError> {
        schema_first(doc, CAMPAIGN_SCHEMA_VERSION)?;
        decode_campaign(doc).map_err(ManifestError::Field)
    }
}

/// A campaign manifest past its schema.
fn decode_campaign(doc: &Json) -> Result<CampaignManifest, Fail> {
    let plan = Plan::from_json(field(doc, "plan", Some)?).map_err(|e| match e {
        PlanError::Field { field, problem } => format!("plan.{field}: {problem}"),
        other => format!("plan: {other}"),
    })?;
    let facts = items(doc, "cells", |row| {
        Ok((
            digest(row, "digest")?,
            field(row, "degraded", Json::as_bool)?,
        ))
    })?;
    let cells = plan.cells().into_iter().zip(facts);
    let cells: Vec<CellRecord> = cells
        .map(|(coord, (digest, degraded))| CellRecord {
            coord,
            digest,
            degraded,
        })
        .collect();
    let encoded = campaign_manifest(&plan, &cells);
    let fields = encoded.as_obj().unwrap_or_default().iter();
    match fields
        .map(|(k, v)| (k, doc.get(k) == Some(v)))
        .find(|(_, same)| !same)
    {
        Some((key, _)) => Err(format!("{key}: not what the plan and the cells imply")),
        None => Ok(CampaignManifest { plan, cells }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMOKE: &str = r#"{
        "schema": 1,
        "name": "smoke",
        "scale": "small",
        "seeds": [7, 1234],
        "faults": ["none", "flaky"],
        "jobs": [1, 4]
    }"#;

    #[test]
    fn parses_a_plan_with_defaults() {
        let plan = Plan::parse(SMOKE).expect("valid plan");
        assert_eq!(plan.name, "smoke");
        assert_eq!(plan.scale, Scale::Small);
        assert_eq!(plan.seeds, vec![7, 1234]);
        assert_eq!(plan.faults, vec!["none", "flaky"]);
        assert_eq!(plan.defenses, vec!["none"]);
        assert_eq!(plan.jobs, vec![1, 4]);
        assert_eq!(plan.repeats, 1);
    }

    #[test]
    fn cell_enumeration_is_deterministic_plan_order() {
        let plan = Plan::parse(SMOKE).expect("valid plan");
        let keys: Vec<String> = plan.cells().iter().map(CellCoord::key).collect();
        assert_eq!(
            keys,
            vec![
                "s7-fnone-dnone-j1-r0",
                "s7-fnone-dnone-j4-r0",
                "s7-fflaky-dnone-j1-r0",
                "s7-fflaky-dnone-j4-r0",
                "s1234-fnone-dnone-j1-r0",
                "s1234-fnone-dnone-j4-r0",
                "s1234-fflaky-dnone-j1-r0",
                "s1234-fflaky-dnone-j4-r0",
            ]
        );
        // Identity strips the instance coordinates.
        assert_eq!(plan.cells()[0].id(), "s7-fnone-dnone");
        assert_eq!(plan.cells()[1].id(), "s7-fnone-dnone");
    }

    #[test]
    fn key_tokens_are_filesystem_safe() {
        let cell = CellCoord {
            seed: 3,
            fault: "uniform:0.25".into(),
            defense: "text-only".into(),
            jobs: 2,
            repeat: 1,
        };
        assert_eq!(cell.key(), "s3-funiform0.25-dtextonly-j2-r1");
    }

    #[test]
    fn hash_ignores_formatting_but_not_matrix_changes() {
        let a = Plan::parse(SMOKE).expect("valid plan");
        let b = Plan::parse(&SMOKE.replace("\n        ", " ")).expect("valid plan");
        assert_eq!(a.hash(), b.hash());
        let c = Plan::parse(&SMOKE.replace("[7, 1234]", "[7]")).expect("valid plan");
        assert_ne!(a.hash(), c.hash());
        // Canonical form round-trips through the parser.
        let canon = Plan::parse(&a.to_json().render()).expect("canonical parses");
        assert_eq!(canon, a);
    }

    #[test]
    fn syntax_errors_carry_offsets() {
        let err = Plan::parse("{\"schema\": 1,\n  oops}").unwrap_err();
        match err {
            PlanError::Syntax(e) => {
                assert_eq!(e.line, 2);
                assert!(e.offset > 0);
            }
            other => panic!("expected syntax error, got {other:?}"),
        }
    }

    #[test]
    fn semantic_errors_are_typed_per_field() {
        let cases: &[(&str, &str)] = &[
            ("{\"name\": \"x\", \"seeds\": [1]}", "schema"),
            ("{\"schema\": 1, \"seeds\": [1]}", "name"),
            ("{\"schema\": 1, \"name\": \"UP\", \"seeds\": [1]}", "name"),
            ("{\"schema\": 1, \"name\": \"x\"}", "seeds"),
            ("{\"schema\": 1, \"name\": \"x\", \"seeds\": []}", "seeds"),
            (
                "{\"schema\": 1, \"name\": \"x\", \"seeds\": [1, 1]}",
                "seeds[1]",
            ),
            (
                "{\"schema\": 1, \"name\": \"x\", \"seeds\": [1], \"faults\": [\"chaotic\"]}",
                "faults[0]",
            ),
            (
                "{\"schema\": 1, \"name\": \"x\", \"seeds\": [1], \"faults\": [\"uniform:1.5\"]}",
                "faults[0]",
            ),
            (
                "{\"schema\": 1, \"name\": \"x\", \"seeds\": [1], \"defenses\": [\"tinfoil\"]}",
                "defenses[0]",
            ),
            (
                "{\"schema\": 1, \"name\": \"x\", \"seeds\": [1], \"jobs\": [0]}",
                "jobs[0]",
            ),
            // An execution-backend axis is rejected, never silently dropped.
            (
                "{\"schema\": 1, \"name\": \"x\", \"seeds\": [1], \"backends\": [\"thread\"]}",
                "backends",
            ),
            (
                "{\"schema\": 1, \"name\": \"x\", \"seeds\": [1], \"repeats\": 0}",
                "repeats",
            ),
            (
                "{\"schema\": 1, \"name\": \"x\", \"seeds\": [1], \"sedes\": [2]}",
                "sedes",
            ),
        ];
        for (src, want_field) in cases {
            match Plan::parse(src).expect_err(src) {
                PlanError::Field { field, .. } => assert_eq!(&field, want_field, "for {src}"),
                PlanError::SchemaMismatch { .. } => assert_eq!(*want_field, "schema", "for {src}"),
                other => panic!("unexpected error {other:?} for {src}"),
            }
        }
    }

    #[test]
    fn uniform_fault_specs_validate_rates() {
        assert_eq!(uniform_fault_rate("uniform:0.25"), Some(0.25));
        assert_eq!(uniform_fault_rate("uniform:0"), Some(0.0));
        assert_eq!(uniform_fault_rate("uniform:1"), Some(1.0));
        assert_eq!(uniform_fault_rate("uniform:1.5"), None);
        assert_eq!(uniform_fault_rate("uniform:nan"), None);
        assert_eq!(uniform_fault_rate("flaky"), None);
        assert!(is_valid_fault("hostile"));
        assert!(!is_valid_fault("chaotic"));
    }

    #[test]
    fn campaign_manifest_is_schema_versioned_and_status_free() {
        let plan = Plan::parse(SMOKE).expect("valid plan");
        let cells: Vec<CellRecord> = plan
            .cells()
            .into_iter()
            .enumerate()
            .map(|(i, coord)| CellRecord {
                coord,
                digest: 0xdead_beef << i,
                degraded: i % 3 == 0,
            })
            .collect();
        let text = campaign_manifest(&plan, &cells).render();
        let decoded = CampaignManifest::from_json(&Json::parse(&text).expect("parses"));
        let manifest = decoded.expect("decodes");
        assert_eq!((&manifest.plan, &manifest.cells), (&plan, &cells));
        assert_eq!(campaign_manifest(&plan, &manifest.cells).render(), text);
        assert!(text.contains("\"key\": \"s7-fnone-dnone-j1-r0\""));
        assert!(text.contains("\"digest\": \"00000000deadbeef\""));
        // No execution status anywhere: the manifest must be identical for
        // a fresh run and a fully-skipped resume.
        assert!(!text.contains("skipped") && !text.contains("executed"));

        // Schema first, then the facts by field, then what they imply.
        let decode = |from: &str, to: &str| {
            let edited = Json::parse(&text.replacen(from, to, 1)).expect("edited parses");
            CampaignManifest::from_json(&edited)
        };
        let older = decode("\"schema\": 1, \"name\"", "\"schema\": 9, \"name\"");
        assert_eq!(older, Err(ManifestError::Schema { found: 9 }));
        for (from, to, field) in [
            ("\"name\": \"smoke\"", "\"name\": \"other\"", "name:"),
            ("\"plan_hash\": \"", "\"plan_hash\": \"0", "plan_hash:"),
            ("\"seeds\": [7, 1234]", "\"seeds\": []", "plan.seeds:"),
            ("\"seed\": 7", "\"seed\": \"7\"", "cells:"),
            ("-j1-r0\"", "-j9-r0\"", "cells:"),
            ("\"00000000deadbeef\"", "\"deadbeef\"", "cells[0].digest:"),
            (
                "\"degraded\": true",
                "\"degraded\": 1",
                "cells[0].degraded:",
            ),
            (
                "\"jobs\": 1, \"repeat\": 0",
                "\"jobs\": 8, \"repeat\": 0",
                "cells:",
            ),
        ] {
            match decode(from, to) {
                Err(ManifestError::Field(detail)) => assert!(detail.starts_with(field), "{detail}"),
                other => panic!("{to}: expected a field error, got {other:?}"),
            }
        }
    }
}
