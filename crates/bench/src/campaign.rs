//! `repro campaign` — execute a declarative experiment plan into a campaign
//! directory of run-ledger bundles plus derived analysis tables.
//!
//! A campaign directory is fully deterministic and resumable:
//!
//! ```text
//! campaigns/<name>/
//!   campaign.json                  # schema-versioned manifest (written last)
//!   cells/<cell-key>/              # one run-ledger bundle per cell instance
//!   tables/<table>.{jsonl,md}      # analysis tables derived from the cells
//! ```
//!
//! * **Resume.** A cell whose directory holds a complete bundle (all four
//!   files load) with a manifest recording this plan's hash and the cell's
//!   identity is skipped. Re-invoking a finished campaign executes nothing;
//!   a crash mid-campaign resumes at the first incomplete cell, and the
//!   finished directory is byte-identical to a fresh run's (the campaign
//!   manifest and tables record no execution status or timing).
//! * **Determinism as a first-class assertion.** Worker count and repeat
//!   index are instance coordinates, not identity: after all cells
//!   complete, the runner asserts that every instance of one cell identity
//!   produced byte-identical bundles — the check CI used to hand-roll as
//!   shell `diff` loops over `--jobs` values.
//! * **Analysis tables.** Cells are loaded back through the
//!   `alexa-obsdiff` bundle loader and reduced to JSONL + markdown tables
//!   (observation volume by fault variant, coverage by fault variant,
//!   defense efficacy against the undefended baseline).

use alexa_audit::{AuditConfig, AuditRun, DefenseMode};
use alexa_fault::FaultProfile;
use alexa_obs::bundle::{
    check_run_dir, write_bundle, BundleSpec, CampaignCell, RunDirConflict, RunDirState,
    MANIFEST_FILE, MEMORY_FILE, METRICS_FILE, PROFILE_FILE, TRACE_FILE,
};
use alexa_obs::campaign::{
    campaign_manifest, uniform_fault_rate, CellCoord, CellRecord, Plan, PlanError, Scale,
    CAMPAIGN_FILE, CELLS_DIR, TABLES_DIR,
};
use alexa_obs::{install_global, Json, Recorder};
use alexa_obsdiff::{load_bundle, verify_instances, InstanceDivergence, LoadedBundle};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The analysis tables every campaign derives, in render order. Each name
/// yields `tables/<name>.jsonl` and `tables/<name>.md`.
pub const TABLES: &[&str] = &["bids_by_fault", "coverage_by_fault", "defense_efficacy"];

/// Why a campaign could not run to completion.
#[derive(Debug)]
pub enum CampaignError {
    /// The plan file could not be read.
    PlanUnreadable {
        /// The plan path.
        path: PathBuf,
        /// The I/O error text.
        error: String,
    },
    /// The plan file was rejected by the parser (usage error).
    Plan {
        /// The plan path.
        path: PathBuf,
        /// The typed parse failure.
        error: PlanError,
    },
    /// The campaign directory belongs to a different plan (usage error).
    PlanChanged {
        /// The campaign directory.
        dir: PathBuf,
        /// The plan hash its manifest records.
        found: String,
        /// This plan's hash.
        expected: String,
    },
    /// A cell directory holds something that is not this cell's bundle
    /// (usage error — the runner refuses to overwrite foreign data).
    CellConflict(RunDirConflict),
    /// A filesystem operation failed.
    Io {
        /// The path involved.
        path: PathBuf,
        /// The I/O error text.
        error: String,
    },
    /// A completed cell's bundle failed to load back for verification.
    CellUnloadable {
        /// The cell key.
        key: String,
        /// The loader's error text.
        error: String,
    },
    /// Two instances of one cell identity produced different bytes — the
    /// determinism contract is broken.
    DeterminismBreak(InstanceDivergence),
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::PlanUnreadable { path, error } => {
                write!(f, "cannot read plan {}: {error}", path.display())
            }
            CampaignError::Plan { path, error } => {
                write!(f, "{}: {error}", path.display())
            }
            CampaignError::PlanChanged {
                dir,
                found,
                expected,
            } => write!(
                f,
                "{} was produced by a different plan (hash {found}, this plan is {expected}); \
                 use a fresh campaign directory",
                dir.display()
            ),
            CampaignError::CellConflict(conflict) => write!(f, "{conflict}"),
            CampaignError::Io { path, error } => {
                write!(f, "{}: {error}", path.display())
            }
            CampaignError::CellUnloadable { key, error } => {
                write!(f, "cell {key}: bundle does not load back: {error}")
            }
            CampaignError::DeterminismBreak(d) => write!(
                f,
                "cell identity {}: {} differs between instances {} and {} — bundles must be \
                 byte-identical across jobs and repeats",
                d.id, d.file, d.reference, d.divergent
            ),
        }
    }
}

impl std::error::Error for CampaignError {}

impl CampaignError {
    /// The `repro` exit code this failure maps to: 2 for usage-shaped
    /// errors (bad plan, foreign directory), 1 for everything else.
    pub fn exit_code(&self) -> i32 {
        match self {
            CampaignError::PlanUnreadable { .. }
            | CampaignError::Plan { .. }
            | CampaignError::PlanChanged { .. }
            | CampaignError::CellConflict(_) => 2,
            _ => 1,
        }
    }
}

/// How one cell instance was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellStatus {
    /// The cell was executed this invocation.
    Executed,
    /// The cell's bundle was already complete and was skipped.
    Skipped,
}

/// What one [`run_campaign`] invocation did.
#[derive(Debug)]
pub struct CampaignSummary {
    /// The campaign directory.
    pub dir: PathBuf,
    /// Plan name.
    pub name: String,
    /// Per-instance status, in plan cell order:
    /// `(key, status, degraded, peak_rss_kb)`. The peak RSS is the OS
    /// high-water mark sampled while the cell executed — volatile by
    /// nature, so it lives only here (the status report), never in the
    /// cell's bundle; `None` for skipped cells.
    pub cells: Vec<(String, CellStatus, bool, Option<u64>)>,
}

impl CampaignSummary {
    /// Number of cells executed this invocation.
    pub fn executed(&self) -> usize {
        self.cells
            .iter()
            .filter(|(_, s, _, _)| *s == CellStatus::Executed)
            .count()
    }

    /// Number of cells skipped as already complete.
    pub fn skipped(&self) -> usize {
        self.cells.len() - self.executed()
    }

    /// Number of degraded cells (fault losses survived the retry budget).
    pub fn degraded(&self) -> usize {
        self.cells.iter().filter(|(_, _, d, _)| *d).count()
    }

    /// The per-cell status lines plus the closing summary line, as printed
    /// on `repro campaign` stdout. Status and keys are deterministic — no
    /// timing, no paths beyond the campaign-relative cell keys; the peak-RSS
    /// column is the one volatile figure (it reports what this machine
    /// actually did, and a status report is exactly where volatile data
    /// belongs — never in the cells' committed bundles).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (key, status, degraded, peak_rss_kb) in &self.cells {
            let _ = writeln!(
                out,
                "cell {key}: {}{}{}",
                match status {
                    CellStatus::Executed => "executed",
                    CellStatus::Skipped => "skipped",
                },
                if *degraded { " (degraded)" } else { "" },
                peak_rss_kb.map_or(String::new(), |kb| format!(" [peak rss {kb} kB]"))
            );
        }
        let _ = writeln!(
            out,
            "campaign {}: {} cell(s) — {} executed, {} skipped, {} degraded",
            self.name,
            self.cells.len(),
            self.executed(),
            self.skipped(),
            self.degraded()
        );
        out
    }
}

/// The fault profile a plan fault variant names.
///
/// Presets resolve through `FaultProfile::from_str`; `uniform:R` through
/// `FaultProfile::uniform`. The plan parser already validated the spec, so
/// a `None` here means the plan schema's pinned catalog drifted from the
/// fault crate (pinned by a sync test below).
pub fn resolve_fault(spec: &str) -> Option<FaultProfile> {
    if let Some(rate) = uniform_fault_rate(spec) {
        return Some(FaultProfile::uniform(rate));
    }
    spec.parse().ok()
}

/// The defense mode a plan defense variant names.
pub fn resolve_defense(spec: &str) -> Option<DefenseMode> {
    match spec {
        "none" => Some(DefenseMode::None),
        "firewall" => Some(DefenseMode::Firewall),
        "text-only" => Some(DefenseMode::TextOnly),
        _ => None,
    }
}

/// The default campaign directory for a plan: `campaigns/<name>` under the
/// current working directory.
pub fn default_campaign_dir(plan: &Plan) -> PathBuf {
    PathBuf::from("campaigns").join(&plan.name)
}

fn io_err(path: &Path, error: std::io::Error) -> CampaignError {
    CampaignError::Io {
        path: path.to_path_buf(),
        error: error.to_string(),
    }
}

/// The bundle-manifest identity spec of one cell. The digest is filled in
/// after execution; identity matching ignores it.
fn cell_spec(plan_hash: &str, coord: &CellCoord, fault: &FaultProfile, digest: u64) -> BundleSpec {
    BundleSpec {
        seed: coord.seed,
        fault_profile: fault.name().to_string(),
        defense: (coord.defense != "none").then(|| coord.defense.clone()),
        campaign: Some(CampaignCell {
            plan_hash: plan_hash.to_string(),
            cell: coord.id(),
        }),
        observations_digest: digest,
        coverage: None,
    }
}

/// Whether `dir` already holds this cell's complete bundle.
///
/// Complete means the whole bundle loads (`load_bundle`) *and* the manifest
/// records this plan's hash and this cell's identity. A partial bundle —
/// what a crash leaves behind, recognizable because the manifest is written
/// last and only bundle-named files are present — is re-executed; any other
/// non-empty directory is a conflict the runner refuses to overwrite.
fn cell_is_complete(dir: &Path, spec: &BundleSpec) -> Result<bool, CampaignError> {
    match check_run_dir(dir, spec) {
        Ok(RunDirState::Fresh) => Ok(false),
        Ok(RunDirState::Matching) => Ok(load_bundle(dir).is_ok()),
        Err(RunDirConflict::NotABundle { dir, detail }) => {
            if bundle_files_only(&dir) {
                Ok(false)
            } else {
                Err(CampaignError::CellConflict(RunDirConflict::NotABundle {
                    dir,
                    detail,
                }))
            }
        }
        Err(conflict) => Err(CampaignError::CellConflict(conflict)),
    }
}

/// Whether every entry of `dir` is one of the five bundle file names.
fn bundle_files_only(dir: &Path) -> bool {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return false;
    };
    entries.flatten().all(|e| {
        e.file_name().to_str().is_some_and(|n| {
            [
                MANIFEST_FILE,
                METRICS_FILE,
                MEMORY_FILE,
                PROFILE_FILE,
                TRACE_FILE,
            ]
            .contains(&n)
        })
    })
}

/// Execute `plan_path` into `out_dir` (default [`default_campaign_dir`]),
/// resuming over any cells already complete there.
///
/// Campaign-level stages are recorded on `rec`; every executed cell gets
/// its own fresh recorder (installed globally for the duration of the
/// cell) so its bundle is untouched by campaign context or sibling cells.
pub fn run_campaign(
    plan_path: &Path,
    out_dir: Option<&Path>,
    rec: &Recorder,
) -> Result<CampaignSummary, CampaignError> {
    let plan = rec.stage("campaign.plan", || -> Result<Plan, CampaignError> {
        let src =
            std::fs::read_to_string(plan_path).map_err(|e| CampaignError::PlanUnreadable {
                path: plan_path.to_path_buf(),
                error: e.to_string(),
            })?;
        Plan::parse(&src).map_err(|error| CampaignError::Plan {
            path: plan_path.to_path_buf(),
            error,
        })
    })?;
    let plan_hash = plan.hash();
    let dir = out_dir.map_or_else(|| default_campaign_dir(&plan), Path::to_path_buf);

    // A campaign directory is bound to one plan: a previous invocation's
    // manifest must record the same hash, else every cell under it belongs
    // to a different experiment and resuming would mix matrices.
    let manifest_path = dir.join(CAMPAIGN_FILE);
    if let Ok(text) = std::fs::read_to_string(&manifest_path) {
        let found = Json::parse(text.trim_end())
            .ok()
            .and_then(|m| {
                m.get("plan_hash")
                    .and_then(Json::as_str)
                    .map(str::to_string)
            })
            .unwrap_or_else(|| "unreadable".to_string());
        if found != plan_hash {
            return Err(CampaignError::PlanChanged {
                dir,
                found,
                expected: plan_hash,
            });
        }
    }

    // Execute (or skip) every cell instance, in plan order.
    let coords = plan.cells();
    let statuses = rec.stage("campaign.cells", || {
        execute_cells(&plan, &plan_hash, &coords, &dir, plan_path, rec)
    })?;

    // Load every cell back through the obsdiff loader: executed and skipped
    // cells take the same path, so nothing derived below can depend on
    // which invocation produced a bundle.
    let mut loaded: Vec<(CellCoord, LoadedBundle)> = Vec::with_capacity(coords.len());
    for coord in &coords {
        let cell_dir = dir.join(CELLS_DIR).join(coord.key());
        let bundle = load_bundle(&cell_dir).map_err(|e| CampaignError::CellUnloadable {
            key: coord.key(),
            error: e.to_string(),
        })?;
        loaded.push((coord.clone(), bundle));
    }

    // Byte-equality across instances of one identity (jobs × repeats).
    rec.stage("campaign.verify", || {
        let cells: Vec<(String, String)> = coords.iter().map(|c| (c.id(), c.key())).collect();
        match verify_instances(&dir.join(CELLS_DIR), &cells)
            .into_iter()
            .next()
        {
            Some(divergence) => Err(CampaignError::DeterminismBreak(divergence)),
            None => Ok(()),
        }
    })?;

    // Analysis tables, derived from one representative bundle per identity.
    rec.stage("campaign.tables", || -> Result<(), CampaignError> {
        let tables_dir = dir.join(TABLES_DIR);
        std::fs::create_dir_all(&tables_dir).map_err(|e| io_err(&tables_dir, e))?;
        for (name, jsonl, md) in derive_tables(&plan, &loaded) {
            let jsonl_path = tables_dir.join(format!("{name}.jsonl"));
            std::fs::write(&jsonl_path, jsonl).map_err(|e| io_err(&jsonl_path, e))?;
            let md_path = tables_dir.join(format!("{name}.md"));
            std::fs::write(&md_path, md).map_err(|e| io_err(&md_path, e))?;
        }
        Ok(())
    })?;

    // The campaign manifest is written last — its presence marks the
    // campaign complete — and is a pure function of plan + cell results.
    let records: Vec<CellRecord> = coords
        .iter()
        .zip(&loaded)
        .map(|(coord, (_, bundle))| CellRecord {
            coord: coord.clone(),
            digest: bundle.observations_digest().unwrap_or("").to_string(),
            degraded: bundle_degraded(bundle),
        })
        .collect();
    let mut manifest = campaign_manifest(&plan, &records).render();
    manifest.push('\n');
    std::fs::write(&manifest_path, manifest).map_err(|e| io_err(&manifest_path, e))?;

    let cells = coords
        .iter()
        .zip(&statuses)
        .zip(&records)
        .map(|((coord, (status, rss)), record)| (coord.key(), *status, record.degraded, *rss))
        .collect();
    Ok(CampaignSummary {
        dir,
        name: plan.name.clone(),
        cells,
    })
}

/// [`run_campaign`] under the four-argument signature the benchmark
/// harness (`benchmark/src/trace.rs`) calls; the trailing argument is
/// ignored.
pub fn run_campaign_with(
    plan_path: &Path,
    out_dir: Option<&Path>,
    rec: &Recorder,
    _unused: &[String],
) -> Result<CampaignSummary, CampaignError> {
    run_campaign(plan_path, out_dir, rec)
}

/// Execute or skip every cell of the matrix, in plan order. Each entry
/// pairs the status with the cell's OS peak RSS in kB (executed cells only).
fn execute_cells(
    plan: &Plan,
    plan_hash: &str,
    coords: &[CellCoord],
    dir: &Path,
    plan_path: &Path,
    rec: &Recorder,
) -> Result<Vec<(CellStatus, Option<u64>)>, CampaignError> {
    let mut statuses = Vec::with_capacity(coords.len());
    for (i, coord) in coords.iter().enumerate() {
        let key = coord.key();
        // The plan parser validated every variant; a failed resolution here
        // means the schema's pinned catalog drifted from the crates.
        let (Some(fault), Some(defense)) =
            (resolve_fault(&coord.fault), resolve_defense(&coord.defense))
        else {
            return Err(CampaignError::Plan {
                path: plan_path.to_path_buf(),
                error: PlanError::Field {
                    field: "faults/defenses".into(),
                    problem: format!("variant of cell {key} resolves to no known profile"),
                },
            });
        };
        let cell_dir = dir.join(CELLS_DIR).join(&key);
        let spec = cell_spec(plan_hash, coord, &fault, 0);
        let mut log = rec.shard("cell", i, &key);
        if cell_is_complete(&cell_dir, &spec)? {
            log.add("cell.skipped", 1);
            rec.submit(log);
            statuses.push((CellStatus::Skipped, None));
            continue;
        }
        // One fresh recorder per cell, installed globally for the cell's
        // duration so leaf libraries feed it: the bundle must be a pure
        // function of the cell's coordinates, not of campaign context.
        let cell_rec = Arc::new(Recorder::new());
        install_global(cell_rec.clone());
        let config = match plan.scale {
            Scale::Paper => AuditConfig::paper(coord.seed),
            Scale::Small => AuditConfig::small(coord.seed),
        }
        .with_faults(fault.clone())
        .with_defense(defense)
        .with_jobs(Some(coord.jobs));
        let obs = AuditRun::execute_with(config, &cell_rec);
        let mut spec = cell_spec(plan_hash, coord, &fault, obs.digest());
        spec.coverage = Some(obs.coverage.to_json());
        let report = cell_rec.report();
        write_bundle(&cell_dir, &spec, &report).map_err(|e| io_err(&cell_dir, e))?;
        // Surface the cell's OS peak RSS on the campaign's volatile channel
        // and in the summary — volatile data never enters the bundle.
        let peak_rss_kb = report.volatile.get("mem.peak_rss_kb").copied();
        if let Some(kb) = peak_rss_kb {
            rec.volatile_max("mem.peak_rss_kb", kb);
        }
        log.work(1);
        log.add("cell.executed", 1);
        rec.submit(log);
        statuses.push((CellStatus::Executed, peak_rss_kb));
    }
    Ok(statuses)
}

/// Whether a loaded bundle records a degraded run: fault losses survived
/// the retry budget or a shard's breaker opened.
fn bundle_degraded(bundle: &LoadedBundle) -> bool {
    let Some(cov) = bundle.coverage() else {
        return false;
    };
    let losses = cov.get("losses").and_then(Json::as_u64).unwrap_or(0);
    let degraded_shards = cov
        .get("degraded_shards")
        .and_then(Json::as_arr)
        .map_or(0, <[Json]>::len);
    losses > 0 || degraded_shards > 0
}

// ---------------------------------------------------------------------------
// Analysis tables
// ---------------------------------------------------------------------------

/// A metrics counter total of a loaded bundle (0 when absent).
fn counter(bundle: &LoadedBundle, name: &str) -> u64 {
    bundle
        .metrics
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

/// Percentage `part / whole`, `None` for an empty denominator.
fn pct(part: u64, whole: u64) -> Option<f64> {
    (whole > 0).then(|| part as f64 * 100.0 / whole as f64)
}

fn pct_json(v: Option<f64>) -> Json {
    v.map_or(Json::Null, Json::Float)
}

fn pct_md(v: Option<f64>) -> String {
    v.map_or_else(|| "—".to_string(), |p| format!("{p:.1}"))
}

/// One representative bundle per cell identity, in plan order.
///
/// Instances of one identity are byte-identical (asserted by
/// [`verify_instances`] before tables are derived), so the first instance
/// speaks for all of them and the tables are independent of the plan's
/// `jobs` and `repeats` axes.
fn representatives(loaded: &[(CellCoord, LoadedBundle)]) -> Vec<(&CellCoord, &LoadedBundle)> {
    let mut seen: Vec<String> = Vec::new();
    let mut out = Vec::new();
    for (coord, bundle) in loaded {
        let id = coord.id();
        if !seen.contains(&id) {
            seen.push(id);
            out.push((coord, bundle));
        }
    }
    out
}

/// Derive every table: `(name, jsonl body, markdown body)` in [`TABLES`]
/// order. Pure function of the loaded bundles — no clocks, no paths.
fn derive_tables(
    plan: &Plan,
    loaded: &[(CellCoord, LoadedBundle)],
) -> Vec<(&'static str, String, String)> {
    let reps = representatives(loaded);
    vec![
        ("bids_by_fault", bids_jsonl(&reps), bids_md(&reps)),
        (
            "coverage_by_fault",
            coverage_jsonl(&reps),
            coverage_md(&reps),
        ),
        (
            "defense_efficacy",
            defense_jsonl(plan, &reps),
            defense_md(plan, &reps),
        ),
    ]
}

/// The fault-free identity at `(seed, defense)`, if the plan includes one.
fn baseline_for<'a>(
    reps: &[(&CellCoord, &'a LoadedBundle)],
    seed: u64,
    defense: &str,
) -> Option<&'a LoadedBundle> {
    reps.iter()
        .find(|(c, _)| c.seed == seed && c.fault == "none" && c.defense == defense)
        .map(|(_, b)| *b)
}

/// The undefended identity at `(seed, fault)`, if the plan includes one.
fn undefended_for<'a>(
    reps: &[(&CellCoord, &'a LoadedBundle)],
    seed: u64,
    fault: &str,
) -> Option<&'a LoadedBundle> {
    reps.iter()
        .find(|(c, _)| c.seed == seed && c.fault == fault && c.defense == "none")
        .map(|(_, b)| *b)
}

/// Rows of the `bids_by_fault` table: observation volume per identity, with
/// bid retention relative to the same `(seed, defense)`'s fault-free cell.
fn bids_rows(reps: &[(&CellCoord, &LoadedBundle)]) -> Vec<(CellCoord, [u64; 5], Option<f64>)> {
    reps.iter()
        .map(|(coord, bundle)| {
            let counts = [
                counter(bundle, "crawl.visits"),
                counter(bundle, "crawl.bids"),
                counter(bundle, "crawl.creatives"),
                counter(bundle, "crawl.syncs"),
                counter(bundle, "tap.flows"),
            ];
            let retention = baseline_for(reps, coord.seed, &coord.defense)
                .and_then(|base| pct(counts[1], counter(base, "crawl.bids")));
            ((*coord).clone(), counts, retention)
        })
        .collect()
}

fn bids_jsonl(reps: &[(&CellCoord, &LoadedBundle)]) -> String {
    let mut out = String::new();
    for (coord, counts, retention) in bids_rows(reps) {
        let row = Json::Obj(vec![
            ("fault".into(), Json::Str(coord.fault.clone())),
            ("seed".into(), Json::Int(coord.seed)),
            ("defense".into(), Json::Str(coord.defense.clone())),
            ("visits".into(), Json::Int(counts[0])),
            ("bids".into(), Json::Int(counts[1])),
            ("creatives".into(), Json::Int(counts[2])),
            ("syncs".into(), Json::Int(counts[3])),
            ("flows".into(), Json::Int(counts[4])),
            ("bid_retention_pct".into(), pct_json(retention)),
        ]);
        out.push_str(&row.render());
        out.push('\n');
    }
    out
}

fn bids_md(reps: &[(&CellCoord, &LoadedBundle)]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from(
        "# Observation volume by fault variant\n\n\
         Bid retention compares each cell's captured bids against the same\n\
         seed's fault-free cell at the same defense (100% = nothing lost).\n\n\
         | fault | seed | defense | visits | bids | creatives | syncs | flows | bid retention % |\n\
         |---|---|---|---|---|---|---|---|---|\n",
    );
    for (coord, counts, retention) in bids_rows(reps) {
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} | {} | {} | {} | {} | {} |",
            coord.fault,
            coord.seed,
            coord.defense,
            counts[0],
            counts[1],
            counts[2],
            counts[3],
            counts[4],
            pct_md(retention)
        );
    }
    out
}

/// One row of the `coverage_by_fault` table.
struct CoverageRow {
    coord: CellCoord,
    section: String,
    observed: u64,
    expected: u64,
    injected: u64,
    retries: u64,
    losses: u64,
    degraded: bool,
}

/// Rows of the `coverage_by_fault` table: one row per (identity, coverage
/// section) plus an `overall` row per identity. Injected/retries/losses
/// are per cell, repeated on every row for self-contained JSONL lines.
fn coverage_rows(reps: &[(&CellCoord, &LoadedBundle)]) -> Vec<CoverageRow> {
    let mut rows = Vec::new();
    for (coord, bundle) in reps {
        let Some(cov) = bundle.coverage() else {
            continue;
        };
        let injected = cov
            .get("injected")
            .and_then(Json::as_obj)
            .map_or(0, |channels| {
                channels.iter().filter_map(|(_, v)| v.as_u64()).sum::<u64>()
            });
        let retries = cov.get("retries").and_then(Json::as_u64).unwrap_or(0);
        let losses = cov.get("losses").and_then(Json::as_u64).unwrap_or(0);
        let degraded = bundle_degraded(bundle);
        let sections = cov
            .get("sections")
            .and_then(Json::as_obj)
            .unwrap_or_default();
        let (mut total_obs, mut total_exp) = (0, 0);
        for (name, section) in sections {
            let observed = section.get("observed").and_then(Json::as_u64).unwrap_or(0);
            let expected = section.get("expected").and_then(Json::as_u64).unwrap_or(0);
            total_obs += observed;
            total_exp += expected;
            rows.push(CoverageRow {
                coord: (*coord).clone(),
                section: name.clone(),
                observed,
                expected,
                injected,
                retries,
                losses,
                degraded,
            });
        }
        rows.push(CoverageRow {
            coord: (*coord).clone(),
            section: "overall".to_string(),
            observed: total_obs,
            expected: total_exp,
            injected,
            retries,
            losses,
            degraded,
        });
    }
    rows
}

fn coverage_jsonl(reps: &[(&CellCoord, &LoadedBundle)]) -> String {
    let mut out = String::new();
    for row in coverage_rows(reps) {
        let doc = Json::Obj(vec![
            ("fault".into(), Json::Str(row.coord.fault.clone())),
            ("seed".into(), Json::Int(row.coord.seed)),
            ("defense".into(), Json::Str(row.coord.defense.clone())),
            ("section".into(), Json::Str(row.section)),
            ("observed".into(), Json::Int(row.observed)),
            ("expected".into(), Json::Int(row.expected)),
            (
                "coverage_pct".into(),
                pct_json(pct(row.observed, row.expected)),
            ),
            ("injected".into(), Json::Int(row.injected)),
            ("retries".into(), Json::Int(row.retries)),
            ("losses".into(), Json::Int(row.losses)),
            ("degraded".into(), Json::Bool(row.degraded)),
        ]);
        out.push_str(&doc.render());
        out.push('\n');
    }
    out
}

fn coverage_md(reps: &[(&CellCoord, &LoadedBundle)]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from(
        "# Coverage by fault variant\n\n\
         Observed vs expected observations per pipeline section; `overall`\n\
         sums the sections. Injected, retries and losses are per cell, not\n\
         per section.\n\n\
         | fault | seed | defense | section | observed | expected | coverage % | injected | retries | losses | degraded |\n\
         |---|---|---|---|---|---|---|---|---|---|---|\n",
    );
    for row in coverage_rows(reps) {
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} |",
            row.coord.fault,
            row.coord.seed,
            row.coord.defense,
            row.section,
            row.observed,
            row.expected,
            pct_md(pct(row.observed, row.expected)),
            row.injected,
            row.retries,
            row.losses,
            row.degraded
        );
    }
    out
}

/// Rows of the `defense_efficacy` table: per defended identity, the
/// reduction in tracking-relevant observation volume against the
/// undefended cell at the same `(seed, fault)`.
fn defense_rows(
    plan: &Plan,
    reps: &[(&CellCoord, &LoadedBundle)],
) -> Vec<(CellCoord, [u64; 3], [Option<f64>; 3])> {
    if plan.defenses.iter().all(|d| d == "none") {
        return Vec::new();
    }
    reps.iter()
        .filter(|(c, _)| c.defense != "none")
        .map(|(coord, bundle)| {
            let names = ["tap.flows", "tap.bytes", "crawl.bids"];
            let counts = [
                counter(bundle, names[0]),
                counter(bundle, names[1]),
                counter(bundle, names[2]),
            ];
            let mut reductions = [None; 3];
            if let Some(base) = undefended_for(reps, coord.seed, &coord.fault) {
                for (i, name) in names.iter().enumerate() {
                    let baseline = counter(base, name);
                    reductions[i] = pct(baseline.saturating_sub(counts[i]), baseline);
                }
            }
            ((*coord).clone(), counts, reductions)
        })
        .collect()
}

fn defense_jsonl(plan: &Plan, reps: &[(&CellCoord, &LoadedBundle)]) -> String {
    let mut out = String::new();
    for (coord, counts, reductions) in defense_rows(plan, reps) {
        let row = Json::Obj(vec![
            ("defense".into(), Json::Str(coord.defense.clone())),
            ("seed".into(), Json::Int(coord.seed)),
            ("fault".into(), Json::Str(coord.fault.clone())),
            ("flows".into(), Json::Int(counts[0])),
            ("bytes".into(), Json::Int(counts[1])),
            ("bids".into(), Json::Int(counts[2])),
            ("flow_reduction_pct".into(), pct_json(reductions[0])),
            ("byte_reduction_pct".into(), pct_json(reductions[1])),
            ("bid_reduction_pct".into(), pct_json(reductions[2])),
        ]);
        out.push_str(&row.render());
        out.push('\n');
    }
    out
}

fn defense_md(plan: &Plan, reps: &[(&CellCoord, &LoadedBundle)]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from(
        "# Defense efficacy\n\n\
         Reduction of tracking-relevant observation volume per defended\n\
         cell, relative to the undefended cell at the same (seed, fault).\n\n\
         | defense | seed | fault | flows | bytes | bids | flow reduction % | byte reduction % | bid reduction % |\n\
         |---|---|---|---|---|---|---|---|---|\n",
    );
    for (coord, counts, reductions) in defense_rows(plan, reps) {
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} | {} | {} | {} | {} | {} |",
            coord.defense,
            coord.seed,
            coord.fault,
            counts[0],
            counts[1],
            counts[2],
            pct_md(reductions[0]),
            pct_md(reductions[1]),
            pct_md(reductions[2])
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use alexa_obs::campaign::{DEFENSE_MODES, FAULT_PRESETS};

    #[test]
    fn plan_fault_catalog_matches_fault_crate() {
        // The plan schema pins the preset names (obs sits below the fault
        // crate); every pinned name must resolve, and the uniform spec must
        // produce the uniform profile.
        for preset in FAULT_PRESETS {
            let profile = resolve_fault(preset).expect("preset resolves");
            assert_eq!(profile.name(), *preset);
        }
        let uniform = resolve_fault("uniform:0.25").expect("uniform resolves");
        assert_eq!(uniform.name(), "uniform(0.25)");
        assert!(resolve_fault("chaotic").is_none());
    }

    #[test]
    fn plan_defense_catalog_matches_audit_crate() {
        for mode in DEFENSE_MODES {
            assert!(resolve_defense(mode).is_some(), "{mode} must resolve");
        }
        assert_eq!(resolve_defense("none"), Some(DefenseMode::None));
        assert_eq!(resolve_defense("firewall"), Some(DefenseMode::Firewall));
        assert_eq!(resolve_defense("text-only"), Some(DefenseMode::TextOnly));
        assert!(resolve_defense("tinfoil").is_none());
    }

    #[test]
    fn percentage_helpers_handle_empty_denominators() {
        assert_eq!(pct(1, 0), None);
        assert_eq!(pct(1, 2), Some(50.0));
        assert_eq!(pct_md(None), "—");
        assert_eq!(pct_md(Some(33.333)), "33.3");
        assert_eq!(pct_json(None), Json::Null);
    }

    #[test]
    fn campaign_errors_map_to_exit_codes() {
        let usage = CampaignError::Plan {
            path: PathBuf::from("p.json"),
            error: PlanError::SchemaMismatch { found: 9 },
        };
        assert_eq!(usage.exit_code(), 2);
        let violation = CampaignError::DeterminismBreak(InstanceDivergence {
            id: "s7-fnone-dnone".into(),
            file: METRICS_FILE,
            reference: "s7-fnone-dnone-j1-r0".into(),
            divergent: "s7-fnone-dnone-j4-r0".into(),
        });
        assert_eq!(violation.exit_code(), 1);
        assert!(violation.to_string().contains("byte-identical"));
    }

    #[test]
    fn one_byte_instance_drift_fails_runner_and_checker_alike() {
        // Two complete instances of one identity (jobs 1 and 2), written
        // from an empty recorder so nothing executes, plus the campaign
        // manifest `obs-diff campaign` reads.
        let dir = std::env::temp_dir().join(format!("bench-verify-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let plan_path = dir.join("plan.json");
        let src =
            r#"{"schema": 1, "name": "verify", "scale": "small", "seeds": [7], "jobs": [1, 2]}"#;
        std::fs::write(&plan_path, src).expect("write plan");
        let plan = Plan::parse(src).expect("valid plan");
        let coords = plan.cells();
        let mut records = Vec::new();
        for coord in &coords {
            let cell_dir = dir.join(CELLS_DIR).join(coord.key());
            let spec = cell_spec(&plan.hash(), coord, &FaultProfile::none(), 0);
            write_bundle(&cell_dir, &spec, &Recorder::new().report()).expect("write bundle");
            let bundle = load_bundle(&cell_dir).expect("bundle loads");
            records.push(CellRecord {
                coord: coord.clone(),
                digest: bundle.observations_digest().unwrap_or("").to_string(),
                degraded: false,
            });
        }
        let manifest = campaign_manifest(&plan, &records).render() + "\n";
        std::fs::write(dir.join(CAMPAIGN_FILE), manifest).expect("write manifest");
        assert!(alexa_obsdiff::check_campaign(&dir).expect("checks").clean());

        // One byte of the second instance's memory.json: a space becomes a
        // newline, so the document still loads and means the same thing.
        let (reference, divergent) = (coords[0].key(), coords[1].key());
        let memory = dir.join(CELLS_DIR).join(&divergent).join(MEMORY_FILE);
        let mut bytes = std::fs::read(&memory).expect("read memory.json");
        let space = bytes.iter().position(|&b| b == b' ').expect("a space");
        bytes[space] = b'\n';
        std::fs::write(&memory, bytes).expect("write memory.json");

        let expected = InstanceDivergence {
            id: coords[0].id(),
            file: MEMORY_FILE,
            reference: reference.clone(),
            divergent: divergent.clone(),
        };
        match run_campaign(&plan_path, Some(&dir), &Recorder::disabled()) {
            Err(CampaignError::DeterminismBreak(d)) => assert_eq!(d, expected),
            other => panic!("expected a determinism break, got {other:?}"),
        }
        let check = alexa_obsdiff::check_campaign(&dir).expect("checks");
        assert_eq!(check.findings.len(), 1, "{:?}", check.findings);
        for part in [MEMORY_FILE, &reference, &divergent] {
            assert!(check.findings[0].contains(part), "{}", check.findings[0]);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
