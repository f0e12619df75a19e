//! Reference digests: the known-good output of every item seed the
//! benchmark is likely to run, written once by `alexa-benchmark bless`.

use crate::workload::{campaign_plan, report_args, Workload, CAMPAIGN_DEFENSES, CAMPAIGN_FAULTS};
use crate::{fnv1a64, read_json, render_json, Paths};
use alexa_obs::Json;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};

/// Item seeds whose report and report-flaky output is blessed. Base seeds
/// up to about 150 stay byte-exact for a whole run.
pub const REPORT_SEEDS: std::ops::Range<u64> = 0..300;
/// Item seeds whose campaign cells are blessed.
pub const CAMPAIGN_SEEDS: std::ops::Range<u64> = 0..64;

/// The digests items are checked against.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Reference {
    /// FNV-1a-64 of `repro --seed s all` stdout, by seed.
    pub report: BTreeMap<u64, u64>,
    /// FNV-1a-64 of `repro --seed s --fault-profile flaky all`, by seed.
    pub report_flaky: BTreeMap<u64, u64>,
    /// `observations_digest` of each campaign cell, by cell identity.
    pub campaign: BTreeMap<String, u64>,
}

impl Reference {
    /// The reference digest of a report item, if blessed.
    pub fn report_digest(&self, workload: Workload, seed: u64) -> Option<u64> {
        match workload {
            Workload::Report => self.report.get(&seed).copied(),
            Workload::ReportFlaky => self.report_flaky.get(&seed).copied(),
            Workload::Campaign => None,
        }
    }

    /// The reference observations digest of a campaign cell, if blessed.
    pub fn cell_digest(&self, id: &str) -> Option<u64> {
        self.campaign.get(id).copied()
    }

    /// Load a reference file.
    pub fn load(path: &Path) -> Result<Reference, String> {
        let doc = read_json(path)?;
        let bad = |what: &str| format!("{}: malformed {what}", path.display());
        let table = |key: &str| -> Result<Vec<(String, u64)>, String> {
            let fields = doc
                .get(key)
                .and_then(Json::as_obj)
                .ok_or_else(|| bad(key))?;
            fields
                .iter()
                .map(|(k, v)| {
                    let hex = v.as_str().ok_or_else(|| bad(key))?;
                    let digest = u64::from_str_radix(hex, 16).map_err(|_| bad(key))?;
                    Ok((k.clone(), digest))
                })
                .collect()
        };
        let by_seed = |key: &str| -> Result<BTreeMap<u64, u64>, String> {
            table(key)?
                .into_iter()
                .map(|(k, d)| Ok((k.parse().map_err(|_| bad(key))?, d)))
                .collect()
        };
        Ok(Reference {
            report: by_seed("report")?,
            report_flaky: by_seed("report-flaky")?,
            campaign: table("campaign")?.into_iter().collect(),
        })
    }

    /// The reference file's JSON document.
    pub fn to_json(&self) -> Json {
        let hex = |d: &u64| Json::Str(format!("{d:016x}"));
        let by_seed = |m: &BTreeMap<u64, u64>| {
            Json::Obj(m.iter().map(|(s, d)| (s.to_string(), hex(d))).collect())
        };
        Json::Obj(vec![
            ("schema".into(), Json::Int(1)),
            ("report".into(), by_seed(&self.report)),
            ("report-flaky".into(), by_seed(&self.report_flaky)),
            (
                "campaign".into(),
                Json::Obj(
                    self.campaign
                        .iter()
                        .map(|(k, d)| (k.clone(), hex(d)))
                        .collect(),
                ),
            ),
        ])
    }
}

/// Run every blessed seed through `repro` and write the reference file.
///
/// Refuses unless the seed-7 report equals the committed golden report,
/// which it reads but never modifies.
pub fn bless(paths: &Paths, repro: &Path) -> Result<Reference, String> {
    let golden_path = paths
        .root
        .join("crates/bench/tests/golden/report_seed7.txt");
    let golden = std::fs::read(&golden_path)
        .map_err(|e| format!("cannot read {}: {e}", golden_path.display()))?;
    let mut reference = Reference::default();
    for workload in [Workload::Report, Workload::ReportFlaky] {
        eprintln!(
            "blessing {} for seeds {REPORT_SEEDS:?} ...",
            workload.name()
        );
        for seed in REPORT_SEEDS {
            let out = Command::new(repro)
                .args(report_args(seed, workload.fault()))
                .stderr(Stdio::null())
                .output()
                .map_err(|e| format!("cannot run repro: {e}"))?;
            match out.status.code() {
                Some(c) if workload.exit_ok(c) => {}
                other => return Err(format!("{} seed {seed}: exit {other:?}", workload.name())),
            }
            let table = match workload {
                Workload::Report => &mut reference.report,
                _ => &mut reference.report_flaky,
            };
            table.insert(seed, fnv1a64(&out.stdout));
        }
    }
    if reference.report.get(&7) != Some(&fnv1a64(&golden)) {
        return Err(format!(
            "seed-7 report differs from {}; refusing to bless",
            golden_path.display()
        ));
    }

    eprintln!("blessing campaign cells for seeds {CAMPAIGN_SEEDS:?} ...");
    let seeds: Vec<u64> = CAMPAIGN_SEEDS.collect();
    let dir = paths.scratch("bless")?;
    let plan = dir.join("plan.json");
    // One instance per identity is enough to bless; the benchmark's own
    // plans add the jobs-2 instance and the campaign byte-compares them.
    let text = campaign_plan("bless", &seeds, CAMPAIGN_FAULTS, CAMPAIGN_DEFENSES, &[1]);
    std::fs::write(&plan, text).map_err(|e| format!("{}: {e}", plan.display()))?;
    let out_dir = dir.join("campaign");
    let status = Command::new(repro)
        .arg("campaign")
        .arg(&plan)
        .arg("--out")
        .arg(&out_dir)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run repro: {e}"))?;
    if !status.success() {
        return Err(format!("bless campaign failed ({status})"));
    }
    let manifest = read_json(&out_dir.join("campaign.json"))?;
    for row in manifest.get("cells").and_then(Json::as_arr).unwrap_or(&[]) {
        let id = row.get("id").and_then(Json::as_str).unwrap_or("");
        let digest = row
            .get("digest")
            .and_then(Json::as_str)
            .and_then(|d| u64::from_str_radix(d, 16).ok())
            .ok_or_else(|| format!("campaign.json: cell {id} has no digest"))?;
        reference.campaign.insert(id.to_string(), digest);
    }
    let expected = seeds.len() * CAMPAIGN_FAULTS.len() * CAMPAIGN_DEFENSES.len();
    if reference.campaign.len() != expected {
        return Err(format!(
            "bless campaign produced {} identities, expected {expected}",
            reference.campaign.len()
        ));
    }
    let _ = std::fs::remove_dir_all(&dir);
    let path = paths.reference();
    std::fs::write(&path, render_json(&reference.to_json()) + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(reference)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::cell_id;

    #[test]
    fn reference_round_trips_through_its_file() {
        let mut r = Reference::default();
        r.report.insert(7, 0x0123_4567_89ab_cdef);
        r.report_flaky.insert(8, 1);
        r.campaign.insert(cell_id(7, "none", "none"), u64::MAX);
        let dir = Paths::detect()
            .scratch("test-reference")
            .expect("scratch dir");
        let path = dir.join("reference.json");
        std::fs::write(&path, render_json(&r.to_json())).expect("write");
        assert_eq!(Reference::load(&path).expect("loads"), r);
        assert_eq!(
            r.report_digest(Workload::Report, 7),
            Some(0x0123_4567_89ab_cdef)
        );
        assert_eq!(r.report_digest(Workload::ReportFlaky, 7), None);
        assert_eq!(r.report_digest(Workload::Campaign, 7), None);
        std::fs::write(&path, r#"{"report": {"x": "zz"}}"#).expect("write");
        assert!(Reference::load(&path).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_committed_reference_covers_the_golden_seed() {
        let r = Reference::load(&Paths::detect().reference()).expect("reference.json loads");
        let golden = include_bytes!("../../crates/bench/tests/golden/report_seed7.txt");
        assert_eq!(r.report.get(&7), Some(&fnv1a64(golden)));
        assert_eq!(r.report.len(), REPORT_SEEDS.count());
        assert_eq!(r.report_flaky.len(), REPORT_SEEDS.count());
        assert_eq!(r.campaign.len(), CAMPAIGN_SEEDS.count() * 4);
    }
}
