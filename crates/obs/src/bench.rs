//! The bench entry: one line of `BENCH_audit.json`, its encoder and its
//! decoder side by side.
//!
//! `repro --bench` times a paper-scale run and appends one entry per run:
//! the run's identity (seed, jobs, fault profile, hardware threads), its
//! wall-clock timings, the bytes its artifacts rendered to, the process's
//! peak RSS, and for each top-level pipeline stage its wall time, work
//! units and allocated bytes, in pipeline order. `obs-diff gate` reads the file back through
//! [`BenchEntry::from_json`] only.
//!
//! The committed history is part of the format, stated once here:
//!
//! * an entry without `fault_profile` predates the field and was
//!   fault-free, so it decodes as `"none"`;
//! * an entry without `stage_alloc` predates the allocation meter and has
//!   no allocation baseline;
//! * an entry without `peak_rss_kb` predates the field and has no peak RSS
//!   baseline;
//! * keys no encoder writes any more (`work_per_ms`) are ignored;
//! * every other field is required, since every entry has it.
//!
//! An entry of the current shape re-encodes byte for byte.

use crate::json::Json;
use crate::ledger::{count, field, pairs, text, Fail};
use crate::report::{Report, StageRec};

/// Per-stage values in pipeline order.
pub type StageValues = Vec<(String, u64)>;

/// One `repro --bench` run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchEntry {
    /// The run's seed.
    pub seed: u64,
    /// The `--jobs` cap, `None` when the run used the default.
    pub jobs: Option<u64>,
    /// The fault profile's name (`none`, `flaky`, …).
    pub fault_profile: String,
    /// The machine's hardware threads: wall times compare only within one.
    pub hardware_threads: u64,
    /// Wall time of the execution, in milliseconds.
    pub execute_ms: u64,
    /// Wall time of the render pass over every artifact, in milliseconds.
    pub render_all_ms: u64,
    /// `execute_ms + render_all_ms`.
    pub total_ms: u64,
    /// Bytes of every rendered artifact: equal runs render equal bytes.
    pub rendered_bytes: u64,
    /// The process's peak RSS (`VmHWM`) after the run, in kB; `None` for an
    /// entry from before the field.
    pub peak_rss_kb: Option<u64>,
    /// Wall time per top-level stage, in milliseconds.
    pub stages: StageValues,
    /// Deterministic work units per top-level stage.
    pub stage_work: StageValues,
    /// Deterministic allocated bytes per top-level stage; `None` for an
    /// entry from before the allocation meter.
    pub stage_alloc: Option<StageValues>,
}

impl BenchEntry {
    /// The entry of a run whose recorder produced `report`, timed at
    /// `[execute_ms, render_all_ms]`: the stage columns are `report`'s
    /// top-level stages. The peak RSS is left for the caller to read.
    pub fn new(
        report: &Report,
        seed: u64,
        jobs: Option<usize>,
        fault_profile: &str,
        hardware_threads: usize,
        [execute_ms, render_all_ms]: [u64; 2],
        rendered_bytes: usize,
    ) -> BenchEntry {
        let column = |value: fn(&StageRec) -> u64| {
            let top = report.stages.iter().filter(|s| s.depth == 0);
            top.map(|s| (s.name.clone(), value(s))).collect()
        };
        BenchEntry {
            seed,
            jobs: jobs.map(|n| n as u64),
            fault_profile: fault_profile.to_string(),
            hardware_threads: hardware_threads as u64,
            execute_ms,
            render_all_ms,
            total_ms: execute_ms + render_all_ms,
            rendered_bytes: rendered_bytes as u64,
            peak_rss_kb: None,
            stages: column(|s| s.dur_us / 1000),
            stage_work: column(|s| s.work),
            stage_alloc: Some(column(|s| s.alloc_bytes)),
        }
    }

    /// The entry as its `BENCH_audit.json` line (without the newline).
    pub fn to_json(&self) -> Json {
        let column = |values: &StageValues| {
            let values = values.iter().map(|(name, v)| (name.clone(), Json::Int(*v)));
            Json::Obj(values.collect())
        };
        let mut fields = vec![
            ("seed".into(), Json::Int(self.seed)),
            ("jobs".into(), self.jobs.map_or(Json::Null, Json::Int)),
            (
                "fault_profile".into(),
                Json::Str(self.fault_profile.clone()),
            ),
            ("hardware_threads".into(), Json::Int(self.hardware_threads)),
            ("execute_ms".into(), Json::Int(self.execute_ms)),
            ("render_all_ms".into(), Json::Int(self.render_all_ms)),
            ("total_ms".into(), Json::Int(self.total_ms)),
            ("rendered_bytes".into(), Json::Int(self.rendered_bytes)),
        ];
        if let Some(kb) = self.peak_rss_kb {
            fields.push(("peak_rss_kb".into(), Json::Int(kb)));
        }
        fields.push(("stages".into(), column(&self.stages)));
        fields.push(("stage_work".into(), column(&self.stage_work)));
        if let Some(alloc) = &self.stage_alloc {
            fields.push(("stage_alloc".into(), column(alloc)));
        }
        Json::Obj(fields)
    }

    /// Decode one line of `BENCH_audit.json` (see the module docs for the
    /// fields older entries lack). An error names the field.
    pub fn from_json(json: &Json) -> Result<BenchEntry, Fail> {
        let column = |key| {
            pairs(json, key, |v| {
                v.as_u64().ok_or_else(|| ": not a count".into())
            })
        };
        let present = |key| json.get(key).is_some();
        Ok(BenchEntry {
            seed: count(json, "seed")?,
            jobs: field(json, "jobs", |v| match v {
                Json::Null => Some(None),
                v => v.as_u64().map(Some),
            })?,
            fault_profile: match present("fault_profile") {
                true => text(json, "fault_profile")?,
                false => "none".to_string(),
            },
            hardware_threads: count(json, "hardware_threads")?,
            execute_ms: count(json, "execute_ms")?,
            render_all_ms: count(json, "render_all_ms")?,
            total_ms: count(json, "total_ms")?,
            rendered_bytes: count(json, "rendered_bytes")?,
            peak_rss_kb: match present("peak_rss_kb") {
                true => Some(count(json, "peak_rss_kb")?),
                false => None,
            },
            stages: column("stages")?,
            stage_work: column("stage_work")?,
            stage_alloc: match present("stage_alloc") {
                true => Some(column("stage_alloc")?),
                false => None,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder;

    #[test]
    fn entry_reads_top_level_stages_in_pipeline_order_and_round_trips() {
        let rec = Recorder::new();
        rec.stage("persona.shards", || {
            rec.stage("inner", || {});
        });
        rec.stage("merge", || {});
        let entry = BenchEntry::new(&rec.report(), 7, None, "flaky", 2, [40, 2], 36391);
        let names: Vec<&str> = entry.stages.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["persona.shards", "merge"]);
        assert_eq!((entry.total_ms, entry.jobs), (42, None));
        assert!(entry.stage_alloc.is_some());
        let line = entry.to_json().render();
        assert!(line.starts_with(r#"{"seed": 7, "jobs": null, "fault_profile": "flaky","#));
        assert!(!line.contains("peak_rss_kb"));
        let json = Json::parse(&line).unwrap();
        assert_eq!(BenchEntry::from_json(&json), Ok(entry.clone()));
        let entry = BenchEntry {
            peak_rss_kb: Some(13_200),
            ..entry
        };
        let line = entry.to_json().render();
        assert!(line.contains(r#""rendered_bytes": 36391, "peak_rss_kb": 13200, "stages": "#));
        let json = Json::parse(&line).unwrap();
        assert_eq!(BenchEntry::from_json(&json), Ok(entry));
    }

    #[test]
    fn older_shapes_decode_and_mistyped_fields_are_named() {
        let old = r#"{"seed": 7, "jobs": 1, "hardware_threads": 1, "execute_ms": 1, "render_all_ms": 2, "total_ms": 3, "work_per_ms": 0.5, "rendered_bytes": 9, "stages": {"merge": 0}, "stage_work": {"merge": 0}}"#;
        let entry = BenchEntry::from_json(&Json::parse(old).unwrap()).unwrap();
        assert_eq!(entry.fault_profile, "none");
        assert_eq!(entry.stage_alloc, None);
        assert_eq!(entry.peak_rss_kb, None);
        let bad = old.replace(r#""stages""#, r#""peak_rss_kb": "13 MB", "stages""#);
        let err = BenchEntry::from_json(&Json::parse(&bad).unwrap()).unwrap_err();
        assert_eq!(err, "peak_rss_kb: missing or mistyped");
        let bad = old.replace(r#"{"merge": 0}}"#, r#"{"merge": -1}}"#);
        let err = BenchEntry::from_json(&Json::parse(&bad).unwrap()).unwrap_err();
        assert_eq!(err, "stage_work.merge: not a count");
        let repeated = old.replace(r#"{"merge": 0}, "#, r#"{"merge": 0, "merge": 1}, "#);
        let err = BenchEntry::from_json(&Json::parse(&repeated).unwrap()).unwrap_err();
        assert_eq!(err, r#"stages: repeats "merge""#);
    }
}
