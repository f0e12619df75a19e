//! The run-ledger format: the two deterministic documents a bundle stores
//! (`trace.json` and `memory.json`), their encoders, and the one decoder
//! that reads them back into a [`Report`] — plus the field readers every
//! run-document decoder is built on, each naming the field it fails on.
//!
//! A bundle stores each fact once. Every other view of a run — per-stage
//! work, counter totals, work summaries and histograms, the folded profile
//! — is a [`Report`] method, so `obs-diff` and the campaign tables derive
//! it from the decoded report instead of reading a second copy from disk.
//!
//! [`Report::from_ledger`] is the typed inverse of
//! [`Report::ledger_trace_json`] and [`Report::ledger_memory_json`]:
//! encoding the decoded report reproduces both documents byte for byte.
//! The wall-clock fields and the volatile gauges are not in the ledger, so
//! a decoded report carries zeros there. Any input outside the format is a
//! [`LedgerError`], never a panic.

use crate::bundle::{MEMORY_FILE, SCHEMA_VERSION, TRACE_FILE};
use crate::hist::{Histogram, BUCKETS};
use crate::json::Json;
use crate::report::{Aggregate, Report, ShardReport, StageRec};
use crate::shard::SpanRec;
use std::collections::BTreeMap;
use std::fmt;

/// Why a ledger document could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LedgerError {
    /// The document (`trace.json` or `memory.json`).
    pub file: &'static str,
    /// What is wrong, naming the row and field, e.g.
    /// `shards[3].spans[1].depth: missing or mistyped`.
    pub detail: String,
}

impl fmt::Display for LedgerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.detail)
    }
}

impl Report {
    /// The run-ledger trace document (`trace.json`): the full span tree in
    /// deterministic work units, the shard counters, and the aggregates'
    /// counts and calls — no wall clock, so two runs of the same `(seed,
    /// fault profile)` are byte-identical at any `--jobs`.
    pub fn ledger_trace_json(&self) -> Json {
        let stages = self
            .stages
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(s.name.clone())),
                    ("depth".into(), Json::Int(s.depth as u64)),
                    ("work".into(), Json::Int(s.work)),
                ])
            })
            .collect();
        let shards = self
            .shards
            .iter()
            .map(|sh| {
                let spans = sh
                    .spans
                    .iter()
                    .map(|sp| {
                        Json::Obj(vec![
                            ("name".into(), Json::Str(sp.name.clone())),
                            ("depth".into(), Json::Int(sp.depth as u64)),
                            ("start_wu".into(), Json::Int(sp.start_wu)),
                            ("work".into(), Json::Int(sp.dur_wu)),
                            ("alloc_count".into(), Json::Int(sp.alloc_count)),
                            ("alloc_bytes".into(), Json::Int(sp.alloc_bytes)),
                        ])
                    })
                    .collect();
                let counters = sh
                    .counters
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Int(*v)))
                    .collect();
                Json::Obj(vec![
                    ("group".into(), Json::Str(sh.group.clone())),
                    ("index".into(), Json::Int(sh.index as u64)),
                    ("label".into(), Json::Str(sh.label.clone())),
                    ("stage".into(), Json::Str(sh.stage.clone())),
                    ("work".into(), Json::Int(sh.work)),
                    ("spans".into(), Json::Arr(spans)),
                    ("counters".into(), Json::Obj(counters)),
                ])
            })
            .collect();
        let aggregates = self
            .aggregates
            .iter()
            .map(|(name, a)| {
                (
                    name.clone(),
                    Json::Obj(vec![
                        ("count".into(), Json::Int(a.count)),
                        ("calls".into(), Json::Int(a.calls)),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("schema".into(), Json::Int(SCHEMA_VERSION)),
            ("stages".into(), Json::Arr(stages)),
            ("shards".into(), Json::Arr(shards)),
            ("aggregates".into(), Json::Obj(aggregates)),
        ])
    }

    /// The run-ledger memory document (`memory.json`): the deterministic
    /// allocation plane — per-stage attributed counts, per-shard sealed
    /// windows, and per-group size histograms.
    ///
    /// Everything here derives from the thread-local allocation meter,
    /// which counts the workload's own allocation requests: byte-identical
    /// across `--jobs` values for a fixed seed. OS-level RSS
    /// is deliberately absent — it lives on the volatile channel only.
    pub fn ledger_memory_json(&self) -> Json {
        let stage_alloc = self
            .stages
            .iter()
            .map(|s| {
                (
                    s.name.clone(),
                    Json::Obj(vec![
                        ("count".into(), Json::Int(s.alloc_count)),
                        ("bytes".into(), Json::Int(s.alloc_bytes)),
                    ]),
                )
            })
            .collect();
        let shards = self
            .shards
            .iter()
            .map(|sh| {
                Json::Obj(vec![
                    ("group".into(), Json::Str(sh.group.clone())),
                    ("index".into(), Json::Int(sh.index as u64)),
                    ("label".into(), Json::Str(sh.label.clone())),
                    ("alloc_count".into(), Json::Int(sh.alloc_count)),
                    ("alloc_bytes".into(), Json::Int(sh.alloc_bytes)),
                    ("alloc_peak_bytes".into(), Json::Int(sh.alloc_peak)),
                ])
            })
            .collect();
        let size_histograms = self
            .alloc_sizes
            .iter()
            .map(|(g, h)| (g.clone(), h.to_json()))
            .collect();
        Json::Obj(vec![
            ("schema".into(), Json::Int(SCHEMA_VERSION)),
            ("stage_alloc".into(), Json::Obj(stage_alloc)),
            ("shards".into(), Json::Arr(shards)),
            ("size_histograms".into(), Json::Obj(size_histograms)),
        ])
    }

    /// Decode a parsed `trace.json` and `memory.json` back into a report.
    ///
    /// The two documents must describe the same run: `memory.json` lists
    /// the trace's stages and shards in the same order under the same
    /// names. Stages and spans must be in pre-order (each at most one level
    /// deeper than the row before it), and no map may repeat a key. The
    /// wall-clock fields of the result are zero and its volatile gauges
    /// empty: the ledger never holds them.
    pub fn from_ledger(trace: &Json, memory: &Json) -> Result<Report, LedgerError> {
        let fail = |file| move |detail| LedgerError { file, detail };
        let mut report = decode_trace(trace).map_err(fail(TRACE_FILE))?;
        decode_memory(memory, &mut report).map_err(fail(MEMORY_FILE))?;
        Ok(report)
    }
}

/// Why `manifest.json` or `campaign.json` does not decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ManifestError {
    /// The document records another schema; nothing else was read.
    Schema {
        /// The schema version the document records.
        found: u64,
    },
    /// A field does not decode, e.g. `seed: missing or mistyped`.
    Field(Fail),
}

/// Why a value did not decode: `path: problem`, the path relative to the
/// value (empty when the value itself is wrong).
pub type Fail = String;

/// `fail` of a value reached from its parent by `step`.
pub fn under(step: impl fmt::Display, fail: Fail) -> Fail {
    match fail.starts_with([':', '[']) {
        true => format!("{step}{fail}"),
        false => format!("{step}.{fail}"),
    }
}

/// The field `key`, converted by `as_t`.
pub(crate) fn field<'j, T>(
    json: &'j Json,
    key: &str,
    as_t: impl FnOnce(&'j Json) -> Option<T>,
) -> Result<T, Fail> {
    json.get(key)
        .and_then(as_t)
        .ok_or_else(|| format!("{key}: missing or mistyped"))
}

/// The non-negative integer field `key`.
pub fn count(json: &Json, key: &str) -> Result<u64, Fail> {
    field(json, key, Json::as_u64)
}

/// The string field `key`.
pub fn text(json: &Json, key: &str) -> Result<String, Fail> {
    field(json, key, |v| v.as_str().map(str::to_string))
}

fn index(json: &Json, key: &str) -> Result<usize, Fail> {
    field(json, key, |v| usize::try_from(v.as_u64()?).ok())
}

/// The string field `key` holding a digest as its encoders write it:
/// exactly 16 lowercase hex digits (`{:016x}`).
pub(crate) fn digest(json: &Json, key: &str) -> Result<u64, Fail> {
    let hex = text(json, key)?;
    let lower = hex.len() == 16 && hex.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'));
    match u64::from_str_radix(&hex, 16) {
        Ok(value) if lower => Ok(value),
        _ => Err(format!("{key}: {hex:?} is not 16 lowercase hex digits")),
    }
}

/// Check that `doc` records schema `version`. Decoders read it first.
pub(crate) fn schema_first(doc: &Json, version: u64) -> Result<(), ManifestError> {
    match count(doc, "schema").map_err(ManifestError::Field)? {
        found if found == version => Ok(()),
        found => Err(ManifestError::Schema { found }),
    }
}

/// The array field `key`, each element decoded by `decode`.
pub fn items<'j, V>(
    json: &'j Json,
    key: &str,
    mut decode: impl FnMut(&'j Json) -> Result<V, Fail>,
) -> Result<Vec<V>, Fail> {
    let items = field(json, key, Json::as_arr)?.iter().enumerate();
    items
        .map(|(i, item)| decode(item).map_err(|f| under(format_args!("{key}[{i}]"), f)))
        .collect()
}

/// The object field `key`, each value decoded by `decode`, in document
/// order; a repeated key fails, since no encoder writes one.
pub(crate) fn pairs<'j, V>(
    json: &'j Json,
    key: &str,
    mut decode: impl FnMut(&'j Json) -> Result<V, Fail>,
) -> Result<Vec<(String, V)>, Fail> {
    let fields = field(json, key, Json::as_obj)?;
    let mut out: Vec<(String, V)> = Vec::with_capacity(fields.len());
    for (name, value) in fields {
        let v = decode(value).map_err(|f| under(format_args!("{key}.{name}"), f))?;
        if out.iter().any(|(seen, _)| seen == name) {
            return Err(format!("{key}: repeats {name:?}"));
        }
        out.push((name.clone(), v));
    }
    Ok(out)
}

/// The object field `key`, each value decoded by `decode`, keyed by name;
/// a repeated key fails, since no encoder writes one.
pub fn entries<'j, V>(
    json: &'j Json,
    key: &str,
    decode: impl FnMut(&'j Json) -> Result<V, Fail>,
) -> Result<BTreeMap<String, V>, Fail> {
    Ok(pairs(json, key, decode)?.into_iter().collect())
}

/// The `depth` of a row, which pre-order allows to be at most one level
/// deeper than the previous row's (`last`, `None` before the first).
fn preorder(row: &Json, last: &mut Option<usize>) -> Result<usize, Fail> {
    let (depth, deepest) = (index(row, "depth")?, last.map_or(0, |d| d + 1));
    if depth > deepest {
        return Err(format!(
            "depth: {depth} breaks pre-order (at most {deepest})"
        ));
    }
    *last = Some(depth);
    Ok(depth)
}

fn schema(doc: &Json) -> Result<(), Fail> {
    match count(doc, "schema")? {
        SCHEMA_VERSION => Ok(()),
        found => Err(format!(
            "schema: {found} unsupported (this tool reads {SCHEMA_VERSION})"
        )),
    }
}

/// `trace.json` as a report whose allocation fields are still zero.
fn decode_trace(trace: &Json) -> Result<Report, Fail> {
    schema(trace)?;
    let mut last = None;
    let stages = items(trace, "stages", |s| {
        Ok(StageRec {
            name: text(s, "name")?,
            depth: preorder(s, &mut last)?,
            start_us: 0,
            dur_us: 0,
            work: count(s, "work")?,
            alloc_count: 0,
            alloc_bytes: 0,
            peak_rss_kb: 0,
        })
    })?;
    let shards = items(trace, "shards", |s| {
        let mut last = None;
        Ok(ShardReport {
            group: text(s, "group")?,
            index: index(s, "index")?,
            label: text(s, "label")?,
            stage: text(s, "stage")?,
            total_us: 0,
            work: count(s, "work")?,
            alloc_count: 0,
            alloc_bytes: 0,
            alloc_peak: 0,
            spans: items(s, "spans", |sp| {
                Ok(SpanRec {
                    name: text(sp, "name")?,
                    depth: preorder(sp, &mut last)?,
                    start_us: 0,
                    dur_us: 0,
                    start_wu: count(sp, "start_wu")?,
                    dur_wu: count(sp, "work")?,
                    alloc_count: count(sp, "alloc_count")?,
                    alloc_bytes: count(sp, "alloc_bytes")?,
                })
            })?,
            counters: entries(s, "counters", |c| {
                c.as_u64().ok_or_else(|| ": not a count".into())
            })?,
        })
    })?;
    let aggregates = entries(trace, "aggregates", |a| {
        let (count, calls) = (count(a, "count")?, count(a, "calls")?);
        Ok(Aggregate {
            count,
            calls,
            total_us: 0,
        })
    })?;
    let (alloc_sizes, volatile) = (BTreeMap::new(), BTreeMap::new());
    Ok(Report {
        stages,
        shards,
        aggregates,
        alloc_sizes,
        volatile,
    })
}

/// `memory.json`'s allocation facts, filled into the report decoded from
/// the trace of the same run.
fn decode_memory(memory: &Json, report: &mut Report) -> Result<(), Fail> {
    schema(memory)?;
    let stage_alloc = field(memory, "stage_alloc", Json::as_obj)?;
    let rows = items(memory, "shards", |m| {
        let id = (text(m, "group")?, index(m, "index")?, text(m, "label")?);
        Ok((
            id,
            count(m, "alloc_count")?,
            count(m, "alloc_bytes")?,
            count(m, "alloc_peak_bytes")?,
        ))
    })?;
    if (stage_alloc.len(), rows.len()) != (report.stages.len(), report.shards.len()) {
        return Err(format!(
            "stage_alloc, shards: not {TRACE_FILE}'s stages and shards"
        ));
    }
    for (stage, (name, alloc)) in report.stages.iter_mut().zip(stage_alloc) {
        let at = |f| under(format_args!("stage_alloc.{name}"), f);
        if *name != stage.name {
            return Err(at(format!(
                ": {TRACE_FILE} has stage {:?} here",
                stage.name
            )));
        }
        stage.alloc_count = count(alloc, "count").map_err(at)?;
        stage.alloc_bytes = count(alloc, "bytes").map_err(at)?;
    }
    for (i, (shard, ((group, index, label), alloc_count, alloc_bytes, alloc_peak))) in
        report.shards.iter_mut().zip(rows).enumerate()
    {
        if (&group, index, &label) != (&shard.group, shard.index, &shard.label) {
            let (g, n, l) = (&shard.group, shard.index, &shard.label);
            return Err(format!(
                "shards[{i}]: {TRACE_FILE} has shard {g}[{n}] {l:?} here"
            ));
        }
        (shard.alloc_count, shard.alloc_bytes, shard.alloc_peak) =
            (alloc_count, alloc_bytes, alloc_peak);
    }
    report.alloc_sizes = entries(memory, "size_histograms", histogram)?;
    Ok(())
}

/// A sparse histogram as [`Histogram::to_json`] writes it: fixed log2
/// buckets, each non-empty, in ascending order.
fn histogram(json: &Json) -> Result<Histogram, Fail> {
    let mut counts = [0u64; BUCKETS];
    let mut last = None;
    for (i, b) in json.as_arr().ok_or(": not an array")?.iter().enumerate() {
        let at = |f| under(format_args!("[{i}]"), f);
        let (lo, hi, n) = (
            count(b, "lo").map_err(at)?,
            count(b, "hi").map_err(at)?,
            count(b, "count").map_err(at)?,
        );
        let bucket = Histogram::bucket_of(lo);
        if Histogram::bounds(bucket) != (lo, hi) || n == 0 || last >= Some(bucket) {
            return Err(at(": not the next non-empty log2 bucket".into()));
        }
        last = Some(bucket);
        if let Some(c) = counts.get_mut(bucket) {
            *c = n;
        }
    }
    Ok(Histogram::from_counts(counts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::tests::sample;

    #[test]
    fn bad_input_is_a_typed_error() {
        let r = sample();
        // Replace `from` by `to` once in `file`, decode, and return the
        // refusal's detail.
        let refused = |file: &str, from: &str, to: &str| {
            let mut docs = [r.ledger_trace_json(), r.ledger_memory_json()].map(|d| d.render());
            let doc = usize::from(file == MEMORY_FILE);
            docs[doc] = docs[doc].replacen(from, to, 1);
            let [trace, memory] = docs.map(|d| Json::parse(&d).expect("edited document parses"));
            let err = Report::from_ledger(&trace, &memory).expect_err("must be refused");
            assert_eq!(err.file, file, "{err}");
            err.detail
        };
        let cases = [
            (
                TRACE_FILE,
                "\"schema\": 3",
                "\"schema\": 2",
                "schema: 2 unsupported",
            ),
            (
                TRACE_FILE,
                "\"start_wu\": 0",
                "\"start_wu\": -1",
                "shards[0].spans[0].start_wu: missing",
            ),
            (
                TRACE_FILE,
                "\"depth\": 0",
                "\"depth\": 9",
                "stages[0].depth: 9 breaks pre-order",
            ),
            (
                TRACE_FILE,
                "12}",
                "12, \"tap.packets\": 1}",
                "shards[0].counters: repeats \"tap.packets\"",
            ),
            (
                TRACE_FILE,
                "\"count\": 7",
                "\"count\": \"7\"",
                "aggregates.crawler.bids.count: missing",
            ),
            (
                MEMORY_FILE,
                "\"Vanilla\"",
                "\"Other\"",
                "shards[1]: trace.json has shard persona[1] \"Vanilla\"",
            ),
            (
                MEMORY_FILE,
                "\"hi\": ",
                "\"hi\": 1",
                "size_histograms.persona[0]: not the next",
            ),
        ];
        for (file, from, to, detail) in cases {
            let got = refused(file, from, to);
            assert!(got.starts_with(detail), "{got:?} is not {detail:?}");
        }
    }
}
