//! `alexa-benchmark compare SET_A... -- SET_B...`: judge two sets of `run`
//! results, workload by workload and metric by metric, against the bounds
//! in `BENCHMARK.json`.

use crate::read_json;
use crate::stats::{quartiles, relative_spread};
use alexa_obs::Json;
use std::fmt::Write as _;
use std::path::Path;

/// One end-to-end metric's regression bound.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Whether a smaller value is better.
    pub lower_is_better: bool,
    /// Share of set A's median by which set B may be worse.
    pub bound: f64,
}

/// The end-to-end bounds of `BENCHMARK.json`, plus `failed_ratio` with a
/// bound of zero: any new failure is a regression.
pub fn load_bounds(definition: &Path) -> Result<Vec<Bound>, String> {
    let doc = read_json(definition)?;
    let mut bounds = Vec::new();
    for m in doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
    {
        let field = |k: &str| m.get(k).ok_or(format!("end_to_end entry without {k}"));
        bounds.push(Bound {
            name: field("name")?.as_str().unwrap_or_default().to_string(),
            unit: field("unit")?.as_str().unwrap_or_default().to_string(),
            lower_is_better: field("better")?.as_str() == Some("lower"),
            bound: field("bound")?.as_f64().ok_or("bound is not a number")?,
        });
    }
    bounds.push(Bound {
        name: "failed_ratio".into(),
        unit: "failed/attempted".into(),
        lower_is_better: true,
        bound: 0.0,
    });
    Ok(bounds)
}

/// A comparison outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is no worse than A by more than the bound, nor better by more.
    Within,
    /// B is better than A by more than the bound.
    Better,
    /// B is worse than A by more than the bound.
    Worse,
    /// A set's own spread exceeds the bound, so no difference is resolved.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Within => "within bound",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge set B against set A for one metric.
pub fn verdict(a: &[f64], b: &[f64], bound: &Bound) -> Verdict {
    let (ma, mb) = (quartiles(a).1, quartiles(b).1);
    let worse = |x: f64, y: f64| if bound.lower_is_better { y > x } else { y < x };
    if bound.bound == 0.0 {
        return if worse(ma, mb) {
            Verdict::Worse
        } else if worse(mb, ma) {
            Verdict::Better
        } else {
            Verdict::Within
        };
    }
    let worse_by = if bound.lower_is_better {
        (mb - ma) / ma
    } else {
        (ma - mb) / ma
    };
    if relative_spread(a) > bound.bound || relative_spread(b) > bound.bound {
        let b_always_better = b.iter().all(|&y| a.iter().all(|&x| worse(y, x)));
        return if b_always_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound.bound {
        Verdict::Worse
    } else if worse_by < -bound.bound {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

/// Every value of `metric` for `workload` across a set of result files.
fn values(set: &[Json], workload: &str, metric: &str) -> Vec<f64> {
    set.iter()
        .flat_map(|doc| doc.get("workloads").and_then(Json::as_arr).unwrap_or(&[]))
        .filter(|w| w.get("workload").and_then(Json::as_str) == Some(workload))
        .filter_map(|w| match metric {
            "failed_ratio" => w.get("failed_ratio"),
            _ => w.get("metrics")?.get(metric)?.get("value"),
        })
        .filter_map(Json::as_f64)
        .collect()
}

/// Compare two sets; returns the printed table and whether any pair is
/// worse.
pub fn compare(a: &[Json], b: &[Json], bounds: &[Bound]) -> (String, bool) {
    let mut workloads: Vec<String> = Vec::new();
    for doc in a.iter().chain(b) {
        for w in doc.get("workloads").and_then(Json::as_arr).unwrap_or(&[]) {
            if let Some(name) = w.get("workload").and_then(Json::as_str) {
                if !workloads.iter().any(|n| n == name) {
                    workloads.push(name.to_string());
                }
            }
        }
    }
    let mut out = format!(
        "{:<13} {:<17} {:>16}  {:>32}  {:>32}  {:>8}  {}\n",
        "workload",
        "metric",
        "unit (bound)",
        "A median [q1, q3]",
        "B median [q1, q3]",
        "B vs A",
        "verdict"
    );
    let mut any_worse = false;
    let fmt = |v: &[f64]| {
        let (q1, q2, q3) = quartiles(v);
        format!("{q2:.4} [{q1:.4}, {q3:.4}]")
    };
    for workload in &workloads {
        for bound in bounds {
            let (va, vb) = (
                values(a, workload, &bound.name),
                values(b, workload, &bound.name),
            );
            if va.is_empty() || vb.is_empty() {
                let _ = writeln!(out, "{workload:<13} {:<17} missing from a set", bound.name);
                any_worse = true;
                continue;
            }
            let v = verdict(&va, &vb, bound);
            any_worse |= v == Verdict::Worse;
            let (ma, mb) = (quartiles(&va).1, quartiles(&vb).1);
            let delta = if ma == 0.0 {
                format!("{:+.4}", mb - ma)
            } else {
                format!("{:+.2}%", (mb - ma) / ma * 100.0)
            };
            let _ = writeln!(
                out,
                "{workload:<13} {:<17} {:>16}  {:>32}  {:>32}  {delta:>8}  {}",
                bound.name,
                format!("{} ({})", bound.unit, bound.bound),
                fmt(&va),
                fmt(&vb),
                v.label()
            );
        }
    }
    (out, any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Bound {
        Bound {
            name: "latency_p50_ms".into(),
            unit: "ms".into(),
            lower_is_better: true,
            bound,
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let a = [100.0, 101.0, 102.0];
        assert_eq!(
            verdict(&a, &[104.0, 105.0, 106.0], &lower(0.1)),
            Verdict::Within
        );
        assert_eq!(
            verdict(&a, &[120.0, 121.0, 122.0], &lower(0.1)),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&a, &[80.0, 81.0, 82.0], &lower(0.1)),
            Verdict::Better
        );
        // Set B's own spread exceeds the bound.
        assert_eq!(
            verdict(&a, &[60.0, 101.0, 150.0], &lower(0.1)),
            Verdict::Unresolved
        );
        // ...unless every B run beats every A run.
        assert_eq!(
            verdict(&a, &[50.0, 70.0, 99.0], &lower(0.1)),
            Verdict::Better
        );
        let mut higher = lower(0.1);
        higher.lower_is_better = false;
        assert_eq!(verdict(&a, &[80.0, 81.0, 82.0], &higher), Verdict::Worse);
        // A zero bound compares medians exactly.
        assert_eq!(
            verdict(&[0.0, 0.0], &[0.0, 0.0, 0.01], &lower(0.0)),
            Verdict::Within
        );
        assert_eq!(
            verdict(&[0.0, 0.0], &[0.01, 0.01], &lower(0.0)),
            Verdict::Worse
        );
    }

    #[test]
    fn the_definition_bounds_every_end_to_end_metric() {
        let paths = crate::Paths::detect();
        let bounds = load_bounds(&paths.definition()).expect("BENCHMARK.json loads");
        let names: Vec<&str> = bounds.iter().map(|b| b.name.as_str()).collect();
        let mut want: Vec<&str> = crate::measure::END_TO_END.iter().map(|m| m.0).collect();
        want.push("failed_ratio");
        assert_eq!(names, want);
        for b in &bounds {
            assert!((0.0..=0.25).contains(&b.bound), "{}", b.name);
        }
    }

    #[test]
    fn compare_reads_result_documents() {
        let doc = |p50: f64| {
            Json::parse(&format!(
                r#"{{"workloads": [{{"workload": "report", "failed_ratio": 0,
                   "metrics": {{"latency_p50_ms": {{"value": {p50}}}}}}}]}}"#
            ))
            .expect("parses")
        };
        let bounds = vec![lower(0.1)];
        let (text, worse) = compare(
            &[doc(100.0), doc(101.0)],
            &[doc(130.0), doc(131.0)],
            &bounds,
        );
        assert!(worse);
        assert!(text.contains("worse"), "{text}");
        let (text, worse) = compare(&[doc(100.0)], &[doc(101.0)], &bounds);
        assert!(!worse);
        assert!(text.contains("within bound"), "{text}");
    }
}
