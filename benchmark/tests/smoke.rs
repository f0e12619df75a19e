//! Two-item runs of every workload runner, untraced and traced, against the
//! `repro` built from this checkout.

use alexa_benchmark::measure::{run_workload, Budget, END_TO_END};
use alexa_benchmark::reference::Reference;
use alexa_benchmark::trace::{per_layer_metrics, trace_workload};
use alexa_benchmark::workload::{Check, Workload};
use alexa_benchmark::{build_repro, render_json, Paths};
use alexa_obs::Json;
use std::path::PathBuf;

const TWO_ITEMS: Budget = Budget {
    seconds: 0.0,
    max_items: 2,
};

fn repro() -> (Paths, PathBuf) {
    let paths = Paths::detect();
    let repro = build_repro(&paths).expect("repro builds");
    (paths, repro)
}

#[test]
fn every_workload_runs_two_items_byte_exact() {
    let (paths, repro) = repro();
    for w in Workload::ALL {
        let run = run_workload(&paths, &repro, &paths.reference(), w, 7, TWO_ITEMS)
            .unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        assert_eq!(run.items.len(), 2, "{}", w.name());
        assert_eq!(
            run.failed(),
            0,
            "{}: {:?}",
            w.name(),
            run.to_json().get("failures")
        );
        assert!(run.items.iter().all(|i| i.check == Check::Exact));
        let metrics = run.metrics();
        assert_eq!(metrics.len(), END_TO_END.len());
        for (name, value, _, n) in metrics {
            assert!(
                value.is_finite() && value > 0.0,
                "{}: {name} = {value}",
                w.name()
            );
            assert!(n > 0);
        }
    }
}

#[test]
fn a_corrupted_reference_entry_fails_that_item() {
    let (paths, repro) = repro();
    let mut reference = Reference::load(&paths.reference()).expect("reference loads");
    *reference.report.get_mut(&8).expect("seed 8 is blessed") ^= 1;
    let dir = paths.scratch("test-corrupt").expect("scratch dir");
    let path = dir.join("reference.json");
    std::fs::write(&path, render_json(&reference.to_json())).expect("write");
    let run = run_workload(&paths, &repro, &path, Workload::Report, 7, TWO_ITEMS)
        .expect("the run completes");
    let checks: Vec<(u64, &Check)> = run.items.iter().map(|i| (i.seed, &i.check)).collect();
    assert_eq!(checks[0], (7, &Check::Exact));
    assert_eq!(checks[1].0, 8);
    assert!(matches!(checks[1].1, Check::Failed(_)), "{checks:?}");
    // Every set-up's second warm-up item runs seed 8 too.
    assert_eq!(run.failed(), 1 + 3);
    // The flaky profile's seed-8 entry is untouched.
    let flaky = run_workload(&paths, &repro, &path, Workload::ReportFlaky, 7, TWO_ITEMS)
        .expect("the run completes");
    assert_eq!(flaky.failed(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_workload_traces_every_per_layer_metric() {
    let (paths, repro) = repro();
    for w in Workload::ALL {
        let run = trace_workload(&paths, &repro, &paths.reference(), w, 7, TWO_ITEMS)
            .unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        let doc = run.to_json();
        assert_eq!(run.failed(), 0, "{}: {:?}", w.name(), doc.get("failures"));
        // The campaign probe plus two items.
        assert_eq!(run.attempted(), 3);
        let metrics = doc.get("metrics").and_then(Json::as_obj).expect("metrics");
        let names: Vec<&str> = metrics.iter().map(|(n, _)| n.as_str()).collect();
        let want: Vec<String> = per_layer_metrics().into_iter().map(|m| m.0).collect();
        assert_eq!(names, want, "{}", w.name());
        for (name, m) in metrics {
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
            let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            assert!(value.is_finite(), "{}: {name}", w.name());
            if unit == "ms" {
                assert!(value > 0.0, "{}: {name} = {value}", w.name());
            }
        }
        assert!(run.tracer.spans.iter().any(|s| s.name == "persona.shards"));
    }
}
