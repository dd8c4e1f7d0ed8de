//! The benchmark's own short-mode checks: every workload on a tiny stream
//! emits every metric `BENCHMARK.json` names, with its unit and a finite
//! value; the output gate trips on a deliberately perturbed oracle; and
//! `BENCHMARK.json` plus `layers.json` hold each workload's rationale and
//! the layer -> metric -> workload map.
//!
//! ```console
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use febim_core::json::{self, Value};
use febim_perfbench::{run, Options, Workload, END_TO_END, PER_LAYER};

fn load(relative: &str) -> Value {
    let path = format!("{}/{relative}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|err| panic!("{path}: {err}"));
    json::parse(&text).unwrap_or_else(|err| panic!("{path}: {err}"))
}

fn benchmark() -> Value {
    load("../BENCHMARK.json")
}

fn text<'a>(value: &'a Value, key: &str) -> &'a str {
    value
        .get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("missing string `{key}` in {value:?}"))
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn listed(kind: &str) -> Vec<(String, String)> {
    benchmark()
        .get(kind)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("missing `{kind}`"))
        .iter()
        .map(|metric| {
            (
                text(metric, "name").to_string(),
                text(metric, "unit").to_string(),
            )
        })
        .collect()
}

fn spec(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|(name, unit)| (name.to_string(), unit.to_string()))
        .collect()
}

#[test]
fn the_metric_lists_match_benchmark_json() {
    assert_eq!(listed("end_to_end"), spec(END_TO_END));
    assert_eq!(listed("per_layer"), spec(PER_LAYER));
}

#[test]
fn every_workload_emits_every_metric_with_its_unit() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let report = run(&Options::short(workload, 3, trace)).expect("short run");
            assert!(
                report.correct,
                "{} trace={trace}: {:?}",
                workload.name(),
                report.first_mismatch
            );
            assert_eq!(report.failed, 0);
            assert!(report.attempted > 0);
            let expected = listed(if trace { "per_layer" } else { "end_to_end" });
            let emitted: Vec<(String, String)> = report
                .metrics
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect();
            assert_eq!(emitted, expected, "{} trace={trace}", workload.name());
            for metric in &report.metrics {
                assert!(metric.value.is_finite(), "{metric:?}");
                if !trace {
                    assert!(
                        metric.value > 0.0,
                        "end-to-end metrics are never 0: {metric:?}"
                    );
                }
            }
            let line = json::parse(&report.result_line()).expect("the result line is JSON");
            assert!(line.get("metrics").is_some_and(Value::is_object));
            json::parse(&report.record_line()).expect("the record line is JSON");
        }
    }
}

#[test]
fn the_output_gate_trips_on_a_perturbed_oracle() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let options = Options {
                perturb_oracle: true,
                ..Options::short(workload, 5, trace)
            };
            let report = run(&options).expect("short run");
            assert!(!report.correct, "{} trace={trace}", workload.name());
            assert!(report.mismatches > 0);
            assert!(report.result_line().starts_with("{\"correct\": false"));
        }
    }
}

#[test]
fn benchmark_json_stores_each_rationale_and_the_layer_map() {
    let workloads = benchmark();
    let workloads = workloads
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads");
    let names: Vec<&str> = workloads.iter().map(|w| text(w, "name")).collect();
    let expected: Vec<&str> = Workload::BENCHMARKED.iter().map(|w| w.name()).collect();
    assert_eq!(names, expected);
    for workload in workloads {
        let why = text(workload, "why");
        assert!(
            !why.is_empty() && !why.contains('\n') && why.len() <= 200,
            "{why}"
        );
    }

    let layers = load("layers.json");
    let entries = layers
        .get("metrics")
        .and_then(Value::as_array)
        .expect("metrics");
    let mapped: Vec<&str> = entries.iter().map(|entry| text(entry, "name")).collect();
    let per_layer: Vec<&str> = PER_LAYER.iter().map(|(name, _)| *name).collect();
    assert_eq!(mapped, per_layer);
    for entry in entries {
        assert!(!text(entry, "layer").is_empty() && !text(entry, "entry").is_empty());
        for target in entry.get("moves").and_then(Value::as_array).expect("moves") {
            let metric = text(target, "metric");
            assert!(
                END_TO_END.iter().any(|(name, _)| *name == metric),
                "{metric}"
            );
            assert!(
                Workload::parse(text(target, "workload")).is_some(),
                "{target:?}"
            );
        }
    }
}
