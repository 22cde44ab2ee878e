//! The benchmark's own checks: exact counters repeat per seed, seeds
//! change the generated inputs, and every metric `BENCHMARK.json` names
//! is printed with its unit. Runs the small (`Size::Smoke`) inputs with a
//! zero time budget, so each workload does one job or one probe pass.

use serde::{DeError, Deserialize, Value};
use tmsbench::{inputs, Options, Report, Size, Workload};

/// Any JSON value, parsed with the vendored `serde_json`.
struct Json(Value);

impl Deserialize for Json {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(Json(v.clone()))
    }
}

fn parse(text: &str) -> Value {
    serde_json::from_str::<Json>(text).expect("valid JSON").0
}

fn field<'a>(v: &'a Value, name: &str) -> &'a Value {
    let Value::Object(pairs) = v else {
        panic!("expected an object, got {v:?}")
    };
    pairs
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("no field {name}"))
}

fn string(v: &Value) -> &str {
    let Value::Str(s) = v else {
        panic!("expected a string, got {v:?}")
    };
    s
}

fn smoke(workload: Workload, seed: u64, trace: bool) -> Report {
    tmsbench::run(&Options {
        workload,
        seed,
        seconds: 0.0,
        trace,
        size: Size::Smoke,
    })
}

/// `(name, unit)` of every metric in a `BENCHMARK.json` list.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let benchmark = parse(&text);
    let Value::Array(metrics) = field(&benchmark, list) else {
        panic!("{list} is not an array")
    };
    metrics
        .iter()
        .map(|m| {
            (
                string(field(m, "name")).to_string(),
                string(field(m, "unit")).to_string(),
            )
        })
        .collect()
}

/// `(name, unit)` of every metric on a report's result line, which must
/// itself be valid JSON with the four required keys.
fn printed(report: &Report) -> Vec<(String, String)> {
    let line = parse(&report.json_line());
    assert!(matches!(field(&line, "correct"), Value::Bool(true)));
    for key in ["attempted", "failed"] {
        assert!(
            matches!(field(&line, key), Value::Int(_)),
            "{key} is a whole number"
        );
    }
    let Value::Object(metrics) = field(&line, "metrics") else {
        panic!("metrics is not an object")
    };
    metrics
        .iter()
        .map(|(name, m)| (name.clone(), string(field(m, "unit")).to_string()))
        .collect()
}

#[test]
fn same_seed_repeats_counters_and_digests() {
    for workload in Workload::ALL {
        let a = smoke(workload, 7, true);
        let b = smoke(workload, 7, true);
        assert!(a.correct && b.correct, "{workload:?}: {:?}", a.notes);
        let (ca, cb) = (a.counters.expect("traced"), b.counters.expect("traced"));
        assert!(
            ca.trace_events > 0 && !ca.digests.is_empty(),
            "{workload:?} did work"
        );
        assert_eq!(ca, cb, "{workload:?}: exact counters differ between runs");
    }
}

#[test]
fn different_seed_changes_inputs() {
    for workload in Workload::ALL {
        let (a, b) = (
            inputs::generate(workload, 1, Size::Smoke),
            inputs::generate(workload, 2, Size::Smoke),
        );
        let apps = |i: &inputs::Inputs| i.worlds.iter().map(|w| w.apps.clone()).collect::<Vec<_>>();
        assert_ne!(
            apps(&a),
            apps(&b),
            "{workload:?}: seeds 1 and 2 generated the same apps"
        );
        let again = inputs::generate(workload, 1, Size::Smoke);
        assert_eq!(
            apps(&a),
            apps(&again),
            "{workload:?}: one seed generated two inputs"
        );
    }
}

#[test]
fn every_declared_metric_is_printed_with_its_unit() {
    let (end_to_end, per_layer) = (declared("end_to_end"), declared("per_layer"));
    for workload in Workload::ALL {
        assert_eq!(
            printed(&smoke(workload, 3, false)),
            end_to_end,
            "{workload:?} --trace 0"
        );
        assert_eq!(
            printed(&smoke(workload, 3, true)),
            per_layer,
            "{workload:?} --trace 1"
        );
    }
}
