//! `BENCHMARK.json` and `spec.rs` must name the same workloads and
//! metrics, and a run must report exactly those.

use safara_benchmark::measure::RunOpts;
use safara_benchmark::spec::{END_TO_END, PER_LAYER, WORKLOADS};
use safara_benchmark::{compare, report, run_workload};
use safara_server::json::Json;

fn contract() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
}

fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("no `{key}` in {entry}"))
}

#[test]
fn benchmark_json_lists_what_spec_rs_lists() {
    let doc = contract();
    let keys: Vec<&str> = doc
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );

    let workloads = doc.get("workloads").and_then(Json::as_arr).unwrap();
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (entry, spec) in workloads.iter().zip(&WORKLOADS) {
        assert_eq!(
            (field(entry, "name"), field(entry, "why")),
            (spec.name, spec.why)
        );
        assert!(valid_name(spec.name) && spec.why.len() <= 200 && !spec.why.contains('\n'));
    }

    let end_to_end = doc.get("end_to_end").and_then(Json::as_arr).unwrap();
    assert_eq!(end_to_end.len(), END_TO_END.len());
    for (entry, spec) in end_to_end.iter().zip(&END_TO_END) {
        assert_eq!(field(entry, "name"), spec.name);
        assert_eq!(field(entry, "unit"), spec.unit);
        assert_eq!(field(entry, "better"), spec.better.name());
        assert_eq!(
            entry.get("bound").and_then(Json::as_f64),
            Some(spec.bound),
            "{}",
            spec.name
        );
        assert!(valid_name(spec.name) && spec.bound <= 0.25);
    }
    let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
    assert!(
        END_TO_END.iter().all(|m| m.bound <= setup.bound),
        "setup_s has the largest bound"
    );

    let per_layer = doc.get("per_layer").and_then(Json::as_arr).unwrap();
    assert_eq!(per_layer.len(), PER_LAYER.len());
    for (entry, spec) in per_layer.iter().zip(&PER_LAYER) {
        assert_eq!(field(entry, "name"), spec.name);
        assert_eq!(field(entry, "unit"), spec.unit);
        assert_eq!(field(entry, "better"), spec.better.name());
        assert!(valid_name(spec.name), "{}", spec.name);
    }

    let mut names: Vec<&str> = WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(END_TO_END.iter().map(|m| m.name))
        .chain(PER_LAYER.iter().map(|m| m.name))
        .collect();
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "every name is used once");
}

/// The names a run reports, checked against the contract; and the
/// record it stores, sent through the in-tree JSON and back.
#[test]
fn a_run_reports_exactly_the_contracts_metrics() {
    let doc = contract();
    let listed = |section: &str| -> Vec<String> {
        doc.get(section)
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|e| field(e, "name").to_string())
            .collect()
    };
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let opts = RunOpts {
            seed: 5,
            seconds: 1.0,
            trace,
            quick: true,
        };
        let outcome = run_workload("compile_heavy", &opts).unwrap();
        assert_eq!(outcome.verdict.failed, 0, "{:?}", outcome.verdict.errors);
        assert!(listed("workloads").contains(&outcome.workload.to_string()));

        let last = Json::parse(&report::final_line(&outcome)).unwrap();
        let keys: Vec<&str> = last
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let reported: Vec<String> = last
            .get("metrics")
            .and_then(Json::as_obj)
            .unwrap()
            .iter()
            .map(|(k, _)| k.clone())
            .collect();
        assert_eq!(reported, listed(section));
        assert!(reported.iter().all(|n| valid_name(n)));

        let record = report::record(&outcome, &opts);
        let line = record.dump();
        assert_eq!(
            Json::parse(&line).unwrap(),
            record,
            "record survives a round trip"
        );
        let runs = compare::load(&line).unwrap();
        assert_eq!(runs.len(), reported.len());
        for ((workload, metric), series) in &runs {
            assert_eq!(workload, "compile_heavy");
            assert_eq!(series.bound.is_some(), !trace, "{metric}");
        }
    }
}
