//! `run --quick` end to end: every workload runs, checks its outputs,
//! and emits exactly the metrics `BENCHMARK.json` names.

use ifko::report::{parse_json, Json};
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_ifko-benchmark");
const BENCHMARK_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

fn benchmark_json() -> Json {
    let text = std::fs::read_to_string(BENCHMARK_JSON).expect("BENCHMARK.json at the repo root");
    parse_json(text.trim()).expect("BENCHMARK.json parses")
}

fn names(spec: &Json, table: &str) -> Vec<String> {
    let Some(Json::Arr(items)) = spec.get(table) else {
        panic!("BENCHMARK.json lacks {table}");
    };
    let name = |m: &Json| {
        m.get("name")
            .and_then(Json::as_str)
            .expect("a name")
            .to_string()
    };
    items.iter().map(name).collect()
}

#[test]
fn benchmark_json_is_generated_from_the_tables() {
    let out = Command::new(BIN).arg("spec").output().expect("spec runs");
    assert!(out.status.success());
    let generated =
        parse_json(String::from_utf8_lossy(&out.stdout).trim()).expect("spec prints JSON");
    assert_eq!(
        generated,
        benchmark_json(),
        "regenerate with `ifko-benchmark spec > BENCHMARK.json`"
    );
}

#[test]
fn quick_run_emits_the_named_metrics() {
    let result = concat!(env!("CARGO_MANIFEST_DIR"), "/out/result-quick-test.json");
    let status = Command::new(BIN)
        .args(["run", "--quick", "--out", result])
        .status()
        .expect("run --quick starts");
    assert!(status.success(), "run --quick failed an output check");

    let spec = benchmark_json();
    let text = std::fs::read_to_string(result).expect("the result file was written");
    let run = parse_json(text.trim()).expect("the result file parses");
    for workload in names(&spec, "workloads") {
        let w = run.get("workloads").and_then(|all| all.get(&workload));
        let w = w.unwrap_or_else(|| panic!("{workload} missing from the result"));
        assert_eq!(
            w.get("failed").and_then(Json::as_u64),
            Some(0),
            "{workload}"
        );
        for table in ["end_to_end", "per_layer"] {
            let Some(Json::Obj(emitted)) = w.get(table) else {
                panic!("{workload} lacks {table}");
            };
            let emitted_names: Vec<String> = emitted.iter().map(|(n, _)| n.clone()).collect();
            assert_eq!(emitted_names, names(&spec, table), "{workload} {table}");
            for (name, value) in emitted {
                let legal = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
                assert!(!name.is_empty() && name.chars().all(legal), "{name}");
                let value = value.as_f64().unwrap_or(f64::NAN);
                assert!(value.is_finite(), "{workload} {name} = {value}");
            }
        }
    }
}
