//! The `--quick` smoke pass: every workload at toy sizes through the real
//! command line, correctness gates on, untraced and traced, and the last
//! line of output held against the names `BENCHMARK.json` declares.

use std::process::Command;

const EXE: &str = env!("CARGO_BIN_EXE_summit-benchmark");
const CONTRACT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

/// Every `"name": "…"` value in a slice of `BENCHMARK.json`.
fn names(section: &str) -> Vec<&str> {
    section
        .split("\"name\": \"")
        .skip(1)
        .map(|rest| &rest[..rest.find('"').expect("closing quote")])
        .collect()
}

#[test]
fn every_workload_passes_its_gates_at_toy_sizes() {
    let contract = std::fs::read_to_string(CONTRACT).expect("BENCHMARK.json at the repo root");
    let (head, rest) = contract
        .split_once("\"end_to_end\"")
        .expect("end_to_end key");
    let (end_to_end, per_layer) = rest.split_once("\"per_layer\"").expect("per_layer key");
    let workloads = names(head);
    assert_eq!(workloads.len(), 5);

    for workload in workloads {
        for (trace, metrics) in [("0", names(end_to_end)), ("1", names(per_layer))] {
            let out = Command::new(EXE)
                .args(["run", "--quick", "--seconds", "0.2", "--seed", "7"])
                .args(["--workload", workload, "--trace", trace])
                .output()
                .expect("benchmark starts");
            let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
            assert!(
                out.status.success(),
                "{workload} --trace {trace} failed:\n{stdout}"
            );
            assert!(
                !stdout.contains("FAIL"),
                "{workload}: a gate failed:\n{stdout}"
            );
            let last = stdout.lines().last().expect("a last line");
            assert!(
                last.starts_with("{\"correct\": true, \"attempted\": "),
                "{last}"
            );
            assert!(last.contains("\"failed\": 0, \"metrics\": {"), "{last}");
            assert_eq!(
                last.matches("\"value\": ").count(),
                metrics.len(),
                "{workload} --trace {trace} must report exactly the declared metrics"
            );
            for name in metrics {
                assert!(
                    last.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{workload}: no {name}"
                );
            }
        }
    }
}

#[test]
fn bad_command_lines_exit_without_a_result() {
    for args in [
        &["run", "--workload", "no_such_workload"][..],
        &["run", "--seconds", "0"],
        &["aa", "--runs", "2"],
        &["compare", "only-one.json"],
        &["frobnicate"],
        &[],
    ] {
        let out = Command::new(EXE)
            .args(args)
            .output()
            .expect("benchmark starts");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
