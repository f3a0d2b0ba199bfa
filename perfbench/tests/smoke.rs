//! Short-run smoke test: every workload completes with zero failed ops,
//! prints every metric `BENCHMARK.json` names with its unit, and writes a
//! trace that the workspace's `trace_check` validator accepts.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use guardrail_obs::json::{self, Json};
use std::path::PathBuf;
use std::process::Command;

/// `(name, unit)` of each metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(Json::as_arr)
        .expect("metric section")
        .iter()
        .map(|m| {
            let field =
                |k: &str| m.get(k).and_then(Json::as_str).expect("name and unit").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs one short benchmark invocation and returns its result object.
fn run(workload: &str, trace: bool, trace_out: &PathBuf) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--trace-out")
        .arg(trace_out)
        .output()
        .expect("benchmark starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload}: exit {:?}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result = json::parse(last).expect("the last line is JSON");
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{workload}: {last}");
    assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0), "{workload}: {last}");
    assert!(result.get("attempted").and_then(Json::as_u64).is_some_and(|n| n >= 1), "{last}");
    result
}

fn assert_metrics(workload: &str, result: &Json, section: &str) {
    let metrics = result.get("metrics").expect("metrics object");
    for (name, unit) in declared(section) {
        let metric = metrics.get(&name).unwrap_or_else(|| panic!("{workload}: {name} missing"));
        assert!(
            metric.get("value").and_then(Json::as_num).is_some(),
            "{workload}: {name} has no value"
        );
        assert_eq!(
            metric.get("unit").and_then(Json::as_str),
            Some(unit.as_str()),
            "{workload}: {name} unit"
        );
    }
}

fn smoke(workload: &str) {
    let trace_out =
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{workload}.trace.json"));
    let untraced = run(workload, false, &trace_out);
    assert_metrics(workload, &untraced, "end_to_end");
    let traced = run(workload, true, &trace_out);
    assert_metrics(workload, &traced, "per_layer");
    let check = Command::new(env!("CARGO_BIN_EXE_trace_check"))
        .arg(&trace_out)
        .arg("op")
        .output()
        .expect("trace_check starts");
    assert!(check.status.success(), "trace_check: {}", String::from_utf8_lossy(&check.stderr));
}

#[test]
fn offline_synth() {
    smoke("offline_synth");
}

#[test]
fn sql_guarded() {
    smoke("sql_guarded");
}

#[test]
fn serve_read() {
    smoke("serve_read");
}
