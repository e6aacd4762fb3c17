//! One-second smoke of every workload in both modes, through the binary
//! exactly as `BENCHMARK.json`'s command reaches it: the report names
//! every metric with its unit, and the last line is the result object.

use std::process::Command;
use wamcast_benchmark::report::{Json, Outcome, WORKLOADS};

fn smoke(workload: &str, trace: bool) {
    let output = Command::new(env!("CARGO_BIN_EXE_wamcast-benchmark"))
        .args(["--workload", workload, "--seed", "11", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 report");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "{workload}: {stdout}\n{stderr}");
    let line = stdout.lines().last().expect("a result line");
    let result = Json::parse(line).unwrap_or_else(|e| panic!("{workload}: {e}: {line}"));
    let Json::Obj(members) = &result else {
        panic!("result is not an object");
    };
    let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{stdout}");
    assert!(
        result
            .get("attempted")
            .and_then(Json::num)
            .expect("attempted")
            >= 1.0
    );
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("metrics is not an object");
    };
    let spec = Outcome::spec(trace);
    assert_eq!(metrics.len(), spec.len(), "exactly the listed metrics");
    for ((name, value), (want_name, want_unit)) in metrics.iter().zip(spec) {
        assert_eq!(name, want_name);
        assert_eq!(value.get("unit").and_then(Json::str), Some(*want_unit));
        let v = value
            .get("value")
            .and_then(Json::num)
            .expect("numeric value");
        assert!(v.is_finite(), "{name} = {v}");
        let shown = stdout
            .lines()
            .any(|l| l.split_whitespace().next() == Some(name) && l.ends_with(want_unit));
        assert!(
            shown,
            "{workload}: report does not show {name} in {want_unit}"
        );
    }
}

/// One test, so the eight runs take turns: two clusters at once on a
/// small box would fail each other's timing self-checks.
#[test]
fn every_workload_reports_every_metric_in_both_modes() {
    for w in WORKLOADS {
        smoke(w, false);
        smoke(w, true);
    }
}
