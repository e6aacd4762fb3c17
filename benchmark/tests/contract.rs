//! `BENCHMARK.json` and the package must tell the same story, and the
//! file must stay inside the limits its consumer enforces.

use std::path::Path;
use wamcast_benchmark::report::{Json, END_TO_END, PER_LAYER, WORKLOADS};

fn spec() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
    assert!(text.len() <= 64 * 1024, "spec larger than 64 KiB");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn text<'a>(v: &'a Json, key: &str) -> &'a str {
    v.get(key)
        .and_then(Json::str)
        .unwrap_or_else(|| panic!("string member {key} in {v:?}"))
}

fn is_name(s: &str) -> bool {
    s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn spec_has_exactly_the_contract_keys() {
    let Json::Obj(members) = spec() else {
        panic!("spec is not an object");
    };
    let mut keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    keys.sort_unstable();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
}

#[test]
fn workloads_match_the_package() {
    let spec = spec();
    let listed: Vec<&str> = spec
        .get("workloads")
        .expect("workloads")
        .items()
        .iter()
        .map(|w| {
            let why = text(w, "why");
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "why too long: {why}"
            );
            text(w, "name")
        })
        .collect();
    assert_eq!(listed, WORKLOADS);
    let seconds = spec
        .get("run_seconds")
        .and_then(Json::num)
        .expect("run_seconds");
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
}

#[test]
fn end_to_end_metrics_match_the_package_and_carry_bounds() {
    let spec = spec();
    let listed = spec.get("end_to_end").expect("end_to_end").items();
    let names: Vec<(&str, &str)> = listed
        .iter()
        .map(|m| (text(m, "name"), text(m, "unit")))
        .collect();
    assert_eq!(names, END_TO_END);
    for m in listed {
        let bound = m.get("bound").and_then(Json::num).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25, "{m:?}");
        assert!(["lower", "higher"].contains(&text(m, "better")));
    }
    let setup = &listed[0];
    assert_eq!(
        (
            text(setup, "name"),
            text(setup, "unit"),
            text(setup, "better")
        ),
        ("setup_s", "s", "lower")
    );
    let widest = listed
        .iter()
        .filter_map(|m| m.get("bound").and_then(Json::num))
        .fold(0.0, f64::max);
    assert_eq!(
        setup.get("bound").and_then(Json::num),
        Some(widest),
        "setup_s has the largest bound"
    );
}

#[test]
fn per_layer_metrics_match_the_package() {
    let spec = spec();
    let listed = spec.get("per_layer").expect("per_layer").items();
    assert!((1..=128).contains(&listed.len()));
    let names: Vec<(&str, &str)> = listed
        .iter()
        .map(|m| (text(m, "name"), text(m, "unit")))
        .collect();
    assert_eq!(names, PER_LAYER);
    for m in listed {
        assert!(["lower", "higher"].contains(&text(m, "better")));
        assert!(m.get("bound").is_none(), "per-layer metrics have no bound");
    }
}

#[test]
fn every_name_and_unit_is_well_formed_and_unique() {
    let mut seen = std::collections::BTreeSet::new();
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(is_name(name), "{name}");
        assert!(is_unit(unit), "{unit}");
        assert!(seen.insert(*name), "{name} listed twice");
    }
    for w in WORKLOADS {
        assert!(is_name(w) && seen.insert(w), "{w}");
    }
}
