//! `compare`: two sets of run directories (as `all --out DIR` writes
//! them), judged metric by metric against the bounds in `BENCHMARK.json`.

use crate::report::Json;
use crate::stats;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// One end-to-end metric of the spec.
struct Gate {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The values of `metric` on `workload` across `dirs` (one per directory
/// that has the workload's end-to-end result).
fn values(dirs: &[PathBuf], workload: &str, metric: &str) -> Result<Vec<f64>, String> {
    let mut out = Vec::new();
    for dir in dirs {
        let path = dir.join(format!("{workload}.e2e.json"));
        if !path.exists() {
            continue;
        }
        let v = read_json(&path)?
            .get("metrics")
            .and_then(|m| m.get(metric))
            .and_then(|m| m.get("value"))
            .and_then(Json::num)
            .ok_or_else(|| format!("{}: no metric {metric}", path.display()))?;
        out.push(v);
    }
    Ok(out)
}

/// Median and quartile spread (as a share of the median) of a sample set.
fn summary(xs: &[f64]) -> (f64, f64, f64, f64) {
    let med = stats::median(xs.to_vec());
    let (q1, q3) = stats::quartiles(xs.to_vec()).unwrap_or((med, med));
    (
        med,
        q1,
        q3,
        if med == 0.0 {
            0.0
        } else {
            (q3 - q1) / med.abs()
        },
    )
}

/// Renders the comparison table of run sets `a` (the reference) and `b`.
///
/// Per workload and end-to-end metric: each side's median and quartiles,
/// how much worse `b`'s median is as a share of `a`'s (negative = better),
/// the metric's bound, and a verdict — `unresolved` when either side's
/// own quartile spread exceeds the bound, `worse` when `b` is worse than
/// `a` by more than the bound, `same` otherwise.
///
/// # Errors
///
/// An unreadable or malformed spec or result file, or an empty side.
pub fn compare(spec: &Path, a: &[PathBuf], b: &[PathBuf]) -> Result<String, String> {
    if a.is_empty() || b.is_empty() {
        return Err("compare needs --a DIR[,DIR…] and --b DIR[,DIR…]".into());
    }
    let spec = read_json(spec)?;
    let field = |m: &Json, k: &str| m.get(k).and_then(Json::str).map(str::to_string);
    let gates: Vec<Gate> = spec
        .get("end_to_end")
        .map(Json::items)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| {
            Some(Gate {
                name: field(m, "name")?,
                lower_is_better: field(m, "better")? == "lower",
                bound: m.get("bound")?.num()?,
            })
        })
        .collect();
    let workloads: Vec<String> = spec
        .get("workloads")
        .map(Json::items)
        .unwrap_or_default()
        .iter()
        .filter_map(|w| field(w, "name"))
        .collect();
    if gates.is_empty() || workloads.is_empty() {
        return Err("spec lists no end_to_end metrics or no workloads".into());
    }

    let mut table = format!(
        "{:<11} {:<14} {:>12} {:>25} {:>12} {:>25} {:>8} {:>6}  verdict\n",
        "workload", "metric", "median a", "[q1, q3] a", "median b", "[q1, q3] b", "worse", "bound"
    );
    for w in &workloads {
        for g in &gates {
            let (va, vb) = (values(a, w, &g.name)?, values(b, w, &g.name)?);
            if va.is_empty() || vb.is_empty() {
                let _ = writeln!(table, "{w:<11} {:<14} (not in both sets)", g.name);
                continue;
            }
            let (ma, a1, a3, spread_a) = summary(&va);
            let (mb, b1, b3, spread_b) = summary(&vb);
            let change = if ma == 0.0 { 0.0 } else { (mb - ma) / ma.abs() };
            let worse = if g.lower_is_better { change } else { -change };
            let verdict = if spread_a.max(spread_b) > g.bound {
                "unresolved"
            } else if worse > g.bound {
                "worse"
            } else {
                "same"
            };
            let _ = writeln!(
                table,
                "{w:<11} {:<14} {ma:>12.4} {:>25} {mb:>12.4} {:>25} {:>+8.4} {:>6.3}  {verdict}",
                g.name,
                format!("[{a1:.4}, {a3:.4}]"),
                format!("[{b1:.4}, {b3:.4}]"),
                worse,
                g.bound,
            );
        }
    }
    Ok(table)
}
