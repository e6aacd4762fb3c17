//! E14 — the scale sweep: open-loop tail latency and message cost at
//! 8→128 groups, per registry arm.
//!
//! Each cell drives one arm's paper-exact stack on a symmetric `k×d`
//! topology under Poisson arrivals with Zipf-skewed destination pairs
//! (broadcast arms address every group), then reports p50/p99/p999
//! delivery and commit latency plus inter/intra-group sends per operation,
//! derived post-run from the simulator's recorded timestamps (see
//! `wamcast_harness::scale` for the determinism argument).
//!
//! ```text
//! scale_sweep                                   # full sweep: 8,32,64,128 × 5 arms
//! scale_sweep --groups 8,32 --arms a1,skeen     # a subset
//! scale_sweep --per-group 4 --rate 50 --horizon-ms 500
//! scale_sweep --json BENCH_scale.json           # also write the artifact
//! scale_sweep --smoke                           # CI shape: 32 groups, small d,
//!                                               # every arm run twice, exits 1 on
//!                                               # any fingerprint instability
//! ```
//!
//! Cells that exhaust their step budget are reported as DNF with the
//! partial-run numbers — at 64+ groups the broadcast-shape baselines are
//! *expected* to DNF under the default budget; that asymmetry is the
//! experiment's point, not a failure of the sweep.

use std::process::ExitCode;
use std::time::Duration;
use wamcast_harness::cli::parse_u64;
use wamcast_harness::scale::{run_cell, table, to_json, ScaleCell, ScaleConfig};
use wamcast_harness::StackRegistry;

/// The default arm subset: the paper arms plus the two strongest genuine
/// baselines — enough to show the genuine-vs-global-ordering divergence
/// without running every sequencer variant at 128 groups.
const DEFAULT_ARMS: &str = "a1,a1-batched,a2,ring,skeen";

fn main() -> ExitCode {
    let mut groups: Vec<usize> = vec![8, 32, 64, 128];
    let mut arms_spec = DEFAULT_ARMS.to_string();
    let mut cfg = ScaleConfig::default();
    let mut json_out: Option<String> = None;
    let mut smoke = false;

    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut grab = |name: &str| -> Result<String, String> {
            it.next().ok_or_else(|| format!("{name} requires a value"))
        };
        let r = (|| -> Result<(), String> {
            match flag.as_str() {
                "--groups" => {
                    groups = grab("--groups")?
                        .split(',')
                        .map(|s| parse_u64("--groups", s.trim()).map(|v| v as usize))
                        .collect::<Result<_, _>>()?;
                }
                "--arms" => arms_spec = grab("--arms")?,
                "--per-group" => {
                    cfg.per_group = parse_u64("--per-group", &grab("--per-group")?)? as usize;
                }
                "--rate" => {
                    cfg.rate_per_sec = grab("--rate")?
                        .parse()
                        .map_err(|e| format!("--rate: {e}"))?;
                }
                "--horizon-ms" => {
                    cfg.horizon =
                        Duration::from_millis(parse_u64("--horizon-ms", &grab("--horizon-ms")?)?);
                }
                "--theta" => {
                    cfg.theta = grab("--theta")?
                        .parse()
                        .map_err(|e| format!("--theta: {e}"))?;
                }
                "--seed" => cfg.seed = parse_u64("--seed", &grab("--seed")?)?,
                "--max-steps" => cfg.max_steps = parse_u64("--max-steps", &grab("--max-steps")?)?,
                "--json" => json_out = Some(grab("--json")?),
                "--smoke" => smoke = true,
                other => return Err(format!("unknown flag {other}")),
            }
            Ok(())
        })();
        if let Err(e) = r {
            eprintln!("scale_sweep: {e}");
            return ExitCode::from(2);
        }
    }

    if smoke {
        // The CI shape: one 32-group cell per arm, small groups so the
        // broadcast arms finish too, and every cell run twice to pin the
        // registry-dump fingerprint (the determinism contract).
        groups = vec![32];
        cfg.per_group = 4;
        cfg.rate_per_sec = 50.0;
        cfg.horizon = Duration::from_millis(500);
        arms_spec = "all".to_string();
    }

    let arms = match StackRegistry::standard().subset(&arms_spec) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("scale_sweep: {e}");
            return ExitCode::from(2);
        }
    };

    let mut cells: Vec<ScaleCell> = Vec::new();
    let mut unstable = 0u32;
    for &k in &groups {
        for arm in &arms {
            let cell = run_cell(arm, k, &cfg);
            eprintln!(
                "scale_sweep: {} k={} n={} [{}] {:.2}s",
                cell.arm,
                k,
                cell.processes(),
                cell.status(),
                cell.wall.as_secs_f64()
            );
            if smoke {
                let again = run_cell(arm, k, &cfg);
                if again.fingerprint() != cell.fingerprint() {
                    eprintln!(
                        "scale_sweep: UNSTABLE fingerprint for {} at k={}: {:#018x} vs {:#018x}",
                        cell.arm,
                        k,
                        cell.fingerprint(),
                        again.fingerprint()
                    );
                    unstable += 1;
                }
            }
            cells.push(cell);
        }
    }

    println!("{}", table(&cells).render());
    if let Some(path) = json_out {
        let json = to_json(&cfg, &cells);
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("scale_sweep: writing {path}: {e}");
            return ExitCode::from(1);
        }
        eprintln!("scale_sweep: wrote {path}");
    }
    if unstable > 0 {
        eprintln!("scale_sweep: {unstable} unstable cell(s)");
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
