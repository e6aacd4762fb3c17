//! Differential test for the fault-application choke point.
//!
//! Both wall-clock runtimes — the mpsc `Cluster` and the TCP runtime —
//! consult one shared [`WallFaults`] per outbound copy. This test pins the
//! property that makes that sharing meaningful: for identical
//! `(FaultPlan, seed)` and an identical send sequence, the fate stream is
//! identical, so neither runtime can drift into its own drop/duplication
//! semantics.

use std::time::Duration;
use wamcast_net::WallFaults;
use wamcast_types::{FaultConfig, FaultPlan, LinkFate, ProcessId, SimTime, Topology};

/// A deterministic send sequence: every ordered pair of a 6-process
/// topology, many times over.
fn send_sequence(n: u32, rounds: usize) -> Vec<(ProcessId, ProcessId)> {
    let mut seq = Vec::new();
    for _ in 0..rounds {
        for from in 0..n {
            for to in 0..n {
                if from != to {
                    seq.push((ProcessId(from), ProcessId(to)));
                }
            }
        }
    }
    seq
}

fn fates(faults: &WallFaults, seq: &[(ProcessId, ProcessId)]) -> Vec<LinkFate> {
    seq.iter().map(|&(f, t)| faults.fate(f, t)).collect()
}

/// The number of copies a runtime actually transmits for one fate — the
/// shared interpretation both `Cluster::spawn_faulty`'s channel path and
/// the TCP node apply.
fn copies(fate: &LinkFate) -> usize {
    if fate.dropped {
        0
    } else if fate.duplicate.is_some() {
        2
    } else {
        1
    }
}

fn busy_plan(seed: u64) -> FaultPlan {
    // A compiled plan with loss, duplication and a partition window, all
    // active from t=0 so wall-clock skew between the two draws cannot
    // change which rules are live.
    let topo = Topology::symmetric(3, 2);
    let cfg = FaultConfig {
        max_crashes: 0,
        fault_horizon: Duration::from_secs(3600),
        ..FaultConfig::default()
    };
    cfg.compile(&topo, seed)
}

#[test]
fn identical_seeds_draw_identical_fate_streams() {
    for seed in [1u64, 7, 0xFEED, u64::MAX / 3] {
        let plan = busy_plan(seed);
        let a = WallFaults::new(plan.clone(), seed);
        let b = WallFaults::new(plan, seed);
        let seq = send_sequence(6, 50);
        assert_eq!(
            fates(&a, &seq),
            fates(&b, &seq),
            "seed {seed}: two adversaries over the same plan diverged"
        );
    }
}

#[test]
fn different_seeds_diverge() {
    // A plan with genuinely probabilistic rules on every sampled link, so
    // the seed has something to decide.
    let mut plan = FaultPlan::none();
    for from in 0..6u32 {
        for to in 0..6u32 {
            if from != to {
                plan = plan.with_drop(ProcessId(from), ProcessId(to), 0.5);
            }
        }
    }
    let seq = send_sequence(6, 50);
    let a = fates(&WallFaults::new(plan.clone(), 3), &seq);
    let b = fates(&WallFaults::new(plan, 4), &seq);
    assert_ne!(a, b, "distinct seeds should draw distinct fate streams");
}

#[test]
fn copy_interpretation_is_shared() {
    // Pin the mapping fate -> transmitted copies that both runtimes use:
    // dropped beats duplicated, duplication transmits exactly one extra.
    let clean = LinkFate::CLEAN;
    assert_eq!(copies(&clean), 1);
    let dropped = LinkFate {
        dropped: true,
        ..LinkFate::CLEAN
    };
    assert_eq!(copies(&dropped), 0);
    let dup = LinkFate {
        duplicate: Some(0.5),
        ..LinkFate::CLEAN
    };
    assert_eq!(copies(&dup), 2);
    let both = LinkFate {
        dropped: true,
        duplicate: Some(0.5),
        ..LinkFate::CLEAN
    };
    assert_eq!(copies(&both), 0, "a dropped copy is never duplicated");

    // And the interpretation over a real stream is deterministic.
    let plan = busy_plan(11);
    let seq = send_sequence(6, 20);
    let a: Vec<usize> = fates(&WallFaults::new(plan.clone(), 11), &seq)
        .iter()
        .map(copies)
        .collect();
    let b: Vec<usize> = fates(&WallFaults::new(plan, 11), &seq)
        .iter()
        .map(copies)
        .collect();
    assert_eq!(a, b);
}

#[test]
fn total_drop_plan_drops_everything() {
    let plan = FaultPlan::none()
        .with_drop(ProcessId(0), ProcessId(1), 1.0)
        .with_drop(ProcessId(1), ProcessId(0), 1.0);
    let faults = WallFaults::new(plan, 99);
    for _ in 0..100 {
        assert!(faults.fate(ProcessId(0), ProcessId(1)).dropped);
        assert!(faults.fate(ProcessId(1), ProcessId(0)).dropped);
        // Untouched links stay clean.
        let clean = faults.fate(ProcessId(2), ProcessId(3));
        assert!(!clean.dropped && clean.duplicate.is_none());
    }
}

#[test]
fn plan_inspection_matches_input() {
    let at = SimTime::from_nanos(5);
    let plan = FaultPlan::none().with_crash(at, ProcessId(2));
    let faults = WallFaults::new(plan, 0);
    let crashes = faults.with_plan(|p| p.crashes.clone());
    assert_eq!(crashes, vec![(at, ProcessId(2))]);
}
