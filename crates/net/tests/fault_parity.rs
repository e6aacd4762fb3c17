//! The fate stream of the fault-application choke point.
//!
//! The socket runtime consults one shared [`WallFaults`] per outbound
//! copy. These tests pin what makes a faulted run describable by
//! `(FaultPlan, seed)`: for an identical plan, seed and send sequence the
//! fate stream is identical, a different seed draws a different one, and
//! probability-1 rules are certain. What a fate *means* in frames on the
//! wire is pinned on the node's send path itself
//! (`tcp::node::tests::adversary_fates_map_to_copies_on_the_send_path`).

use std::time::Duration;
use wamcast_net::WallFaults;
use wamcast_types::{FaultConfig, FaultPlan, LinkFate, ProcessId, Topology};

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
