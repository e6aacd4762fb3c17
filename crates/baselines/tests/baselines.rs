//! Integration tests: every baseline run under the simulator, checked
//! against the §2.2 properties and its Figure 1 latency degree.

use std::time::Duration;
use wamcast_baselines::{
    fritzke_multicast, DeterministicMerge, OptimisticBroadcast, RingMulticast, RodriguesMulticast,
    SequencerBroadcast, SkeenMulticast,
};
use wamcast_sim::{invariants, SimConfig, Simulation};
use wamcast_types::{
    GroupId, GroupSet, MessageId, Payload, ProcessId, Protocol, SimTime, Topology,
};

fn check_ordering<P: Protocol>(sim: &Simulation<P>) {
    let correct = sim.alive_processes();
    invariants::check_all(sim.topology(), sim.metrics(), &correct).assert_ok();
}

/// Casts one message to `dest` at t=0 from p0 and returns (degree, sim).
fn one_shot<P: Protocol>(
    k: usize,
    d: usize,
    dest: GroupSet,
    factory: impl FnMut(ProcessId, &Topology) -> P,
) -> (u64, Simulation<P>) {
    let cfg = SimConfig::default().with_seed(99);
    let mut sim = Simulation::new(Topology::symmetric(k, d), cfg, factory);
    let id = sim.cast_at(SimTime::ZERO, ProcessId(0), dest, Payload::new());
    let ok = sim.run_until_delivered(&[id], SimTime::from_millis(600_000));
    assert!(ok, "message not delivered");
    let deg = sim.metrics().latency_degree(id).expect("delivered");
    (deg, sim)
}

// ---------------------------------------------------------------- Skeen

#[test]
fn skeen_two_groups_degree_two() {
    let dest = GroupSet::first_n(2);
    let (deg, mut sim) = one_shot(2, 3, dest, |p, _| SkeenMulticast::new(p));
    assert_eq!(
        deg, 2,
        "Skeen is latency-degree optimal (paper §1 corollary)"
    );
    sim.run_to_quiescence();
    check_ordering(&sim);
    invariants::check_genuineness(sim.topology(), sim.metrics()).assert_ok();
}

#[test]
fn skeen_orders_concurrent_multicasts() {
    let cfg = SimConfig::default().with_seed(5);
    let mut sim = Simulation::new(Topology::symmetric(3, 2), cfg, |p, _| {
        SkeenMulticast::new(p)
    });
    let g01 = GroupSet::from_iter([GroupId(0), GroupId(1)]);
    let g12 = GroupSet::from_iter([GroupId(1), GroupId(2)]);
    let mut ids = Vec::new();
    for i in 0..10u64 {
        let dest = if i % 2 == 0 { g01 } else { g12 };
        ids.push(sim.cast_at(
            SimTime::from_millis(i * 3),
            ProcessId((i % 6) as u32),
            dest,
            Payload::new(),
        ));
    }
    assert!(sim.run_until_delivered(&ids, SimTime::from_millis(600_000)));
    sim.run_to_quiescence();
    check_ordering(&sim);
}

#[test]
fn skeen_blocks_on_crash() {
    // Skeen is failure-free by design: a crashed destination process means
    // its proposal never arrives and nothing addressed to it delivers.
    let cfg = SimConfig::default().with_seed(6);
    let mut sim = Simulation::new(Topology::symmetric(2, 2), cfg, |p, _| {
        SkeenMulticast::new(p)
    });
    sim.crash_at(SimTime::ZERO, ProcessId(3));
    let id = sim.cast_at(
        SimTime::from_millis(1),
        ProcessId(0),
        GroupSet::first_n(2),
        Payload::new(),
    );
    let ok = sim.run_until_delivered(&[id], SimTime::from_millis(60_000));
    assert!(!ok, "Skeen should block when a destination crashed");
}

// -------------------------------------------------------------- Fritzke

#[test]
fn fritzke_two_groups_degree_two() {
    let dest = GroupSet::first_n(2);
    let (deg, mut sim) = one_shot(2, 3, dest, fritzke_multicast);
    assert_eq!(deg, 2, "Figure 1a row [5]");
    sim.run_to_quiescence();
    check_ordering(&sim);
    invariants::check_genuineness(sim.topology(), sim.metrics()).assert_ok();
}

// ------------------------------------------------------------------ Ring

#[test]
fn ring_latency_grows_with_group_count() {
    // Figure 1a row [4]: latency degree k+1 — one hop to the first
    // destination group, k−1 hand-offs, one final fan-out. The paper's
    // accounting places the caster in one of the k groups; the full k+1
    // shows when the caster is not in the *first* group (otherwise the
    // initial hop is free and the degree is k; tested separately below).
    for k in [2usize, 3, 4] {
        let d = 2;
        let dest = GroupSet::first_n(k);
        let cfg = SimConfig::default().with_seed(99);
        let mut sim = Simulation::new(Topology::symmetric(k, d), cfg, RingMulticast::new);
        // Caster in the last destination group.
        let caster = ProcessId(((k - 1) * d) as u32);
        let id = sim.cast_at(SimTime::ZERO, caster, dest, Payload::new());
        assert!(sim.run_until_delivered(&[id], SimTime::from_millis(600_000)));
        let deg = sim.metrics().latency_degree(id).unwrap();
        assert_eq!(deg as usize, k + 1, "ring multicast to {k} groups");
        sim.run_to_quiescence();
        check_ordering(&sim);
        invariants::check_genuineness(sim.topology(), sim.metrics()).assert_ok();
    }
}

#[test]
fn ring_caster_in_first_group_saves_one_hop() {
    let dest = GroupSet::first_n(3);
    let (deg, mut sim) = one_shot(3, 2, dest, RingMulticast::new);
    assert_eq!(deg, 3, "caster in g0: k hops instead of k+1");
    sim.run_to_quiescence();
    check_ordering(&sim);
}

#[test]
fn ring_single_group_fast() {
    let dest = GroupSet::singleton(GroupId(0));
    let (deg, mut sim) = one_shot(2, 2, dest, RingMulticast::new);
    assert_eq!(deg, 0, "caster in the only destination group");
    sim.run_to_quiescence();
    check_ordering(&sim);
}

#[test]
fn ring_orders_overlapping_multicasts() {
    let cfg = SimConfig::default().with_seed(7);
    let mut sim = Simulation::new(Topology::symmetric(3, 2), cfg, RingMulticast::new);
    let g01 = GroupSet::from_iter([GroupId(0), GroupId(1)]);
    let g12 = GroupSet::from_iter([GroupId(1), GroupId(2)]);
    let g02 = GroupSet::from_iter([GroupId(0), GroupId(2)]);
    let mut ids = Vec::new();
    for i in 0..9u64 {
        let dest = [g01, g12, g02][(i % 3) as usize];
        ids.push(sim.cast_at(
            SimTime::from_millis(i * 5),
            ProcessId((i % 6) as u32),
            dest,
            Payload::new(),
        ));
    }
    assert!(
        sim.run_until_delivered(&ids, SimTime::from_millis(600_000)),
        "ring multicasts not all delivered"
    );
    sim.run_to_quiescence();
    check_ordering(&sim);
}

#[test]
fn ring_tolerates_member_crash() {
    let cfg = SimConfig::default().with_seed(8);
    let mut sim = Simulation::new(Topology::symmetric(2, 3), cfg, RingMulticast::new);
    // Crash a non-coordinator member of the first group mid-run.
    sim.crash_at(SimTime::from_millis(50), ProcessId(1));
    let id = sim.cast_at(
        SimTime::from_millis(60),
        ProcessId(0),
        GroupSet::first_n(2),
        Payload::new(),
    );
    assert!(sim.run_until_delivered(&[id], SimTime::from_millis(600_000)));
    check_ordering(&sim);
}

// ------------------------------------------------------------- Rodrigues

#[test]
fn rodrigues_two_groups_degree_four() {
    let dest = GroupSet::first_n(2);
    let (deg, mut sim) = one_shot(2, 3, dest, |p, _| RodriguesMulticast::new(p));
    assert_eq!(deg, 4, "Figure 1a row [10]");
    sim.run_to_quiescence();
    check_ordering(&sim);
    invariants::check_genuineness(sim.topology(), sim.metrics()).assert_ok();
}

#[test]
fn rodrigues_orders_concurrent_multicasts() {
    let cfg = SimConfig::default().with_seed(9);
    let mut sim = Simulation::new(Topology::symmetric(2, 2), cfg, |p, _| {
        RodriguesMulticast::new(p)
    });
    let dest = GroupSet::first_n(2);
    let mut ids = Vec::new();
    for i in 0..8u64 {
        ids.push(sim.cast_at(
            SimTime::from_millis(i * 4),
            ProcessId((i % 4) as u32),
            dest,
            Payload::new(),
        ));
    }
    assert!(sim.run_until_delivered(&ids, SimTime::from_millis(600_000)));
    sim.run_to_quiescence();
    check_ordering(&sim);
}

// ------------------------------------------------------------ Optimistic

#[test]
fn optimistic_final_degree_two_and_tentative_order() {
    // Cast from a non-sequencer process in another group, so the final
    // delivery takes dissemination (1) + sequencer fan-out (2). A cast by
    // the sequencer itself would collapse the two (degree 1).
    let cfg = SimConfig::default().with_seed(99);
    let mut sim = Simulation::new(Topology::symmetric(2, 3), cfg, |p, _| {
        OptimisticBroadcast::new(p, Duration::from_millis(5))
    });
    let dest = GroupSet::first_n(2);
    let id = sim.cast_at(SimTime::ZERO, ProcessId(3), dest, Payload::new());
    assert!(sim.run_until_delivered(&[id], SimTime::from_millis(600_000)));
    assert_eq!(
        sim.metrics().latency_degree(id),
        Some(2),
        "Figure 1b row [12]: final delivery"
    );
    sim.run_until(SimTime::from_millis(10_000));
    check_ordering(&sim);
    // The optimistic delivery happened at every process too.
    for p in sim.topology().processes() {
        assert_eq!(sim.protocol(p).optimistic_order().len(), 1, "{p}");
    }
}

#[test]
fn optimistic_total_order_across_senders() {
    let cfg = SimConfig::default().with_seed(10);
    let mut sim = Simulation::new(Topology::symmetric(2, 2), cfg, |p, _| {
        OptimisticBroadcast::new(p, Duration::from_millis(50))
    });
    let dest = GroupSet::first_n(2);
    let mut ids = Vec::new();
    for i in 0..10u64 {
        ids.push(sim.cast_at(
            SimTime::from_millis(i * 7),
            ProcessId((i % 4) as u32),
            dest,
            Payload::new(),
        ));
    }
    assert!(sim.run_until_delivered(&ids, SimTime::from_millis(600_000)));
    sim.run_until(SimTime::from_millis(700_000));
    check_ordering(&sim);
    // All processes converge on the sequencer's order.
    let reference: Vec<MessageId> = sim.metrics().delivered_seq[0].clone();
    for p in sim.topology().processes() {
        assert_eq!(sim.metrics().delivered_seq[p.index()], reference);
    }
}

// ------------------------------------------------------------- Sequencer

#[test]
fn sequencer_degree_two_uniform() {
    let dest = GroupSet::first_n(2);
    let (deg, mut sim) = one_shot(2, 3, dest, |p, _| SequencerBroadcast::new(p));
    assert_eq!(deg, 2, "Figure 1b row [13]");
    sim.run_to_quiescence();
    check_ordering(&sim);
}

#[test]
fn sequencer_message_complexity_is_quadratic() {
    // O(n²) inter-group messages (the votes dominate).
    let dest = GroupSet::first_n(2);
    let (_, sim_small) = one_shot(2, 2, dest, |p, _| SequencerBroadcast::new(p));
    let (_, sim_large) = one_shot(2, 4, dest, |p, _| SequencerBroadcast::new(p));
    let small = sim_small.metrics().inter_sends;
    let large = sim_large.metrics().inter_sends;
    // n doubled (4 -> 8): inter-group messages should grow ~4x.
    assert!(
        large >= 3 * small,
        "expected quadratic growth: {small} -> {large}"
    );
}

// -------------------------------------------------------------- Detmerge

#[test]
fn detmerge_broadcast_degree_one() {
    // Figure 1b row [1]: latency degree 1, under its stronger model
    // (streams + synchronized clocks). Heartbeat period far above the
    // inter-group delay keeps unrelated nulls from inflating stamps.
    let cfg = SimConfig::default().with_seed(11);
    // Stagger the caster's heartbeat phase so none of its own heartbeats
    // falls between the cast and the delivery (see DeterministicMerge docs).
    let mut sim = Simulation::new(Topology::symmetric(2, 2), cfg, |p, _| {
        let phase = if p == ProcessId(0) {
            Duration::from_millis(500)
        } else {
            Duration::from_secs(1)
        };
        DeterministicMerge::with_phase(p, Duration::from_secs(1), phase)
    });
    let dest = sim.topology().all_groups();
    // Degree 1 rides timestamps *concurrent* with the cast — the essence of
    // [1]'s infinitely-many-messages model. Cast just before the other
    // publishers' heartbeats (at t = 2000 ms) so their nulls are emitted
    // after the cast instant but before m's copies reach them.
    let id = sim.cast_at(
        SimTime::from_millis(1950),
        ProcessId(0),
        dest,
        Payload::new(),
    );
    assert!(sim.run_until_delivered(&[id], SimTime::from_millis(60_000)));
    assert_eq!(sim.metrics().latency_degree(id), Some(1));
    check_ordering(&sim);
}

#[test]
fn detmerge_multicast_filters_destinations() {
    let cfg = SimConfig::default().with_seed(12);
    let mut sim = Simulation::new(Topology::symmetric(3, 1), cfg, |p, _| {
        DeterministicMerge::new(p, Duration::from_millis(500))
    });
    let dest = GroupSet::from_iter([GroupId(0), GroupId(1)]);
    let id = sim.cast_at(
        SimTime::from_millis(700),
        ProcessId(0),
        dest,
        Payload::new(),
    );
    assert!(sim.run_until_delivered(&[id], SimTime::from_millis(60_000)));
    assert!(!sim.metrics().has_delivered(ProcessId(2), id));
    assert!(sim.metrics().has_delivered(ProcessId(1), id));
    check_ordering(&sim);
    // Not genuine: the bystander g2 still receives null streams.
    assert!(sim.metrics().received_any[2]);
}

#[test]
fn detmerge_total_order_multiple_publishers() {
    let cfg = SimConfig::default().with_seed(13);
    let mut sim = Simulation::new(Topology::symmetric(2, 2), cfg, |p, _| {
        DeterministicMerge::new(p, Duration::from_millis(200))
    });
    let dest = sim.topology().all_groups();
    let mut ids = Vec::new();
    for i in 0..12u64 {
        ids.push(sim.cast_at(
            SimTime::from_millis(300 + i * 37),
            ProcessId((i % 4) as u32),
            dest,
            Payload::new(),
        ));
    }
    assert!(sim.run_until_delivered(&ids, SimTime::from_millis(60_000)));
    check_ordering(&sim);
    let reference = sim.metrics().delivered_seq[0].clone();
    assert_eq!(reference.len(), 12);
    for p in sim.topology().processes() {
        assert_eq!(sim.metrics().delivered_seq[p.index()], reference, "{p}");
    }
}

#[test]
fn detmerge_is_not_quiescent() {
    // The price of degree 1 by streams: heartbeats never stop (E10).
    let cfg = SimConfig::default().with_seed(14);
    let mut sim = Simulation::new(Topology::symmetric(2, 1), cfg, |p, _| {
        DeterministicMerge::new(p, Duration::from_millis(100))
    });
    sim.run_until(SimTime::from_millis(5_000));
    let r = invariants::check_quiescence(sim.metrics(), SimTime::from_millis(1_000));
    assert!(!r.is_ok(), "deterministic merge must keep heartbeating");
}

#[test]
fn detmerge_is_not_quiescent_without_the_send_log() {
    // The sweep drivers and the benchmark keep no send log; quiescence is
    // judged by the last send, which every run records.
    let cfg = SimConfig::default().with_seed(14).with_send_log(false);
    let mut sim = Simulation::new(Topology::symmetric(2, 1), cfg, |p, _| {
        DeterministicMerge::new(p, Duration::from_millis(100))
    });
    sim.run_until(SimTime::from_millis(5_000));
    assert!(sim.metrics().send_log.is_empty());
    let r = invariants::check_quiescence(sim.metrics(), SimTime::from_millis(1_000));
    assert!(!r.is_ok(), "deterministic merge must keep heartbeating");
}
