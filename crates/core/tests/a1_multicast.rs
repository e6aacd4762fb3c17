//! Integration tests for Algorithm A1 (genuine atomic multicast) under the
//! deterministic simulator.

use std::time::Duration;
use wamcast_core::{GenuineMulticast, MulticastConfig};
use wamcast_sim::{invariants, LatencyModel, NetConfig, SimConfig, Simulation};
use wamcast_types::{GroupId, GroupSet, MessageId, Payload, ProcessId, SimTime, Topology};

fn a1_sim(k: usize, d: usize, seed: u64) -> Simulation<GenuineMulticast> {
    let cfg = SimConfig::default().with_seed(seed);
    Simulation::new(Topology::symmetric(k, d), cfg, |p, topo| {
        GenuineMulticast::new(p, topo, MulticastConfig::default())
    })
}

fn check(sim: &Simulation<GenuineMulticast>) {
    let correct = sim.alive_processes();
    invariants::check_all(sim.topology(), sim.metrics(), &correct).assert_ok();
}

#[test]
fn theorem_4_1_two_group_multicast_has_latency_degree_two() {
    // The run of Theorem 4.1: one message A-MCast to two groups.
    let mut sim = a1_sim(2, 3, 1);
    let dest = GroupSet::from_iter([GroupId(0), GroupId(1)]);
    let id = sim.cast_at(SimTime::ZERO, ProcessId(0), dest, Payload::new());
    sim.run_to_quiescence();
    assert_eq!(sim.metrics().latency_degree(id), Some(2));
    assert_eq!(sim.metrics().delivered_by(id).len(), 6);
    check(&sim);
}

#[test]
fn single_group_local_cast_has_degree_zero() {
    // §4.3: "If m is multicast to one group, the latency degree is zero if
    // p ∈ g."
    let mut sim = a1_sim(2, 3, 2);
    let dest = GroupSet::singleton(GroupId(0));
    let id = sim.cast_at(SimTime::ZERO, ProcessId(0), dest, Payload::new());
    sim.run_to_quiescence();
    assert_eq!(sim.metrics().latency_degree(id), Some(0));
    assert_eq!(sim.metrics().delivered_by(id).len(), 3);
    check(&sim);
}

#[test]
fn single_group_remote_cast_has_degree_one() {
    // §4.3: "… and one otherwise."
    let mut sim = a1_sim(2, 3, 3);
    let dest = GroupSet::singleton(GroupId(1));
    let id = sim.cast_at(SimTime::ZERO, ProcessId(0), dest, Payload::new());
    sim.run_to_quiescence();
    assert_eq!(sim.metrics().latency_degree(id), Some(1));
    assert_eq!(sim.metrics().delivered_by(id).len(), 3);
    check(&sim);
}

#[test]
fn genuineness_bystander_group_stays_silent() {
    // Three groups; message addressed to g0 and g1 only. g2's processes
    // must neither send nor receive anything (genuineness, §2.2).
    let mut sim = a1_sim(3, 2, 4);
    let dest = GroupSet::from_iter([GroupId(0), GroupId(1)]);
    let id = sim.cast_at(SimTime::ZERO, ProcessId(0), dest, Payload::new());
    sim.run_to_quiescence();
    assert_eq!(sim.metrics().latency_degree(id), Some(2));
    invariants::check_genuineness(sim.topology(), sim.metrics()).assert_ok();
    for p in [ProcessId(4), ProcessId(5)] {
        assert!(!sim.metrics().sent_any[p.index()], "{p} sent");
        assert!(!sim.metrics().received_any[p.index()], "{p} received");
    }
    check(&sim);
}

#[test]
fn no_cast_no_traffic() {
    // Proposition 3.2's premise: a genuine algorithm is silent when nothing
    // is multicast.
    let mut sim = a1_sim(3, 3, 5);
    sim.run_until(SimTime::from_millis(10_000));
    assert_eq!(sim.metrics().intra_sends, 0);
    assert_eq!(sim.metrics().inter_sends, 0);
}

#[test]
fn concurrent_overlapping_multicasts_are_totally_ordered() {
    let mut sim = a1_sim(3, 2, 6);
    let g01 = GroupSet::from_iter([GroupId(0), GroupId(1)]);
    let g12 = GroupSet::from_iter([GroupId(1), GroupId(2)]);
    let g012 = GroupSet::first_n(3);
    // Concurrent casts from different origins to overlapping destinations.
    let ids = vec![
        sim.cast_at(SimTime::ZERO, ProcessId(0), g01, Payload::new()),
        sim.cast_at(SimTime::ZERO, ProcessId(2), g12, Payload::new()),
        sim.cast_at(SimTime::ZERO, ProcessId(4), g012, Payload::new()),
        sim.cast_at(SimTime::from_millis(1), ProcessId(1), g01, Payload::new()),
        sim.cast_at(SimTime::from_millis(2), ProcessId(5), g12, Payload::new()),
    ];
    assert!(sim.run_until_delivered(&ids, SimTime::from_millis(60_000)));
    sim.run_to_quiescence();
    check(&sim);
    // g1 (addressed by everything) delivered all five.
    assert_eq!(sim.metrics().delivered_seq[2].len(), 5);
}

#[test]
fn stress_many_messages_with_jitter() {
    // 40 messages, jittered links (reorders consensus traffic), overlapping
    // destinations; all invariants must hold and all messages deliver.
    let net = NetConfig {
        inter: LatencyModel::Uniform {
            min: Duration::from_millis(40),
            max: Duration::from_millis(160),
        },
        intra: LatencyModel::Uniform {
            min: Duration::from_micros(50),
            max: Duration::from_micros(500),
        },
        ..NetConfig::default()
    };
    let cfg = SimConfig::default().with_seed(7).with_net(net);
    let mut sim = Simulation::new(Topology::symmetric(3, 2), cfg, |p, topo| {
        GenuineMulticast::new(p, topo, MulticastConfig::default())
    });
    let dests = [
        GroupSet::from_iter([GroupId(0), GroupId(1)]),
        GroupSet::from_iter([GroupId(1), GroupId(2)]),
        GroupSet::from_iter([GroupId(0), GroupId(2)]),
        GroupSet::first_n(3),
        GroupSet::singleton(GroupId(1)),
    ];
    let mut ids = Vec::new();
    for i in 0..40u64 {
        let caster = ProcessId((i % 6) as u32);
        let dest = dests[(i % dests.len() as u64) as usize];
        ids.push(sim.cast_at(SimTime::from_millis(i * 7), caster, dest, Payload::new()));
    }
    assert!(
        sim.run_until_delivered(&ids, SimTime::from_millis(600_000)),
        "not all messages delivered"
    );
    sim.run_to_quiescence();
    check(&sim);
    for &m in &ids {
        let dest = sim.metrics().casts[&m].dest;
        let expect = sim.topology().processes_in(dest).count();
        assert_eq!(sim.metrics().delivered_by(m).len(), expect, "{m}");
    }
}

#[test]
fn caster_crash_after_send_still_delivers_uniformly() {
    // The caster crashes right after multicasting; uniform agreement must
    // still deliver the message at all correct addressed processes.
    let mut sim = a1_sim(2, 3, 8);
    let dest = GroupSet::from_iter([GroupId(0), GroupId(1)]);
    let id = sim.cast_at(SimTime::ZERO, ProcessId(0), dest, Payload::new());
    sim.crash_at(SimTime::from_micros(150), ProcessId(0));
    let done = sim.run_until_delivered(&[id], SimTime::from_millis(60_000));
    assert!(done, "message lost after caster crash");
    sim.run_until(SimTime::from_millis(120_000));
    let correct = sim.alive_processes();
    invariants::check_all(sim.topology(), sim.metrics(), &correct).assert_ok();
    assert_eq!(sim.metrics().delivered_by(id).len(), 5);
}

#[test]
fn group_coordinator_crash_is_tolerated() {
    // Crash the ballot-0 coordinator of g1 (p3) mid-protocol; consensus
    // recovery must let the multicast finish.
    let mut sim = a1_sim(2, 3, 9);
    let dest = GroupSet::from_iter([GroupId(0), GroupId(1)]);
    sim.crash_at(SimTime::from_millis(50), ProcessId(3));
    let id = sim.cast_at(SimTime::from_millis(60), ProcessId(0), dest, Payload::new());
    let done = sim.run_until_delivered(&[id], SimTime::from_millis(120_000));
    assert!(done, "multicast blocked by coordinator crash");
    let correct = sim.alive_processes();
    invariants::check_all(sim.topology(), sim.metrics(), &correct).assert_ok();
}

#[test]
fn fritzke_mode_same_order_more_consensus() {
    // The Fritzke [5] baseline (no stage skipping) must produce the same
    // delivery guarantees; the paper's point is that it merely runs more
    // intra-group consensus instances (more intra-group messages).
    let run = |skip: bool| {
        let cfg = SimConfig::default().with_seed(10);
        let mut sim = Simulation::new(Topology::symmetric(2, 3), cfg, |p, topo| {
            GenuineMulticast::new(
                p,
                topo,
                MulticastConfig {
                    skip_stages: skip,
                    ..MulticastConfig::default()
                },
            )
        });
        let dest = GroupSet::from_iter([GroupId(0), GroupId(1)]);
        let mut ids = Vec::new();
        for i in 0..6u64 {
            ids.push(sim.cast_at(
                SimTime::from_millis(i * 300),
                ProcessId((i % 6) as u32),
                dest,
                Payload::new(),
            ));
        }
        assert!(sim.run_until_delivered(&ids, SimTime::from_millis(600_000)));
        sim.run_to_quiescence();
        let correct = sim.alive_processes();
        invariants::check_all(sim.topology(), sim.metrics(), &correct).assert_ok();
        (
            sim.metrics().intra_sends,
            ids.iter()
                .map(|&m| sim.metrics().latency_degree(m).unwrap())
                .max()
                .unwrap(),
        )
    };
    let (intra_skip, deg_skip) = run(true);
    let (intra_noskip, deg_noskip) = run(false);
    assert_eq!(deg_skip, 2, "A1 latency degree");
    assert_eq!(deg_noskip, 2, "Fritzke latency degree (same, per Figure 1)");
    assert!(
        intra_noskip > intra_skip,
        "stage skipping must save intra-group messages: {intra_skip} vs {intra_noskip}"
    );
}

#[test]
fn deterministic_across_replays() {
    let run = || {
        let mut sim = a1_sim(3, 2, 42);
        let g = GroupSet::first_n(3);
        let mut ids = Vec::new();
        for i in 0..10u64 {
            ids.push(sim.cast_at(
                SimTime::from_millis(i * 11),
                ProcessId((i % 6) as u32),
                g,
                Payload::new(),
            ));
        }
        sim.run_to_quiescence();
        sim.metrics().delivered_seq.clone()
    };
    assert_eq!(run(), run());
}

#[test]
fn delivery_order_respects_timestamp_then_id() {
    // Two messages from the same origin to the same destination groups
    // cast far apart must be delivered in cast order everywhere (the later
    // one gets a strictly larger timestamp).
    let mut sim = a1_sim(2, 2, 11);
    let dest = GroupSet::from_iter([GroupId(0), GroupId(1)]);
    let a = sim.cast_at(SimTime::ZERO, ProcessId(0), dest, Payload::new());
    let b = sim.cast_at(
        SimTime::from_millis(2_000),
        ProcessId(0),
        dest,
        Payload::new(),
    );
    sim.run_to_quiescence();
    check(&sim);
    for p in sim.topology().processes() {
        let seq: Vec<MessageId> = sim.metrics().delivered_seq[p.index()].clone();
        assert_eq!(seq, vec![a, b], "{p}");
    }
}
