//! End-to-end tests through the `wamcast` facade crate: the public API a
//! downstream user sees.

use std::time::Duration;
use wamcast::sim::{invariants, LatencyModel, NetConfig, SimConfig, Simulation};
use wamcast::types::{GroupId, GroupSet, Payload, ProcessId, SimTime};
use wamcast::{GenuineMulticast, MulticastConfig, NonGenuineMulticast, RoundBroadcast, Topology};

#[test]
fn paper_headline_results_in_one_test() {
    // Multicast to 2 groups: exactly 2 inter-group delays (optimal).
    let mut a1 = Simulation::new(Topology::symmetric(2, 2), SimConfig::default(), |p, t| {
        GenuineMulticast::new(p, t, MulticastConfig::default())
    });
    let m = a1.cast_at(
        SimTime::ZERO,
        ProcessId(0),
        GroupSet::first_n(2),
        Payload::new(),
    );
    a1.run_to_quiescence();
    assert_eq!(a1.metrics().latency_degree(m), Some(2));

    // Broadcast in the steady state: 1 inter-group delay.
    let mut a2 = Simulation::new(Topology::symmetric(2, 2), SimConfig::default(), |p, t| {
        RoundBroadcast::with_pacing(p, t, Duration::from_millis(25))
    });
    let dest = a2.topology().all_groups();
    for i in 0..8u64 {
        a2.cast_at(
            SimTime::from_millis(i * 50),
            ProcessId((i % 2) as u32),
            dest,
            Payload::new(),
        );
    }
    let probe = a2.cast_at(
        SimTime::from_millis(450),
        ProcessId(0),
        dest,
        Payload::new(),
    );
    a2.run_to_quiescence();
    assert_eq!(a2.metrics().latency_degree(probe), Some(1));
}

#[test]
fn facade_reexports_work_together() {
    // Use types, sim, core and invariants through the facade only.
    let topo = wamcast::Topology::builder()
        .group(2)
        .group(1)
        .build()
        .unwrap();
    let cfg = SimConfig::default().with_seed(7).with_net(NetConfig {
        intra: LatencyModel::Uniform {
            min: Duration::from_micros(50),
            max: Duration::from_micros(200),
        },
        ..NetConfig::wan(Duration::from_millis(40))
    });
    let mut sim = Simulation::new(topo, cfg, |p, t| {
        GenuineMulticast::new(p, t, MulticastConfig::default())
    });
    let id = sim.cast_at(
        SimTime::ZERO,
        ProcessId(2),
        GroupSet::from_iter([GroupId(0), GroupId(1)]),
        Payload::from_static(b"cross-site"),
    );
    assert!(sim.run_until_delivered(&[id], SimTime::from_millis(60_000)));
    sim.run_to_quiescence();
    invariants::check_all(sim.topology(), sim.metrics(), &sim.alive_processes()).assert_ok();
    assert_eq!(sim.metrics().delivered_by(id).len(), 3);
}

#[test]
fn non_genuine_reduction_agrees_with_spec() {
    let mut sim = Simulation::new(Topology::symmetric(3, 1), SimConfig::default(), |p, t| {
        NonGenuineMulticast::new(p, t)
    });
    let d01 = GroupSet::from_iter([GroupId(0), GroupId(1)]);
    let d2 = GroupSet::singleton(GroupId(2));
    let a = sim.cast_at(SimTime::ZERO, ProcessId(0), d01, Payload::new());
    let b = sim.cast_at(SimTime::from_millis(3), ProcessId(2), d2, Payload::new());
    assert!(sim.run_until_delivered(&[a, b], SimTime::from_millis(120_000)));
    sim.run_to_quiescence();
    invariants::check_all(sim.topology(), sim.metrics(), &sim.alive_processes()).assert_ok();
    assert!(!sim.metrics().has_delivered(ProcessId(2), a));
    assert!(sim.metrics().has_delivered(ProcessId(2), b));
}

#[test]
fn consensus_and_rmcast_are_usable_standalone() {
    // The substrates are public API too.
    use wamcast::consensus::{GroupConsensus, MsgSink};
    use wamcast::rmcast::{RmcastEngine, RmcastOut};
    use wamcast::types::{AppMessage, MessageId};

    let mut engine: GroupConsensus<u8> = GroupConsensus::new(ProcessId(0), vec![ProcessId(0)]);
    let mut sink = MsgSink::new();
    engine.propose(1, 9, &mut sink);
    while !sink.msgs.is_empty() {
        for (_, m) in std::mem::take(&mut sink.msgs) {
            engine.on_message(ProcessId(0), m, &mut sink);
        }
    }
    assert_eq!(engine.decision(1), Some(&9));

    let topo = Topology::symmetric(2, 1);
    let mut rm = RmcastEngine::new(ProcessId(0));
    let mut out = RmcastOut::new();
    rm.rmcast(
        AppMessage::new(
            MessageId::new(ProcessId(0), 0),
            GroupSet::first_n(2),
            Payload::new(),
        ),
        &topo,
        &mut out,
    );
    assert_eq!(out.delivered.len(), 1);
    assert_eq!(out.sends.len(), 1);
}
