//! Generic scenario runners behind the registry probes and the claims
//! file ([`crate::paper`]).
//!
//! Topologies come from [`shared_topology`]: sweeps call these runners
//! hundreds of times over the same handful of shapes, so each
//! measurement borrows the process-wide immutable `Arc` instead of
//! rebuilding the member tables.

use crate::registry::ArmProbe;
use crate::scenario::shared_topology;
use std::time::Duration;
use wamcast_sim::{invariants, NetConfig, SimConfig, Simulation};
use wamcast_types::{GroupSet, Payload, ProcessId, Protocol, SimTime, Topology};

/// Casts one message to all `k` groups over `net` at time zero and
/// measures it, run to quiescence so the message count is the complete
/// per-cast cost. The caster is the first process of the **last** group
/// (the placement under which the paper's Figure 1 worst-case accounting
/// holds for every algorithm).
pub fn measure_one_multicast<P: Protocol>(
    k: usize,
    d: usize,
    factory: impl FnMut(ProcessId, &Topology) -> P,
    net: NetConfig,
) -> ArmProbe {
    let cfg = SimConfig::default().with_seed(0xF1A).with_net(net);
    let mut sim = Simulation::new_shared(shared_topology(k, d), cfg, factory);
    let caster = ProcessId(((k - 1) * d) as u32);
    let id = sim.cast_at(SimTime::ZERO, caster, GroupSet::first_n(k), Payload::new());
    let ok = sim.run_until_delivered(&[id], SimTime::from_millis(600_000));
    assert!(ok, "message not delivered within 600 s");
    sim.run_to_quiescence();
    let correct = sim.alive_processes();
    invariants::check_all(sim.topology(), sim.metrics(), &correct).assert_ok();
    let m = sim.metrics();
    ArmProbe {
        degree: m.latency_degree(id).expect("delivered"),
        inter_msgs: m.inter_sends,
        wall: m.delivery_latency(id).expect("delivered"),
    }
}

/// Result of a steady-state broadcast measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct BroadcastSteady {
    /// Latency degree of the probe message (cast in the steady state).
    pub probe_degree: u64,
    /// Latency degree of the very first message (the wake-up cost).
    pub first_degree: u64,
    /// Inter-group copies attributable to the probe's round window.
    pub probe_inter_msgs: u64,
    /// Virtual-time latency of the probe.
    pub probe_wall: Duration,
    /// Latency degrees of the full warm-up stream, in cast order.
    pub stream_degrees: Vec<u64>,
}

/// Warms a broadcast protocol with a stream of `warm` messages (gap
/// `gap`), then probes it with one more, runs to quiescence and measures
/// the probe.
pub fn measure_broadcast_steady<P: Protocol>(
    k: usize,
    d: usize,
    factory: impl FnMut(ProcessId, &Topology) -> P,
    warm: u64,
    gap: Duration,
    net: NetConfig,
) -> BroadcastSteady {
    let cfg = SimConfig::default().with_seed(0xF1B).with_net(net);
    let mut sim = Simulation::new_shared(shared_topology(k, d), cfg, factory);
    let dest = sim.topology().all_groups();
    let mut ids = Vec::new();
    for i in 0..warm {
        let at = SimTime::from_nanos(i * gap.as_nanos() as u64);
        ids.push(sim.cast_at(at, ProcessId((i % d as u64) as u32), dest, Payload::new()));
    }
    // The probe comes from the first process of the *last* group, so that
    // sequencer-based baselines cannot collapse dissemination and ordering
    // into one hop (the sequencer lives in group 0).
    let probe_at = SimTime::from_nanos(warm.max(1) * gap.as_nanos() as u64);
    let probe_caster = ProcessId(((k - 1) * d) as u32);
    let probe = sim.cast_at(probe_at, probe_caster, dest, Payload::new());
    ids.push(probe);
    let horizon = probe_at + Duration::from_secs(600);
    let ok = sim.run_until_delivered(&ids, horizon);
    assert!(ok, "broadcast stream not delivered");
    sim.run_to_quiescence();
    let correct = sim.alive_processes();
    invariants::check_all(sim.topology(), sim.metrics(), &correct).assert_ok();
    let m = sim.metrics();
    let probe_dels = m.deliveries.get(&probe).expect("probe delivered");
    let last = probe_dels.values().map(|d| d.time).max().unwrap();
    BroadcastSteady {
        probe_degree: m.latency_degree(probe).expect("delivered"),
        first_degree: m.latency_degree(ids[0]).expect("delivered"),
        probe_inter_msgs: m.inter_sends_in_window(probe_at, last),
        probe_wall: m.delivery_latency(probe).expect("delivered"),
        stream_degrees: ids
            .iter()
            .map(|&i| m.latency_degree(i).expect("delivered"))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wamcast_core::{GenuineMulticast, MulticastConfig, RoundBroadcast};

    #[test]
    fn one_shot_a1_matches_theorem() {
        let r = measure_one_multicast(
            2,
            2,
            |p, t| GenuineMulticast::new(p, t, MulticastConfig::default()),
            NetConfig::default(),
        );
        assert_eq!(r.degree, 2);
        assert!(r.inter_msgs > 0);
        assert!(r.wall >= Duration::from_millis(200));
    }

    #[test]
    fn steady_state_a2_probe_is_degree_one() {
        let r = measure_broadcast_steady(
            2,
            2,
            |p, t| RoundBroadcast::with_pacing(p, t, Duration::from_millis(25)),
            8,
            Duration::from_millis(50),
            NetConfig::default(),
        );
        assert_eq!(r.probe_degree, 1);
        assert_eq!(r.first_degree, 2);
        assert_eq!(r.stream_degrees.len(), 9);
    }
}
