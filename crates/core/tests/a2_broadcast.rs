//! Integration tests for Algorithm A2 (atomic broadcast, latency degree 1)
//! under the deterministic simulator.

use std::time::Duration;
use wamcast_core::RoundBroadcast;
use wamcast_sim::{invariants, FaultPlan, LatencyModel, NetConfig, SimConfig, Simulation};
use wamcast_trace::{CastKey, Phase};
use wamcast_types::{Payload, ProcessId, SimTime, SplitMix64, Topology};

fn a2_sim(k: usize, d: usize, seed: u64) -> Simulation<RoundBroadcast> {
    let cfg = SimConfig::default().with_seed(seed);
    Simulation::new(Topology::symmetric(k, d), cfg, |p, topo| {
        RoundBroadcast::new(p, topo)
    })
}

fn check(sim: &Simulation<RoundBroadcast>) {
    let correct = sim.alive_processes();
    invariants::check_all(sim.topology(), sim.metrics(), &correct).assert_ok();
}

#[test]
fn theorem_5_2_quiescent_start_has_latency_degree_two() {
    // The very first broadcast finds every process quiescent (Barrier = 0):
    // the caster's group must run a round and its bundle must *wake* the
    // other groups, costing a second inter-group delay (Theorem 5.2).
    let mut sim = a2_sim(2, 3, 1);
    let dest = sim.topology().all_groups();
    let id = sim.cast_at(SimTime::ZERO, ProcessId(0), dest, Payload::new());
    sim.run_to_quiescence();
    assert_eq!(sim.metrics().latency_degree(id), Some(2));
    assert_eq!(sim.metrics().delivered_by(id).len(), 6);
    check(&sim);
}

#[test]
fn theorem_5_1_warm_rounds_give_latency_degree_one() {
    // Theorem 5.1 exhibits a run with latency degree 1: rounds are active
    // at *every* group ("let r be a round where some message was
    // A-Delivered; hence, all processes start round r+1") and the probe's
    // R-Delivery precedes its group's round-(r+1) proposal. We realize that
    // schedule with a 25 ms batching window (a legal delay of the line-11
    // `When` clause) and a warm-up stream that brings both groups into the
    // proactive steady state.
    let cfg = SimConfig::default().with_seed(2);
    let mut sim = Simulation::new(Topology::symmetric(2, 3), cfg, |p, topo| {
        RoundBroadcast::with_pacing(p, topo, Duration::from_millis(25))
    });
    let dest = sim.topology().all_groups();
    for i in 0..8u64 {
        sim.cast_at(
            SimTime::from_millis(i * 50),
            ProcessId((i % 3) as u32),
            dest,
            Payload::new(),
        );
    }
    let probe = sim.cast_at(
        SimTime::from_millis(450),
        ProcessId(0),
        dest,
        Payload::new(),
    );
    sim.run_to_quiescence();
    assert_eq!(
        sim.metrics().latency_degree(probe),
        Some(1),
        "a broadcast during active rounds must achieve the optimal degree 1"
    );
    check(&sim);
}

#[test]
fn quiescence_after_finite_casts() {
    // Proposition A.9: finitely many broadcasts => eventually no messages
    // are sent, ever.
    let mut sim = a2_sim(3, 2, 3);
    let dest = sim.topology().all_groups();
    let mut ids = Vec::new();
    for i in 0..5u64 {
        ids.push(sim.cast_at(
            SimTime::from_millis(i * 40),
            ProcessId((i % 6) as u32),
            dest,
            Payload::new(),
        ));
    }
    // run_to_quiescence only returns if the event queue drains — which is
    // itself the quiescence property (A2 arms no timers).
    sim.run_to_quiescence();
    check(&sim);
    assert!(sim.all_delivered(&ids));
    // Every process's protocol state agrees it is idle.
    for p in sim.topology().processes() {
        assert!(sim.protocol(p).is_idle(), "{p} not idle");
    }
    // And after the last delivery, traffic stops within a bounded window
    // (one empty round at most... the final useful round's barrier allows
    // one more round which delivers nothing).
    let last_delivery = ids
        .iter()
        .filter_map(|&m| sim.metrics().deliveries.get(&m))
        .flat_map(|d| d.values().map(|r| r.time))
        .max()
        .unwrap();
    let slack = Duration::from_millis(250); // one more (useless) round
    invariants::check_quiescence(sim.metrics(), last_delivery + slack).assert_ok();
}

#[test]
fn back_to_back_stream_reaches_degree_one_steady_state() {
    // §5.3: if the inter-broadcast gap is below the round duration, rounds
    // never stop ("the algorithm never becomes reactive"), all rounds are
    // useful, and the steady state delivers every message with the optimal
    // latency degree 1. Early messages pay the wake-up/synchronization cost
    // (degree 2).
    let cfg = SimConfig::default().with_seed(4);
    let mut sim = Simulation::new(Topology::symmetric(2, 3), cfg, |p, topo| {
        RoundBroadcast::with_pacing(p, topo, Duration::from_millis(25))
    });
    let dest = sim.topology().all_groups();
    let mut ids = Vec::new();
    // 100 ms inter-group latency; 50 ms between broadcasts = 20/s > 10/s.
    for i in 0..12u64 {
        ids.push(sim.cast_at(
            SimTime::from_millis(i * 50),
            ProcessId((i % 3) as u32), // casters in g0
            dest,
            Payload::new(),
        ));
    }
    sim.run_to_quiescence();
    check(&sim);
    let degrees: Vec<u64> = ids
        .iter()
        .map(|&m| sim.metrics().latency_degree(m).unwrap())
        .collect();
    assert_eq!(degrees[0], 2, "first message pays the wake-up cost");
    for (i, &d) in degrees.iter().enumerate().skip(6) {
        assert_eq!(
            d, 1,
            "message {i} should ride the steady state: {degrees:?}"
        );
    }
    assert!(degrees.iter().all(|&d| d <= 2), "{degrees:?}");
}

#[test]
fn all_groups_deliver_same_total_order() {
    let mut sim = a2_sim(3, 2, 5);
    let dest = sim.topology().all_groups();
    let mut ids = Vec::new();
    for i in 0..15u64 {
        ids.push(sim.cast_at(
            SimTime::from_millis(i * 13),
            ProcessId((i % 6) as u32),
            dest,
            Payload::new(),
        ));
    }
    sim.run_to_quiescence();
    check(&sim);
    let reference = sim.metrics().delivered_seq[0].clone();
    assert_eq!(reference.len(), 15);
    for p in sim.topology().processes() {
        assert_eq!(
            sim.metrics().delivered_seq[p.index()],
            reference,
            "{p} diverged from the total order"
        );
    }
}

#[test]
fn jittered_links_preserve_invariants() {
    let net = NetConfig {
        inter: LatencyModel::Uniform {
            min: Duration::from_millis(60),
            max: Duration::from_millis(140),
        },
        intra: LatencyModel::Uniform {
            min: Duration::from_micros(50),
            max: Duration::from_micros(400),
        },
        ..NetConfig::default()
    };
    let cfg = SimConfig::default().with_seed(6).with_net(net);
    let mut sim = Simulation::new(Topology::symmetric(3, 3), cfg, |p, topo| {
        RoundBroadcast::new(p, topo)
    });
    let dest = sim.topology().all_groups();
    let mut ids = Vec::new();
    for i in 0..25u64 {
        ids.push(sim.cast_at(
            SimTime::from_millis(i * 9),
            ProcessId((i % 9) as u32),
            dest,
            Payload::new(),
        ));
    }
    assert!(sim.run_until_delivered(&ids, SimTime::from_millis(600_000)));
    sim.run_to_quiescence();
    check(&sim);
}

#[test]
fn caster_crash_after_local_rmcast_still_delivers() {
    let mut sim = a2_sim(2, 3, 7);
    let dest = sim.topology().all_groups();
    let id = sim.cast_at(SimTime::ZERO, ProcessId(0), dest, Payload::new());
    // Crash after the intra-group R-MCast left p0 (0.1 ms links).
    sim.crash_at(SimTime::from_micros(200), ProcessId(0));
    let ok = sim.run_until_delivered(&[id], SimTime::from_millis(120_000));
    assert!(ok, "broadcast lost with crashed caster");
    sim.run_until(SimTime::from_millis(240_000));
    let correct = sim.alive_processes();
    invariants::check_all(sim.topology(), sim.metrics(), &correct).assert_ok();
}

#[test]
fn coordinator_crash_mid_round_recovers() {
    let mut sim = a2_sim(2, 3, 8);
    let dest = sim.topology().all_groups();
    // p3 is g1's ballot-0 coordinator. Crash it during the first round.
    sim.crash_at(SimTime::from_millis(100), ProcessId(3));
    let id = sim.cast_at(SimTime::ZERO, ProcessId(0), dest, Payload::new());
    let ok = sim.run_until_delivered(&[id], SimTime::from_millis(240_000));
    assert!(ok, "round blocked by coordinator crash");
    let correct = sim.alive_processes();
    invariants::check_all(sim.topology(), sim.metrics(), &correct).assert_ok();
}

/// `(sender, recipient, cast)` of every reliable-multicast copy sent at or
/// after `t`: in a run without retransmission, the relays after a crash.
fn rm_sends_since(sim: &Simulation<RoundBroadcast>, t: SimTime) -> Vec<(u32, u32, CastKey)> {
    sim.trace()
        .expect("tracing on")
        .iter()
        .filter(|e| e.phase == Phase::RmcastSend && e.at_us >= t.as_micros())
        .map(|e| {
            (
                e.node,
                e.peer.expect("a recipient"),
                e.cast.expect("a cast"),
            )
        })
        .collect()
}

#[test]
fn a2_relays_nothing_it_has_delivered() {
    // p0 broadcasts in a 2×3 system and every process delivers. p1's later
    // broadcast carries every member's floor past the first one's round,
    // so group 0 forgets that round's bundle. p0's crash then leaves no
    // cast of p0's to relay: every process delivered it.
    let mut sim = a2_sim(2, 3, 10);
    sim.enable_trace(1 << 16);
    let all = sim.topology().all_groups();
    let m = sim.cast_at(SimTime::ZERO, ProcessId(0), all, Payload::new());
    let m2 = sim.cast_at(
        SimTime::from_millis(5_000),
        ProcessId(1),
        all,
        Payload::new(),
    );
    let crash = SimTime::from_millis(10_000);
    sim.crash_at(crash, ProcessId(0));
    sim.run_to_quiescence();
    assert!(sim.all_delivered(&[m, m2]));
    assert_eq!(sim.metrics().delivered_by(m).len(), 6);
    check(&sim);
    assert_eq!(rm_sends_since(&sim, crash), vec![]);
}

#[test]
fn a2_relays_a_pending_cast_once_to_every_other_group_member() {
    // Only p1 gets a copy of anything p0 sends, and p0 crashes before its
    // group decides a round. At the crash notice p1 has the cast
    // R-Delivered and not A-Delivered: it relays it once to p2, the other
    // member of the caster's group, and everyone left delivers it.
    let mut plan = FaultPlan::none();
    for q in 2..6 {
        plan = plan.with_drop(ProcessId(0), ProcessId(q), 1.0);
    }
    let cfg = SimConfig::default().with_seed(11).with_faults(plan);
    let mut sim = Simulation::new(Topology::symmetric(2, 3), cfg, |p, topo| {
        RoundBroadcast::new(p, topo)
    });
    sim.enable_trace(1 << 16);
    let all = sim.topology().all_groups();
    let m = sim.cast_at(SimTime::ZERO, ProcessId(0), all, Payload::new());
    let crash = SimTime::from_micros(50);
    sim.crash_at(crash, ProcessId(0));
    assert!(sim.run_until_delivered(&[m], SimTime::from_millis(60_000)));
    sim.run_to_quiescence();
    check(&sim);
    assert_eq!(sim.metrics().delivered_by(m).len(), 5);
    assert_eq!(
        rm_sends_since(&sim, crash),
        vec![(1, 2, CastKey::new(0, 0))]
    );
}

#[test]
fn a2_lagging_member_learns_a_decided_cast_after_its_caster_crashes() {
    // One group, {p0, p1, p2}; nothing p0 sends reaches p2. p0 broadcasts,
    // and p0 and p1 decide its round without p2, so p2 neither has the
    // cast nor knows the decision, and has no round to run. Then p0
    // crashes. p1 still holds the round's bundle (p2 has not reported a
    // floor past it), so p1 relays the cast from it: p2 runs the round,
    // learns the decision, and delivers.
    let plan = FaultPlan::none().with_drop(ProcessId(0), ProcessId(2), 1.0);
    let cfg = SimConfig::default().with_seed(12).with_faults(plan);
    let mut sim = Simulation::new(Topology::symmetric(1, 3), cfg, |p, topo| {
        RoundBroadcast::new(p, topo).with_retry(Duration::from_millis(250))
    });
    let all = sim.topology().all_groups();
    let m = sim.cast_at(SimTime::ZERO, ProcessId(0), all, Payload::new());
    let crash = SimTime::from_millis(10);
    sim.crash_at(crash, ProcessId(0));
    sim.run_until(crash);
    assert!(sim.metrics().has_delivered(ProcessId(1), m));
    assert!(!sim.metrics().has_delivered(ProcessId(2), m));
    assert!(sim.run_until_delivered(&[m], SimTime::from_millis(60_000)));
    sim.run_to_quiescence();
    check(&sim);
}

#[test]
fn restart_after_quiescence_works_repeatedly() {
    // Quiesce, cast, quiesce, cast — the barrier wake-up must work every
    // time, and each post-quiescence message costs exactly degree 2.
    let mut sim = a2_sim(2, 2, 9);
    let dest = sim.topology().all_groups();
    let mut ids = Vec::new();
    for i in 0..4u64 {
        // 5 s apart: far beyond the ~0.5 s a round lasts.
        ids.push(sim.cast_at(
            SimTime::from_millis(i * 5_000),
            ProcessId((i % 4) as u32),
            dest,
            Payload::new(),
        ));
    }
    sim.run_to_quiescence();
    check(&sim);
    for &m in &ids {
        assert_eq!(
            sim.metrics().latency_degree(m),
            Some(2),
            "{m} cast after quiescence pays the wake-up cost"
        );
    }
}

#[test]
fn deterministic_across_replays() {
    let run = || {
        let mut sim = a2_sim(3, 2, 10);
        let dest = sim.topology().all_groups();
        for i in 0..8u64 {
            sim.cast_at(
                SimTime::from_millis(i * 23),
                ProcessId((i % 6) as u32),
                dest,
                Payload::new(),
            );
        }
        sim.run_to_quiescence();
        (
            sim.metrics().delivered_seq.clone(),
            sim.metrics().inter_sends,
            sim.metrics().intra_sends,
        )
    };
    assert_eq!(run(), run());
}

/// The benchmark's `sim_a2` stack (3×3, 10 ms pacing, 250 ms retry)
/// under 3 virtual s of Poisson load, 2 000 casts/s to all groups, run to
/// quiescence and checked.
fn loaded_sim_a2() -> Simulation<RoundBroadcast> {
    let cfg = SimConfig::default().with_seed(0xA2).with_send_log(false);
    let mut sim = Simulation::new(Topology::symmetric(3, 3), cfg, |p, topo| {
        RoundBroadcast::with_pacing(p, topo, Duration::from_millis(10))
            .with_retry(Duration::from_millis(250))
    });
    let dest = sim.topology().all_groups();
    let mut rng = SplitMix64::new(0xA2);
    let mut ids = Vec::new();
    // 2 000 casts per virtual second for 3 s, exponential gaps.
    let mut t_ns = 0.0;
    loop {
        t_ns += -rng.next_f64().max(1e-12).ln() * 5e5;
        if t_ns >= 3e9 {
            break;
        }
        let caster = ProcessId(rng.next_below(9) as u32);
        ids.push(sim.cast_at(
            SimTime::from_nanos(t_ns as u64),
            caster,
            dest,
            Payload::new(),
        ));
    }
    sim.run_to_quiescence();
    assert!(sim.all_delivered(&ids));
    check(&sim);
    sim
}

#[test]
fn a2_holds_no_finished_rounds() {
    // A growth guard, run in release by CI. The retry timer re-sends
    // bundles their receivers have already used; a process that kept
    // those copies would end this run holding dozens of finished rounds.
    let sim = loaded_sim_a2();
    for p in sim.topology().processes() {
        let rb = sim.protocol(p);
        assert!(rb.is_idle(), "{p} not idle");
        assert_eq!(rb.rounds_held(), 0, "{p} still holds bundles");
    }
}

#[test]
fn a2_forgets_decided_instances() {
    // A growth guard, run in release by CI. A round's consensus instance
    // is forgotten once every member of the group has reported, on an
    // `Accepted`, that it finished the round; the last round or so stays,
    // 1 per process here. At the parent every process ended this run
    // holding every round its group ever decided, 30.
    let sim = loaded_sim_a2();
    for p in sim.topology().processes() {
        let held = sim.protocol(p).decisions_held();
        assert!(held <= 4, "{p} still holds {held} decided instances");
    }
}

#[test]
fn non_genuine_multicast_filters_but_orders() {
    use wamcast_core::NonGenuineMulticast;
    use wamcast_types::{GroupId, GroupSet};
    let cfg = SimConfig::default().with_seed(11);
    let mut sim = Simulation::new(Topology::symmetric(3, 2), cfg, |p, topo| {
        NonGenuineMulticast::new(p, topo)
    });
    let g01 = GroupSet::from_iter([GroupId(0), GroupId(1)]);
    let g12 = GroupSet::from_iter([GroupId(1), GroupId(2)]);
    let a = sim.cast_at(SimTime::ZERO, ProcessId(0), g01, Payload::new());
    let b = sim.cast_at(SimTime::from_millis(1), ProcessId(2), g12, Payload::new());
    assert!(sim.run_until_delivered(&[a, b], SimTime::from_millis(120_000)));
    sim.run_to_quiescence();
    let correct = sim.alive_processes();
    invariants::check_all(sim.topology(), sim.metrics(), &correct).assert_ok();
    // Deliveries are filtered to the destination.
    assert!(
        !sim.metrics().has_delivered(ProcessId(4), a),
        "g2 got a g01 message"
    );
    assert!(
        !sim.metrics().has_delivered(ProcessId(0), b),
        "g0 got a g12 message"
    );
    assert!(sim.metrics().has_delivered(ProcessId(2), a));
    assert!(sim.metrics().has_delivered(ProcessId(2), b));
    // But bystanders participate in the protocol: NOT genuine.
    let gen = invariants::check_genuineness(sim.topology(), sim.metrics());
    assert!(gen.is_ok(), "all groups are addressed by some message here");
    // The tell-tale: g2 received protocol traffic for message `a` rounds
    // regardless; inter-group sends touch all 3 groups for a 2-group cast.
    assert!(sim.metrics().inter_sends > 0);
}
