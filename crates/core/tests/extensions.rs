//! Tests for the configurable extensions beyond the paper's baseline
//! algorithms: A1's dissemination-uniformity ablation (§4.1's stated
//! optimization) and A2's quiescence-prediction horizon (§5.3's future-work
//! suggestion).

use std::time::Duration;
use wamcast_core::{GenuineMulticast, MulticastConfig, RoundBroadcast};
use wamcast_sim::{invariants, SimConfig, Simulation};
use wamcast_types::{GroupSet, Payload, ProcessId, SimTime, Topology};

// ----------------------------------------------------------------------
// A1: non-uniform vs uniform dissemination (§4.1).
// ----------------------------------------------------------------------

fn a1_degree(uniform: bool) -> (u64, u64) {
    let cfg = SimConfig::default().with_seed(31);
    let mut sim = Simulation::new(Topology::symmetric(2, 3), cfg, |p, t| {
        GenuineMulticast::new(
            p,
            t,
            MulticastConfig {
                skip_stages: true,
                uniform_dissemination: uniform,
                ..MulticastConfig::default()
            },
        )
    });
    let dest = GroupSet::first_n(2);
    let id = sim.cast_at(SimTime::ZERO, ProcessId(0), dest, Payload::new());
    assert!(sim.run_until_delivered(&[id], SimTime::from_millis(600_000)));
    sim.run_to_quiescence();
    let correct = sim.alive_processes();
    invariants::check_all(sim.topology(), sim.metrics(), &correct).assert_ok();
    (
        sim.metrics().latency_degree(id).unwrap(),
        sim.metrics().inter_sends,
    )
}

#[test]
fn uniform_dissemination_costs_one_extra_delay() {
    // §4.1: "instead of using a uniform reliable multicast primitive, we
    // use a non-uniform version" — quantified: the uniform primitive's
    // majority-relay wave pushes the overall latency degree from 2 to 3.
    let (nonuniform_deg, nonuniform_msgs) = a1_degree(false);
    let (uniform_deg, uniform_msgs) = a1_degree(true);
    assert_eq!(nonuniform_deg, 2, "the paper's A1");
    assert_eq!(uniform_deg, 3, "uniform dissemination adds a delay");
    assert!(
        uniform_msgs > nonuniform_msgs,
        "uniform relay also costs messages: {nonuniform_msgs} vs {uniform_msgs}"
    );
}

#[test]
fn uniform_dissemination_still_satisfies_spec_under_crash() {
    let cfg = SimConfig::default().with_seed(32);
    let mut sim = Simulation::new(Topology::symmetric(2, 3), cfg, |p, t| {
        GenuineMulticast::new(
            p,
            t,
            MulticastConfig {
                skip_stages: true,
                uniform_dissemination: true,
                ..MulticastConfig::default()
            },
        )
    });
    let dest = GroupSet::first_n(2);
    let id = sim.cast_at(SimTime::ZERO, ProcessId(0), dest, Payload::new());
    sim.crash_at(SimTime::from_micros(150), ProcessId(0));
    assert!(sim.run_until_delivered(&[id], SimTime::from_millis(600_000)));
    sim.run_until(sim.now() + Duration::from_secs(120));
    let correct = sim.alive_processes();
    invariants::check_all(sim.topology(), sim.metrics(), &correct).assert_ok();
}

// ----------------------------------------------------------------------
// A2: quiescence-prediction horizon (§5.3).
// ----------------------------------------------------------------------

/// Measures the latency degree of a probe cast `gap_ms` after a warm-up
/// stream ends, for a given prediction horizon.
fn probe_degree_after_gap(idle_rounds: u64, gap_ms: u64) -> u64 {
    let cfg = SimConfig::default().with_seed(33);
    let mut sim = Simulation::new(Topology::symmetric(2, 3), cfg, move |p, t| {
        RoundBroadcast::with_pacing(p, t, Duration::from_millis(25)).with_idle_rounds(idle_rounds)
    });
    let dest = sim.topology().all_groups();
    let mut ids = Vec::new();
    for i in 0..8u64 {
        ids.push(sim.cast_at(
            SimTime::from_millis(i * 50),
            ProcessId((i % 3) as u32),
            dest,
            Payload::new(),
        ));
    }
    let probe = sim.cast_at(
        SimTime::from_millis(8 * 50 + gap_ms),
        ProcessId(0),
        dest,
        Payload::new(),
    );
    ids.push(probe);
    sim.run_to_quiescence();
    assert!(sim.all_delivered(&ids));
    let correct = sim.alive_processes();
    invariants::check_all(sim.topology(), sim.metrics(), &correct).assert_ok();
    sim.metrics().latency_degree(probe).unwrap()
}

#[test]
fn wider_prediction_horizon_extends_the_degree_one_window() {
    // A probe 1 s after the stream: the paper's A2 (horizon 1) quiesces
    // ~0.2 s after the last delivery and pays the Theorem 5.2 wake-up cost;
    // a horizon of 8 rounds is still proactively exchanging bundles and
    // delivers in one inter-group delay. (Empirically the Δ=1 window ends
    // ~0.1 s after the stream for horizon 1 and ~1.1 s for horizon 8.)
    let paper = probe_degree_after_gap(1, 1_000);
    let patient = probe_degree_after_gap(8, 1_000);
    assert_eq!(paper, 2, "paper's A2 is quiescent by then (Theorem 5.2)");
    assert_eq!(patient, 1, "a wider horizon keeps the optimal degree");
}

#[test]
fn prediction_horizon_preserves_quiescence() {
    // Any finite horizon still satisfies Proposition A.9: the run drains.
    let cfg = SimConfig::default().with_seed(34);
    let mut sim = Simulation::new(Topology::symmetric(2, 2), cfg, |p, t| {
        RoundBroadcast::new(p, t).with_idle_rounds(5)
    });
    let dest = sim.topology().all_groups();
    let id = sim.cast_at(SimTime::ZERO, ProcessId(0), dest, Payload::new());
    sim.run_to_quiescence(); // would hang (and trip max_steps) if not quiescent
    assert!(sim.all_delivered(&[id]));
    // The extra idle rounds cost bounded extra traffic, then silence.
    let last = sim.metrics().last_send_time;
    assert!(last < SimTime::from_millis(5_000), "went quiet at {last}");
}

#[test]
fn horizon_cost_is_idle_round_traffic() {
    // Quantify the §5.3 trade-off: inter-group messages after the last
    // delivery grow with the prediction horizon.
    let run = |idle_rounds: u64| {
        let cfg = SimConfig::default().with_seed(35);
        let mut sim = Simulation::new(Topology::symmetric(2, 2), cfg, move |p, t| {
            RoundBroadcast::new(p, t).with_idle_rounds(idle_rounds)
        });
        let dest = sim.topology().all_groups();
        let id = sim.cast_at(SimTime::ZERO, ProcessId(0), dest, Payload::new());
        sim.run_to_quiescence();
        let last_delivery = sim
            .metrics()
            .deliveries
            .get(&id)
            .unwrap()
            .values()
            .map(|d| d.time)
            .max()
            .unwrap();
        sim.metrics().sends_after(last_delivery)
    };
    let paper = run(1);
    let patient = run(6);
    assert!(
        patient > paper,
        "wider horizon must cost extra idle traffic: {paper} vs {patient}"
    );
}

#[test]
#[should_panic(expected = "at least one trailing round")]
fn zero_idle_rounds_is_rejected() {
    let topo = Topology::symmetric(2, 1);
    let _ = RoundBroadcast::new(ProcessId(0), &topo).with_idle_rounds(0);
}
