//! Property tests for the fault-injection layer: the zero-fault fast path
//! is byte-identical to a configuration without the layer, fates replay
//! bit-for-bit, and each fault class observably acts on the schedule.

use std::time::Duration;
use wamcast_sim::{
    FaultPlan, LatencyModel, NetConfig, RunError, RunMetrics, SimConfig, Simulation,
};
use wamcast_types::{
    shared_ids, AppMessage, Context, Outbox, Payload, ProcessId, Protocol, SimTime, Topology,
};

/// Unordered best-effort multicast used to drive the engine: the caster
/// sends to every addressed process; everyone delivers on receipt.
struct Flood;

impl Protocol for Flood {
    type Msg = AppMessage;

    fn on_cast(&mut self, m: AppMessage, ctx: &Context, out: &mut Outbox<AppMessage>) {
        let me = ctx.id();
        let tos = shared_ids(ctx.topology().processes_in(m.dest).filter(|&q| q != me));
        out.send_many(tos, m.clone());
        if ctx.topology().addresses(m.dest, me) {
            out.deliver(m);
        }
    }

    fn on_message(
        &mut self,
        _from: ProcessId,
        m: AppMessage,
        _ctx: &Context,
        out: &mut Outbox<AppMessage>,
    ) {
        out.deliver(m);
    }
}

fn jittery_net() -> NetConfig {
    NetConfig {
        inter: LatencyModel::Uniform {
            min: Duration::from_millis(40),
            max: Duration::from_millis(160),
        },
        ..NetConfig::default()
    }
}

fn run_flood(cfg: SimConfig, casts: u64) -> RunMetrics {
    let mut sim = Simulation::new(Topology::symmetric(3, 2), cfg, |_, _| Flood);
    let dest = sim.topology().all_groups();
    for i in 0..casts {
        sim.cast_at(
            SimTime::from_millis(i * 7),
            ProcessId((i % 6) as u32),
            dest,
            Payload::new(),
        );
    }
    sim.run_until(SimTime::from_millis(60_000));
    sim.into_metrics()
}

#[test]
fn none_plan_is_byte_identical_to_no_fault_layer() {
    // The zero-fault fast path guard: across many seeds, a run with
    // `FaultPlan::none()` installed produces *exactly* the same RunMetrics
    // (send log, delivery sequences, stamps, step counts — everything
    // `PartialEq` sees) as a config that never mentions the fault layer.
    for seed in 0..25u64 {
        let plain = SimConfig::default().with_seed(seed).with_net(jittery_net());
        let with_none = plain.clone().with_faults(FaultPlan::none());
        let a = run_flood(plain, 10);
        let b = run_flood(with_none, 10);
        assert_eq!(a, b, "seed {seed}: FaultPlan::none() must change nothing");
        assert_eq!(a.dropped_sends, 0);
        assert_eq!(a.duplicated_sends, 0);
    }
}

#[test]
fn faulted_runs_replay_bit_for_bit() {
    let plan = FaultPlan::none()
        .with_drop(ProcessId(0), ProcessId(2), 0.5)
        .with_duplication(0.4, SimTime::ZERO, SimTime::from_millis(200))
        .with_latency_spike(3.0, SimTime::from_millis(10), SimTime::from_millis(60));
    for seed in 0..10u64 {
        let cfg = SimConfig::default()
            .with_seed(seed)
            .with_net(jittery_net())
            .with_faults(plan.clone());
        let a = run_flood(cfg.clone(), 10);
        let b = run_flood(cfg, 10);
        assert_eq!(a, b, "seed {seed}: same (config, plan) must replay exactly");
    }
}

#[test]
fn certain_drop_starves_the_target() {
    // Every copy into p1 is dropped: p1 receives nothing, everyone else is
    // unaffected.
    let all = [0u32, 2, 3, 4, 5].map(ProcessId);
    let mut plan = FaultPlan::none();
    for q in all {
        plan = plan.with_drop(q, ProcessId(1), 1.0);
    }
    let cfg = SimConfig::default().with_faults(plan);
    let mut sim = Simulation::new(Topology::symmetric(3, 2), cfg, |_, _| Flood);
    let dest = sim.topology().all_groups();
    let id = sim.cast_at(SimTime::ZERO, ProcessId(0), dest, Payload::new());
    sim.run_to_quiescence();
    assert!(!sim.metrics().has_delivered(ProcessId(1), id));
    assert!(sim.metrics().has_delivered(ProcessId(2), id));
    assert_eq!(sim.metrics().dropped_sends, 1, "exactly p1's copy vanished");
}

#[test]
fn duplication_delivers_copies_twice() {
    let plan = FaultPlan::none().with_duplication(1.0, SimTime::ZERO, SimTime::MAX);
    let cfg = SimConfig::default().with_faults(plan);
    let mut sim = Simulation::new(Topology::symmetric(2, 1), cfg, |_, _| Flood);
    let dest = sim.topology().all_groups();
    let id = sim.cast_at(SimTime::ZERO, ProcessId(0), dest, Payload::new());
    sim.run_to_quiescence();
    // Flood delivers on *every* receipt, so the duplicate shows up as a
    // double delivery in the sequence (1 original + 1 duplicate).
    assert_eq!(sim.metrics().duplicated_sends, 1);
    assert_eq!(
        sim.metrics().delivered_seq[1]
            .iter()
            .filter(|&&m| m == id)
            .count(),
        2,
        "the duplicate copy must arrive as a second delivery"
    );
}

#[test]
fn partition_blocks_and_heals() {
    // g0 | g1 partition until t=500ms: a cast at t=0 crosses nothing, a
    // cast after the heal flows normally.
    let side = [ProcessId(0), ProcessId(1)];
    let plan = FaultPlan::none().with_partition(&side, SimTime::ZERO, SimTime::from_millis(500));
    let cfg = SimConfig::default().with_faults(plan);
    let mut sim = Simulation::new(Topology::symmetric(2, 2), cfg, |_, _| Flood);
    let dest = sim.topology().all_groups();
    let blocked = sim.cast_at(SimTime::ZERO, ProcessId(0), dest, Payload::new());
    let clean = sim.cast_at(
        SimTime::from_millis(600),
        ProcessId(0),
        dest,
        Payload::new(),
    );
    sim.run_to_quiescence();
    assert!(
        sim.metrics().has_delivered(ProcessId(1), blocked),
        "same side"
    );
    assert!(!sim.metrics().has_delivered(ProcessId(2), blocked), "cut");
    assert!(!sim.metrics().has_delivered(ProcessId(3), blocked), "cut");
    for p in [1u32, 2, 3].map(ProcessId) {
        assert!(sim.metrics().has_delivered(p, clean), "healed for {p}");
    }
}

#[test]
fn latency_spike_slows_the_link() {
    let plan = FaultPlan::none().with_latency_spike(5.0, SimTime::ZERO, SimTime::from_millis(100));
    let cfg = SimConfig::default().with_faults(plan);
    let mut sim = Simulation::new(Topology::symmetric(2, 1), cfg, |_, _| Flood);
    let dest = sim.topology().all_groups();
    let spiked = sim.cast_at(SimTime::ZERO, ProcessId(0), dest, Payload::new());
    let normal = sim.cast_at(
        SimTime::from_millis(200),
        ProcessId(0),
        dest,
        Payload::new(),
    );
    sim.run_to_quiescence();
    // Default inter latency is a constant 100 ms; the spike multiplies it.
    assert_eq!(
        sim.metrics().delivery_latency(spiked).unwrap(),
        Duration::from_millis(500)
    );
    assert_eq!(
        sim.metrics().delivery_latency(normal).unwrap(),
        Duration::from_millis(100)
    );
}

#[test]
fn plan_crashes_are_scheduled_like_manual_ones() {
    let plan = FaultPlan::none().with_crash(SimTime::from_millis(1), ProcessId(3));
    let cfg = SimConfig::default().with_faults(plan);
    let mut sim = Simulation::new(Topology::symmetric(2, 2), cfg, |_, _| Flood);
    let dest = sim.topology().all_groups();
    let id = sim.cast_at(SimTime::from_millis(2), ProcessId(0), dest, Payload::new());
    sim.run_until(SimTime::from_millis(5_000));
    assert!(!sim.is_alive(ProcessId(3)));
    assert!(!sim.metrics().has_delivered(ProcessId(3), id));
    assert!(sim.metrics().has_delivered(ProcessId(2), id));
    assert_eq!(sim.alive_processes().len(), 3);
}

#[test]
fn step_budget_exhaustion_is_a_structured_error() {
    /// Two processes ping-pong forever: never quiescent.
    struct PingPong;
    impl Protocol for PingPong {
        type Msg = u8;
        fn on_start(&mut self, ctx: &Context, out: &mut Outbox<u8>) {
            if ctx.id() == ProcessId(0) {
                out.send(ProcessId(1), 0);
            }
        }
        fn on_cast(&mut self, _m: AppMessage, _c: &Context, _o: &mut Outbox<u8>) {}
        fn on_message(&mut self, from: ProcessId, m: u8, _c: &Context, out: &mut Outbox<u8>) {
            out.send(from, m);
        }
    }
    let cfg = SimConfig::default().with_max_steps(1_000);
    let mut sim = Simulation::new(Topology::symmetric(1, 2), cfg, |_, _| PingPong);
    let err = sim
        .try_run_until(SimTime::MAX)
        .expect_err("a live-locked run must not look like success");
    let RunError::StepBudgetExhausted { last_event } = err else {
        panic!("unexpected error variant");
    };
    assert_eq!(last_event.kind, "arrival");
    let shown = format!("{}", RunError::StepBudgetExhausted { last_event });
    assert!(shown.contains("live-lock"), "{shown}");
    assert!(shown.contains("arrival"), "{shown}");
}
