//! Randomized tests: random workloads, topologies, link jitter and crash
//! schedules, all checked against the §2.2 specification by the invariant
//! checkers.
//!
//! These are the heavy guns of the test suite: each case is a full simulated
//! WAN run. Inputs are drawn from the simulator's deterministic
//! [`SplitMix64`] generator (the workspace builds offline without a
//! property-testing dependency); every failing case is reproducible from the
//! loop index printed in its assertion message.

use std::time::Duration;
use wamcast::baselines::{RingMulticast, SkeenMulticast};
use wamcast::sim::{invariants, LatencyModel, NetConfig, SimConfig, Simulation, SplitMix64};
use wamcast::types::{GroupId, GroupSet, Payload, ProcessId, Protocol, SimTime};
use wamcast::{GenuineMulticast, MulticastConfig, RoundBroadcast, Topology};

/// A randomized cast: (delay slot, caster index, destination bitmask).
#[derive(Clone, Debug)]
struct CastPlan {
    slot: u64,
    caster: usize,
    dest_bits: u8,
}

/// Draws a plan of 1..max_casts casts over `max_groups` groups.
fn random_plan(rng: &mut SplitMix64, max_groups: usize, max_casts: u64) -> Vec<CastPlan> {
    let len = rng.next_range(1, max_casts);
    (0..len)
        .map(|_| CastPlan {
            slot: rng.next_below(40),
            caster: rng.next_below(64) as usize,
            dest_bits: rng.next_range(1, (1 << max_groups) - 1) as u8,
        })
        .collect()
}

/// Applies a cast plan to a simulation, normalizing indices to the
/// topology. Returns the message ids.
fn apply_plan<P: Protocol>(
    sim: &mut Simulation<P>,
    plan: &[CastPlan],
    slot_ms: u64,
) -> Vec<wamcast::types::MessageId> {
    let k = sim.topology().num_groups();
    let n = sim.topology().num_processes();
    plan.iter()
        .map(|c| {
            let mut dest = GroupSet::new();
            for g in 0..k {
                if c.dest_bits & (1 << g) != 0 {
                    dest.insert(GroupId(g as u16));
                }
            }
            if dest.is_empty() {
                dest.insert(GroupId(0));
            }
            sim.cast_at(
                SimTime::from_millis(c.slot * slot_ms),
                ProcessId((c.caster % n) as u32),
                dest,
                Payload::new(),
            )
        })
        .collect()
}

fn jittery_net() -> NetConfig {
    NetConfig {
        inter: LatencyModel::Uniform {
            min: Duration::from_millis(50),
            max: Duration::from_millis(150),
        },
        intra: LatencyModel::Uniform {
            min: Duration::from_micros(50),
            max: Duration::from_micros(500),
        },
        ..NetConfig::default()
    }
}

/// A1 under random overlapping multicasts and jittered links: all §2.2
/// properties hold and everything addressed is delivered.
#[test]
fn a1_random_workloads_satisfy_spec() {
    for case in 0..24u64 {
        let mut rng = SplitMix64::new(0xA1 ^ (case << 8));
        let k = rng.next_range(2, 3) as usize;
        let d = rng.next_range(1, 3) as usize;
        let seed = rng.next_u64();
        let plan: Vec<CastPlan> = random_plan(&mut rng, 3, 11)
            .into_iter()
            .map(|mut c| {
                // Restrict dest bits to existing groups.
                c.dest_bits &= (1 << k) - 1;
                if c.dest_bits == 0 {
                    c.dest_bits = 1;
                }
                c
            })
            .collect();
        let cfg = SimConfig::default().with_seed(seed).with_net(jittery_net());
        let mut sim = Simulation::new(Topology::symmetric(k, d), cfg, |p, t| {
            GenuineMulticast::new(p, t, MulticastConfig::default())
        });
        let ids = apply_plan(&mut sim, &plan, 25);
        assert!(
            sim.run_until_delivered(&ids, SimTime::from_millis(3_600_000)),
            "case {case}: not all delivered"
        );
        sim.run_to_quiescence();
        let correct = sim.alive_processes();
        let report = invariants::check_all(sim.topology(), sim.metrics(), &correct);
        assert!(report.is_ok(), "case {case}: {:?}", report.violations);
        let gen = invariants::check_genuineness(sim.topology(), sim.metrics());
        assert!(gen.is_ok(), "case {case}: {:?}", gen.violations);
    }
}

/// A1 with a random single crash (keeping every group's majority):
/// uniform agreement and validity still hold.
#[test]
fn a1_single_crash_preserves_spec() {
    for case in 0..24u64 {
        let mut rng = SplitMix64::new(0xA1C4A54 ^ (case << 8));
        let seed = rng.next_u64();
        let crash_victim = rng.next_below(6) as usize;
        let crash_ms = rng.next_below(400);
        let plan: Vec<CastPlan> = random_plan(&mut rng, 2, 7)
            .into_iter()
            .map(|mut c| {
                // A cast scheduled at a crashed process is (correctly)
                // dropped by the simulator; route casts away from the victim
                // so every message in the plan is really cast.
                if c.caster % 6 == crash_victim % 6 {
                    c.caster = (c.caster + 1) % 6;
                }
                c
            })
            .collect();
        // 2 groups x 3: one crash never breaks a majority.
        let cfg = SimConfig::default().with_seed(seed);
        let mut sim = Simulation::new(Topology::symmetric(2, 3), cfg, |p, t| {
            GenuineMulticast::new(p, t, MulticastConfig::default())
        });
        sim.crash_at(
            SimTime::from_millis(crash_ms),
            ProcessId(crash_victim as u32),
        );
        let ids = apply_plan(&mut sim, &plan, 30);
        // Deliveries must complete at all *alive* addressed processes.
        assert!(
            sim.run_until_delivered(&ids, SimTime::from_millis(3_600_000)),
            "case {case}: not all delivered under crash"
        );
        sim.run_until(sim.now() + Duration::from_secs(120));
        let correct = sim.alive_processes();
        let report = invariants::check_all(sim.topology(), sim.metrics(), &correct);
        assert!(report.is_ok(), "case {case}: {:?}", report.violations);
    }
}

/// A2 under random broadcast schedules: total order, quiescence, spec.
#[test]
fn a2_random_workloads_satisfy_spec() {
    for case in 0..24u64 {
        let mut rng = SplitMix64::new(0xA2 ^ (case << 8));
        let k = rng.next_range(2, 3) as usize;
        let d = rng.next_range(1, 2) as usize;
        let seed = rng.next_u64();
        let pacing_ms = rng.next_below(30);
        let num_slots = rng.next_range(1, 11);
        let slots: Vec<(u64, usize)> = (0..num_slots)
            .map(|_| (rng.next_below(40), rng.next_below(64) as usize))
            .collect();
        let cfg = SimConfig::default().with_seed(seed).with_net(jittery_net());
        let mut sim = Simulation::new(Topology::symmetric(k, d), cfg, move |p, t| {
            RoundBroadcast::with_pacing(p, t, Duration::from_millis(pacing_ms))
        });
        let dest = sim.topology().all_groups();
        let n = sim.topology().num_processes();
        let ids: Vec<_> = slots
            .iter()
            .map(|&(slot, caster)| {
                sim.cast_at(
                    SimTime::from_millis(slot * 20),
                    ProcessId((caster % n) as u32),
                    dest,
                    Payload::new(),
                )
            })
            .collect();
        assert!(
            sim.run_until_delivered(&ids, SimTime::from_millis(3_600_000)),
            "case {case}: not all delivered"
        );
        // Quiescence: the queue must drain (Proposition A.9).
        sim.run_to_quiescence();
        let correct = sim.alive_processes();
        let report = invariants::check_all(sim.topology(), sim.metrics(), &correct);
        assert!(report.is_ok(), "case {case}: {:?}", report.violations);
        // Total order: identical delivery sequences everywhere.
        let reference = &sim.metrics().delivered_seq[0];
        for p in sim.topology().processes() {
            assert_eq!(
                &sim.metrics().delivered_seq[p.index()],
                reference,
                "case {case}"
            );
        }
    }
}

/// Determinism: identical seeds and workloads give identical runs.
#[test]
fn runs_are_reproducible() {
    for case in 0..24u64 {
        let mut rng = SplitMix64::new(0xDE7 ^ (case << 8));
        let seed = rng.next_u64();
        let plan = random_plan(&mut rng, 2, 5);
        let run = |seed: u64, plan: &[CastPlan]| {
            let cfg = SimConfig::default().with_seed(seed).with_net(jittery_net());
            let mut sim = Simulation::new(Topology::symmetric(2, 2), cfg, |p, t| {
                GenuineMulticast::new(p, t, MulticastConfig::default())
            });
            let ids = apply_plan(&mut sim, plan, 25);
            sim.run_until_delivered(&ids, SimTime::from_millis(3_600_000));
            sim.run_to_quiescence();
            (
                sim.metrics().delivered_seq.clone(),
                sim.metrics().inter_sends,
            )
        };
        assert_eq!(run(seed, &plan), run(seed, &plan), "case {case}");
    }
}

/// Skeen (failure-free) under random workloads: spec holds.
#[test]
fn skeen_random_workloads_satisfy_spec() {
    for case in 0..24u64 {
        let mut rng = SplitMix64::new(0x5CEE ^ (case << 8));
        let seed = rng.next_u64();
        let plan = random_plan(&mut rng, 3, 9);
        let cfg = SimConfig::default().with_seed(seed).with_net(jittery_net());
        let mut sim = Simulation::new(Topology::symmetric(3, 2), cfg, |p, _| {
            SkeenMulticast::new(p)
        });
        let ids = apply_plan(&mut sim, &plan, 20);
        assert!(
            sim.run_until_delivered(&ids, SimTime::from_millis(3_600_000)),
            "case {case}"
        );
        sim.run_to_quiescence();
        let report = invariants::check_all(sim.topology(), sim.metrics(), &sim.alive_processes());
        assert!(report.is_ok(), "case {case}: {:?}", report.violations);
    }
}

/// Ring multicast \[4\] under random workloads with moderate jitter.
#[test]
fn ring_random_workloads_satisfy_spec() {
    for case in 0..24u64 {
        let mut rng = SplitMix64::new(0x4176 ^ (case << 8));
        let seed = rng.next_u64();
        let plan = random_plan(&mut rng, 3, 7);
        let net = NetConfig {
            inter: LatencyModel::Uniform {
                min: Duration::from_millis(80),
                max: Duration::from_millis(120),
            },
            ..NetConfig::default()
        };
        let cfg = SimConfig::default().with_seed(seed).with_net(net);
        let mut sim = Simulation::new(Topology::symmetric(3, 2), cfg, RingMulticast::new);
        let ids = apply_plan(&mut sim, &plan, 30);
        assert!(
            sim.run_until_delivered(&ids, SimTime::from_millis(3_600_000)),
            "case {case}"
        );
        sim.run_to_quiescence();
        let report = invariants::check_all(sim.topology(), sim.metrics(), &sim.alive_processes());
        assert!(report.is_ok(), "case {case}: {:?}", report.violations);
    }
}

/// The batching layer is pure scheduling: a batched A1 run A-Delivers
/// exactly the same message set as the unbatched run of the same workload,
/// and within each run every §2.2 ordering invariant holds — in particular
/// the pairwise total order over common destinations (and, for broadcast
/// destinations, identical sequences at all processes). Latency degrees are
/// checked too: batching must not add inter-group hops.
#[test]
fn batched_and_unbatched_deliver_same_messages_in_total_order() {
    use wamcast::types::BatchConfig;

    for case in 0..16u64 {
        let mut rng = SplitMix64::new(0xBA7C4 ^ (case << 8));
        let seed = rng.next_u64();
        let plan = random_plan(&mut rng, 3, 24);
        let max_msgs = 2 + rng.next_below(15) as usize;
        let delay_ms = 5 + rng.next_below(40);
        let batch = BatchConfig::new(max_msgs).with_max_delay(Duration::from_millis(delay_ms));

        let run = |batch: BatchConfig| {
            let cfg = SimConfig::default().with_seed(seed).with_net(jittery_net());
            let mut sim = Simulation::new(Topology::symmetric(3, 2), cfg, move |p, t| {
                GenuineMulticast::new(p, t, MulticastConfig::default().with_batch(batch))
            });
            let ids = apply_plan(&mut sim, &plan, 25);
            assert!(
                sim.run_until_delivered(&ids, SimTime::from_millis(3_600_000)),
                "case {case}: not all delivered"
            );
            sim.run_to_quiescence();
            let report =
                invariants::check_all(sim.topology(), sim.metrics(), &sim.alive_processes());
            assert!(report.is_ok(), "case {case}: {:?}", report.violations);
            let metrics = sim.into_metrics();
            (ids, metrics)
        };

        let (ids, eager) = run(BatchConfig::disabled());
        let (ids_b, batched) = run(batch);
        assert_eq!(ids, ids_b, "case {case}: same workload must yield same ids");

        // Same delivered sets, process by process (sequences may interleave
        // differently across runs — batching regroups consensus instances —
        // but the invariant checks above prove each run is totally ordered).
        for p in 0..6 {
            let mut a: Vec<_> = eager.delivered_seq[p].clone();
            let mut b: Vec<_> = batched.delivered_seq[p].clone();
            a.sort();
            b.sort();
            assert_eq!(a, b, "case {case}: delivered sets differ at p{p}");
        }
    }
}

/// The canonical latency-degree results survive batching: on constant
/// latencies an isolated multi-group multicast costs exactly 2 inter-group
/// delays and a single-group one 0, with any batch policy (Theorem 4.1 /
/// Proposition 3.1 — timers are local events, free under the §2.3 clock).
#[test]
fn batching_preserves_canonical_latency_degrees() {
    use wamcast::types::BatchConfig;

    for batch in [
        BatchConfig::disabled(),
        BatchConfig::new(8).with_max_delay(Duration::from_millis(30)),
        BatchConfig::new(64)
            .with_max_bytes(32 * 1024)
            .with_max_delay(Duration::from_millis(80)),
    ] {
        let cfg = SimConfig::default().with_seed(0xDE6);
        let mut sim = Simulation::new(Topology::symmetric(3, 2), cfg, move |p, t| {
            GenuineMulticast::new(p, t, MulticastConfig::default().with_batch(batch))
        });
        let multi = sim.cast_at(
            SimTime::ZERO,
            ProcessId(0),
            GroupSet::from_iter([GroupId(0), GroupId(1)]),
            Payload::new(),
        );
        let single = sim.cast_at(
            SimTime::from_millis(1),
            ProcessId(2),
            GroupSet::singleton(GroupId(1)),
            Payload::new(),
        );
        sim.run_to_quiescence();
        assert_eq!(sim.metrics().latency_degree(multi), Some(2), "{batch:?}");
        assert_eq!(sim.metrics().latency_degree(single), Some(0), "{batch:?}");
        // Genuineness: g2 stays silent regardless of batching.
        assert!(
            !sim.metrics().sent_any[4] && !sim.metrics().sent_any[5],
            "{batch:?}"
        );
        invariants::check_all(sim.topology(), sim.metrics(), &sim.alive_processes()).assert_ok();
    }
}

/// A2 under a size-triggered batch policy: the backlog flush preserves the
/// broadcast spec and the identical-sequence total order.
#[test]
fn a2_batch_policy_preserves_total_order() {
    use wamcast::types::BatchConfig;

    for case in 0..12u64 {
        let mut rng = SplitMix64::new(0xBA2 ^ (case << 8));
        let seed = rng.next_u64();
        let max_msgs = 1 + rng.next_below(6) as usize;
        let num_slots = rng.next_range(4, 14);
        let slots: Vec<(u64, usize)> = (0..num_slots)
            .map(|_| (rng.next_below(30), rng.next_below(64) as usize))
            .collect();
        let batch = BatchConfig::new(max_msgs).with_max_delay(Duration::from_millis(20));
        let cfg = SimConfig::default().with_seed(seed).with_net(jittery_net());
        let mut sim = Simulation::new(Topology::symmetric(3, 2), cfg, move |p, t| {
            RoundBroadcast::with_batch(p, t, batch)
        });
        let dest = sim.topology().all_groups();
        let ids: Vec<_> = slots
            .iter()
            .map(|&(slot, caster)| {
                sim.cast_at(
                    SimTime::from_millis(slot * 20),
                    ProcessId((caster % 6) as u32),
                    dest,
                    Payload::new(),
                )
            })
            .collect();
        assert!(
            sim.run_until_delivered(&ids, SimTime::from_millis(3_600_000)),
            "case {case}: not all delivered"
        );
        sim.run_to_quiescence();
        let report = invariants::check_all(sim.topology(), sim.metrics(), &sim.alive_processes());
        assert!(report.is_ok(), "case {case}: {:?}", report.violations);
        let reference = &sim.metrics().delivered_seq[0];
        for p in sim.topology().processes() {
            assert_eq!(
                &sim.metrics().delivered_seq[p.index()],
                reference,
                "case {case}"
            );
        }
    }
}
