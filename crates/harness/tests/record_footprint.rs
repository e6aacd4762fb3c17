//! Growth guard for the simulator's run record: the benchmark's `sim_a1`
//! and `sim_a2` stacks (3×3, Poisson 2 000 casts/s, send log off) run to
//! quiescence, and the bytes the returned [`RunMetrics`] keeps on the heap
//! are divided by the casts it records. The ordered map of casts and the
//! hashed map of per-cast delivery maps this record replaced read 605 B
//! (`sim_a1`) and 506 B (`sim_a2`) per cast here, and fail. A third test
//! guards the other end of a run: the heap a loaded plan holds before the
//! first step, and the allocations loading it takes. The next two guard
//! the processes themselves: what the protocols keep at quiescence must
//! not grow with the plan. The next guards the same on sockets, for an
//! in-process loopback cluster whose nodes keep a delivery log. Another
//! bounds what a KV replica keeps per op it applies, another what the
//! §2.2 checker allocates per delivery, and the last how many allocations
//! a whole run makes per cast.
//!
//! Run in release: `cargo test --release -p wamcast-harness --test
//! record_footprint`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use wamcast_core::{GenuineMulticast, RoundBroadcast};
use wamcast_harness::registry::a1_stack_config;
use wamcast_harness::scenario::RETRY_INTERVAL;
use wamcast_harness::workload::{all_group_pairs, poisson, PlannedCast};
use wamcast_net::tcp::LocalCluster;
use wamcast_sim::invariants::check_with_profile;
use wamcast_sim::{InvariantProfile, RunMetrics, SimConfig, Simulation};
use wamcast_smr::{Command, KvStateMachine, ShardMap};
use wamcast_types::{
    BatchConfig, GroupId, GroupSet, MessageId, Payload, ProcessId, Protocol, SimTime, SplitMix64,
    Topology,
};

/// Heap bytes currently allocated by the whole process.
static LIVE: AtomicUsize = AtomicUsize::new(0);

/// The most [`LIVE`] has read since it was last reset to the live heap.
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// Allocations and reallocations made by the whole process.
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

/// Adds `n` bytes to the live heap, counts the allocation and raises the
/// high-water mark.
fn grow(n: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    let live = LIVE.fetch_add(n, Ordering::Relaxed) + n;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

/// Serialises the measurements: the counter is process-wide.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting in between touches only
// an atomic and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations are passed through.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` was returned by `System` through this allocator
        // with this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; `new_size` is the caller's obligation.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            grow(new_size);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Arrival horizon of the plan (virtual time): a few seconds, ~6 000 casts.
const HORIZON: Duration = Duration::from_secs(3);

/// `dests`' Poisson plan over `horizon` on a 3×3 topology, and a
/// simulation of the stack `factory` builds with nothing scheduled yet.
fn sim_and_plan<P: Protocol>(
    horizon: Duration,
    dests: impl Fn(&Topology) -> Vec<GroupSet>,
    factory: impl FnMut(ProcessId, &Topology) -> P,
) -> (Simulation<P>, Vec<PlannedCast>) {
    let topo = Arc::new(Topology::symmetric(3, 3));
    let plan = poisson(&topo, 2000.0, horizon, &dests(&topo), 7);
    let cfg = SimConfig::default().with_seed(7).with_send_log(false);
    (Simulation::new_shared(topo, cfg, factory), plan)
}

/// Runs `dests`' Poisson plan on the stack `factory` builds, to
/// quiescence, and returns the record's heap bytes per cast.
fn bytes_per_cast<P: Protocol>(
    dests: impl Fn(&Topology) -> Vec<GroupSet>,
    factory: impl FnMut(ProcessId, &Topology) -> P,
) -> f64 {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let (mut sim, plan) = sim_and_plan(HORIZON, dests, factory);
    for c in &plan {
        sim.cast_at(c.at, c.caster, c.dest, Payload::new());
    }
    sim.run_to_quiescence();
    let m: RunMetrics = sim.into_metrics();
    assert_eq!(m.casts.len(), plan.len());
    assert_eq!(m.deliveries.len(), plan.len(), "every cast delivered");
    let with = LIVE.load(Ordering::Relaxed);
    drop(m);
    let without = LIVE.load(Ordering::Relaxed);
    (with - without) as f64 / plan.len() as f64
}

/// Runs `dests`' Poisson plan over `horizon` on the stack `factory`
/// builds, to quiescence, and returns the heap bytes the simulation keeps
/// beside its run record — the nine processes' protocol state, with the
/// drained event queue — read just before and just after `into_metrics`
/// drops it. The plan is scheduled a [`SLICE`] ahead of the run, not all
/// at once, so the queue's spare capacity is set by the load and not by
/// the plan's length.
fn held_at_quiescence<P: Protocol>(
    horizon: Duration,
    dests: impl Fn(&Topology) -> Vec<GroupSet>,
    factory: impl FnMut(ProcessId, &Topology) -> P,
) -> usize {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let (mut sim, plan) = sim_and_plan(horizon, dests, factory);
    let mut slice_end = SimTime::ZERO;
    for c in &plan {
        if c.at >= slice_end {
            // Everything before this slice has run; `now` stays below it.
            sim.run_until(SimTime::from_nanos(slice_end.as_nanos().saturating_sub(1)));
            slice_end = c.at + SLICE;
        }
        sim.cast_at(c.at, c.caster, c.dest, Payload::new());
    }
    sim.run_to_quiescence();
    let with = LIVE.load(Ordering::Relaxed);
    let m: RunMetrics = sim.into_metrics();
    let without = LIVE.load(Ordering::Relaxed);
    assert_eq!(m.deliveries.len(), plan.len(), "every cast delivered");
    with - without
}

/// How far ahead of the run [`held_at_quiescence`] schedules casts.
const SLICE: Duration = Duration::from_millis(100);

/// Heap the nine processes may gain when the plan doubles from 3 s to
/// 6 s, about 6 000 casts more: under 2.5 B per added cast per process.
/// It covers the buffers and table capacities a longer run happens to
/// leave larger; anything a process keeps per cast exceeds it.
const RETAINED_SLACK: usize = 128 << 10;

/// Doubling the plan may add at most [`RETAINED_SLACK`].
fn assert_retains_nothing_per_cast(stack: &str, short: usize, long: usize) {
    assert!(
        long <= short + RETAINED_SLACK,
        "{stack}: processes hold {short} B after a 3 s plan and {long} B after a 6 s plan"
    );
}

/// `sim_a1`'s destinations: every pair of groups, and all groups.
fn a1_dests(topo: &Topology) -> Vec<GroupSet> {
    let mut dests = all_group_pairs(topo);
    dests.push(topo.all_groups());
    dests
}

/// `sim_a1`'s stack: batched A1 with retransmission.
fn a1_stack(p: ProcessId, t: &Topology) -> GenuineMulticast {
    let batch = BatchConfig::new(8).with_max_delay(Duration::from_millis(20));
    GenuineMulticast::new(p, t, a1_stack_config(Some(batch), Some(RETRY_INTERVAL)))
}

#[test]
fn sim_a1_record_keeps_at_most_400_bytes_per_cast() {
    let per_cast = bytes_per_cast(a1_dests, a1_stack);
    assert!(per_cast <= 400.0, "sim_a1 record: {per_cast:.1} B per cast");
}

/// Growth guard for a loaded plan: the heap a [`Simulation`] gains while
/// `sim_a1`'s plan is scheduled with `cast_at`, before its first step, and
/// the allocations that takes. The time-ascending casts wait in the
/// planned-cast lane: one 64-byte row each, in chunks of 512 rows. Reads
/// 65.3 B and 0.002 allocations per cast here. A queued `Cast` event per
/// cast in a bucket of its own, with the queue's index over the instants,
/// read 162.7 B and 1.01 allocations per cast, and fails; a bucket sized
/// by `Vec`'s first growth (four events) read 579 B.
#[test]
fn sim_a1_scheduled_casts_take_at_most_80_bytes_and_0_01_allocations_each() {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let (mut sim, plan) = sim_and_plan(HORIZON, a1_dests, a1_stack);
    let before = LIVE.load(Ordering::Relaxed);
    let allocs_before = ALLOCS.load(Ordering::Relaxed);
    for c in &plan {
        sim.cast_at(c.at, c.caster, c.dest, Payload::new());
    }
    let per_cast = (LIVE.load(Ordering::Relaxed) - before) as f64 / plan.len() as f64;
    let allocs = (ALLOCS.load(Ordering::Relaxed) - allocs_before) as f64 / plan.len() as f64;
    assert!(
        per_cast <= 80.0,
        "sim_a1 plan: {per_cast:.1} B per scheduled cast"
    );
    assert!(
        allocs < 0.01,
        "sim_a1 plan: {allocs:.3} allocations per scheduled cast"
    );
}

/// `sim_a2`'s destinations: all groups.
fn all_groups(topo: &Topology) -> Vec<GroupSet> {
    vec![topo.all_groups()]
}

/// `sim_a2`'s stack: A2 paced at 10 ms, with retransmission.
fn a2_stack(p: ProcessId, t: &Topology) -> RoundBroadcast {
    RoundBroadcast::with_pacing(p, t, Duration::from_millis(10)).with_retry(RETRY_INTERVAL)
}

#[test]
fn sim_a2_record_keeps_at_most_480_bytes_per_cast() {
    let per_cast = bytes_per_cast(all_groups, a2_stack);
    assert!(per_cast <= 480.0, "sim_a2 record: {per_cast:.1} B per cast");
}

/// Growth guard for what `sim_a1`'s nine processes keep once every cast
/// is delivered, after a 3 s and a 6 s plan, with every cast addressed to
/// all three groups. A process relays a crashed caster's casts from those
/// it has not yet A-Delivered and those in a decision Paxos still holds,
/// so nothing it keeps grows per cast. (With `sim_a1`'s own destinations
/// the id sets also gain a range per skipped cast, about 0.4 MB per 3 s
/// here.) Reads 5 001 425 B and 5 044 689 B here. Keeping a copy of every
/// R-Delivered cast for the relay read 8 987 921 B and 13 012 497 B, and
/// fails.
#[test]
fn sim_a1_processes_retain_nothing_per_cast() {
    let short = held_at_quiescence(HORIZON, all_groups, a1_stack);
    let long = held_at_quiescence(2 * HORIZON, all_groups, a1_stack);
    assert_retains_nothing_per_cast("sim_a1", short, long);
}

/// [`sim_a1_processes_retain_nothing_per_cast`] for `sim_a2`'s stack.
/// Reads 319 357 B and 323 933 B here. Keeping a copy of every
/// R-Delivered cast for the relay read 1 648 081 B and 2 979 761 B, and
/// fails.
#[test]
fn sim_a2_processes_retain_nothing_per_cast() {
    let short = held_at_quiescence(HORIZON, all_groups, a2_stack);
    let long = held_at_quiescence(2 * HORIZON, all_groups, a2_stack);
    assert_retains_nothing_per_cast("sim_a2", short, long);
}

/// Runs `dests`' Poisson plan on the stack `factory` builds, from building
/// the simulation to dropping its record, and returns the allocations
/// (reallocations included) per cast: the benchmark's
/// `alloc.allocs_per_op`, on a 3 s plan.
fn allocations_per_cast<P: Protocol>(
    dests: impl Fn(&Topology) -> Vec<GroupSet>,
    factory: impl FnMut(ProcessId, &Topology) -> P,
) -> f64 {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let topo = Arc::new(Topology::symmetric(3, 3));
    let plan = poisson(&topo, 2000.0, HORIZON, &dests(&topo), 7);
    let before = ALLOCS.load(Ordering::Relaxed);
    let cfg = SimConfig::default().with_seed(7).with_send_log(false);
    let mut sim = Simulation::new_shared(topo, cfg, factory);
    for c in &plan {
        sim.cast_at(c.at, c.caster, c.dest, Payload::new());
    }
    sim.run_to_quiescence();
    let m: RunMetrics = sim.into_metrics();
    assert_eq!(m.deliveries.len(), plan.len(), "every cast delivered");
    drop(m);
    (ALLOCS.load(Ordering::Relaxed) - before) as f64 / plan.len() as f64
}

/// Allocation guard for the two simulator stacks, per cast. Reads 13.5
/// (`sim_a1`) and 1.6 (`sim_a2`) here. Without the fixes below it read
/// 32.6 and 2.9, and `sim_a1` fails: the first proposal each pending cast
/// recorded in a list of its own, a `(TS, batch)` staging vector built
/// and grown per decision, a copy of the destination group's member list
/// per fan-out, each consensus instance's first vote tally and first
/// forwarded value, the rmcast ack list grown per recipient and a debtor
/// set rebuilt per cast, nudge replies grown per entry, event-queue
/// buckets of 17 to 64 events regrown from one slot, and (`sim_a2`) a
/// peer list built per cast.
#[test]
fn sim_runs_allocate_at_most_18_and_3_times_per_cast() {
    let a1 = allocations_per_cast(a1_dests, a1_stack);
    let a2 = allocations_per_cast(all_groups, a2_stack);
    assert!(a1 <= 18.0, "sim_a1: {a1:.2} allocations per cast");
    assert!(a2 <= 3.0, "sim_a2: {a2:.2} allocations per cast");
}

/// Casts before the first live-heap reading of
/// [`tcp_nodes_retain_no_body_per_cast`], and again before the second:
/// 32 times a node's 1 024 `BodyCache` slots, so every slot holds a body
/// at both readings. A power of two, so each node's delivery log doubles
/// its capacity exactly once in between.
const SOCKET_CASTS: usize = 1 << 15;

/// Casts a window may have in flight: keeps queues and out-buffers near
/// the same depth through both halves of the run.
const SOCKET_WINDOW: usize = 64;

/// Heap the cluster may gain per added cast per process between the two
/// readings. It covers the 16-byte id in each node's delivery log (with
/// the log's doubling, 16 B) and buffers a burst happens to grow. A body
/// kept per cast exceeds it.
const SOCKET_BYTES_PER_CAST: usize = 64;

/// Blocks until every process of `cluster` has delivered `count` casts.
fn await_all_delivered(cluster: &LocalCluster, count: usize) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while cluster
        .topology()
        .processes()
        .any(|p| cluster.delivered_count(p) < count)
    {
        assert!(
            Instant::now() < deadline,
            "{count} casts not delivered everywhere within 30 s"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Growth guard for a socket node: the `tcp_global` stack (2×2 batched A1
/// with retransmission) on a loopback [`LocalCluster`], every cast to both
/// groups with a 512-byte body. The live heap is read once every node has
/// delivered [`SOCKET_CASTS`] casts and again at twice that; it may grow
/// by at most [`SOCKET_BYTES_PER_CAST`] per added cast per process. Reads
/// 16.0–18.4 B here (8 225 808 → 10 326 928 B in one run). A delivery log
/// that kept each delivered `AppMessage` kept its body too: 80 132 738 →
/// 155 630 722 B, 576 B per added cast per process, and fails.
#[test]
fn tcp_nodes_retain_no_body_per_cast() {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let batch = BatchConfig::new(8).with_max_delay(Duration::from_millis(20));
    let mut cluster = LocalCluster::serve(Topology::symmetric(2, 2), 0, None, |p, t| {
        GenuineMulticast::new(p, t, a1_stack_config(Some(batch), Some(RETRY_INTERVAL)))
    })
    .expect("loopback sockets");
    let both = cluster.topology().all_groups();
    let reading = |cluster: &mut LocalCluster, from: usize, to: usize| {
        for i in from..to {
            if i % SOCKET_WINDOW == 0 {
                await_all_delivered(cluster, i.saturating_sub(SOCKET_WINDOW));
            }
            let caster = ProcessId(if i % 2 == 0 { 0 } else { 2 });
            let body = Payload::from(vec![i as u8; 512]);
            cluster.cast(caster, both, body).expect("cast acked");
        }
        await_all_delivered(cluster, to);
        // Let the acknowledgements of the last casts land.
        std::thread::sleep(Duration::from_millis(100));
        LIVE.load(Ordering::Relaxed)
    };
    let short = reading(&mut cluster, 0, SOCKET_CASTS);
    let long = reading(&mut cluster, SOCKET_CASTS, 2 * SOCKET_CASTS);
    cluster.shutdown();
    let per_cast = long.saturating_sub(short) as f64 / (SOCKET_CASTS * 4) as f64;
    assert!(
        per_cast <= SOCKET_BYTES_PER_CAST as f64,
        "tcp nodes: {short} B after {SOCKET_CASTS} casts and {long} B after twice that, \
         {per_cast:.1} B per added cast per process"
    );
}

/// Ops a KV replica applies before the first live-heap reading of
/// [`kv_replica_retains_at_most_24_bytes_per_applied_op`], and again
/// before the second. A power of two, so the apply log, filled from empty,
/// sits at exactly its capacity at both readings.
const KV_OPS: u64 = 1 << 15;

/// Growth guard for a KV replica's apply log, which it keeps for life:
/// one [`KvStateMachine`] of a 3-shard map applies a seeded mix of
/// single-key commands on 256 keys it owns, with some `MultiPut`s and
/// `Transfer`s that also touch 256 keys of any shard. Once the keys are
/// all set, only the log grows, so from
/// 2^15 to 2^16 ops the live heap may grow by at most 24 B per added op.
/// Reads 24.0 B here. A log of whole `AppliedOp`s (id, destination set
/// and response: 56 B) reads 56.0 B, and fails.
#[test]
fn kv_replica_retains_at_most_24_bytes_per_applied_op() {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let shards = ShardMap::new(3);
    let g = GroupId(0);
    let mut kv = KvStateMachine::new(g, shards);
    let mut rng = SplitMix64::new(24);
    let mut apply = |kv: &mut KvStateMachine, seqs: std::ops::Range<u64>| {
        for seq in seqs {
            let key = shards.key_owned_by(g, rng.next_below(256) << 8);
            let value = rng.next_below(1_000) as i64;
            let cmd = match rng.next_below(10) {
                0..=2 => Command::Get { key },
                3..=5 => Command::Put { key, value },
                6..=7 => Command::Incr { key, delta: value },
                8 => Command::MultiPut {
                    entries: vec![(key, value), (rng.next_below(256) << 8, value)],
                },
                _ => Command::Transfer {
                    from: key,
                    to: rng.next_below(256) << 8,
                    amount: value,
                },
            };
            let id = MessageId::new(ProcessId(rng.next_below(6) as u32), seq);
            kv.apply_command(id, shards.dest_of(&cmd), &cmd);
        }
    };
    apply(&mut kv, 0..KV_OPS);
    let short = LIVE.load(Ordering::Relaxed);
    apply(&mut kv, KV_OPS..2 * KV_OPS);
    let long = LIVE.load(Ordering::Relaxed);
    assert_eq!(kv.log().len() as u64, 2 * KV_OPS);
    let per_op = long.saturating_sub(short) as f64 / KV_OPS as f64;
    assert!(
        per_op <= 24.0,
        "kv replica: {short} B after {KV_OPS} ops and {long} B after twice that, \
         {per_op:.1} B per added op"
    );
}

/// Growth guard for the §2.2 checker: `sim_a2`'s stack runs a 3 s plan to
/// quiescence and [`check_with_profile`] judges the record under A2's
/// profile. The heap's high-water mark during the check, less the live
/// heap at entry, may be at most 8 B per delivery. The checker keeps each
/// process's sequence as 4-byte cast rows and a bit per cast: 217 388 B
/// over 54 234 deliveries, 4.0 B each, here. A `BTreeSet` of ids per
/// process and an (id, destination) copy of every sequence read 58.0 B,
/// and fail.
#[test]
fn checker_allocates_at_most_8_bytes_per_delivery() {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let (mut sim, plan) = sim_and_plan(HORIZON, all_groups, a2_stack);
    for c in &plan {
        sim.cast_at(c.at, c.caster, c.dest, Payload::new());
    }
    sim.run_to_quiescence();
    let topo = sim.topology().clone();
    let m: RunMetrics = sim.into_metrics();
    let deliveries: usize = m.delivered_seq.iter().map(Vec::len).sum();
    assert_eq!(deliveries, plan.len() * topo.num_processes());
    let correct: Vec<ProcessId> = topo.processes().collect();
    let entry = LIVE.load(Ordering::Relaxed);
    PEAK.store(entry, Ordering::Relaxed);
    let report = check_with_profile(&topo, &m, &correct, InvariantProfile::BROADCAST_UNIFORM);
    let peak = PEAK.load(Ordering::Relaxed);
    report.assert_ok();
    let per_delivery = (peak - entry) as f64 / deliveries as f64;
    assert!(
        per_delivery <= 8.0,
        "checker: {} B above the {entry} B live at entry over {deliveries} deliveries, \
         {per_delivery:.1} B per delivery",
        peak - entry
    );
}
