//! Growth guard for the simulator's run record: the benchmark's `sim_a1`
//! and `sim_a2` stacks (3×3, Poisson 2 000 casts/s, send log off) run to
//! quiescence, and the bytes the returned [`RunMetrics`] keeps on the heap
//! are divided by the casts it records. The ordered map of casts and the
//! hashed map of per-cast delivery maps this record replaced read 605 B
//! (`sim_a1`) and 506 B (`sim_a2`) per cast here, and fail. A third test
//! guards the other end of a run: the heap a loaded plan holds before the
//! first step.
//!
//! Run in release: `cargo test --release -p wamcast-harness --test
//! record_footprint`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use wamcast_core::{GenuineMulticast, RoundBroadcast};
use wamcast_harness::registry::a1_stack_config;
use wamcast_harness::scenario::RETRY_INTERVAL;
use wamcast_harness::workload::{all_group_pairs, poisson};
use wamcast_sim::{RunMetrics, SimConfig, Simulation};
use wamcast_types::{BatchConfig, GroupSet, Payload, ProcessId, Protocol, Topology};

/// Heap bytes currently allocated by the whole process.
static LIVE: AtomicUsize = AtomicUsize::new(0);

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
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
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
            LIVE.fetch_add(new_size, Ordering::Relaxed);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Arrival horizon of the plan (virtual time): a few seconds, ~6 000 casts.
const HORIZON: Duration = Duration::from_secs(3);

/// Runs `dests`' Poisson plan on the stack `factory` builds, to
/// quiescence, and returns the record's heap bytes per cast.
fn bytes_per_cast<P: Protocol>(
    dests: impl Fn(&Topology) -> Vec<GroupSet>,
    factory: impl FnMut(ProcessId, &Topology) -> P,
) -> f64 {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let topo = Arc::new(Topology::symmetric(3, 3));
    let plan = poisson(&topo, 2000.0, HORIZON, &dests(&topo), 7);
    let cfg = SimConfig::default().with_seed(7).with_send_log(false);
    let mut sim = Simulation::new_shared(Arc::clone(&topo), cfg, factory);
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
/// `sim_a1`'s plan is scheduled with `cast_at`, before its first step —
/// one queued `Cast` event per cast, most alone at their instant, plus the
/// queue's index over the instants. A bucket sized by `Vec`'s first
/// growth (four events) and a 64-byte message read 579 B per cast here,
/// and fail.
#[test]
fn sim_a1_scheduled_casts_take_at_most_256_bytes_each() {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let topo = Arc::new(Topology::symmetric(3, 3));
    let plan = poisson(&topo, 2000.0, HORIZON, &a1_dests(&topo), 7);
    let cfg = SimConfig::default().with_seed(7).with_send_log(false);
    let mut sim = Simulation::new_shared(Arc::clone(&topo), cfg, a1_stack);
    let before = LIVE.load(Ordering::Relaxed);
    for c in &plan {
        sim.cast_at(c.at, c.caster, c.dest, Payload::new());
    }
    let per_cast = (LIVE.load(Ordering::Relaxed) - before) as f64 / plan.len() as f64;
    assert!(
        per_cast <= 256.0,
        "sim_a1 plan: {per_cast:.1} B per scheduled cast"
    );
}

#[test]
fn sim_a2_record_keeps_at_most_480_bytes_per_cast() {
    let per_cast = bytes_per_cast(
        |topo| vec![topo.all_groups()],
        |p, t| {
            RoundBroadcast::with_pacing(p, t, Duration::from_millis(10)).with_retry(RETRY_INTERVAL)
        },
    );
    assert!(per_cast <= 480.0, "sim_a2 record: {per_cast:.1} B per cast");
}
