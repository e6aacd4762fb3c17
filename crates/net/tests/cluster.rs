//! Integration tests for the in-process host (`tcp::LocalCluster`): the
//! same protocol cores that run under the simulator, as one TCP node per
//! process over loopback — every message crosses the wire codec and a
//! kernel socket. Links are lossy by design, so every host enables its
//! protocol's retry mode; the two adversary cases add a real `WallFaults`
//! on top. (`tcp_cluster.rs` drives a single node's socket state machine.)

use std::sync::Arc;
use std::time::Duration;
use wamcast_baselines::RingMulticast;
use wamcast_core::{GenuineMulticast, MulticastConfig, RoundBroadcast};
use wamcast_net::tcp::LocalCluster;
use wamcast_net::WallFaults;
use wamcast_types::{
    BatchConfig, FaultPlan, GroupId, GroupSet, MessageId, Payload, ProcessId, SimTime, Topology,
};

const RETRY: Duration = Duration::from_millis(40);

fn a2(p: ProcessId, t: &Topology) -> RoundBroadcast {
    RoundBroadcast::new(p, t).with_retry(RETRY)
}

fn a1(cfg: MulticastConfig) -> impl FnMut(ProcessId, &Topology) -> GenuineMulticast {
    move |p, t| GenuineMulticast::new(p, t, cfg.with_retry(RETRY))
}

fn ids_of(cluster: &LocalCluster, p: ProcessId) -> Vec<MessageId> {
    cluster.delivered(p).iter().map(|m| m.id).collect()
}

/// Every link between distinct processes drops with probability `drop`
/// and every surviving copy is duplicated with probability `dup`, for the
/// first 300 ms; clean afterwards.
fn lossy_start(n: u32, drop: f64, dup: f64, seed: u64) -> Option<Arc<WallFaults>> {
    let until = SimTime::from_millis(300);
    let mut plan = FaultPlan::none().with_duplication(dup, SimTime::ZERO, until);
    for from in 0..n {
        for to in (0..n).filter(|&to| to != from) {
            plan =
                plan.with_drop_during(ProcessId(from), ProcessId(to), drop, SimTime::ZERO, until);
        }
    }
    Some(Arc::new(WallFaults::new(plan, seed)))
}

#[test]
fn a2_total_order_on_threads() {
    let mut cluster = LocalCluster::serve(Topology::symmetric(2, 2), 1, None, a2).expect("serve");
    let dest = cluster.topology().all_groups();
    let mut ids = Vec::new();
    for i in 0..6u32 {
        ids.push(
            cluster
                .cast(ProcessId(i % 4), dest, Payload::new())
                .expect("cast"),
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    for &id in &ids {
        cluster
            .await_delivery_everywhere(id, Duration::from_secs(10))
            .expect("delivered");
    }
    let reference = ids_of(&cluster, ProcessId(0));
    assert_eq!(reference.len(), 6);
    for p in cluster.topology().processes() {
        assert_eq!(ids_of(&cluster, p), reference, "{p} diverged");
    }
    cluster.shutdown();
}

#[test]
fn a1_genuine_multicast_on_threads() {
    let mut cluster = LocalCluster::serve(
        Topology::symmetric(3, 2),
        2,
        None,
        a1(MulticastConfig::default()),
    )
    .expect("serve");
    let d01 = GroupSet::from_iter([GroupId(0), GroupId(1)]);
    let a = cluster
        .cast(ProcessId(0), d01, Payload::from_static(b"a"))
        .expect("cast");
    let b = cluster
        .cast(ProcessId(2), d01, Payload::from_static(b"b"))
        .expect("cast");
    for &id in &[a, b] {
        cluster
            .await_delivery_everywhere(id, Duration::from_secs(10))
            .expect("delivered");
    }
    // Addressed processes agree on the order; bystanders (g2) saw nothing.
    assert_eq!(
        ids_of(&cluster, ProcessId(0)),
        ids_of(&cluster, ProcessId(3))
    );
    assert!(cluster.delivered(ProcessId(4)).is_empty());
    assert!(cluster.delivered(ProcessId(5)).is_empty());
    cluster.shutdown();
}

#[test]
fn a2_survives_crash_on_threads() {
    let mut cluster = LocalCluster::serve(Topology::symmetric(2, 3), 3, None, a2).expect("serve");
    let dest = cluster.topology().all_groups();
    let warm = cluster
        .cast(ProcessId(0), dest, Payload::new())
        .expect("cast");
    cluster
        .await_delivery_everywhere(warm, Duration::from_secs(10))
        .expect("warm-up delivered");
    // Crash g1's ballot-0 coordinator; survivors must still make progress.
    cluster.crash(ProcessId(3)).expect("survivors notified");
    let id = cluster
        .cast(ProcessId(0), dest, Payload::new())
        .expect("cast");
    cluster
        .await_delivery_everywhere(id, Duration::from_secs(15))
        .expect("delivered despite crash");
    assert!(ids_of(&cluster, ProcessId(4)).contains(&id));
    assert!(!ids_of(&cluster, ProcessId(3)).contains(&id));
    // A crashed caster refuses the connection instead of hanging the host.
    assert!(cluster.cast(ProcessId(3), dest, Payload::new()).is_err());
    cluster.shutdown();
}

#[test]
fn a1_with_retry_survives_lossy_duplicating_links() {
    // The same FaultPlan vocabulary the simulator interprets, applied on
    // the node's real send path: a 60%-lossy + duplicating first 300 ms,
    // clean afterwards. A1's retransmission mode must converge to the same
    // total order everywhere.
    let mut cluster = LocalCluster::serve(
        Topology::symmetric(2, 2),
        4,
        lossy_start(4, 0.6, 0.5, 0xFA17),
        a1(MulticastConfig::default()),
    )
    .expect("serve");
    let dest = cluster.topology().all_groups();
    let mut ids = Vec::new();
    for i in 0..6u32 {
        ids.push(
            cluster
                .cast(ProcessId(i % 4), dest, Payload::new())
                .expect("cast"),
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    for &id in &ids {
        cluster
            .await_delivery_everywhere(id, Duration::from_secs(30))
            .expect("delivered despite loss and duplication");
    }
    let reference = ids_of(&cluster, ProcessId(0));
    assert_eq!(reference.len(), 6, "every cast delivered exactly once");
    for p in cluster.topology().processes() {
        assert_eq!(ids_of(&cluster, p), reference, "{p} diverged under faults");
    }
    cluster.shutdown();
}

#[test]
fn shutdown_is_clean_with_pending_timers() {
    // A paced A2 arms timers; shutdown must not hang on them.
    let mut cluster = LocalCluster::serve(Topology::symmetric(2, 1), 5, None, |p, t| {
        RoundBroadcast::with_pacing(p, t, Duration::from_millis(50)).with_retry(RETRY)
    })
    .expect("serve");
    let dest = cluster.topology().all_groups();
    cluster
        .cast(ProcessId(0), dest, Payload::new())
        .expect("cast");
    std::thread::sleep(Duration::from_millis(30));
    cluster.shutdown(); // must return promptly
}

#[test]
fn batched_a1_delivers_in_order_on_threads() {
    // The batching layer runs unchanged on the socket runtime: the flush
    // timer is a real timer here, so a pooled batch below the size trigger
    // still proposes within max_delay. Four casters, batch size large
    // enough that the delay trigger does the flushing.
    let batch = BatchConfig::new(16).with_max_delay(Duration::from_millis(10));
    let mut cluster = LocalCluster::serve(
        Topology::symmetric(2, 2),
        6,
        None,
        a1(MulticastConfig::default().with_batch(batch)),
    )
    .expect("serve");
    let dest = cluster.topology().all_groups();
    let mut ids = Vec::new();
    for i in 0..8u32 {
        ids.push(
            cluster
                .cast(ProcessId(i % 4), dest, Payload::new())
                .expect("cast"),
        );
    }
    for &id in &ids {
        cluster
            .await_delivery_everywhere(id, Duration::from_secs(10))
            .expect("batched delivery");
    }
    // Total order across all processes (broadcast destinations).
    let reference = ids_of(&cluster, ProcessId(0));
    assert_eq!(reference.len(), 8);
    for p in cluster.topology().processes() {
        assert_eq!(
            ids_of(&cluster, p),
            reference,
            "{p} diverged under batching"
        );
    }
    cluster.shutdown();
}

#[test]
fn ring_multicast_with_retry_survives_lossy_links_on_threads() {
    // A registry-hosted Figure 1 baseline under the send-path adversary:
    // the ring's retry mode (hand-off retransmission, positive-ack Final
    // retransmission, consensus ticks) must ride out a 50%-lossy first
    // 300 ms and still converge to one total order at every addressed
    // process.
    let mut cluster = LocalCluster::serve(
        Topology::symmetric(3, 2),
        7,
        lossy_start(6, 0.5, 0.3, 0x4417),
        |p, t| RingMulticast::new(p, t).with_retry(RETRY),
    )
    .expect("serve");
    // Mixed destinations: a group pair and the full set, from casters in
    // different groups (the caster need not be addressed).
    let d01 = GroupSet::from_iter([GroupId(0), GroupId(1)]);
    let d12 = GroupSet::from_iter([GroupId(1), GroupId(2)]);
    let all = cluster.topology().all_groups();
    let mut ids = Vec::new();
    for i in 0..4u32 {
        for (caster, dest) in [(i, d01), (i + 3, d12), (i + 5, all)] {
            ids.push(
                cluster
                    .cast(ProcessId(caster % 6), dest, Payload::new())
                    .expect("cast"),
            );
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    for &id in &ids {
        cluster
            .await_delivery_everywhere(id, Duration::from_secs(30))
            .expect("delivered despite loss");
    }
    // Processes of g1 are addressed by everything: their sequences are the
    // total order every other process's projection must agree with.
    let reference = ids_of(&cluster, ProcessId(2));
    assert_eq!(reference.len(), 12, "g1 delivers every cast exactly once");
    assert_eq!(
        ids_of(&cluster, ProcessId(3)),
        reference,
        "g1 members agree"
    );
    for p in cluster.topology().processes() {
        let seq = ids_of(&cluster, p);
        let projected: Vec<_> = reference
            .iter()
            .copied()
            .filter(|id| seq.contains(id))
            .collect();
        assert_eq!(seq, projected, "{p}'s order must project from g1's");
    }
    cluster.shutdown();
}
