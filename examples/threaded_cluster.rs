//! Run the paper's Algorithm A2 on real sockets, one thread per process.
//!
//! Run with: `cargo run --release --example threaded_cluster`
//!
//! The protocol cores are sans-io; everything else in this repository runs
//! them under the deterministic simulator. This example hosts the *same*
//! `RoundBroadcast` values on the `wamcast-net` TCP runtime — six nodes of
//! this process talking over loopback, every message through the wire
//! codec, real timers — to show the cores are runtime-agnostic, and
//! exercises crash handling live.

use std::time::Duration;
use wamcast::net::tcp::LocalCluster;
use wamcast::types::{Payload, ProcessId};
use wamcast::{RoundBroadcast, Topology};

fn main() {
    // 2 sites × 3 replicas = 6 nodes. Socket links are lossy (a peer that
    // is down costs frames), so the protocol's retry mode is on.
    let topo = Topology::symmetric(2, 3);
    let mut cluster = LocalCluster::serve(topo, 0, None, |p, t| {
        RoundBroadcast::new(p, t).with_retry(Duration::from_millis(100))
    })
    .expect("loopback sockets");
    let everyone = cluster.topology().all_groups();

    // Broadcast a burst from several processes.
    let mut ids = Vec::new();
    for i in 0..8u32 {
        let caster = ProcessId(i % 6);
        let payload = Payload::from(format!("op{i}").into_bytes());
        ids.push(cluster.cast(caster, everyone, payload).expect("cast acked"));
        std::thread::sleep(Duration::from_millis(5));
    }
    for &id in &ids {
        cluster
            .await_delivery_everywhere(id, everyone, Duration::from_secs(10))
            .expect("delivery");
    }

    // All six nodes hold the same total order.
    let reference = cluster.delivered(ProcessId(0));
    for p in cluster.topology().processes() {
        let seq = cluster.delivered(p);
        assert_eq!(seq[..reference.len()], reference[..], "{p} diverged");
    }
    println!(
        "6 nodes agreed on a total order of {} messages:",
        reference.len()
    );
    for m in &reference {
        println!("  {m}");
    }

    // Crash a process and keep going: the survivors re-coordinate.
    cluster.crash(ProcessId(3)).expect("survivors notified");
    let id = cluster
        .cast(ProcessId(0), everyone, Payload::from_static(b"after-crash"))
        .expect("cast acked");
    cluster
        .await_delivery_everywhere(id, everyone, Duration::from_secs(10))
        .expect("delivery despite crash");
    println!("\ncrashed p3; message {id} still delivered by all survivors");

    cluster.shutdown();
    println!("cluster shut down cleanly");
}
