//! Socket runtime for `wamcast` protocols.
//!
//! The protocols in this workspace are sans-io state machines (see
//! `wamcast_types::proto`); the deterministic simulator (`wamcast-sim`) is
//! where experiments run. This crate hosts the *same* protocol values on
//! real sockets: [`tcp::serve`] runs one process of a topology as one
//! `poll`-driven thread behind a TCP listener, with real timers and a
//! wall-clock [`Context::now`]. The harness's `peer` binary wraps one such
//! node per OS process; [`tcp::LocalCluster`] serves every process of a
//! topology inside the calling process, over loopback.
//!
//! Scope: functional execution (deliveries, ordering) and end-to-end
//! measurement — latency *degrees* are a logical-clock notion only the
//! simulator computes. A crash is [`tcp::LocalCluster::crash`] in process
//! or `kill -9` across processes; crash *notifications* are sent to the
//! survivors as [`tcp::Frame::CrashNotify`] by whoever crashed it — this
//! runtime has no failure detector of its own
//! (`wamcast_consensus::HeartbeatFd` is not wired to it). Replayable crash
//! *schedules* are the simulator's job.
//!
//! [`Context::now`]: wamcast_types::Context::now
//!
//! # Example
//!
//! ```
//! use wamcast_net::tcp::LocalCluster;
//! use wamcast_core::RoundBroadcast;
//! use wamcast_types::{Payload, ProcessId, Topology};
//! use std::time::Duration;
//!
//! let topo = Topology::symmetric(2, 2);
//! let mut cluster = LocalCluster::serve(topo, 0, None, |p, t| {
//!     RoundBroadcast::new(p, t).with_retry(Duration::from_millis(100))
//! })
//! .expect("loopback sockets");
//! let dest = cluster.topology().all_groups();
//! let id = cluster
//!     .cast(ProcessId(0), dest, Payload::from_static(b"hi"))
//!     .expect("acked");
//! cluster
//!     .await_delivery_everywhere(id, Duration::from_secs(5))
//!     .expect("delivered");
//! assert_eq!(cluster.delivered(ProcessId(3))[0].id, id);
//! cluster.shutdown();
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod faults;
#[cfg(unix)]
mod poll;
pub mod tcp;

pub use faults::WallFaults;
