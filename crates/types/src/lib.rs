//! Core types shared by every crate in the `wamcast` workspace.
//!
//! This crate defines the vocabulary of the system model of Schiper & Pedone,
//! *Optimal Atomic Broadcast and Multicast Algorithms for Wide Area Networks*
//! (PODC 2007, §2):
//!
//! * [`ProcessId`] / [`GroupId`] — the system Π = {p₁, …, pₙ} partitioned
//!   into disjoint groups Γ = {g₁, …, gₘ};
//! * [`GroupSet`] — a destination set `m.dest ⊆ Γ` as a compact bitmask;
//! * [`Topology`] — the static group membership (who belongs where);
//! * [`MessageId`] and [`AppMessage`] — application messages with globally
//!   unique, totally ordered identifiers (the paper breaks timestamp ties by
//!   `m.id`);
//! * [`IdSet`] — the grow-only id sets of the pseudo-code (`ADELIVERED`,
//!   R-MCast integrity) as per-origin `seq` ranges: exact, 16 bytes per
//!   dense run instead of per id;
//! * [`LatencyClock`] — the *modified Lamport clock* of §2.3 used to define
//!   the **latency degree** Δ(m, R): sends to a different group cost one
//!   tick, intra-group sends are free;
//! * [`SimTime`] — virtual time for the discrete-event simulator;
//! * [`BatchConfig`] — the consensus-amortization policy of the batching
//!   layer (how many messages pool before a consensus instance is spent on
//!   them); interpreted by the protocol cores in `wamcast-core`;
//! * [`FaultPlan`] / [`FaultConfig`] / [`FaultInjector`] — the deterministic
//!   fault-injection adversary (crash schedules, link loss, partitions,
//!   duplication, latency spikes) applied by both runtimes, see [`fault`];
//! * [`SplitMix64`] — the workspace's deterministic generator, shared by
//!   the simulator, the workload generators and the fault layer;
//! * [`StateMachine`] — the replicated-state-machine consumer interface:
//!   what a service (e.g. the partitioned KV store in `wamcast-smr`) exposes
//!   so a host can apply `A-Deliver` events to it in delivery order.
//!
//! # Example
//!
//! ```
//! use wamcast_types::{Topology, GroupSet, GroupId};
//!
//! // Three groups of two processes each.
//! let topo = Topology::symmetric(3, 2);
//! assert_eq!(topo.num_processes(), 6);
//! let dest: GroupSet = [GroupId(0), GroupId(2)].into_iter().collect();
//! assert_eq!(dest.len(), 2);
//! assert!(dest.contains(GroupId(2)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod clock;
mod error;
pub mod fault;
pub mod fxhash;
mod groupset;
mod ids;
mod idset;
mod message;
pub mod proto;
mod rng;
mod statemachine;
mod time;
mod topology;
pub mod wire;

pub use batch::BatchConfig;
pub use batch::SharedBatch;
pub use clock::{EventStamp, LatencyClock, LatencyDegree};
pub use error::TopologyError;
pub use fault::{FaultConfig, FaultInjector, FaultPlan, FaultWindow, LinkFate};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use groupset::GroupSet;
pub use ids::{GroupId, ProcessId};
pub use idset::IdSet;
pub use message::{AppMessage, MessageId, Payload};
pub use proto::{Action, Context, MsgClass, MsgInfo, MsgSlot, Outbox, Protocol};
pub use rng::SplitMix64;
pub use statemachine::StateMachine;
pub use time::SimTime;
pub use topology::{Topology, TopologyBuilder};
pub use wire::{Wire, WireError, WireReader, WireWriter};
