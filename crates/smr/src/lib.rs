//! Partitioned, replicated key-value service over genuine atomic multicast.
//!
//! This crate is the workspace's *application* layer — the first consumer
//! of the ordering protocols, and the reason genuine atomic multicast is
//! interesting in the first place: multi-partition operations in a sharded
//! service. Each topology group owns one key shard ([`ShardMap`]); every
//! client [`Command`] is atomically multicast to **exactly** the shards its
//! keys touch. Single-key commands (`Get`/`Put`/`Incr`) ride A1's
//! single-group fast path; `MultiPut` and `Transfer` span shards, and only
//! the involved shards exchange any message — the genuineness property,
//! now visible as "a transfer between shards 1 and 2 never bothers
//! shard 3".
//!
//! The pieces:
//!
//! * [`ShardMap`] — deterministic key→shard placement and command routing
//!   (`dest_of` is the A-MCast destination set);
//! * [`Command`] / [`Response`] — the service vocabulary and its
//!   dependency-free payload codec;
//! * [`KvStateMachine`] — the deterministic replica: applied on delivery
//!   (via `wamcast_core::WithApply`), it keeps balances, an apply log and
//!   a running digest for cross-replica comparison;
//! * [`history`] — the consistency checker: replica agreement, cross-shard
//!   atomicity, per-key linearizability of single-shard commands, and
//!   cross-shard serializability, all from recorded histories and logs;
//! * [`ApplyBug`] / [`BuggyKv`] — deliberately planted apply defects
//!   proving the checker rejects bad histories.
//!
//! The closed-loop client driver lives in `wamcast-harness` (`smr`
//! module / the `smr_kv` binary), which runs this service on both the
//! deterministic simulator (including under `FaultPlan` adversaries) and
//! the `wamcast-net` TCP runtime.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod command;
pub mod history;
mod kv;
mod shard;
mod wire;

pub use command::{Command, DecodeError, Response};
pub use history::{check, responder_shard, History, HistoryReport, OpRecord, ReplicaLog};
pub use kv::{shared_replica, AppliedOp, ApplyBug, BuggyKv, KvStateMachine, SharedKv};
pub use shard::{Key, ShardMap};
