//! Intra-group uniform consensus for `wamcast`.
//!
//! The paper assumes that "in each group … consensus is solvable" (§2.1) and
//! uses a uniform consensus primitive `Propose(k, v)` / `Decided(k, v)` with
//! the classic properties (§2.2): uniform integrity, termination, uniform
//! agreement. Both A1 and A2 run *one consensus engine per group*; consensus
//! messages never cross group boundaries, so — by the modified Lamport clock
//! of §2.3 — consensus contributes **zero** to the latency degree.
//!
//! This crate provides:
//!
//! * [`GroupConsensus`] — a sans-io, multi-instance, single-decree Paxos
//!   engine. The default coordinator (lowest-id non-suspected member) owns
//!   ballot 0 and may skip the prepare phase, deciding in two intra-group
//!   delays in the common case. Instance numbers are arbitrary `u64`s
//!   because A1 uses its group clock as the instance counter and that clock
//!   *skips* values (line 31 of Algorithm A1). The engine forgets: each
//!   embedder reports the instance it has consumed up to
//!   ([`GroupConsensus::advance_floor`]), `Accepted` carries it, and an
//!   instance every member is past is dropped. The engine is *batch-aware*:
//!   [`GroupConsensus::with_merge`] installs a [`MergeFn`] that folds
//!   proposals forwarded by other members into the coordinator's ballot-0
//!   `Accept`, so one instance decides the union of everything the group
//!   has to order — the decided-value half of the batching layer described
//!   in `DESIGN.md` (the accumulation half lives in `wamcast-core`,
//!   governed by `wamcast_types::BatchConfig`).
//!
//! The crate has no failure detector of its own. Protocols learn of
//! crashes from the simulator's ◇P oracle, or from a `CrashNotify` frame
//! on sockets, and feed them to [`GroupConsensus::on_suspect`].
//!
//! Liveness requires a majority of each group to be correct, which is the
//! standard instantiation of the paper's solvability assumption.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod paxos;
mod wire;

pub use paxos::{Ballot, ConsensusMsg, GroupConsensus, MergeFn, MsgSink, Value};
