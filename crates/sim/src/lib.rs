//! Deterministic discrete-event WAN simulator for `wamcast`.
//!
//! This crate is the experimental substrate for reproducing Schiper &
//! Pedone, *Optimal Atomic Broadcast and Multicast Algorithms for Wide Area
//! Networks* (PODC 2007). It hosts sans-io [`Protocol`](wamcast_types::Protocol) state machines (see
//! `wamcast_types::proto`) on a virtual-time event loop and measures exactly
//! the quantities the paper evaluates:
//!
//! * **latency degree** (§2.3) via per-process modified Lamport clocks that
//!   tick only on inter-group sends — stamped by the engine, outside
//!   protocol code;
//! * **inter-group message complexity** (Figure 1) via a classified send
//!   log;
//! * **quiescence** (§5) via the time of the last send.
//!
//! Crashes are injected with [`Simulation::crash_at`]; surviving processes
//! learn of them through a ◇P-style oracle after a configurable detection
//! delay. Links default to quasi-reliable (§2.1): never corrupted, never
//! duplicated, delivered whenever both endpoints stay alive. Installing a
//! [`FaultPlan`] (via [`SimConfig::with_faults`]) subjects every link to a
//! deterministic adversary — probabilistic loss, partition/heal windows,
//! duplication, latency spikes — applied at delivery-scheduling time, plus
//! scheduled crashes. With the empty plan the fault layer is skipped
//! entirely, so the zero-fault path stays byte-identical to a run without
//! fault injection.
//!
//! Determinism: a run is a pure function of `(topology, config, workload,
//! seed)` — the fault plan is part of the config, and fault decisions draw
//! from their own stream, so any fuzzed failure replays bit-for-bit.
//! Event ties are broken by insertion order and all remaining randomness
//! comes from one [`SplitMix64`].
//!
//! # Example
//!
//! ```
//! use wamcast_sim::{Simulation, SimConfig, invariants};
//! use wamcast_types::{shared_ids, Protocol, Context, Outbox, AppMessage, ProcessId, SimTime, Topology};
//!
//! // A (non-fault-tolerant) direct-delivery multicast, for illustration.
//! struct Direct;
//! impl Protocol for Direct {
//!     type Msg = AppMessage;
//!     fn on_cast(&mut self, m: AppMessage, ctx: &Context, out: &mut Outbox<AppMessage>) {
//!         let me = ctx.id();
//!         let others = shared_ids(ctx.topology().processes_in(m.dest).filter(|&q| q != me));
//!         out.send_many(others, m.clone());
//!         if ctx.topology().addresses(m.dest, me) {
//!             out.deliver(m);
//!         }
//!     }
//!     fn on_message(&mut self, _f: ProcessId, m: AppMessage, _c: &Context,
//!                   out: &mut Outbox<AppMessage>) {
//!         out.deliver(m);
//!     }
//! }
//!
//! let mut sim = Simulation::new(Topology::symmetric(2, 2), SimConfig::default(), |_, _| Direct);
//! let dest = sim.topology().all_groups();
//! let id = sim.cast_at(SimTime::ZERO, ProcessId(0), dest, wamcast_types::Payload::new());
//! sim.run_to_quiescence();
//! assert_eq!(sim.metrics().latency_degree(id), Some(1));
//! invariants::check_uniform_integrity(sim.topology(), sim.metrics()).assert_ok();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod invariants;
mod latency;
mod metrics;
pub mod queue;
mod runtime;

pub use invariants::{InvariantProfile, InvariantReport};
pub use latency::{LatencyModel, NetConfig};
pub use metrics::{
    ByProcess, CastRecord, DeliveryRecord, DeliveryTable, IdIter, IdTable, RunMetrics, SendRecord,
};
pub use queue::BucketQueue;
pub use runtime::{LastEvent, RunError, SimConfig, Simulation};
// The deterministic generator and the fault-injection adversary live in
// `wamcast-types` (so `wamcast-net` can share the same adversary); they are
// re-exported here because the simulator is their primary consumer.
pub use wamcast_types::{FaultConfig, FaultInjector, FaultPlan, FaultWindow, LinkFate, SplitMix64};

/// Fisher–Yates, for the unit tests that need a seeded permutation.
#[cfg(test)]
pub(crate) fn shuffle<T>(v: &mut [T], rng: &mut SplitMix64) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
}
