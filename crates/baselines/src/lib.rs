//! Baseline total-order algorithms compared in Figure 1 of Schiper & Pedone
//! (PODC 2007).
//!
//! Each module reimplements the causal/message structure of one published
//! algorithm — what determines both Figure 1 columns (latency degree and
//! inter-group message complexity). Where a paper's full mechanism is
//! orthogonal to those quantities we simplify and say so in the module docs
//! (see also DESIGN.md's substitution table).
//!
//! Every algorithm below is an executable, event-driven [`Protocol`]
//! state machine hostable on both runtimes (the deterministic simulator
//! and the `wamcast-net` TCP runtime) — none is a mere analytic
//! latency-degree formula. The "Faults hosted" column is what the stack
//! registry (`wamcast_harness::registry`) injects when fuzzing the arm;
//! each module's docs state which mechanisms are faithful to the cited
//! paper and which are simplified.
//!
//! | Module | Algorithm | Kind | Latency degree | Inter-group msgs | Faults hosted |
//! |---|---|---|---|---|---|
//! | [`skeen`] | Skeen (Birman & Joseph \[2\]) | multicast, failure-free | 2 | O(k²d²) | dup + delay |
//! | [`fritzke`] | Fritzke et al. \[5\] | genuine multicast | 2 | O(k²d²) | all |
//! | [`ring`] | Delporte-Gallet & Fauconnier \[4\] | genuine multicast | k+1 | O(kd²) | all (retry mode) |
//! | [`rodrigues`] | Rodrigues et al. \[10\] | genuine multicast | 4 | O(k²d²) | crashes + dup + delay |
//! | [`optimistic`] | Sousa et al. \[12\] | broadcast, non-uniform | 2 | O(n) | dup + delay |
//! | [`sequencer`] | Vicente & Rodrigues \[13\] | broadcast, uniform | 2 | O(n²) | dup + delay |
//! | [`detmerge`] | Aguilera & Strom \[1\] | broadcast/multicast, streams | 1 | O(kd) | (not fuzz-hosted) |
//!
//! (k = destination groups, d = processes per group, n = kd. \[1\] runs in
//! a stronger never-quiescent streams model — standing heartbeats, phase
//! offsets — that has no convergence point for the fuzz harness to check,
//! so it stays out of the registry rotation; `figure1.rs` measures it with
//! the marginal-cost method instead.)
//!
//! [`Protocol`]: wamcast_types::Protocol

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod detmerge;
pub mod fritzke;
pub mod optimistic;
pub mod ring;
pub mod rodrigues;
pub mod sequencer;
pub mod skeen;
mod wire;

pub use detmerge::DeterministicMerge;
pub use fritzke::{fritzke_config, fritzke_multicast};
pub use optimistic::OptimisticBroadcast;
pub use ring::RingMulticast;
pub use rodrigues::RodriguesMulticast;
pub use sequencer::SequencerBroadcast;
pub use skeen::SkeenMulticast;
