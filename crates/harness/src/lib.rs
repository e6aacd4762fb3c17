//! Experiment harness reproducing the evaluation artifacts of Schiper &
//! Pedone (PODC 2007).
//!
//! The paper is a protocol paper; its checkable content is Figure 1(a)/(b)
//! (latency degree and inter-group messages of each algorithm), Theorems
//! 4.1/5.1/5.2, Propositions 3.1–3.3 and the §5.2/§5.3 remarks on
//! quiescence and broadcast frequency. [`paper`] runs and judges all of
//! them; the `paper` binary prints the result as the root `CLAIMS.md`, and
//! a tier-1 test keeps that file in step with the code.
//!
//! The library also hosts the shared machinery: the stack registry
//! ([`registry`] — the single protocol-arm dispatch site), scenario
//! runners ([`measure`]), the fault fuzzer ([`scenario`]), the SMR
//! drivers ([`smr`], [`tcp_host`]), the throughput and scale sweeps
//! ([`throughput`], [`scale`]) and a table printer ([`table`]). The other
//! binaries in `src/bin/` are `peer` (one TCP-runtime process),
//! `scenario_fuzz`, `smr_kv`, `scale_sweep` and `throughput_sweep`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod forensics;
pub mod measure;
pub mod paper;
pub mod parallel;
pub mod registry;
pub mod scale;
pub mod scenario;
pub mod smr;
pub mod table;
pub mod tcp_host;
pub mod throughput;
pub mod workload;

pub use registry::{ProtocolArm, StackRegistry};
pub use scale::{latency_registry, run_cell, ScaleCell, ScaleConfig};
pub use scenario::{run_scenario, run_scenario_full, RunSpec, ScenarioOutcome};
pub use smr::{
    response_latency_histogram, run_smr_scenario, run_smr_sim, smr_throughput_once, InjectedBug,
    SmrConfig, SmrOutcome, SmrThroughputCell,
};
pub use table::Table;
pub use tcp_host::{run_smr_tcp, spawn_smr_peer, KvPeer, TcpRunConfig, SMR_ARM};
pub use throughput::{throughput_once, throughput_sweep, ThroughputCell};
