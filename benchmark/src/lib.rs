//! The repo benchmark: four workloads, six end-to-end metrics, a per-layer
//! budget. `README.md` has the definitions; `BENCHMARK.json` at the repo
//! root is the contract this package is run and judged by.
//!
//! Layers are measured from outside only, through the crates' public
//! functions; nothing under `crates/` knows this package exists.

#![warn(missing_docs)]

pub mod alloc;
pub mod compare;
pub mod kernels;
pub mod layers;
pub mod procstat;
pub mod report;
pub mod sim;
pub mod stats;
pub mod tcp;
pub mod timed;
pub mod tracing;

use report::Outcome;
use std::io;
use std::path::PathBuf;
use std::time::Duration;
use wamcast_types::{BatchConfig, MessageId};

/// How often a run sets its workload up; `setup_s` is the median.
pub const SETUPS: usize = 4;

/// Share of a traced run's `--seconds` spent on an untraced phase first:
/// the baseline the tracing overhead and the CPU budget are set against.
pub const TRACE_UNTRACED_SHARE: f64 = 0.3;

/// The `a1-batched` arm's batch policy (`registry::batch8`, private there):
/// what `tcp_global` and `sim_a1` host.
pub(crate) fn batch8() -> BatchConfig {
    BatchConfig::new(8).with_max_delay(Duration::from_millis(20))
}

/// An order-sensitive FNV-1a digest over delivered message ids: how the
/// workloads check that replicas, or repetitions, saw the same sequence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct OrderDigest(pub u64);

impl Default for OrderDigest {
    fn default() -> Self {
        OrderDigest(0xCBF2_9CE4_8422_2325)
    }
}

impl OrderDigest {
    pub(crate) fn mix(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(0x0000_0100_0000_01B3);
    }

    pub(crate) fn mix_id(&mut self, id: MessageId) {
        self.mix(u64::from(id.origin.0) << 40 ^ id.seq);
    }
}

/// The arguments of one run of one workload.
#[derive(Clone, Debug)]
pub struct RunArgs {
    /// Seed of the workload's inputs.
    pub seed: u64,
    /// Length of the measured interval, seconds.
    pub seconds: u64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Where a traced run writes `<workload>.trace.json`, if anywhere.
    pub out: Option<PathBuf>,
}

/// Runs one workload by name.
///
/// # Errors
///
/// An unknown name, or an I/O failure of the run itself (sockets, `/proc`,
/// the trace file). Failed *checks* are in the outcome, not errors.
pub fn run_workload(name: &str, args: &RunArgs) -> io::Result<Outcome> {
    match name {
        "tcp_global" => tcp::run_global(args),
        "tcp_kv" => tcp::run_kv(args),
        "sim_a1" => sim::run_a1(args),
        "sim_a2" => sim::run_a2(args),
        _ => Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "unknown workload {name}; expected one of {:?}",
                report::WORKLOADS
            ),
        )),
    }
}
