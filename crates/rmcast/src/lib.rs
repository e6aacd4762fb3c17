//! Reliable multicast primitives (§2.2, cf. \[6\] Frolund & Pedone).
//!
//! Both of the paper's algorithms disseminate application messages with a
//! reliable multicast before ordering them:
//!
//! * **A1** (atomic multicast) R-MCasts `m` to all processes in `m.dest`
//!   using a **non-uniform** primitive — the paper's stated optimization
//!   over Fritzke et al. \[5\]. Non-uniformity is safe there because A1's
//!   `(TS, m)` messages re-propagate `m` across groups (footnote 4).
//! * **A2** (atomic broadcast) R-MCasts `m` to the caster's *own group
//!   only*; the round bundles spread it system-wide.
//!
//! Both use the one non-uniform engine, [`RmcastEngine`], a sans-io
//! component in the same style as `wamcast_consensus::GroupConsensus`: the
//! embedding protocol passes incoming messages in and drains
//! `(destination, message)` pairs plus R-Deliver events out.
//!
//! # Latency degree
//!
//! [`RmcastEngine`] delivers on first receipt: latency degree 1 (0
//! intra-group). A uniform primitive would deliver only once a majority of
//! the destination processes hold the message, one delay more; §4.1 uses
//! the non-uniform one for A1 for that reason.
//!
//! # Lossy links
//!
//! The paper assumes quasi-reliable links; the fault-injection adversary
//! (`wamcast_types::fault`) drops copies. [`RmcastEngine::with_acks`] turns
//! on positive-acknowledgement retransmission: receivers ack every `Data`
//! copy, senders (origins *and* crash-relayers) keep the unacked recipient
//! set per message and re-send on [`RmcastEngine::tick`] until every
//! addressed process acked or was reported crashed. Acks themselves may be
//! lost — the receiver re-acks duplicates, so the loop converges once the
//! link heals.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod nonuniform;
mod wire;

pub use nonuniform::RmcastEngine;

use wamcast_types::{AppMessage, ProcessId};

/// Wire messages of the reliable multicast engine.
#[derive(Clone, Debug, PartialEq)]
pub enum RmcastMsg {
    /// A copy of the multicast message (initial dissemination or relay).
    Data(AppMessage),
    /// Receipt acknowledgement, sent only by engines in retransmission
    /// mode ([`RmcastEngine::with_acks`]) so that senders can stop
    /// re-sending over lossy links. Never emitted under the paper's
    /// quasi-reliable link model, keeping its message counts exact.
    Ack(wamcast_types::MessageId),
}

/// Output buffer of a reliable multicast engine call.
#[derive(Debug, Default)]
pub struct RmcastOut {
    /// Messages to transmit.
    pub sends: Vec<(ProcessId, RmcastMsg)>,
    /// Messages R-Delivered by this call, in delivery order.
    pub delivered: Vec<AppMessage>,
}

impl RmcastOut {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }
}
