//! Vicente & Rodrigues, *An indulgent uniform total order algorithm with
//! optimistic delivery* (SRDS 2002 — reference \[13\]).
//!
//! A **uniform** sequencer-based total order: processes optimistically
//! deliver a message when its sequence number arrives, and finally deliver
//! once the sequence number "has been validated by a majority of processes"
//! (§6) — the majority quorum is what upgrades agreement from correct-only
//! to uniform.
//!
//! Figure 1(b) accounting: latency degree 2 for the final delivery —
//! dissemination (1), then both the sequencer's assignment and the
//! validation votes cross in parallel (2) — and O(n²) inter-group messages
//! (every process votes to every process).
//!
//! # Faithful vs. simplified
//!
//! **Faithful:** the optimistic-then-validated delivery structure and the
//! majority-vote quorum that makes agreement uniform — the mechanisms
//! behind both Figure 1(b) columns. **Simplified** (documented in
//! DESIGN.md): \[13\] assigns one sequencer per broadcaster; we use a
//! single fixed sequencer (process 0), which fixes the total order
//! trivially and leaves the measured quantities (latency degree, message
//! count, uniformity mechanism) unchanged in failure-free runs. Sequencer
//! failover is not modelled, so the stack registry hosts this arm under
//! the failure-free fault profile (duplication and latency spikes only —
//! both handled idempotently).

use std::collections::{BTreeMap, BTreeSet};
use wamcast_types::{
    shared_ids, AppMessage, Context, IdSet, MessageId, Outbox, ProcessId, Protocol,
};

/// Wire messages of the uniform sequencer broadcast.
#[derive(Clone, Debug, PartialEq)]
pub enum SequencerMsg {
    /// Direct dissemination to all processes.
    Data(AppMessage),
    /// The sequencer's position assignment (optimistic delivery point).
    Assign {
        /// The sequenced message.
        id: MessageId,
        /// Its position in the total order.
        n: u64,
    },
    /// A validation vote: the sender holds `id` durably.
    Vote {
        /// The message being validated.
        id: MessageId,
    },
}

/// Uniform sequencer-based broadcast — code of one process.
#[derive(Debug)]
pub struct SequencerBroadcast {
    me: ProcessId,
    sequencer: ProcessId,
    next_pos: u64,
    data: BTreeMap<MessageId, AppMessage>,
    positions: BTreeMap<u64, MessageId>,
    votes: BTreeMap<MessageId, BTreeSet<ProcessId>>,
    next_deliver: u64,
    delivered: IdSet,
    /// Optimistic delivery sequence (on Assign receipt), exposed for
    /// comparison with the final order.
    optimistic: Vec<MessageId>,
}

impl SequencerBroadcast {
    /// Creates the protocol instance for process `me`. The sequencer is
    /// process 0.
    pub fn new(me: ProcessId) -> Self {
        SequencerBroadcast {
            me,
            sequencer: ProcessId(0),
            next_pos: 0,
            data: BTreeMap::new(),
            positions: BTreeMap::new(),
            votes: BTreeMap::new(),
            next_deliver: 0,
            delivered: IdSet::new(),
            optimistic: Vec::new(),
        }
    }

    /// The optimistic delivery sequence so far.
    pub fn optimistic_order(&self) -> &[MessageId] {
        &self.optimistic
    }

    fn on_data(&mut self, m: AppMessage, ctx: &Context, out: &mut Outbox<SequencerMsg>) {
        let id = m.id;
        if self.data.contains_key(&id) || self.delivered.contains(id) {
            return;
        }
        self.data.insert(id, m);
        let others = shared_ids(ctx.topology().processes().filter(|&q| q != self.me));
        // Validation vote to everyone (the O(n²) term).
        out.send_many(others.clone(), SequencerMsg::Vote { id });
        self.votes.entry(id).or_default().insert(self.me);
        if self.me == self.sequencer {
            let n = self.next_pos;
            self.next_pos += 1;
            self.positions.insert(n, id);
            self.note_optimistic(id);
            out.send_many(others, SequencerMsg::Assign { id, n });
        }
        self.try_deliver(ctx, out);
    }

    fn note_optimistic(&mut self, id: MessageId) {
        self.optimistic.push(id);
    }

    fn try_deliver(&mut self, ctx: &Context, out: &mut Outbox<SequencerMsg>) {
        let majority = ctx.topology().num_processes() / 2 + 1;
        while let Some(&id) = self.positions.get(&self.next_deliver) {
            if !self.data.contains_key(&id) {
                return;
            }
            if self.votes.get(&id).map_or(0, BTreeSet::len) < majority {
                return; // not yet validated by a majority
            }
            let m = self.data.remove(&id).expect("checked");
            self.positions.remove(&self.next_deliver);
            self.next_deliver += 1;
            self.delivered.insert(id);
            self.votes.remove(&id);
            out.deliver(m);
        }
    }
}

impl Protocol for SequencerBroadcast {
    type Msg = SequencerMsg;

    fn on_cast(&mut self, msg: AppMessage, ctx: &Context, out: &mut Outbox<SequencerMsg>) {
        let others = shared_ids(ctx.topology().processes().filter(|&q| q != self.me));
        out.send_many(others, SequencerMsg::Data(msg.clone()));
        self.on_data(msg, ctx, out);
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: SequencerMsg,
        ctx: &Context,
        out: &mut Outbox<SequencerMsg>,
    ) {
        match msg {
            SequencerMsg::Data(m) => self.on_data(m, ctx, out),
            SequencerMsg::Assign { id, n } => {
                self.positions.insert(n, id);
                self.note_optimistic(id);
                self.try_deliver(ctx, out);
            }
            SequencerMsg::Vote { id } => {
                self.votes.entry(id).or_default().insert(from);
                self.try_deliver(ctx, out);
            }
        }
    }
}
