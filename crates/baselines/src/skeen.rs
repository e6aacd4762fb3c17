//! Skeen's atomic multicast (Birman & Joseph, TOCS 1987 — reference \[2\]).
//!
//! The grandfather of timestamp-based multicast, designed for **failure-free
//! systems**: no consensus, every *process* keeps a logical clock.
//!
//! 1. the caster sends `m` to every addressed process;
//! 2. each addressed process q assigns a proposal `++LC_q` and sends it to
//!    every addressed process;
//! 3. the final timestamp is the maximum proposal over **all** addressed
//!    processes; messages are delivered in `(ts, id)` order.
//!
//! Latency degree 2 — which, by the paper's Proposition 3.1, turns out to
//! be **optimal**: "a corollary … is that Skeen's algorithm … is also
//! optimal — a result that has apparently been left unnoticed by the
//! scientific community for more than 20 years" (§1). The paper's A1 is the
//! fault-tolerant version of the same idea (group clocks maintained by
//! consensus instead of per-process clocks).
//!
//! Not fault-tolerant: one crashed destination blocks every message
//! addressed to it (tested below).
//!
//! # Faithful vs. simplified
//!
//! **Faithful:** the whole algorithm — per-process logical clocks, the
//! all-addressee proposal exchange, max-proposal timestamps, `(ts, id)`
//! delivery order. Nothing is substituted; \[2\] genuinely is this small.
//! **Hosting:** the stack registry runs it under the failure-free fault
//! profile (duplication and latency spikes only): the algorithm's own
//! model has no crashes and quasi-reliable links, and a single lost or
//! crash-orphaned proposal blocks delivery forever. Duplicates are
//! harmless (all handlers are idempotent).

use std::collections::BTreeMap;
use wamcast_types::{AppMessage, Context, IdSet, MessageId, Outbox, ProcessId, Protocol};

/// Wire messages of Skeen's algorithm.
#[derive(Clone, Debug, PartialEq)]
pub enum SkeenMsg {
    /// Initial dissemination of the multicast message.
    Data(AppMessage),
    /// Timestamp proposal of the sending process for `id`.
    Propose {
        /// The message being timestamped.
        id: MessageId,
        /// The sender's proposal.
        ts: u64,
    },
}

#[derive(Clone, Debug)]
struct Pending {
    msg: AppMessage,
    /// Own proposal (lower bound of the final timestamp).
    ts: u64,
    proposals: BTreeMap<ProcessId, u64>,
    final_ts: Option<u64>,
}

/// Skeen's multicast — code of one process.
#[derive(Debug)]
pub struct SkeenMulticast {
    me: ProcessId,
    lc: u64,
    pending: BTreeMap<MessageId, Pending>,
    delivered: IdSet,
    /// Proposals that arrived before the Data copy (link jitter).
    early: BTreeMap<MessageId, BTreeMap<ProcessId, u64>>,
}

impl SkeenMulticast {
    /// Creates the protocol instance for process `me`.
    pub fn new(me: ProcessId) -> Self {
        SkeenMulticast {
            me,
            lc: 0,
            pending: BTreeMap::new(),
            delivered: IdSet::new(),
            early: BTreeMap::new(),
        }
    }

    /// This process's Skeen clock, for inspection.
    pub fn clock(&self) -> u64 {
        self.lc
    }

    fn on_data(&mut self, m: AppMessage, ctx: &Context, out: &mut Outbox<SkeenMsg>) {
        if self.delivered.contains(m.id) || self.pending.contains_key(&m.id) {
            return;
        }
        if !ctx.topology().addresses(m.dest, self.me) {
            return;
        }
        self.lc += 1;
        let ts = self.lc;
        let id = m.id;
        let everyone: Vec<ProcessId> = ctx.topology().processes_in(m.dest).collect();
        self.pending.insert(
            id,
            Pending {
                msg: m,
                ts,
                proposals: BTreeMap::new(),
                final_ts: None,
            },
        );
        out.send_many(everyone, SkeenMsg::Propose { id, ts });
    }

    fn on_propose(
        &mut self,
        from: ProcessId,
        id: MessageId,
        ts: u64,
        ctx: &Context,
        out: &mut Outbox<SkeenMsg>,
    ) {
        let Some(p) = self.pending.get_mut(&id) else {
            // Proposal raced ahead of the Data copy; remember nothing —
            // Data will arrive (reliable links) and proposals are re-counted
            // from the stash below. To keep the implementation simple we
            // stash early proposals in a side map keyed by message id.
            self.stash_early(from, id, ts);
            return;
        };
        p.proposals.insert(from, ts);
        let expected = ctx.topology().processes_in(p.msg.dest).count();
        if p.proposals.len() == expected {
            let final_ts = *p.proposals.values().max().expect("non-empty");
            p.final_ts = Some(final_ts);
            p.ts = final_ts;
            self.lc = self.lc.max(final_ts);
            self.delivery_test(out);
        }
    }

    fn stash_early(&mut self, from: ProcessId, id: MessageId, ts: u64) {
        self.early.entry(id).or_default().insert(from, ts);
    }

    fn delivery_test(&mut self, out: &mut Outbox<SkeenMsg>) {
        loop {
            let Some((&min_id, min_p)) = self.pending.iter().min_by_key(|(id, p)| (p.ts, **id))
            else {
                return;
            };
            if min_p.final_ts.is_none() {
                return;
            }
            let p = self.pending.remove(&min_id).expect("present");
            self.delivered.insert(min_id);
            out.deliver(p.msg);
        }
    }
}

impl Protocol for SkeenMulticast {
    type Msg = SkeenMsg;

    fn on_cast(&mut self, msg: AppMessage, ctx: &Context, out: &mut Outbox<SkeenMsg>) {
        let others: Vec<ProcessId> = ctx
            .topology()
            .processes_in(msg.dest)
            .filter(|&q| q != self.me)
            .collect();
        out.send_many(others, SkeenMsg::Data(msg.clone()));
        self.on_data(msg, ctx, out);
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: SkeenMsg,
        ctx: &Context,
        out: &mut Outbox<SkeenMsg>,
    ) {
        match msg {
            SkeenMsg::Data(m) => {
                let id = m.id;
                self.on_data(m, ctx, out);
                // Apply any proposals that raced ahead of the data.
                if let Some(early) = self.early.remove(&id) {
                    for (q, ts) in early {
                        self.on_propose(q, id, ts, ctx, out);
                    }
                }
            }
            SkeenMsg::Propose { id, ts } => self.on_propose(from, id, ts, ctx, out),
        }
    }

    fn describe_msg(msg: &SkeenMsg) -> Option<wamcast_types::MsgInfo> {
        use wamcast_types::{MsgClass, MsgInfo};
        Some(match msg {
            SkeenMsg::Data(m) => MsgInfo::new(MsgClass::Rmcast, vec![m.id]),
            // A Skeen proposal is this process's timestamp vote for `id` —
            // the flat-process analog of A1's `(TS, m)` exchange.
            SkeenMsg::Propose { id, .. } => MsgInfo::new(MsgClass::Ts, vec![*id]),
        })
    }
}
