//! Rodrigues, Guerraoui & Schiper, *Scalable atomic multicast* (IC3N 1998 —
//! reference \[10\]).
//!
//! Skeen-style timestamps made fault-tolerant by running **consensus among
//! the addressees of each message** on its final timestamp: "the addresses
//! of a message m … associate m with a timestamp. Processes then exchange
//! their timestamps, and, once they receive this timestamp from a majority
//! of processes of each group, they propose the maximum value received to
//! consensus. Because consensus is run among the addresses of a message and
//! can thus span multiple groups, this algorithm is not well-suited for
//! wide area networks" (§6).
//!
//! Figure 1(a) accounting: latency degree 4 — dissemination (1) + proposal
//! exchange (1) + cross-group consensus (2, the good case of \[11\]) — and
//! O(k²d²) inter-group messages.
//!
//! # Faithful vs. simplified
//!
//! **Faithful:** the Skeen-style proposal exchange among all addressees
//! and the cross-group consensus on the final timestamp — the mechanisms
//! Figure 1 accounts (latency degree 4, O(k²d²) inter-group messages).
//! **Simplified** (documented in DESIGN.md): proposals are collected from
//! all *alive* addressees rather than \[10\]'s majority of each group.
//! With full collection the final timestamp dominates every process's
//! proposal, which gives the safety argument of Skeen's algorithm
//! directly; crash tolerance comes from pruning crashed addressees out of
//! the expected set (and out of the per-message consensus via
//! `on_suspect`) when the host's failure detector reports them. The
//! pruning makes the variant **non-uniform**: a process that crashed
//! mid-run may have delivered in an order justified by a proposal the
//! survivors decided without, so its pre-crash prefix is not binding. The
//! registry therefore hosts this arm under the genuine/non-uniform
//! invariant profile and a crash-only (loss-free) fault profile — the base
//! algorithm has no retransmission layer, exactly like \[10\]'s
//! quasi-reliable-link model. Latency degree and message complexity — the
//! quantities Figure 1 compares — are unchanged by any of this.

use std::collections::{BTreeMap, BTreeSet};
use wamcast_consensus::{ConsensusMsg, GroupConsensus, MsgSink};
use wamcast_types::{
    shared_ids, AppMessage, Context, IdSet, MessageId, Outbox, ProcessId, Protocol,
};

/// Wire messages of the Rodrigues et al. multicast.
#[derive(Clone, Debug, PartialEq)]
pub enum RodriguesMsg {
    /// Initial dissemination.
    Data(AppMessage),
    /// The sender's timestamp proposal for `id`.
    Ts {
        /// The message being timestamped.
        id: MessageId,
        /// The sender's proposal.
        ts: u64,
    },
    /// Per-message cross-group consensus traffic (deciding the final
    /// timestamp among all addressees).
    Cons {
        /// The message whose timestamp is being decided.
        id: MessageId,
        /// Consensus payload.
        msg: ConsensusMsg<u64>,
    },
}

#[derive(Clone, Debug)]
struct Pending {
    msg: AppMessage,
    /// Own proposal; replaced by the final timestamp when decided.
    ts: u64,
    proposals: BTreeMap<ProcessId, u64>,
    proposed_to_consensus: bool,
    is_final: bool,
}

/// Rodrigues et al. multicast — code of one process.
#[derive(Debug)]
pub struct RodriguesMulticast {
    me: ProcessId,
    lc: u64,
    pending: BTreeMap<MessageId, Pending>,
    delivered: IdSet,
    /// One cross-group consensus engine per in-flight message.
    engines: BTreeMap<MessageId, GroupConsensus<u64>>,
    /// Proposals/consensus traffic that raced ahead of the Data copy.
    early_ts: BTreeMap<MessageId, BTreeMap<ProcessId, u64>>,
    early_cons: BTreeMap<MessageId, Vec<(ProcessId, ConsensusMsg<u64>)>>,
    /// Addressees reported crashed: their proposals are no longer waited
    /// for (received ones still raise the max — that only helps safety).
    crashed: BTreeSet<ProcessId>,
}

impl RodriguesMulticast {
    /// Creates the protocol instance for process `me`.
    pub fn new(me: ProcessId) -> Self {
        RodriguesMulticast {
            me,
            lc: 0,
            pending: BTreeMap::new(),
            delivered: IdSet::new(),
            engines: BTreeMap::new(),
            early_ts: BTreeMap::new(),
            early_cons: BTreeMap::new(),
            crashed: BTreeSet::new(),
        }
    }

    fn flush_engine(&mut self, id: MessageId, sink: MsgSink<u64>, out: &mut Outbox<RodriguesMsg>) {
        for (to, m) in sink.msgs {
            out.send(to, RodriguesMsg::Cons { id, msg: m });
        }
        // Collect any decision.
        let Some(engine) = self.engines.get_mut(&id) else {
            return;
        };
        for (_, final_ts) in engine.take_decisions() {
            if let Some(p) = self.pending.get_mut(&id) {
                if !p.is_final {
                    p.ts = final_ts;
                    p.is_final = true;
                    self.lc = self.lc.max(final_ts);
                    self.delivery_test(out);
                }
            }
        }
    }

    fn on_data(&mut self, m: AppMessage, ctx: &Context, out: &mut Outbox<RodriguesMsg>) {
        let id = m.id;
        if self.delivered.contains(id) || self.pending.contains_key(&id) {
            return;
        }
        if !ctx.topology().addresses(m.dest, self.me) {
            return;
        }
        self.lc += 1;
        let ts = self.lc;
        let addressees: Vec<ProcessId> = ctx.topology().processes_in(m.dest).collect();
        let others = shared_ids(addressees.iter().copied().filter(|&q| q != self.me));
        let mut pending = Pending {
            msg: m,
            ts,
            proposals: BTreeMap::new(),
            proposed_to_consensus: false,
            is_final: false,
        };
        pending.proposals.insert(self.me, ts);
        self.pending.insert(id, pending);
        // The cross-group consensus engine spans *all addressees* — the
        // very property that makes [10] ill-suited to WANs. Engines are
        // created lazily per message, so suspicions that arrived *before*
        // this Data copy must be replayed into the fresh engine: its
        // ballot-0 coordinator may already be dead, and a proposal
        // forwarded to a dead coordinator would never decide.
        let mut engine = GroupConsensus::new(self.me, addressees);
        let mut sink = MsgSink::new();
        for &q in &self.crashed {
            engine.on_suspect(q, &mut sink);
        }
        self.engines.insert(id, engine);
        self.flush_engine(id, sink, out);
        out.send_many(others, RodriguesMsg::Ts { id, ts });
        // Apply anything that raced ahead.
        if let Some(early) = self.early_ts.remove(&id) {
            for (q, ts) in early {
                self.on_ts(q, id, ts, ctx, out);
            }
        }
        if let Some(early) = self.early_cons.remove(&id) {
            for (q, msg) in early {
                self.on_cons(q, id, msg, out);
            }
        }
        self.maybe_propose(id, ctx, out);
    }

    fn on_ts(
        &mut self,
        from: ProcessId,
        id: MessageId,
        ts: u64,
        ctx: &Context,
        out: &mut Outbox<RodriguesMsg>,
    ) {
        if self.delivered.contains(id) {
            return;
        }
        let Some(p) = self.pending.get_mut(&id) else {
            self.early_ts.entry(id).or_default().insert(from, ts);
            return;
        };
        p.proposals.insert(from, ts);
        self.maybe_propose(id, ctx, out);
    }

    /// Once every *alive* addressee's proposal is in, propose the maximum
    /// to the per-message cross-group consensus. Proposals already
    /// received from since-crashed addressees still participate in the
    /// max.
    fn maybe_propose(&mut self, id: MessageId, ctx: &Context, out: &mut Outbox<RodriguesMsg>) {
        let crashed = &self.crashed;
        let Some(p) = self.pending.get_mut(&id) else {
            return;
        };
        if p.proposed_to_consensus || p.is_final {
            return;
        }
        let missing = ctx
            .topology()
            .processes_in(p.msg.dest)
            .any(|q| !crashed.contains(&q) && !p.proposals.contains_key(&q));
        if missing {
            return;
        }
        let max_ts = *p.proposals.values().max().expect("non-empty");
        p.proposed_to_consensus = true;
        let mut sink = MsgSink::new();
        self.engines
            .get_mut(&id)
            .expect("engine created with pending")
            .propose(0, max_ts, &mut sink);
        self.flush_engine(id, sink, out);
    }

    fn on_cons(
        &mut self,
        from: ProcessId,
        id: MessageId,
        msg: ConsensusMsg<u64>,
        out: &mut Outbox<RodriguesMsg>,
    ) {
        if self.delivered.contains(id) {
            return;
        }
        if !self.engines.contains_key(&id) {
            self.early_cons.entry(id).or_default().push((from, msg));
            return;
        }
        let mut sink = MsgSink::new();
        self.engines
            .get_mut(&id)
            .expect("checked")
            .on_message(from, msg, &mut sink);
        self.flush_engine(id, sink, out);
    }

    fn delivery_test(&mut self, out: &mut Outbox<RodriguesMsg>) {
        loop {
            let Some((&min_id, min_p)) = self.pending.iter().min_by_key(|(id, p)| (p.ts, **id))
            else {
                return;
            };
            if !min_p.is_final {
                return;
            }
            let p = self.pending.remove(&min_id).expect("present");
            self.delivered.insert(min_id);
            self.engines.remove(&min_id);
            out.deliver(p.msg);
        }
    }
}

impl Protocol for RodriguesMulticast {
    type Msg = RodriguesMsg;

    fn on_cast(&mut self, msg: AppMessage, ctx: &Context, out: &mut Outbox<RodriguesMsg>) {
        let others = shared_ids(
            ctx.topology()
                .processes_in(msg.dest)
                .filter(|&q| q != self.me),
        );
        out.send_many(others, RodriguesMsg::Data(msg.clone()));
        self.on_data(msg, ctx, out);
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: RodriguesMsg,
        ctx: &Context,
        out: &mut Outbox<RodriguesMsg>,
    ) {
        match msg {
            RodriguesMsg::Data(m) => self.on_data(m, ctx, out),
            RodriguesMsg::Ts { id, ts } => self.on_ts(from, id, ts, ctx, out),
            RodriguesMsg::Cons { id, msg } => self.on_cons(from, id, msg, out),
        }
    }

    fn on_crash_notification(
        &mut self,
        crashed: ProcessId,
        ctx: &Context,
        out: &mut Outbox<RodriguesMsg>,
    ) {
        if !self.crashed.insert(crashed) {
            return;
        }
        // Each in-flight cross-group consensus may need a recovery ballot…
        let ids: Vec<MessageId> = self.engines.keys().copied().collect();
        for id in ids {
            let mut sink = MsgSink::new();
            if let Some(engine) = self.engines.get_mut(&id) {
                engine.on_suspect(crashed, &mut sink);
            }
            self.flush_engine(id, sink, out);
        }
        // …and a collection that was waiting on the crashed addressee can
        // now complete.
        let pending: Vec<MessageId> = self.pending.keys().copied().collect();
        for id in pending {
            self.maybe_propose(id, ctx, out);
        }
    }
}
