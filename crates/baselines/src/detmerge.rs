//! Aguilera & Strom, *Efficient atomic broadcast using deterministic merge*
//! (PODC 2000 — reference \[1\]).
//!
//! Total order without any agreement protocol: every publisher stamps its
//! messages with its (synchronized) clock and streams them FIFO to every
//! subscriber; subscribers run the **same deterministic merge** of the
//! per-publisher streams — deliver the message with the smallest
//! `(timestamp, publisher)` once every publisher's stream has advanced past
//! that timestamp.
//!
//! The catch, and the reason this does not contradict the paper's lower
//! bounds (footnote 5): the model is much stronger — reliable links,
//! publishers never crash and **cast infinitely many messages** to every
//! subscriber. We realize the infinite-cast assumption the standard way:
//! idle publishers emit periodic *null* timestamps (heartbeats), so the
//! algorithm is never quiescent and never genuine — the trade the paper's
//! §3 lower bounds illuminate. Under those assumptions the latency degree
//! is 1 for both broadcast (Figure 1b) and multicast (Figure 1a) with O(kd)
//! messages per cast.
//!
//! Clock synchronization: the simulator's virtual time doubles as the
//! synchronized publisher clock (\[1\] assumes one; see DESIGN.md).

use std::collections::{BTreeMap, VecDeque};
use std::time::Duration;
use wamcast_types::{shared_ids, AppMessage, Context, IdSet, Outbox, ProcessId, Protocol};

/// Wire messages of the deterministic merge.
#[derive(Clone, Debug, PartialEq)]
pub enum MergeMsg {
    /// A published message with its publisher timestamp.
    Pub {
        /// The message.
        msg: AppMessage,
        /// Publisher clock at publication (ns of virtual time).
        ts: u64,
    },
    /// A null timestamp: "my stream has advanced to `ts` with no message".
    Null {
        /// Publisher clock (ns of virtual time).
        ts: u64,
    },
}

/// Deterministic-merge broadcast/multicast — code of one process.
#[derive(Debug)]
pub struct DeterministicMerge {
    me: ProcessId,
    /// Heartbeat (null-timestamp) period; lower bounds merge latency when
    /// publishers are idle.
    heartbeat: Duration,
    /// Delay before the first heartbeat (phase). Staggering phases across
    /// processes avoids a publisher's own heartbeat landing between one of
    /// its casts and the corresponding delivery, which would inflate the
    /// measured latency degree past \[1\]'s bound.
    phase: Duration,
    /// Latest timestamp heard from each publisher (stream horizon).
    horizon: BTreeMap<ProcessId, u64>,
    /// Per-publisher FIFO queues of messages addressed to us.
    queues: BTreeMap<ProcessId, VecDeque<(u64, AppMessage)>>,
    delivered: IdSet,
}

impl DeterministicMerge {
    /// Creates the protocol instance for process `me` with the given
    /// heartbeat period.
    pub fn new(me: ProcessId, heartbeat: Duration) -> Self {
        Self::with_phase(me, heartbeat, heartbeat)
    }

    /// Creates the instance with an explicit first-heartbeat delay
    /// (subsequent heartbeats follow every `heartbeat`).
    pub fn with_phase(me: ProcessId, heartbeat: Duration, phase: Duration) -> Self {
        DeterministicMerge {
            me,
            heartbeat,
            phase,
            horizon: BTreeMap::new(),
            queues: BTreeMap::new(),
            delivered: IdSet::new(),
        }
    }

    fn advance(&mut self, publisher: ProcessId, ts: u64) {
        let h = self.horizon.entry(publisher).or_insert(0);
        *h = (*h).max(ts);
    }

    /// Deterministic merge: deliver the smallest `(ts, publisher)` queue
    /// head once every *other* publisher's stream has advanced strictly
    /// past `ts`. The head's own publisher needs no gate: its stream is
    /// FIFO and its timestamps are monotone, so nothing of its own can
    /// precede its queue head.
    fn try_deliver(&mut self, ctx: &Context, out: &mut Outbox<MergeMsg>) {
        loop {
            let head = self
                .queues
                .iter()
                .filter_map(|(&p, q)| q.front().map(|(ts, _)| (*ts, p)))
                .min();
            let Some((ts, publisher)) = head else { return };
            let others_past = ctx
                .topology()
                .processes()
                .filter(|&q| q != publisher)
                .all(|q| self.horizon.get(&q).copied().unwrap_or(0) > ts);
            if !others_past {
                return; // some publisher might still produce an earlier ts
            }
            let (_, m) = self
                .queues
                .get_mut(&publisher)
                .expect("head exists")
                .pop_front()
                .expect("head exists");
            self.delivered.insert(m.id);
            out.deliver(m);
        }
    }
}

impl Protocol for DeterministicMerge {
    type Msg = MergeMsg;

    fn on_start(&mut self, _ctx: &Context, out: &mut Outbox<MergeMsg>) {
        out.set_timer(self.phase, 0);
    }

    fn on_cast(&mut self, msg: AppMessage, ctx: &Context, out: &mut Outbox<MergeMsg>) {
        let ts = ctx.now().as_nanos();
        let dest = shared_ids(
            ctx.topology()
                .processes_in(msg.dest)
                .filter(|&q| q != self.me),
        );
        out.send_many(
            dest,
            MergeMsg::Pub {
                msg: msg.clone(),
                ts,
            },
        );
        // Processes outside the destination still need the stream to
        // advance; the publication acts as their null.
        let bystanders = shared_ids(
            ctx.topology()
                .processes()
                .filter(|&q| q != self.me && !ctx.topology().addresses(msg.dest, q)),
        );
        out.send_many(bystanders, MergeMsg::Null { ts });
        self.advance(self.me, ts);
        if ctx.topology().addresses(msg.dest, self.me) {
            self.queues.entry(self.me).or_default().push_back((ts, msg));
        }
        self.try_deliver(ctx, out);
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: MergeMsg,
        ctx: &Context,
        out: &mut Outbox<MergeMsg>,
    ) {
        match msg {
            MergeMsg::Pub { msg, ts } => {
                self.advance(from, ts);
                if ctx.topology().addresses(msg.dest, self.me) && !self.delivered.contains(msg.id) {
                    self.queues.entry(from).or_default().push_back((ts, msg));
                }
            }
            MergeMsg::Null { ts } => self.advance(from, ts),
        }
        self.try_deliver(ctx, out);
    }

    fn on_timer(&mut self, _kind: u64, ctx: &Context, out: &mut Outbox<MergeMsg>) {
        let ts = ctx.now().as_nanos();
        let others = shared_ids(ctx.topology().processes().filter(|&q| q != self.me));
        out.send_many(others, MergeMsg::Null { ts });
        self.advance(self.me, ts);
        self.try_deliver(ctx, out);
        // Publishers cast "infinitely many messages": never stop.
        out.set_timer(self.heartbeat, 0);
    }
}
