//! Sousa, Pereira, Moura & Oliveira, *Optimistic total order in wide area
//! networks* (SRDS 2002 — reference \[12\]).
//!
//! A **non-uniform** sequencer-based total order with *optimistic
//! delivery*: receivers artificially delay incoming messages so that the
//! spontaneous network order has time to match the sequencer's final order;
//! an application willing to act on the optimistic order saves one delay.
//!
//! Figure 1(b) accounting: the optimistic delivery has latency degree 1
//! (direct dissemination), the **final** delivery has latency degree 2
//! (dissemination, then the sequencer's ordering fan-out); O(n) inter-group
//! messages per broadcast. Non-uniform: only correct processes are
//! guaranteed agreement (no acknowledgement quorum protects a delivery).
//!
//! # Faithful vs. simplified
//!
//! **Faithful:** the artificial-delay optimistic delivery (the
//! characteristic trick of \[12\], configurable), the sequencer-ordered
//! final delivery, and the non-uniform guarantee (no quorum protects a
//! delivery). The optimistic sequence is exposed via
//! [`optimistic_order`](OptimisticBroadcast::optimistic_order) together
//! with mismatch statistics. **Simplified** (documented in DESIGN.md): a
//! fixed sequencer (the lowest process id) rather than \[12\]'s
//! failure-handled one, since Figure 1's failure-free accounting never
//! exercises sequencer failover; accordingly the stack registry hosts the
//! arm under the failure-free fault profile (duplication and latency
//! spikes only) and checks it with the broadcast/non-uniform invariant
//! profile.

use std::collections::BTreeMap;
use std::time::Duration;
use wamcast_types::{AppMessage, Context, IdSet, MessageId, Outbox, ProcessId, Protocol};

/// Wire messages of the optimistic broadcast.
#[derive(Clone, Debug, PartialEq)]
pub enum OptimisticMsg {
    /// Direct dissemination to all processes.
    Data(AppMessage),
    /// The sequencer's final position for `id`.
    Seq {
        /// The sequenced message.
        id: MessageId,
        /// Its position in the total order.
        n: u64,
    },
}

/// Optimistic total order broadcast — code of one process.
#[derive(Debug)]
pub struct OptimisticBroadcast {
    me: ProcessId,
    sequencer: ProcessId,
    /// Artificial delay before optimistic delivery (the time-based trick
    /// that raises spontaneous-order agreement in WANs).
    opt_delay: Duration,
    /// Sequencer state: next position to assign.
    next_pos: u64,
    data: BTreeMap<MessageId, AppMessage>,
    positions: BTreeMap<u64, MessageId>,
    next_deliver: u64,
    delivered: IdSet,
    /// Timer token → message awaiting optimistic delivery.
    timers: BTreeMap<u64, MessageId>,
    next_timer: u64,
    optimistic: Vec<MessageId>,
}

// (Sequencer fan-out needs the process universe, available from `ctx`.)

impl OptimisticBroadcast {
    /// Creates the protocol instance for process `me`, with the given
    /// optimistic-delivery delay. The sequencer is process 0.
    pub fn new(me: ProcessId, opt_delay: Duration) -> Self {
        OptimisticBroadcast {
            me,
            sequencer: ProcessId(0),
            opt_delay,
            next_pos: 0,
            data: BTreeMap::new(),
            positions: BTreeMap::new(),
            next_deliver: 0,
            delivered: IdSet::new(),
            timers: BTreeMap::new(),
            next_timer: 0,
            optimistic: Vec::new(),
        }
    }

    /// The optimistic (tentative) delivery sequence so far.
    pub fn optimistic_order(&self) -> &[MessageId] {
        &self.optimistic
    }

    /// Number of positions where the optimistic sequence disagreed with the
    /// final sequence delivered so far (the quantity \[12\] minimizes).
    pub fn mismatches(&self, final_order: &[MessageId]) -> usize {
        self.optimistic
            .iter()
            .zip(final_order.iter())
            .filter(|(a, b)| a != b)
            .count()
    }

    fn on_data(&mut self, m: AppMessage, ctx: &Context, out: &mut Outbox<OptimisticMsg>) {
        let id = m.id;
        if self.data.contains_key(&id) || self.delivered.contains(id) {
            return;
        }
        self.data.insert(id, m);
        // Schedule the optimistic delivery after the artificial delay.
        let token = self.next_timer;
        self.next_timer += 1;
        self.timers.insert(token, id);
        out.set_timer(self.opt_delay, token);
        // The sequencer assigns the final position.
        if self.me == self.sequencer {
            let n = self.next_pos;
            self.next_pos += 1;
            self.positions.insert(n, id);
            let others: Vec<ProcessId> = ctx
                .topology()
                .processes()
                .filter(|&q| q != self.me)
                .collect();
            out.send_many(others, OptimisticMsg::Seq { id, n });
        }
        self.try_deliver(out);
    }

    fn try_deliver(&mut self, out: &mut Outbox<OptimisticMsg>) {
        while let Some(&id) = self.positions.get(&self.next_deliver) {
            let Some(m) = self.data.remove(&id) else {
                return;
            };
            self.positions.remove(&self.next_deliver);
            self.next_deliver += 1;
            self.delivered.insert(id);
            out.deliver(m);
        }
    }
}

impl Protocol for OptimisticBroadcast {
    type Msg = OptimisticMsg;

    fn on_cast(&mut self, msg: AppMessage, ctx: &Context, out: &mut Outbox<OptimisticMsg>) {
        let others: Vec<ProcessId> = ctx
            .topology()
            .processes()
            .filter(|&q| q != self.me)
            .collect();
        out.send_many(others, OptimisticMsg::Data(msg.clone()));
        self.on_data(msg, ctx, out);
    }

    fn on_message(
        &mut self,
        _from: ProcessId,
        msg: OptimisticMsg,
        ctx: &Context,
        out: &mut Outbox<OptimisticMsg>,
    ) {
        match msg {
            OptimisticMsg::Data(m) => self.on_data(m, ctx, out),
            OptimisticMsg::Seq { id, n } => {
                self.positions.insert(n, id);
                self.try_deliver(out);
            }
        }
    }

    fn on_timer(&mut self, kind: u64, _ctx: &Context, _out: &mut Outbox<OptimisticMsg>) {
        if let Some(id) = self.timers.remove(&kind) {
            self.optimistic.push(id);
        }
    }
}
