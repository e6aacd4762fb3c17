//! Delporte-Gallet & Fauconnier, *Fault-tolerant genuine atomic multicast
//! to multiple groups* (OPODIS 2000 — reference \[4\]).
//!
//! A genuine multicast that trades latency for bandwidth: the destination
//! groups of `m` are visited **sequentially** in ascending group-id order.
//! The first group consensus-orders `m` and hands it to the second, and so
//! on; the last group fixes the final timestamp and sends it to every
//! addressed process. "To avoid cycles in the message delivery order,
//! before handling other messages, every group waits for a final
//! acknowledgment from group g_k" (§6) — the wait-for edges then always
//! point from lower to higher group ids, so the blocking can never
//! deadlock, and a group's clock jumps past the final timestamp before it
//! orders the next message, which yields the total order.
//!
//! Figure 1(a) accounting: latency degree k+1 (one hop to g₁, k−1
//! hand-offs, one final fan-out) and O(kd²) inter-group messages — cheaper
//! in messages than A1's O(k²d²) but k+1 ≫ 2 in latency; "deciding which
//! algorithm is best … depends on factors such as the network topology"
//! (§6).
//!
//! # Faithful vs. simplified
//!
//! **Faithful:** the sequential group visits in ascending id order, the
//! per-group consensus ordering step, the blocking wait for the final
//! acknowledgment, and intra-group crash tolerance through the consensus
//! substrate — everything Figure 1 accounts. **Simplified:** \[4\]'s
//! consensus black box is our in-tree Paxos ([`GroupConsensus`]); and
//! quasi-reliable links are assumed by the base algorithm, so loss
//! recovery is a bolt-on: [`with_retry`](RingMulticast::with_retry) adds a
//! retransmission layer (periodic re-hand-off while blocked, positive-ack
//! `Final` retransmission with crashed-debtor pruning, consensus
//! [`tick`](GroupConsensus::tick)) in the style of A1's retry mode. With
//! retry off the message counts are paper-exact and no timers are armed.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;
use wamcast_consensus::{ConsensusMsg, GroupConsensus, MsgSink};
use wamcast_types::{AppMessage, Context, GroupId, IdSet, MessageId, Outbox, ProcessId, Protocol};

/// Timer token of the retransmission round (retry mode only).
const RETRY_TIMER: u64 = 0;

/// A consensus value: "order this message next, with this output
/// timestamp".
///
/// The proposer computes `ts = max(accumulated ts, proposer clock)` and the
/// decision **is** the group's assignment — members must not recompute it
/// from their local clocks, which drift apart in real time as `Final`
/// messages arrive in different orders at different members. (A proposer is
/// necessarily unblocked, i.e. it has processed the final timestamp of the
/// previous message this group ordered, so its clock exceeds that final and
/// the serialization invariant holds.)
#[derive(Clone, Debug, PartialEq)]
pub struct RingStep {
    /// The message to order.
    pub msg: AppMessage,
    /// The proposed output timestamp of this group for the message.
    pub ts: u64,
}

/// Wire messages of the ring multicast.
#[derive(Clone, Debug, PartialEq)]
pub enum RingMsg {
    /// Hand-off of `msg` to the members of the next destination group.
    Enter {
        /// The message (with payload, so late members learn it).
        msg: AppMessage,
        /// Timestamp accumulated so far (0 from the caster).
        ts: u64,
    },
    /// Intra-group consensus traffic.
    Cons(ConsensusMsg<RingStep>),
    /// The final timestamp, fanned out by the last group to every
    /// addressed process (and, in retry mode, to the caster if it is not
    /// addressed, so it can stop retransmitting the initial hand-off).
    Final {
        /// The message.
        msg: AppMessage,
        /// Its final (agreed) timestamp.
        ts: u64,
    },
    /// Positive acknowledgment of a received `Final` copy (retry mode
    /// only): the sender stops retransmitting to this process.
    FinalAck {
        /// The acknowledged message.
        id: MessageId,
    },
}

#[derive(Clone, Debug)]
struct PendingDelivery {
    msg: AppMessage,
    /// Lower bound on the final timestamp; exact once `is_final`.
    ts: u64,
    is_final: bool,
}

/// Ring multicast — code of one process.
#[derive(Debug)]
pub struct RingMulticast {
    me: ProcessId,
    group: GroupId,
    /// Group clock used to assign hand-off timestamps.
    clock: u64,
    /// Dense consensus instance counter of this group.
    inst: u64,
    prop_inst: u64,
    /// Messages that entered this group but are not yet ordered by it.
    queue: BTreeMap<MessageId, RingStep>,
    /// Message currently ordered and awaiting its final ack ("the group
    /// waits for a final acknowledgment before handling other messages").
    blocked_on: Option<MessageId>,
    /// Messages ordered by this group already.
    ordered: IdSet,
    /// Delivery buffer.
    pending: BTreeMap<MessageId, PendingDelivery>,
    delivered: IdSet,
    cons: GroupConsensus<RingStep>,
    buffered_decisions: BTreeMap<u64, RingStep>,
    /// Retransmission interval; `None` (the default) keeps the paper-exact
    /// message structure with no timers at all.
    retry: Option<Duration>,
    retry_armed: bool,
    /// Casts this process initiated and has not yet seen finalized
    /// (retry mode): the initial hand-off is re-sent until a `Final`
    /// (delivery or origin notification) arrives.
    initiated: BTreeMap<MessageId, AppMessage>,
    /// The hand-off we are blocked on (retry mode): re-sent to the next
    /// group until the final ack unblocks us.
    handoff: Option<(AppMessage, u64, GroupId)>,
    /// `Final` copies this process sent that are not yet acknowledged
    /// (retry mode): message, final timestamp, remaining debtors.
    outstanding_finals: BTreeMap<MessageId, (AppMessage, u64, BTreeSet<ProcessId>)>,
    /// Processes reported crashed (debtor pruning).
    crashed: BTreeSet<ProcessId>,
}

impl RingMulticast {
    /// Creates the protocol instance for process `me` of `topo`.
    pub fn new(me: ProcessId, topo: &wamcast_types::Topology) -> Self {
        let group = topo.group_of(me);
        RingMulticast {
            me,
            group,
            clock: 0,
            inst: 0,
            prop_inst: 0,
            queue: BTreeMap::new(),
            blocked_on: None,
            ordered: IdSet::new(),
            pending: BTreeMap::new(),
            delivered: IdSet::new(),
            cons: GroupConsensus::new(me, topo.members(group).to_vec()),
            buffered_decisions: BTreeMap::new(),
            retry: None,
            retry_armed: false,
            initiated: BTreeMap::new(),
            handoff: None,
            outstanding_finals: BTreeMap::new(),
            crashed: BTreeSet::new(),
        }
    }

    /// Enables loss recovery: every `interval`, unacknowledged hand-offs
    /// and `Final` copies are re-sent and unfinished consensus instances
    /// tick. Required under a lossy adversary; with retry off the
    /// algorithm assumes quasi-reliable links, as \[4\] does.
    #[must_use]
    pub fn with_retry(mut self, interval: Duration) -> Self {
        self.retry = Some(interval);
        self
    }

    /// Debug/inspection: one line summarizing everything that could still
    /// be keeping this member busy (mirrors A1's `debug_retry_state`).
    pub fn debug_stuck(&self) -> String {
        format!(
            "blocked_on={:?} queue={:?} pending_nonfinal={:?} initiated={:?} \
             outstanding_finals={:?} cons_unfinished={:?} inst={} prop_inst={}",
            self.blocked_on,
            self.queue.keys().collect::<Vec<_>>(),
            self.pending
                .iter()
                .filter(|(_, p)| !p.is_final)
                .map(|(id, p)| (*id, p.ts))
                .collect::<Vec<_>>(),
            self.initiated.keys().collect::<Vec<_>>(),
            self.outstanding_finals
                .iter()
                .map(|(id, (_, _, d))| (*id, d.iter().collect::<Vec<_>>()))
                .collect::<Vec<_>>(),
            self.cons.debug_unfinished(),
            self.inst,
            self.prop_inst,
        )
    }

    /// Whether any retransmission could still unstick something.
    fn has_retry_work(&self) -> bool {
        !self.initiated.is_empty()
            || self.handoff.is_some()
            || !self.outstanding_finals.is_empty()
            || self.cons.has_unfinished()
            // Unordered queued messages: a member whose consensus copies
            // were all lost re-proposes them (the coordinator answers
            // with the stored decision), healing its instance stream.
            || !self.queue.is_empty()
    }

    /// Arms the retransmission timer if retry mode is on, work is in
    /// flight and no timer is already pending (A1's retry idiom).
    fn arm_retry(&mut self, out: &mut Outbox<RingMsg>) {
        let Some(interval) = self.retry else {
            return;
        };
        if self.retry_armed || !self.has_retry_work() {
            return;
        }
        self.retry_armed = true;
        out.set_timer(interval, RETRY_TIMER);
    }

    fn flush_cons(&mut self, sink: MsgSink<RingStep>, ctx: &Context, out: &mut Outbox<RingMsg>) {
        for (to, m) in sink.msgs {
            out.send(to, RingMsg::Cons(m));
        }
        self.drain_decisions(ctx, out);
    }

    /// The destination group after ours on `m`'s ascending path, if any.
    fn next_group(&self, m: &AppMessage) -> Option<GroupId> {
        m.dest.iter().find(|&g| g > self.group)
    }

    fn is_last_group(&self, m: &AppMessage) -> bool {
        self.next_group(m).is_none()
    }

    fn on_enter(&mut self, msg: AppMessage, ts: u64, ctx: &Context, out: &mut Outbox<RingMsg>) {
        let id = msg.id;
        if self.ordered.contains(id) || self.delivered.contains(id) {
            return;
        }
        // Delivery lower bound: the chain-accumulated timestamp only.
        // Groups along the path never decrease it, so `final ≥ ts` is a
        // theorem. The *local* clock is NOT a valid bound — another
        // member may propose this message with a clock that lags ours
        // (its `Final` receipts can trail under loss), and an inflated
        // bound lets a later-final message jump the delivery queue.
        self.pending.entry(id).or_insert(PendingDelivery {
            msg: msg.clone(),
            ts,
            is_final: false,
        });
        self.queue.entry(id).or_insert(RingStep { msg, ts });
        self.try_order(ctx, out);
    }

    /// Propose the next queued message, one at a time, while not blocked.
    fn try_order(&mut self, ctx: &Context, out: &mut Outbox<RingMsg>) {
        if self.blocked_on.is_some() || self.prop_inst > self.inst {
            return;
        }
        let Some((_, step)) = self.queue.iter().next() else {
            return;
        };
        let mut step = step.clone();
        // The proposal carries this group's timestamp assignment (see
        // RingStep docs): accumulated ts maxed with the proposer's clock.
        step.ts = step.ts.max(self.clock);
        let mut sink = MsgSink::new();
        self.cons.propose(self.inst, step, &mut sink);
        self.prop_inst = self.inst + 1;
        self.flush_cons(sink, ctx, out);
    }

    fn drain_decisions(&mut self, ctx: &Context, out: &mut Outbox<RingMsg>) {
        for (k, v) in self.cons.take_decisions() {
            self.buffered_decisions.insert(k, v);
        }
        while let Some(step) = self.buffered_decisions.remove(&self.inst) {
            self.inst += 1;
            self.process_decision(step, ctx, out);
        }
    }

    fn process_decision(&mut self, step: RingStep, ctx: &Context, out: &mut Outbox<RingMsg>) {
        let id = step.msg.id;
        self.queue.remove(&id);
        // A decision for a message whose *final* timestamp we already know
        // completes without hand-off or blocking: the chain has provably
        // reached the last group (only it emits `Final`), so re-entering
        // the next group would wait on an acknowledgment that already
        // arrived — a deadlock when consensus `Decide`s trail the final
        // fan-out (delayed or retransmitted decisions under faults).
        let already_final =
            self.delivered.contains(id) || self.pending.get(&id).is_some_and(|p| p.is_final);
        if !self.ordered.insert(id) || already_final {
            // Last-group members that skip the fan-out must still adopt
            // retransmission duty: the peer whose `Final` raced our
            // `Decide` may crash with some of its copies dropped, and
            // nobody else would ever retransmit to the losers (a remote
            // group could stay blocked forever). One redundant fan-out —
            // immediately acknowledged in the common case — buys that
            // liveness back.
            if self.retry.is_some()
                && self.is_last_group(&step.msg)
                && !self.outstanding_finals.contains_key(&id)
            {
                if let Some(p) = self.pending.get(&id) {
                    if p.is_final {
                        let (msg, ts) = (p.msg.clone(), p.ts);
                        self.adopt_final_duty(msg, ts, ctx, out);
                    }
                }
            }
            // Draining the decision may have just made a stashed final
            // deliverable (delivery requires final AND locally ordered).
            self.delivery_test(out);
            self.try_order(ctx, out);
            return;
        }
        // Adopt the *decided* assignment; local clocks may differ here.
        let ts_out = step.ts;
        self.clock = self.clock.max(ts_out + 1);
        let entry = self.pending.entry(id).or_insert(PendingDelivery {
            msg: step.msg.clone(),
            ts: ts_out,
            is_final: false,
        });
        entry.ts = entry.ts.max(ts_out);
        if self.is_last_group(&step.msg) {
            // We fix the final timestamp and fan it out to every addressed
            // process (including our own group, for uniform state). In
            // retry mode the caster gets a copy too when it is not
            // addressed, so it can stop retransmitting the hand-off.
            let mut everyone: Vec<ProcessId> = ctx
                .topology()
                .processes_in(step.msg.dest)
                .filter(|&q| q != self.me)
                .collect();
            let origin = id.origin;
            if self.retry.is_some()
                && origin != self.me
                && !ctx.topology().addresses(step.msg.dest, origin)
            {
                everyone.push(origin);
            }
            if self.retry.is_some() {
                let debtors: BTreeSet<ProcessId> = everyone
                    .iter()
                    .copied()
                    .filter(|q| !self.crashed.contains(q))
                    .collect();
                if !debtors.is_empty() {
                    self.outstanding_finals
                        .insert(id, (step.msg.clone(), ts_out, debtors));
                }
            }
            out.send_many(
                everyone,
                RingMsg::Final {
                    msg: step.msg.clone(),
                    ts: ts_out,
                },
            );
            self.on_final(step.msg, ts_out, ctx, out);
        } else {
            let next = self.next_group(&step.msg).expect("not last");
            let members: Vec<ProcessId> = ctx.topology().members(next).to_vec();
            if self.retry.is_some() {
                self.handoff = Some((step.msg.clone(), ts_out, next));
            }
            out.send_many(
                members,
                RingMsg::Enter {
                    msg: step.msg,
                    ts: ts_out,
                },
            );
            // Block until the final ack comes back (cycle avoidance).
            self.blocked_on = Some(id);
        }
        // Raising this entry's lower bound can promote another (final,
        // ordered) entry to the head of the delivery queue.
        self.delivery_test(out);
        self.try_order(ctx, out);
    }

    /// Registers this member as a `Final` retransmitter for `msg` (every
    /// addressed process plus, when unaddressed, the caster — minus
    /// crashed ones) and fans the copy out once; the retry timer re-sends
    /// to whoever has not acknowledged.
    fn adopt_final_duty(
        &mut self,
        msg: AppMessage,
        ts: u64,
        ctx: &Context,
        out: &mut Outbox<RingMsg>,
    ) {
        let id = msg.id;
        let origin = id.origin;
        let mut debtors: BTreeSet<ProcessId> = ctx
            .topology()
            .processes_in(msg.dest)
            .filter(|&q| q != self.me && !self.crashed.contains(&q))
            .collect();
        if origin != self.me
            && !ctx.topology().addresses(msg.dest, origin)
            && !self.crashed.contains(&origin)
        {
            debtors.insert(origin);
        }
        if debtors.is_empty() {
            return;
        }
        out.send_many(
            debtors.iter().copied(),
            RingMsg::Final {
                msg: msg.clone(),
                ts,
            },
        );
        self.outstanding_finals.insert(id, (msg, ts, debtors));
    }

    fn on_final(&mut self, msg: AppMessage, ts: u64, ctx: &Context, out: &mut Outbox<RingMsg>) {
        let id = msg.id;
        // The cast is settled: stop retransmitting the initial hand-off.
        self.initiated.remove(&id);
        if !ctx.topology().addresses(msg.dest, self.me) {
            // Origin-only notification copy (retry mode): this process is
            // the caster but not an addressee, so it must not deliver.
            return;
        }
        if self.delivered.contains(id) {
            return;
        }
        // Unblock and push the clock past the final timestamp, so the next
        // message this group orders gets a strictly larger one.
        if self.blocked_on == Some(id) {
            self.blocked_on = None;
            self.handoff = None;
        }
        self.clock = self.clock.max(ts + 1);
        if !self.ordered.contains(id) {
            // The final raced ahead of our own group's decision for this
            // message (consensus `Decide`s can trail under loss). Stash it
            // — the delivery test refuses unordered messages — and queue
            // the message so a lagging member re-proposes it at its next
            // instance: the coordinator answers with the stored decision,
            // healing the member's instance stream.
            self.queue.entry(id).or_insert(RingStep {
                msg: msg.clone(),
                ts,
            });
        }
        let entry = self.pending.entry(id).or_insert(PendingDelivery {
            msg,
            ts,
            is_final: true,
        });
        entry.ts = ts;
        entry.is_final = true;
        self.delivery_test(out);
        self.try_order(ctx, out);
    }

    /// Delivers pending messages in `(ts, id)` order. The head must be
    /// *final* (exact timestamp known) **and locally ordered** (our
    /// group's decision for it drained, in instance order). The second
    /// condition is what makes the order total under faults: every
    /// message addressed to us passes through our group's consensus, the
    /// per-instance assignments are strictly increasing, and the group
    /// blocks on outstanding finals — so once `m`'s instance is drained,
    /// no message with a smaller final can still be unknown to us.
    fn delivery_test(&mut self, out: &mut Outbox<RingMsg>) {
        loop {
            let Some((&min_id, min_p)) = self.pending.iter().min_by_key(|(id, p)| (p.ts, **id))
            else {
                return;
            };
            if !min_p.is_final || !self.ordered.contains(min_id) {
                return;
            }
            let p = self.pending.remove(&min_id).expect("present");
            self.delivered.insert(min_id);
            out.deliver(p.msg);
        }
    }
}

impl Protocol for RingMulticast {
    type Msg = RingMsg;

    /// A-MCast: hand `m` (with timestamp 0) to its first destination group.
    fn on_cast(&mut self, msg: AppMessage, ctx: &Context, out: &mut Outbox<RingMsg>) {
        let first = msg.dest.min().expect("non-empty destination");
        let members: Vec<ProcessId> = ctx
            .topology()
            .members(first)
            .iter()
            .copied()
            .filter(|&q| q != self.me)
            .collect();
        if self.retry.is_some() {
            self.initiated.insert(msg.id, msg.clone());
        }
        out.send_many(
            members,
            RingMsg::Enter {
                msg: msg.clone(),
                ts: 0,
            },
        );
        if first == self.group {
            self.on_enter(msg, 0, ctx, out);
        }
        self.arm_retry(out);
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: RingMsg,
        ctx: &Context,
        out: &mut Outbox<RingMsg>,
    ) {
        match msg {
            RingMsg::Enter { msg, ts } => self.on_enter(msg, ts, ctx, out),
            RingMsg::Cons(c) => {
                let mut sink = MsgSink::new();
                self.cons.on_message(from, c, &mut sink);
                self.flush_cons(sink, ctx, out);
            }
            RingMsg::Final { msg, ts } => {
                if self.retry.is_some() {
                    // Positive ack, also for duplicates: the sender keeps
                    // retransmitting until one gets through.
                    out.send(from, RingMsg::FinalAck { id: msg.id });
                }
                self.on_final(msg, ts, ctx, out);
            }
            RingMsg::FinalAck { id } => {
                if let Some((_, _, debtors)) = self.outstanding_finals.get_mut(&id) {
                    debtors.remove(&from);
                    if debtors.is_empty() {
                        self.outstanding_finals.remove(&id);
                    }
                }
            }
        }
        self.arm_retry(out);
    }

    /// The retransmission round: re-hand-off the cast and the blocked
    /// transfer, re-send unacknowledged `Final`s, tick consensus.
    fn on_timer(&mut self, kind: u64, ctx: &Context, out: &mut Outbox<RingMsg>) {
        if kind != RETRY_TIMER {
            return;
        }
        self.retry_armed = false;
        // Iterate the retransmission state by reference: the tick fires
        // every 250 ms at every busy member, and cloning whole maps per
        // tick would reintroduce the allocation churn the engine work
        // removed (only the per-send message body is cloned).
        for msg in self.initiated.values() {
            let first = msg.dest.min().expect("non-empty destination");
            let members: Vec<ProcessId> = ctx
                .topology()
                .members(first)
                .iter()
                .copied()
                .filter(|q| *q != self.me && !self.crashed.contains(q))
                .collect();
            out.send_many(
                members,
                RingMsg::Enter {
                    msg: msg.clone(),
                    ts: 0,
                },
            );
        }
        if let Some((msg, ts, next)) = &self.handoff {
            let members: Vec<ProcessId> = ctx
                .topology()
                .members(*next)
                .iter()
                .copied()
                .filter(|q| !self.crashed.contains(q))
                .collect();
            out.send_many(
                members,
                RingMsg::Enter {
                    msg: msg.clone(),
                    ts: *ts,
                },
            );
        }
        for (msg, ts, debtors) in self.outstanding_finals.values() {
            out.send_many(
                debtors.iter().copied(),
                RingMsg::Final {
                    msg: msg.clone(),
                    ts: *ts,
                },
            );
        }
        if self.cons.has_unfinished() {
            let mut sink = MsgSink::new();
            self.cons.tick(&mut sink);
            self.flush_cons(sink, ctx, out);
        }
        // Re-drive proposals for queued-but-unordered messages (no-op
        // when blocked or when a proposal is already in flight).
        self.try_order(ctx, out);
        self.arm_retry(out);
    }

    fn on_crash_notification(
        &mut self,
        crashed: ProcessId,
        ctx: &Context,
        out: &mut Outbox<RingMsg>,
    ) {
        self.crashed.insert(crashed);
        // A crashed process will never ack: stop retransmitting to it.
        self.outstanding_finals.retain(|_, (_, _, debtors)| {
            debtors.remove(&crashed);
            !debtors.is_empty()
        });
        if ctx.topology().group_of(crashed) == self.group {
            let mut sink = MsgSink::new();
            self.cons.on_suspect(crashed, &mut sink);
            self.flush_cons(sink, ctx, out);
        }
        self.arm_retry(out);
    }
}
