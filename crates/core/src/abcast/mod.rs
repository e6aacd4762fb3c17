//! Algorithm A2: atomic broadcast with latency degree one (§5 of the paper).
//!
//! Processes execute a sequence of *rounds*. In round `K`:
//!
//! 1. inside each group, consensus instance `K` fixes the group's **message
//!    bundle** — the set of messages R-Delivered but not yet A-Delivered
//!    (possibly empty, line 12);
//! 2. each process sends its group's bundle to every process of every other
//!    group (line 15) and waits for one bundle per other group (line 16);
//! 3. the union of all bundles is A-Delivered in a deterministic order
//!    (lines 18–19).
//!
//! To broadcast, a process merely R-MCasts the message **to its own group**
//! (line 5); the round machinery spreads it. Because rounds run proactively,
//! a message cast while rounds are active rides the very next bundle
//! exchange and is delivered after **one** inter-group delay (Theorem 5.1) —
//! beating the 2-delay lower bound that binds *genuine multicast*
//! (Proposition 3.1), which is the paper's headline separation between the
//! two problems.
//!
//! **Quiescence** (lines 21–23): `K` advances every round, but `Barrier`
//! only advances when a round actually delivered something. Once a round
//! delivers nothing and no R-Delivered message is pending, the line-11 guard
//! goes false and the process stops — no messages are sent ever again
//! (Proposition A.9). A message broadcast *after* quiescence still gets
//! through: the caster's group restarts rounds, and its bundle (line 8–10)
//! raises `Barrier` at the other groups, waking them — at the cost of a
//! second inter-group delay (Theorem 5.2, provably unavoidable).

use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;
use wamcast_consensus::{ConsensusMsg, GroupConsensus, MsgSink};
use wamcast_types::{
    AppMessage, BatchConfig, Context, FxHashMap, GroupId, IdSet, MessageId, Outbox, ProcessId,
    Protocol, SharedBatch,
};

/// A round's message bundle — the value one consensus instance decides and
/// one `(K, msgSet)` exchange ships. `Arc`-shared ([`SharedBatch`]): the
/// intra-group `Accept`/`Accepted`/`Decide` fan-out and the inter-group
/// bundle broadcast clone a refcount, never the messages, so a 64-message
/// round costs one allocation however many processes it reaches.
pub type RoundBundle = SharedBatch<AppMessage>;

/// Union-by-id combiner installed on the consensus engine: bundles
/// forwarded by other members fold into the coordinator's round proposal,
/// so one round carries every message any group member has R-Delivered.
/// Copy-on-write: the accumulator's messages are copied only if another
/// handle to the batch is still live.
pub fn merge_bundles(acc: &mut RoundBundle, more: RoundBundle) {
    let mut have: BTreeSet<MessageId> = acc.iter().map(|m| m.id).collect();
    let fresh: Vec<AppMessage> = more
        .iter()
        .filter(|m| have.insert(m.id)) // also dedups within `more`
        .cloned()
        .collect();
    if !fresh.is_empty() {
        std::sync::Arc::make_mut(acc).extend(fresh);
    }
}

/// Timer token of the round-pacing (batch window) timer.
const PACING_TIMER: u64 = 0;
/// Timer token of the loss-recovery retransmission timer (see
/// [`RoundBroadcast::with_retry`]).
const RETRY_TIMER: u64 = 1;

/// Wire messages of Algorithm A2.
#[derive(Clone, Debug, PartialEq)]
pub enum BroadcastMsg {
    /// Intra-group dissemination of a freshly broadcast message (line 5's
    /// R-MCast restricted to the caster's group).
    Rm(AppMessage),
    /// Intra-group consensus traffic (bundle agreement). The value is an
    /// `Arc`-shared [`RoundBundle`], so `Accept`/`Accepted`/`Decide`
    /// copies carrying a large bundle cost a refcount each.
    Cons(ConsensusMsg<RoundBundle>),
    /// `(K, msgSet)`: the sender's group bundle for round `K` (line 15).
    Bundle {
        /// Round number.
        round: u64,
        /// The group's decided bundle (may be empty), shared across every
        /// remote recipient of the fan-out.
        msgs: RoundBundle,
    },
    /// Receipt acknowledgement for a round bundle — sent only in retry
    /// mode ([`RoundBroadcast::with_retry`]), so that bundle senders can
    /// stop retransmitting over lossy links. Never sent under the paper's
    /// quasi-reliable link model.
    BundleAck {
        /// The acknowledged round.
        round: u64,
    },
}

/// Algorithm A2 — atomic broadcast (code of process p, §5.2).
///
/// # Round pacing and batching
///
/// Algorithm A2's line-11 `When` clause only says a round *may* start once
/// its guard holds; the scheduler is free to delay it. [`new`](Self::new)
/// starts rounds eagerly (propose the instant the previous round ends).
/// [`with_pacing`](Self::with_pacing) waits a batching window `δ` first, so
/// messages R-Delivered in the window ride the very next round — this is
/// the schedule used by Theorem 5.1's latency-degree-1 run, and standard
/// batching practice in group communication systems. Pacing does not affect
/// quiescence: the window timer is armed only while the guard holds.
///
/// [`with_batch`](Self::with_batch) generalizes pacing to the full
/// [`BatchConfig`] policy of the batching layer (`DESIGN.md` §"Batching
/// layer"): the window still closes after `max_delay`, but a backlog of
/// `max_msgs` messages (or `max_bytes` payload bytes) flushes the round
/// immediately, so heavy traffic amortizes consensus without waiting out
/// the window. The batch policy only regroups rounds — bundle delivery
/// stays sorted and deduplicated per round — so every §2.2 ordering
/// invariant (identical delivery sequences at all processes) and the
/// Δ = 1 steady-state result hold under any batch policy, though round
/// composition (and hence the specific sequence) may differ from the
/// eager schedule's.
#[derive(Debug)]
pub struct RoundBroadcast {
    me: ProcessId,
    group: GroupId,
    /// `K`: current round number = consensus instance number.
    k: u64,
    /// `propK`: at most one proposal per instance.
    prop_k: u64,
    /// `Barrier`: the last round this process currently intends to execute.
    barrier: u64,
    /// `RDELIVERED \ ADELIVERED`, with payloads.
    rdelivered: BTreeMap<MessageId, AppMessage>,
    /// Payload bytes pooled in `rdelivered` (incremental, so the byte
    /// trigger costs O(1) per arrival).
    rdelivered_bytes: usize,
    /// `ADELIVERED`: one id per cast, forever — hence ranges.
    adelivered: IdSet,
    /// `Msgs`: received bundles, round → group → bundle. The outer map is
    /// point-keyed by round; the inner stays ordered because
    /// `finish_round` folds it.
    bundles: FxHashMap<u64, BTreeMap<GroupId, RoundBundle>>,
    /// Round whose own bundle is decided and sent; waiting for the others.
    waiting_bundles: Option<u64>,
    cons: GroupConsensus<RoundBundle>,
    buffered_decisions: FxHashMap<u64, RoundBundle>,
    /// R-Delivered messages by origin, for crash-triggered intra-group relay.
    by_origin: FxHashMap<ProcessId, Vec<AppMessage>>,
    relayed: IdSet,
    /// Batch policy gating round starts (see type docs); `max_delay` is the
    /// pacing window, `max_msgs`/`max_bytes` flush a backlog early.
    batch: BatchConfig,
    /// Whether a pacing timer is currently armed.
    timer_armed: bool,
    /// Prediction strategy: how many *consecutive empty* rounds to run
    /// after a useful one before predicting that no more messages will be
    /// broadcast. The paper's Algorithm A2 corresponds to 1 (lines 22–23
    /// extend the barrier only on useful rounds, which lets exactly one
    /// trailing empty round run). §5.3 suggests "more elaborate prediction
    /// strategies" as future work; larger values trade idle inter-group
    /// traffic for a wider window in which a new broadcast still achieves
    /// latency degree 1.
    idle_rounds: u64,
    /// Empty rounds executed since the last useful one.
    empty_streak: u64,
    /// Loss-recovery retransmission interval (`None` = quasi-reliable
    /// links, nothing is ever re-sent).
    retry: Option<Duration>,
    /// Whether the retransmission timer is currently armed.
    retry_armed: bool,
    /// Retry mode only: bundles this process sent, per round, with the
    /// remote recipients that have not acked yet.
    sent_bundles: BTreeMap<u64, (RoundBundle, BTreeSet<ProcessId>)>,
    /// Per-process secondary index over `sent_bundles`: debtor → rounds it
    /// still owes an ack for. A crash notification touches exactly the
    /// crashed process's rounds instead of scanning every outstanding
    /// bundle.
    bundle_debtors: BTreeMap<ProcessId, BTreeSet<u64>>,
    /// Processes reported crashed: never tracked as bundle-ack debtors.
    crashed: BTreeSet<ProcessId>,
    /// Reusable buffer for consensus engine calls — taken per handler,
    /// drained by `flush_cons`, put back; no allocation per event.
    sink_buf: MsgSink<RoundBundle>,
}

impl RoundBroadcast {
    /// Creates the protocol instance for process `me` of `topo`.
    pub fn new(me: ProcessId, topo: &wamcast_types::Topology) -> Self {
        let group = topo.group_of(me);
        let members = topo.members(group).to_vec();
        RoundBroadcast {
            me,
            group,
            k: 1,
            prop_k: 1,
            barrier: 0,
            rdelivered: BTreeMap::new(),
            rdelivered_bytes: 0,
            adelivered: IdSet::new(),
            bundles: FxHashMap::default(),
            waiting_bundles: None,
            cons: GroupConsensus::new(me, members).with_merge(merge_bundles),
            buffered_decisions: FxHashMap::default(),
            by_origin: FxHashMap::default(),
            relayed: IdSet::new(),
            batch: BatchConfig::disabled(),
            timer_armed: false,
            idle_rounds: 1,
            empty_streak: 0,
            retry: None,
            retry_armed: false,
            sent_bundles: BTreeMap::new(),
            bundle_debtors: BTreeMap::new(),
            crashed: BTreeSet::new(),
            sink_buf: MsgSink::new(),
        }
    }

    /// Creates an instance that waits `pacing` after a round completes (or
    /// after going idle) before proposing the next round. See the type-level
    /// docs. Equivalent to [`with_batch`](Self::with_batch) with only a
    /// `max_delay` bound.
    pub fn with_pacing(me: ProcessId, topo: &wamcast_types::Topology, pacing: Duration) -> Self {
        Self::with_batch(
            me,
            topo,
            BatchConfig::new(usize::MAX).with_max_delay(pacing),
        )
    }

    /// Creates an instance gating round starts with the full batch policy:
    /// rounds wait out `batch.max_delay` as with
    /// [`with_pacing`](Self::with_pacing), but a backlog hitting
    /// `batch.max_msgs` messages or `batch.max_bytes` payload bytes starts
    /// the round immediately. A zero `max_delay` means no window at all —
    /// rounds start eagerly and the size/byte triggers are moot (see
    /// [`BatchConfig::max_delay`]); set a non-zero window to batch.
    pub fn with_batch(me: ProcessId, topo: &wamcast_types::Topology, batch: BatchConfig) -> Self {
        let mut rb = Self::new(me, topo);
        rb.batch = batch;
        rb
    }

    /// Sets the quiescence-prediction horizon: run up to `idle_rounds`
    /// consecutive empty rounds after the last useful one before going
    /// quiet. `1` is the paper's Algorithm A2; larger values implement the
    /// §5.3 suggestion of more patient prediction — broadcasts arriving
    /// within the extended window still achieve latency degree 1, at the
    /// cost of idle round traffic. The algorithm stays quiescent for finite
    /// workloads for any finite value.
    ///
    /// # Panics
    ///
    /// Panics if `idle_rounds == 0` (the barrier mechanism needs at least
    /// one trailing round to restart cleanly).
    #[must_use]
    pub fn with_idle_rounds(mut self, idle_rounds: u64) -> Self {
        assert!(idle_rounds >= 1, "at least one trailing round is required");
        self.idle_rounds = idle_rounds;
        self
    }

    /// Enables loss-recovery retransmission with the given interval. While
    /// any work is in flight a periodic timer re-drives undecided consensus
    /// instances ([`GroupConsensus::tick`]) and re-sends this process's
    /// round bundles to remote processes that have not acknowledged them
    /// (receivers in retry mode ack every bundle). Required for liveness
    /// under a fault-injection adversary that drops messages; the paper's
    /// quasi-reliable model never needs it, and with retry off the wire
    /// behavior (and every message count) is exactly the paper's. The timer
    /// disarms when no work remains, so quiescence (Proposition A.9) is
    /// preserved for finite workloads.
    #[must_use]
    pub fn with_retry(mut self, interval: Duration) -> Self {
        self.retry = Some(interval);
        self
    }

    /// Current round number (`K`), for tests/inspection.
    pub fn round(&self) -> u64 {
        self.k
    }

    /// Current `Barrier` value, for tests/inspection.
    pub fn barrier(&self) -> u64 {
        self.barrier
    }

    /// Whether this process is currently idle (quiescent): no round in
    /// progress and the line-11 guard false.
    pub fn is_idle(&self) -> bool {
        self.waiting_bundles.is_none() && !(self.has_undelivered() || self.k <= self.barrier)
    }

    fn has_undelivered(&self) -> bool {
        !self.rdelivered.is_empty()
    }

    fn flush_cons(
        &mut self,
        sink: &mut MsgSink<RoundBundle>,
        ctx: &Context,
        out: &mut Outbox<BroadcastMsg>,
    ) {
        for (to, m) in sink.msgs.drain(..) {
            out.send(to, BroadcastMsg::Cons(m));
        }
        self.drain_decisions(ctx, out);
    }

    /// Lines 6–7: R-Deliver within the group.
    fn on_rdeliver(&mut self, m: AppMessage, ctx: &Context, out: &mut Outbox<BroadcastMsg>) {
        if self.adelivered.contains(m.id) || self.rdelivered.contains_key(&m.id) {
            return;
        }
        self.by_origin
            .entry(m.id.origin)
            .or_default()
            .push(m.clone());
        self.rdelivered_bytes += m.payload.len();
        self.rdelivered.insert(m.id, m);
        self.schedule_round(ctx, out);
    }

    /// Lines 11–13: start round `K` when there is something to deliver or
    /// the barrier demands it, proposing at most once per instance.
    fn try_start_round(&mut self, ctx: &Context, out: &mut Outbox<BroadcastMsg>) {
        if self.prop_k > self.k {
            return;
        }
        if !(self.has_undelivered() || self.k <= self.barrier) {
            return;
        }
        let proposal: RoundBundle = RoundBundle::new(self.rdelivered.values().cloned().collect());
        let mut sink = std::mem::take(&mut self.sink_buf);
        self.cons.propose(self.k, proposal, &mut sink);
        self.prop_k = self.k + 1;
        self.flush_cons(&mut sink, ctx, out);
        self.sink_buf = sink;
    }

    /// Entry point for the line-11 guard: either propose now (eager mode or
    /// a size/byte trigger) or arm the batching window (paced mode).
    fn schedule_round(&mut self, ctx: &Context, out: &mut Outbox<BroadcastMsg>) {
        if self.batch.max_delay.is_zero() {
            self.try_start_round(ctx, out);
            return;
        }
        if self.timer_armed || self.prop_k > self.k {
            return;
        }
        if !(self.has_undelivered() || self.k <= self.barrier) {
            return;
        }
        // Early flush: a backlog at the size or byte trigger does not wait
        // out the window.
        if !self.rdelivered.is_empty()
            && self
                .batch
                .should_flush(self.rdelivered.len(), self.rdelivered_bytes)
        {
            self.try_start_round(ctx, out);
            return;
        }
        self.timer_armed = true;
        out.set_timer(self.batch.max_delay, PACING_TIMER);
    }

    /// Whether any layer still has work a retransmission could unstick.
    fn has_retry_work(&self) -> bool {
        self.waiting_bundles.is_some()
            || self.has_undelivered()
            || self.k <= self.barrier
            || !self.sent_bundles.is_empty()
            || self.cons.has_unfinished()
    }

    /// Arms the retransmission timer if retry mode is on and work is in
    /// flight. A firing with no remaining work does not re-arm, preserving
    /// quiescence for finite workloads.
    fn arm_retry(&mut self, out: &mut Outbox<BroadcastMsg>) {
        let Some(interval) = self.retry else { return };
        if self.retry_armed || !self.has_retry_work() {
            return;
        }
        self.retry_armed = true;
        out.set_timer(interval, RETRY_TIMER);
    }

    /// One retransmission round: re-drive undecided consensus instances and
    /// re-send every unacked round bundle.
    fn retransmit(&mut self, ctx: &Context, out: &mut Outbox<BroadcastMsg>) {
        let mut sink = std::mem::take(&mut self.sink_buf);
        self.cons.tick(&mut sink);
        self.flush_cons(&mut sink, ctx, out);
        self.sink_buf = sink;
        for (&round, (msgs, unacked)) in &self.sent_bundles {
            // One shared body for the whole retransmission fan-out; the
            // unacked set iterates in process order, as the per-`send`
            // loop did.
            out.send_many(
                unacked.iter().copied(),
                BroadcastMsg::Bundle {
                    round,
                    msgs: RoundBundle::clone(msgs),
                },
            );
        }
    }

    fn drain_decisions(&mut self, ctx: &Context, out: &mut Outbox<BroadcastMsg>) {
        for (k, v) in self.cons.take_decisions() {
            self.buffered_decisions.insert(k, v);
        }
        self.advance(ctx, out);
    }

    /// Pushes the round state machine as far as possible: process the
    /// current round's decision (lines 14–15), then complete the round once
    /// all bundles are in (lines 16–23).
    fn advance(&mut self, ctx: &Context, out: &mut Outbox<BroadcastMsg>) {
        loop {
            if self.waiting_bundles.is_none() {
                let Some(mut decided) = self.buffered_decisions.remove(&self.k) else {
                    return;
                };
                // Copy-on-write normalization: the consensus engine keeps
                // its own handle on the decided value (for Decide catch-up
                // replies), so make_mut copies once — the same copy the
                // pre-`Arc` representation paid — and every fan-out below
                // shares the normalized batch for free.
                {
                    let v = std::sync::Arc::make_mut(&mut decided);
                    v.sort_by_key(|m| m.id);
                    v.dedup_by_key(|m| m.id);
                }
                // Line 15: send (K, msgSet′) to every process outside our
                // group.
                let remote: Vec<ProcessId> = ctx
                    .topology()
                    .processes()
                    .filter(|&q| ctx.topology().group_of(q) != self.group)
                    .collect();
                if self.retry.is_some() {
                    let unacked: BTreeSet<ProcessId> = remote
                        .iter()
                        .copied()
                        .filter(|q| !self.crashed.contains(q))
                        .collect();
                    if !unacked.is_empty() {
                        for &q in &unacked {
                            self.bundle_debtors.entry(q).or_default().insert(self.k);
                        }
                        self.sent_bundles
                            .insert(self.k, (RoundBundle::clone(&decided), unacked));
                    }
                }
                out.send_many(
                    remote,
                    BroadcastMsg::Bundle {
                        round: self.k,
                        msgs: RoundBundle::clone(&decided),
                    },
                );
                // Line 17: record our own bundle.
                self.bundles
                    .entry(self.k)
                    .or_default()
                    .insert(self.group, decided);
                self.waiting_bundles = Some(self.k);
            }
            let round = self.waiting_bundles.expect("set above");
            if !self.round_complete(ctx, round) {
                return;
            }
            self.finish_round(round, ctx, out);
        }
    }

    /// Line 16's wait condition: one bundle per group for `round`.
    fn round_complete(&self, ctx: &Context, round: u64) -> bool {
        let Some(per_group) = self.bundles.get(&round) else {
            return false;
        };
        ctx.topology().groups().all(|g| per_group.contains_key(&g))
    }

    /// Lines 18–23: deliver the union of bundles in a deterministic order,
    /// advance `K`, and extend `Barrier` iff the round was useful.
    fn finish_round(&mut self, round: u64, ctx: &Context, out: &mut Outbox<BroadcastMsg>) {
        let per_group = self.bundles.remove(&round).expect("round complete");
        let mut to_deliver: Vec<AppMessage> = per_group
            .into_values()
            // Unique handles (typical for remote bundles) move their
            // messages out; shared ones copy, as before the Arc.
            .flat_map(|b| std::sync::Arc::try_unwrap(b).unwrap_or_else(|a| (*a).clone()))
            .filter(|m| !self.adelivered.contains(m.id))
            .collect();
        to_deliver.sort_by_key(|m| m.id);
        to_deliver.dedup_by_key(|m| m.id);
        let useful = !to_deliver.is_empty();
        for m in to_deliver {
            self.adelivered.insert(m.id);
            if self.rdelivered.remove(&m.id).is_some() {
                self.rdelivered_bytes -= m.payload.len();
            }
            out.deliver(m);
        }
        self.waiting_bundles = None;
        self.k += 1; // line 21
        if useful {
            // Lines 22–23: keep executing rounds. With a prediction horizon
            // of h, allow h trailing empty rounds before quiescing.
            self.empty_streak = 0;
            self.barrier = self.barrier.max(self.k + (self.idle_rounds - 1));
        } else {
            self.empty_streak += 1;
        }
        self.schedule_round(ctx, out);
    }
}

impl Protocol for RoundBroadcast {
    type Msg = BroadcastMsg;

    /// Lines 4–5: to A-BCast `m`, R-MCast it to the caster's own group.
    fn on_cast(&mut self, msg: AppMessage, ctx: &Context, out: &mut Outbox<BroadcastMsg>) {
        debug_assert_eq!(msg.id.origin, self.me);
        let peers: Vec<ProcessId> = ctx
            .topology()
            .members(self.group)
            .iter()
            .copied()
            .filter(|&q| q != self.me)
            .collect();
        out.send_many(peers, BroadcastMsg::Rm(msg.clone()));
        self.on_rdeliver(msg, ctx, out);
        self.arm_retry(out);
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: BroadcastMsg,
        ctx: &Context,
        out: &mut Outbox<BroadcastMsg>,
    ) {
        match msg {
            BroadcastMsg::Rm(m) => self.on_rdeliver(m, ctx, out),
            BroadcastMsg::Cons(c) => {
                let mut sink = std::mem::take(&mut self.sink_buf);
                self.cons.on_message(from, c, &mut sink);
                self.flush_cons(&mut sink, ctx, out);
                self.sink_buf = sink;
            }
            BroadcastMsg::Bundle { round, msgs } => {
                // Retry mode: ack every copy (the sender may have missed an
                // earlier ack) before processing.
                if self.retry.is_some() {
                    out.send(from, BroadcastMsg::BundleAck { round });
                }
                // Lines 8–10: store the bundle and raise the barrier — this
                // is what wakes a quiescent group up.
                let sender_group = ctx.topology().group_of(from);
                self.bundles
                    .entry(round)
                    .or_default()
                    .entry(sender_group)
                    .or_insert(msgs);
                self.barrier = self.barrier.max(round);
                self.schedule_round(ctx, out);
                self.advance(ctx, out);
            }
            BroadcastMsg::BundleAck { round } => {
                if let Some(rounds) = self.bundle_debtors.get_mut(&from) {
                    rounds.remove(&round);
                    if rounds.is_empty() {
                        self.bundle_debtors.remove(&from);
                    }
                }
                if let Some((_, unacked)) = self.sent_bundles.get_mut(&round) {
                    unacked.remove(&from);
                    if unacked.is_empty() {
                        self.sent_bundles.remove(&round);
                    }
                }
            }
        }
        self.arm_retry(out);
    }

    fn on_timer(&mut self, kind: u64, ctx: &Context, out: &mut Outbox<BroadcastMsg>) {
        match kind {
            PACING_TIMER => {
                self.timer_armed = false;
                self.try_start_round(ctx, out);
                // If the guard still holds but the proposal could not go
                // out (e.g. a round is already in flight), re-arm when that
                // round finishes — finish_round calls schedule_round, so
                // nothing to do here.
            }
            RETRY_TIMER => {
                self.retry_armed = false;
                self.retransmit(ctx, out);
            }
            _ => {}
        }
        self.arm_retry(out);
    }

    fn on_crash_notification(
        &mut self,
        crashed: ProcessId,
        ctx: &Context,
        out: &mut Outbox<BroadcastMsg>,
    ) {
        // A crashed process never acks its bundles — drop it from every
        // unacked set and never track it again. The debtor index points
        // straight at the rounds it owes, so this costs O(its debts), not
        // a scan of every outstanding bundle.
        self.crashed.insert(crashed);
        if let Some(rounds) = self.bundle_debtors.remove(&crashed) {
            for round in rounds {
                if let Some((_, unacked)) = self.sent_bundles.get_mut(&round) {
                    unacked.remove(&crashed);
                    if unacked.is_empty() {
                        self.sent_bundles.remove(&round);
                    }
                }
            }
        }
        // Intra-group relay of messages whose caster crashed (reliable
        // multicast agreement).
        if let Some(msgs) = self.by_origin.get(&crashed) {
            let peers: Vec<ProcessId> = ctx
                .topology()
                .members(self.group)
                .iter()
                .copied()
                .filter(|&q| q != self.me && q != crashed)
                .collect();
            for m in msgs {
                if self.relayed.insert(m.id) {
                    out.send_many(peers.iter().copied(), BroadcastMsg::Rm(m.clone()));
                }
            }
        }
        if ctx.topology().group_of(crashed) == self.group {
            let mut sink = std::mem::take(&mut self.sink_buf);
            self.cons.on_suspect(crashed, &mut sink);
            self.flush_cons(&mut sink, ctx, out);
            self.sink_buf = sink;
        }
        self.arm_retry(out);
    }

    fn describe_msg(msg: &BroadcastMsg) -> Option<wamcast_types::MsgInfo> {
        Some(describe_broadcast_msg(msg))
    }
}

/// Classifies an Algorithm A2 wire message for the trace layer. The round
/// bundle exchange plays the structural role of A1's `(TS, m)` exchange
/// (one inter-group message per group per round), so it is classed as
/// [`MsgClass`](wamcast_types::MsgClass)`::Ts`.
pub fn describe_broadcast_msg(msg: &BroadcastMsg) -> wamcast_types::MsgInfo {
    use wamcast_types::{MsgClass, MsgInfo};
    match msg {
        BroadcastMsg::Rm(m) => MsgInfo::new(MsgClass::Rmcast, vec![m.id]),
        BroadcastMsg::Cons(c) => {
            let (class, value) = c.trace_class();
            let casts = value
                .map(|b| b.iter().map(|m| m.id).collect())
                .unwrap_or_default();
            MsgInfo::new(class, casts)
        }
        BroadcastMsg::Bundle { msgs, .. } => {
            MsgInfo::new(MsgClass::Ts, msgs.iter().map(|m| m.id).collect())
        }
        BroadcastMsg::BundleAck { .. } => MsgInfo::new(MsgClass::Other, Vec::new()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use wamcast_types::{Action, Payload, SimTime, Topology};

    fn ctx(p: u32, topo: &Arc<Topology>) -> Context {
        Context::new(ProcessId(p), Arc::clone(topo), SimTime::ZERO)
    }

    fn bmsg(origin: u32, seq: u64, topo: &Topology) -> AppMessage {
        AppMessage::new(
            MessageId::new(ProcessId(origin), seq),
            topo.all_groups(),
            Payload::new(),
        )
    }

    fn actions(out: &mut Outbox<BroadcastMsg>) -> (Vec<(ProcessId, BroadcastMsg)>, Vec<MessageId>) {
        let mut sends = Vec::new();
        let mut delivers = Vec::new();
        for a in out.drain() {
            match a {
                Action::Send { to, msg } => sends.push((to, msg)),
                // Expand shared fan-outs to the per-destination copies a
                // host would deliver.
                Action::SendMany { tos, msg } => {
                    sends.extend(tos.into_iter().map(|to| (to, (*msg).clone())))
                }
                Action::Deliver(m) => delivers.push(m.id),
                _ => {}
            }
        }
        (sends, delivers)
    }

    #[test]
    fn initial_state_is_idle() {
        let topo = Arc::new(Topology::symmetric(2, 2));
        let rb = RoundBroadcast::new(ProcessId(0), &topo);
        assert!(rb.is_idle());
        assert_eq!(rb.round(), 1);
        assert_eq!(rb.barrier(), 0);
    }

    #[test]
    fn cast_rmcasts_within_group_only() {
        // Line 5: the broadcast's dissemination never leaves the caster's
        // group — the round bundles carry it across (that is why A2 is not
        // genuine multicast material but optimal broadcast material).
        let topo = Arc::new(Topology::symmetric(2, 3));
        let mut rb = RoundBroadcast::new(ProcessId(0), &topo);
        let mut out = Outbox::new();
        rb.on_cast(bmsg(0, 0, &topo), &ctx(0, &topo), &mut out);
        let (sends, delivers) = actions(&mut out);
        assert!(delivers.is_empty());
        let rm_tos: Vec<ProcessId> = sends
            .iter()
            .filter(|(_, m)| matches!(m, BroadcastMsg::Rm(_)))
            .map(|(to, _)| *to)
            .collect();
        assert_eq!(rm_tos, vec![ProcessId(1), ProcessId(2)], "own group only");
        assert!(!rb.is_idle(), "the guard is now true");
    }

    #[test]
    fn bundle_from_future_round_raises_barrier() {
        // Lines 8–10: receiving (x, msgSet) sets Barrier ← max(Barrier, x),
        // which is what wakes a quiescent group.
        let topo = Arc::new(Topology::symmetric(2, 1));
        let mut rb = RoundBroadcast::new(ProcessId(0), &topo);
        let mut out = Outbox::new();
        rb.on_message(
            ProcessId(1),
            BroadcastMsg::Bundle {
                round: 3,
                msgs: RoundBundle::new(vec![]),
            },
            &ctx(0, &topo),
            &mut out,
        );
        assert_eq!(rb.barrier(), 3);
        assert!(!rb.is_idle(), "rounds 1..=3 must now be executed");
    }

    #[test]
    fn round_completes_only_with_all_groups_bundles() {
        // 3 groups x 1 process: p0's round needs bundles from g1 AND g2.
        let topo = Arc::new(Topology::symmetric(3, 1));
        let mut rb = RoundBroadcast::new(ProcessId(0), &topo);
        let m = bmsg(0, 0, &topo);
        // Cast, then drive p0's (single-member) consensus to decision.
        let mut queue = Vec::new();
        let mut out = Outbox::new();
        rb.on_cast(m.clone(), &ctx(0, &topo), &mut out);
        let (sends, _) = actions(&mut out);
        queue.extend(sends);
        let mut bundles_sent = 0;
        let mut guard = 0;
        while let Some((to, w)) = queue.pop() {
            guard += 1;
            assert!(guard < 200);
            if to != ProcessId(0) {
                if matches!(w, BroadcastMsg::Bundle { .. }) {
                    bundles_sent += 1;
                }
                continue;
            }
            let mut out = Outbox::new();
            rb.on_message(ProcessId(0), w, &ctx(0, &topo), &mut out);
            let (sends, delivers) = actions(&mut out);
            assert!(delivers.is_empty(), "cannot deliver before remote bundles");
            queue.extend(sends);
        }
        assert_eq!(bundles_sent, 2, "own bundle to p1 and p2");
        // First remote bundle: still incomplete.
        let mut out = Outbox::new();
        rb.on_message(
            ProcessId(1),
            BroadcastMsg::Bundle {
                round: 1,
                msgs: RoundBundle::new(vec![]),
            },
            &ctx(0, &topo),
            &mut out,
        );
        let (_, delivers) = actions(&mut out);
        assert!(delivers.is_empty());
        // Second remote bundle completes round 1 and delivers m.
        let mut out = Outbox::new();
        rb.on_message(
            ProcessId(2),
            BroadcastMsg::Bundle {
                round: 1,
                msgs: RoundBundle::new(vec![]),
            },
            &ctx(0, &topo),
            &mut out,
        );
        let (_, delivers) = actions(&mut out);
        assert_eq!(delivers, vec![m.id]);
        assert_eq!(rb.round(), 2, "K incremented (line 21)");
        assert_eq!(
            rb.barrier(),
            2,
            "useful round extends the barrier (line 23)"
        );
    }

    #[test]
    fn deliveries_are_sorted_and_deduped_within_a_round() {
        let topo = Arc::new(Topology::symmetric(2, 1));
        let mut rb = RoundBroadcast::new(ProcessId(0), &topo);
        let a = bmsg(1, 0, &topo);
        let b = bmsg(1, 1, &topo);
        // Remote bundle for round 1 with [b, a] (unsorted) + duplicate a.
        let mut out = Outbox::new();
        rb.on_message(
            ProcessId(1),
            BroadcastMsg::Bundle {
                round: 1,
                msgs: RoundBundle::new(vec![b.clone(), a.clone(), a.clone()]),
            },
            &ctx(0, &topo),
            &mut out,
        );
        // Drive own (single-member) consensus for round 1 (empty proposal).
        let mut queue = {
            let (sends, _) = actions(&mut out);
            sends
        };
        let mut delivered = Vec::new();
        let mut guard = 0;
        while let Some((to, w)) = queue.pop() {
            guard += 1;
            assert!(guard < 200);
            if to != ProcessId(0) {
                continue;
            }
            let mut out = Outbox::new();
            rb.on_message(ProcessId(0), w, &ctx(0, &topo), &mut out);
            let (sends, dels) = actions(&mut out);
            queue.extend(sends);
            delivered.extend(dels);
        }
        assert_eq!(delivered, vec![a.id, b.id], "deterministic (sorted) order");
    }
}
