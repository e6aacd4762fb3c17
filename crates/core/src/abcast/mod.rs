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

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Duration;
use wamcast_consensus::{ConsensusMsg, GroupConsensus, MsgSink};
use wamcast_types::{
    shared_ids, AppMessage, BatchConfig, Context, FxHashMap, GroupId, IdSet, MessageId, Outbox,
    ProcessId, Protocol, SharedBatch,
};

/// A round's message bundle — the value one consensus instance decides and
/// one `(K, msgSet)` exchange ships. `Arc`-shared ([`SharedBatch`]): the
/// intra-group `Accept`/`Accepted`/`Decide` fan-out and the inter-group
/// bundle broadcast clone a refcount, never the messages, so a 64-message
/// round costs one allocation however many processes it reaches.
///
/// Every bundle a process builds or holds is *normal*: strictly ascending
/// by id, so sorted and duplicate-free. Proposals are sorted when built,
/// [`merge_bundles`] keeps normal inputs normal, and a decided or received
/// bundle that is not normal is normalized once before it is held.
pub type RoundBundle = SharedBatch<AppMessage>;

/// Whether `msgs` is strictly ascending by id.
fn is_normal(msgs: &[AppMessage]) -> bool {
    msgs.windows(2).all(|w| w[0].id < w[1].id)
}

/// Makes `bundle` normal: sorted by id, keeping the first copy of each id.
/// Touches neither the allocator nor a shared copy when it already is.
fn normalize(bundle: &mut RoundBundle) {
    if !is_normal(bundle) {
        let v = Arc::make_mut(bundle);
        v.sort_by_key(|m| m.id);
        v.dedup_by_key(|m| m.id);
    }
}

/// Union-by-id combiner installed on the consensus engine: bundles
/// forwarded by other members fold into the coordinator's round proposal,
/// so one round carries every message any group member has R-Delivered.
///
/// A linear merge: on normal inputs the result is their normal union, the
/// accumulator's copy winning a shared id. When `more` adds nothing — every
/// forward after the first — `acc` is left as is, the allocator untouched.
/// Inputs that are not normal still yield every message of both (possibly
/// unsorted, possibly repeated), which the decided value's normalization
/// in `advance` then fixes.
pub fn merge_bundles(acc: &mut RoundBundle, more: RoundBundle) {
    let mut i = 0;
    let adds = more.iter().any(|m| {
        while i < acc.len() && acc[i].id < m.id {
            i += 1;
        }
        i == acc.len() || acc[i].id != m.id
    });
    if !adds {
        return;
    }
    let (a, b) = (&acc[..], &more[..]);
    let mut merged = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].id.cmp(&b[j].id) {
            Ordering::Less => {
                merged.push(a[i].clone());
                i += 1;
            }
            Ordering::Greater => {
                merged.push(b[j].clone());
                j += 1;
            }
            Ordering::Equal => {
                merged.push(a[i].clone());
                i += 1;
                j += 1;
            }
        }
    }
    merged.extend_from_slice(&a[i..]);
    merged.extend_from_slice(&b[j..]);
    *acc = RoundBundle::new(merged);
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
    /// The other members of this process's group: every cast's R-MCast
    /// fan-out, shared so a cast costs a refcount.
    peers: Arc<[ProcessId]>,
    /// Every process outside this group: each round's bundle fan-out.
    remote: Arc<[ProcessId]>,
    /// `K`: current round number = consensus instance number.
    k: u64,
    /// `propK`: at most one proposal per instance.
    prop_k: u64,
    /// `Barrier`: the last round this process currently intends to execute.
    barrier: u64,
    /// `RDELIVERED \ ADELIVERED`, with payloads. Point queries, plus one
    /// walk per proposal that sorts what it collects.
    rdelivered: FxHashMap<MessageId, AppMessage>,
    /// Payload bytes pooled in `rdelivered` (incremental, so the byte
    /// trigger costs O(1) per arrival).
    rdelivered_bytes: usize,
    /// `ADELIVERED`: one id per cast, forever — hence ranges.
    adelivered: IdSet,
    /// `Msgs`: received bundles, round → group → normal bundle, for rounds
    /// `>= K` only (nothing reads an older one). The outer map is
    /// point-keyed by round; the inner stays ordered because
    /// `finish_round` merges it.
    bundles: FxHashMap<u64, BTreeMap<GroupId, RoundBundle>>,
    /// Round whose own bundle is decided and sent; waiting for the others.
    waiting_bundles: Option<u64>,
    cons: GroupConsensus<RoundBundle>,
    buffered_decisions: FxHashMap<u64, RoundBundle>,
    /// Ids already relayed after their caster's crash.
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
            peers: shared_ids(members.iter().copied().filter(|&q| q != me)),
            remote: shared_ids(topo.processes().filter(|&q| topo.group_of(q) != group)),
            k: 1,
            prop_k: 1,
            barrier: 0,
            rdelivered: FxHashMap::default(),
            rdelivered_bytes: 0,
            adelivered: IdSet::new(),
            bundles: FxHashMap::default(),
            waiting_bundles: None,
            cons: GroupConsensus::new(me, members).with_merge(merge_bundles),
            buffered_decisions: FxHashMap::default(),
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

    /// Debug/inspection: rounds for which this process holds a bundle. A
    /// round's bundles are dropped when it finishes, and a late or
    /// duplicate copy for a finished round is never stored, so this is 0
    /// whenever the process is idle.
    pub fn rounds_held(&self) -> usize {
        self.bundles.len()
    }

    /// Debug/inspection: decided consensus instances this process still
    /// holds. A round's instance is forgotten once every group member has
    /// finished the round, so this stays small however many rounds ran.
    pub fn decisions_held(&self) -> usize {
        self.cons.decisions_held()
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
        // Sort-at-use: ids are unique, so this is exactly the ascending
        // list an ordered map would yield — a normal bundle.
        let mut msgs: Vec<AppMessage> = self.rdelivered.values().cloned().collect();
        msgs.sort_unstable_by_key(|m| m.id);
        let proposal = RoundBundle::new(msgs);
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
                shared_ids(unacked.iter().copied()),
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
                // Merged proposals of normal bundles decide a normal
                // value, shared as is with the consensus engine (which
                // keeps a handle for Decide catch-up replies) and every
                // fan-out below. Anything else is copied and normalized
                // once here.
                normalize(&mut decided);
                // Line 15: send (K, msgSet′) to every process outside our
                // group.
                if self.retry.is_some() {
                    let unacked: BTreeSet<ProcessId> = self
                        .remote
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
                    Arc::clone(&self.remote),
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
        let bundles: Vec<RoundBundle> = self
            .bundles
            .remove(&round)
            .expect("round complete")
            .into_values()
            .collect();
        // Every held bundle is normal, so ascending id order over their
        // union is a merge of the per-group heads. A shared id is taken
        // from the lowest group that has it, and only messages not yet
        // A-Delivered are copied out.
        let mut heads = vec![0; bundles.len()];
        let mut useful = false;
        loop {
            let mut next: Option<&AppMessage> = None;
            for (b, &h) in bundles.iter().zip(&heads) {
                if let Some(m) = b.get(h) {
                    if next.map_or(true, |n| m.id < n.id) {
                        next = Some(m);
                    }
                }
            }
            let Some(m) = next else { break };
            let id = m.id;
            if self.adelivered.insert(id) {
                if let Some(pooled) = self.rdelivered.remove(&id) {
                    self.rdelivered_bytes -= pooled.payload.len();
                }
                out.deliver(m.clone());
                useful = true;
            }
            for (b, h) in bundles.iter().zip(&mut heads) {
                if b.get(*h).is_some_and(|m| m.id == id) {
                    *h += 1;
                }
            }
        }
        self.waiting_bundles = None;
        self.k += 1; // line 21
        self.cons.advance_floor(self.k);
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
        out.send_many(Arc::clone(&self.peers), BroadcastMsg::Rm(msg.clone()));
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
            BroadcastMsg::Bundle { round, mut msgs } => {
                // Retry mode: ack every copy (the sender may have missed an
                // earlier ack) before processing.
                if self.retry.is_some() {
                    out.send(from, BroadcastMsg::BundleAck { round });
                }
                // Lines 8–10: store the bundle, normalized, and raise the
                // barrier — this is what wakes a quiescent group up. A
                // copy for a round already finished (a retransmission or a
                // duplicate) is not stored: nothing would ever read it.
                if round >= self.k {
                    let sender_group = ctx.topology().group_of(from);
                    self.bundles
                        .entry(round)
                        .or_default()
                        .entry(sender_group)
                        .or_insert_with(|| {
                            normalize(&mut msgs);
                            msgs
                        });
                }
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
        // Intra-group relay of the crashed caster's messages that this
        // process still holds, once each in ascending id order: those
        // R-Delivered and not yet A-Delivered here, and those in a round
        // bundle its group's consensus still holds (reliable multicast
        // agreement). Any other was A-Delivered in a round below the group
        // floor, which every member of the group has finished.
        let mut held: Vec<&AppMessage> = self
            .rdelivered
            .values()
            .chain(self.cons.held_decisions().flat_map(|bundle| bundle.iter()))
            .filter(|m| m.id.origin == crashed && !self.relayed.contains(m.id))
            .collect();
        if !held.is_empty() {
            held.sort_unstable_by_key(|m| m.id);
            held.dedup_by_key(|m| m.id);
            let peers = shared_ids(self.peers.iter().copied().filter(|&q| q != crashed));
            for m in held {
                self.relayed.insert(m.id);
                out.send_many(Arc::clone(&peers), BroadcastMsg::Rm(m.clone()));
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
                    sends.extend(tos.iter().map(|&to| (to, (*msg).clone())))
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

    /// Feeds `rb` (process `me`) its own self-addressed sends until none
    /// are left, starting from what `out` holds; returns what it delivered.
    /// Sends to other processes are dropped.
    fn settle(
        rb: &mut RoundBroadcast,
        me: ProcessId,
        topo: &Arc<Topology>,
        out: &mut Outbox<BroadcastMsg>,
    ) -> Vec<MessageId> {
        let (mut queue, mut delivered) = actions(out);
        while let Some((to, w)) = queue.pop() {
            if to != me {
                continue;
            }
            let mut out = Outbox::new();
            rb.on_message(me, w, &ctx(me.0, topo), &mut out);
            let (sends, dels) = actions(&mut out);
            queue.extend(sends);
            delivered.extend(dels);
        }
        delivered
    }

    #[test]
    fn a_bundle_for_a_finished_round_is_acked_and_not_held() {
        let topo = Arc::new(Topology::symmetric(2, 1));
        let mut rb =
            RoundBroadcast::new(ProcessId(0), &topo).with_retry(Duration::from_millis(250));
        let bundle = || BroadcastMsg::Bundle {
            round: 1,
            msgs: RoundBundle::new(vec![]),
        };
        // Round 1: p1's (empty) bundle wakes p0, which runs its own round
        // and finishes it.
        let mut out = Outbox::new();
        rb.on_message(ProcessId(1), bundle(), &ctx(0, &topo), &mut out);
        settle(&mut rb, ProcessId(0), &topo, &mut out);
        assert_eq!(rb.round(), 2, "round 1 finished");
        assert!(rb.is_idle());
        assert_eq!(rb.rounds_held(), 0);
        // A retransmitted copy of p1's round-1 bundle: acked, not kept.
        let mut out = Outbox::new();
        rb.on_message(ProcessId(1), bundle(), &ctx(0, &topo), &mut out);
        let (sends, delivers) = actions(&mut out);
        assert!(delivers.is_empty());
        assert!(sends
            .iter()
            .any(|(to, m)| *to == ProcessId(1) && *m == BroadcastMsg::BundleAck { round: 1 }));
        assert_eq!(rb.rounds_held(), 0, "a finished round's copy is dropped");
        assert!(rb.is_idle());
    }

    /// The reference bundle union: every message of the inputs in id
    /// order, one per id, the earliest copy winning (stable sort, dedup).
    fn reference_union<'a>(parts: impl IntoIterator<Item = &'a [AppMessage]>) -> Vec<AppMessage> {
        let mut all: Vec<AppMessage> = parts.into_iter().flatten().cloned().collect();
        all.sort_by_key(|m| m.id);
        all.dedup_by_key(|m| m.id);
        all
    }

    /// A message of `origin` whose payload tags which copy it is.
    fn tagged(origin: u64, seq: u64, tag: u8, topo: &Topology) -> AppMessage {
        AppMessage::new(
            MessageId::new(ProcessId(origin as u32), seq),
            topo.all_groups(),
            Payload::from(vec![tag]),
        )
    }

    /// Up to `max` messages drawn from a 4 × 8 id universe: random order,
    /// repeats allowed.
    fn draw(
        rng: &mut wamcast_types::SplitMix64,
        max: u64,
        tag: u8,
        topo: &Topology,
    ) -> Vec<AppMessage> {
        (0..rng.next_below(max + 1))
            .map(|_| tagged(rng.next_below(4), rng.next_below(8), tag, topo))
            .collect()
    }

    #[test]
    fn merge_and_round_delivery_match_the_sort_and_dedup_definition() {
        let mut rng = wamcast_types::SplitMix64::new(0xA2D1E7);
        let topo4 = Topology::symmetric(4, 1);
        for case in 0..1_000 {
            // (1) merge_bundles on normal inputs: the normal union, the
            // accumulator's copy winning, and no new batch if `more` adds
            // nothing.
            let acc_msgs = reference_union([&draw(&mut rng, 12, 0, &topo4)[..]]);
            let more_msgs = if rng.next_below(4) == 0 {
                acc_msgs
                    .iter()
                    .filter(|_| rng.next_below(2) == 0)
                    .cloned()
                    .collect()
            } else {
                reference_union([&draw(&mut rng, 12, 1, &topo4)[..]])
            };
            let mut acc = RoundBundle::new(acc_msgs.clone());
            let before = Arc::clone(&acc);
            merge_bundles(&mut acc, RoundBundle::new(more_msgs.clone()));
            let want = reference_union([&acc_msgs[..], &more_msgs[..]]);
            assert_eq!(*acc, want, "case {case}: merge");
            let adds = more_msgs
                .iter()
                .any(|m| !acc_msgs.iter().any(|a| a.id == m.id));
            assert_eq!(Arc::ptr_eq(&acc, &before), !adds, "case {case}: fast path");
            // Inputs that are not normal lose no message.
            let (raw_a, raw_b) = (draw(&mut rng, 8, 0, &topo4), draw(&mut rng, 8, 1, &topo4));
            let mut acc = RoundBundle::new(raw_a.clone());
            merge_bundles(&mut acc, RoundBundle::new(raw_b.clone()));
            normalize(&mut acc);
            let ids = |v: &[AppMessage]| v.iter().map(|m| m.id).collect::<Vec<_>>();
            assert_eq!(
                ids(&acc),
                ids(&reference_union([&raw_a[..], &raw_b[..]])),
                "case {case}: unsorted merge"
            );

            // (2) One round at p0 of k single-process groups: remote
            // bundles (unsorted, repeated ids, duplicate copies) and p0's
            // own proposal arrive in random order; p0 delivers the union
            // of the bundles minus what it had A-Delivered, sorted and
            // deduplicated.
            let k = rng.next_range(2, 4) as usize;
            let topo = Arc::new(Topology::symmetric(k, 1));
            let me = ProcessId(0);
            let mut rb = RoundBroadcast::with_pacing(me, &topo, Duration::from_millis(10));
            let done = draw(&mut rng, 4, 9, &topo);
            for m in &done {
                rb.adelivered.insert(m.id);
            }
            let mut out = Outbox::new();
            let own = draw(&mut rng, 6, 0, &topo);
            for m in &own {
                rb.on_rdeliver(m.clone(), &ctx(0, &topo), &mut out);
            }
            // Events: `None` fires p0's pacing timer, `Some(g)` delivers
            // group g's bundle (sometimes twice).
            let remote: Vec<Vec<AppMessage>> = (1..k)
                .map(|g| {
                    let mut b = draw(&mut rng, 6, g as u8, &topo);
                    if rng.next_below(3) == 0 {
                        b = reference_union([&b[..]]);
                    }
                    b
                })
                .collect();
            let mut events: Vec<Option<usize>> = vec![None];
            for g in 1..k {
                events.push(Some(g));
                if rng.next_below(3) == 0 {
                    events.push(Some(g));
                }
            }
            for i in (1..events.len()).rev() {
                events.swap(i, rng.next_below(i as u64 + 1) as usize);
            }
            let mut delivered = settle(&mut rb, me, &topo, &mut out);
            for e in events.into_iter().map(Some).chain([None]) {
                let mut out = Outbox::new();
                match e {
                    Some(Some(g)) => rb.on_message(
                        ProcessId(g as u32),
                        BroadcastMsg::Bundle {
                            round: 1,
                            msgs: RoundBundle::new(remote[g - 1].clone()),
                        },
                        &ctx(0, &topo),
                        &mut out,
                    ),
                    // The trailing extra firing covers a timer that
                    // fired before anything made round 1 due.
                    Some(None) | None if rb.round() == 1 => {
                        rb.on_timer(PACING_TIMER, &ctx(0, &topo), &mut out)
                    }
                    _ => {}
                }
                delivered.extend(settle(&mut rb, me, &topo, &mut out));
            }
            assert_eq!(rb.round(), 2, "case {case}: round 1 finished");
            let want: Vec<MessageId> =
                reference_union(std::iter::once(&own[..]).chain(remote.iter().map(|b| &b[..])))
                    .iter()
                    .map(|m| m.id)
                    .filter(|id| !done.iter().any(|d| d.id == *id))
                    .collect();
            assert_eq!(delivered, want, "case {case}: round delivery");
            assert!(rb.rdelivered.is_empty(), "case {case}: pool drained");
            assert_eq!(rb.rdelivered_bytes, 0, "case {case}");
            assert_eq!(rb.rounds_held(), 0, "case {case}: nothing held");
        }
    }
}
