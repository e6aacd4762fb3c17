//! Algorithm A1: genuine atomic multicast (§4 of the paper).
//!
//! Every multicast message is assigned a timestamp on which all destination
//! groups agree; messages are A-Delivered in timestamp order (ties broken by
//! message id). Inside each group, a logical clock `K` doubles as the
//! consensus instance counter; consensus keeps the group's clock consistent.
//! A message `m` moves through four stages:
//!
//! * **s0** — each destination group runs consensus to fix its timestamp
//!   *proposal* for `m` (the deciding instance number `K` is the proposal);
//! * **s1** — groups exchange proposals in `(TS, m)` messages; the final
//!   timestamp is the maximum proposal;
//! * **s2** — groups whose proposal was below the maximum run one more
//!   consensus instance to push their clock past the final timestamp;
//! * **s3** — `m` is A-Deliverable; it is A-Delivered once it has the
//!   smallest `(ts, id)` among all pending messages.
//!
//! The paper's optimizations over Fritzke et al. \[5\] (both controlled by
//! [`MulticastConfig::skip_stages`]):
//!
//! * a message addressed to a **single group** jumps from s0 directly to s3
//!   (lines 28–29) — no proposal exchange, no second consensus;
//! * a group whose proposal **equals the maximum** skips s2 (line 35) — its
//!   clock is already past the final timestamp.
//!
//! Latency degree: 2 for `|m.dest| > 1` (R-MCast across groups, then one
//! proposal exchange), matching the lower bound of Proposition 3.1; 0 or 1
//! for single-group messages (0 when the caster is in the destination
//! group).
//!
//! # Batching (consensus amortization)
//!
//! The algorithm's `msgSet` proposals already decide *sets* of messages;
//! [`MulticastConfig::batch`] controls how large those sets are allowed to
//! grow before a consensus instance is spent on them. With batching
//! disabled (the default, the paper's schedule) every R-Delivery proposes
//! immediately; with a [`BatchConfig`] installed, messages entering stage
//! s0 (fresh) or s2 (clock catch-up) pool until a size/byte trigger fires
//! or the flush timer closes the window — consensus instances are *paced*
//! — and the `(TS, m)` exchange of line 24 ships one message per remote
//! process carrying the whole decided batch instead of one per entry. The
//! per-message machinery (`ts` = deciding instance, per-entry stages, the
//! `(ts, id)` delivery rule and the single-group s0→s3 skip) is untouched,
//! so every §2.2 ordering invariant and latency-degree result holds under
//! any batch policy (timers are local events, free under the §2.3 clock).
//! Note that batching regroups consensus instances, so timestamps — and
//! hence the specific total order among concurrent messages — may differ
//! from the eager schedule's, as with any scheduling change; the price is
//! wall-clock queueing delay, bounded by one batch window per consensus
//! stage. See `DESIGN.md` §"Batching layer".

pub mod nongenuine;

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::time::Duration;
use wamcast_consensus::{ConsensusMsg, GroupConsensus, MsgSink};
use wamcast_rmcast::{RmcastEngine, RmcastMsg, RmcastOut, UniformRmcastEngine};
use wamcast_types::{
    AppMessage, BatchConfig, Context, FxHashMap, FxHashSet, GroupId, IdSet, MessageId, Outbox,
    ProcessId, Protocol,
};

/// Timer token of the batch flush timer (see [`MulticastConfig::batch`]).
const FLUSH_TIMER: u64 = 1;
/// Timer token of the loss-recovery retransmission timer (see
/// [`MulticastConfig::retry`]).
const RETRY_TIMER: u64 = 2;

/// The stage of a pending message (§4.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// Waiting for this group's timestamp proposal (consensus pending).
    S0,
    /// Proposal fixed; waiting for the other destination groups' proposals.
    S1,
    /// Final timestamp known but group clock behind; second consensus runs.
    S2,
    /// Final timestamp agreed; deliverable when minimal.
    S3,
}

/// A shared, immutable `msgSet` batch — what one consensus instance
/// decides. Cloning is a refcount bump ([`wamcast_types::SharedBatch`]),
/// which keeps large batches cheap on the intra-group `Accept`/`Accepted`
/// fan-out and on the inter-group `(TS, batch)` exchange.
pub type MsgBatch = wamcast_types::SharedBatch<MsgEntry>;

/// One message together with its protocol fields — the unit that consensus
/// decides on (`msgSet` entries carry `dest`, `id`, `ts` and `stage`; §4.2).
#[derive(Clone, Debug, PartialEq)]
pub struct MsgEntry {
    /// The application message (id, destination groups, payload).
    pub msg: AppMessage,
    /// Current timestamp (`m.ts`).
    pub ts: u64,
    /// Current stage (`m.stage`).
    pub stage: Stage,
}

/// Wire messages of Algorithm A1.
#[derive(Clone, Debug, PartialEq)]
pub enum MulticastMsg {
    /// Reliable-multicast dissemination of the application message.
    Rm(RmcastMsg),
    /// Intra-group consensus traffic. The decided value is a shared
    /// (`Arc`) batch of entries so fanning an `Accept`/`Accepted` carrying
    /// a large batch to every member costs a refcount, not a deep copy.
    Cons(ConsensusMsg<MsgBatch>),
    /// `(TS, m)` for every entry in the batch: the sender's group proposes
    /// `entry.ts` as each `m`'s timestamp (line 24). Also serves to
    /// propagate the messages themselves (footnote 4). Entries decided by
    /// one consensus instance share one wire message per remote process —
    /// the inter-group half of the batching layer — and the batch itself is
    /// `Arc`-shared across the destination group's members.
    Ts(MsgBatch),
    /// Retry mode only: a retransmitted `(TS, m)` from a process still
    /// waiting for the receiver's group's proposal. Processed exactly like
    /// [`Ts`](Self::Ts), but a receiver that has already fixed (and
    /// possibly forgotten, post-delivery) its group's proposal answers
    /// directly with a plain `Ts` — the original exchange partner may long
    /// since have resolved and moved on. Replies are never nudges, so two
    /// settled processes can never ping-pong.
    TsNudge(MsgBatch),
}

/// Configuration of [`GenuineMulticast`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MulticastConfig {
    /// `true` — the paper's A1 (single-group messages jump s0→s3; groups
    /// whose proposal is the maximum skip s2). `false` — the Fritzke et
    /// al. \[5\] baseline: every message runs both consensus stages.
    pub skip_stages: bool,
    /// `false` (the paper's A1) — disseminate with the **non-uniform**
    /// reliable multicast (deliver on first receipt, latency degree 1).
    /// `true` — use the uniform primitive instead (majority relay, latency
    /// degree 2), as Fritzke et al. \[5\] originally did. §4.1 presents the
    /// non-uniform choice as one of A1's optimizations; flipping this flag
    /// measures its cost — the overall latency degree grows from 2 to 3.
    pub uniform_dissemination: bool,
    /// Consensus-amortization policy: how many fresh messages may pool
    /// before a consensus instance is spent proposing them (see the
    /// module-level *Batching* section). [`BatchConfig::disabled`] (the
    /// default) reproduces the paper's eager schedule.
    pub batch: BatchConfig,
    /// Loss-recovery retransmission interval. `None` (the default) assumes
    /// the paper's quasi-reliable links and sends nothing twice, keeping
    /// message counts exact. `Some(interval)` arms a periodic timer while
    /// work is in flight, and on each firing retransmits the protocol's
    /// current step at every layer: undecided consensus instances
    /// ([`GroupConsensus::tick`]), unanswered `(TS, m)` proposal exchanges,
    /// and unacked reliable-multicast copies
    /// ([`RmcastEngine::tick`] — the engine runs in ack mode). Required for
    /// liveness under a fault-injection adversary that drops messages; the
    /// timer disarms when no work remains, preserving quiescence.
    /// Incompatible with [`uniform_dissemination`](Self::uniform_dissemination)
    /// (the uniform baseline has no retransmission support);
    /// [`GenuineMulticast::new`] rejects that combination.
    pub retry: Option<Duration>,
}

impl Default for MulticastConfig {
    fn default() -> Self {
        MulticastConfig {
            skip_stages: true,
            uniform_dissemination: false,
            batch: BatchConfig::disabled(),
            retry: None,
        }
    }
}

impl MulticastConfig {
    /// Replaces the batching policy.
    #[must_use]
    pub fn with_batch(mut self, batch: BatchConfig) -> Self {
        self.batch = batch;
        self
    }

    /// Enables loss-recovery retransmission with the given interval (see
    /// [`retry`](Self::retry)).
    #[must_use]
    pub fn with_retry(mut self, interval: Duration) -> Self {
        self.retry = Some(interval);
        self
    }
}

/// Per-message pending state.
#[derive(Clone, Debug)]
struct Pending {
    msg: AppMessage,
    ts: u64,
    stage: Stage,
    /// Timestamp proposals received from other groups via `(TS, m)`.
    /// A message addresses at most a handful of groups, so a flat vector
    /// beats any tree/hash map: lookups are a short linear scan.
    remote_proposals: Vec<(GroupId, u64)>,
}

impl Pending {
    /// The recorded proposal of group `g`, if any.
    fn proposal_of(&self, g: GroupId) -> Option<u64> {
        self.remote_proposals
            .iter()
            .find(|&&(pg, _)| pg == g)
            .map(|&(_, ts)| ts)
    }

    /// Records (or overwrites) group `g`'s proposal.
    fn set_proposal(&mut self, g: GroupId, ts: u64) {
        match self.remote_proposals.iter_mut().find(|(pg, _)| *pg == g) {
            Some(slot) => slot.1 = ts,
            None => self.remote_proposals.push((g, ts)),
        }
    }
}

/// Algorithm A1 — genuine atomic multicast (code of process p, §4.2).
///
/// Construct one instance per process with [`new`](Self::new) and host it on
/// a runtime; see the crate docs of `wamcast-sim` for an end-to-end example.
#[derive(Debug)]
pub struct GenuineMulticast {
    me: ProcessId,
    group: GroupId,
    cfg: MulticastConfig,
    /// `K`: this process's copy of the group clock, also the next consensus
    /// instance number.
    k: u64,
    /// `propK`: at most one proposal per instance (line 17).
    prop_k: u64,
    /// Point-query only; ordered walks go through `by_ts`, `unproposed`
    /// and `s1_waiting`.
    pending: FxHashMap<MessageId, Pending>,
    /// Delivery-order index over `pending`: a min-heap of `(ts, id)` pairs
    /// with *lazy deletion*. A message's timestamp only ever grows, so a
    /// re-timestamp pushes the new pair and leaves the old one to be
    /// recognized as stale (no longer matching `pending`) and skipped when
    /// it surfaces at the top. Heap pushes beat the tree-rebalance cost of
    /// the `BTreeSet` this replaces, and the line-3 minimality test stays
    /// O(log n) amortized per delivery.
    by_ts: BinaryHeap<Reverse<(u64, MessageId)>>,
    /// Pending stage-s0/s2 messages — the unproposed batch, and exactly the
    /// `msgSet` the next consensus proposal carries. Unordered; the propose
    /// path sorts the batch it builds (the only ordered consumer).
    unproposed: FxHashSet<MessageId>,
    /// Stage index over `pending`: the messages currently in stage s1
    /// (proposal exchanged, remote proposals outstanding). Retry-mode
    /// retransmission re-sends `(TS, m)` for exactly these, so a tick
    /// walks this set instead of scanning the whole pending pool.
    /// Unordered; the (rare) retransmission walk sorts its snapshot.
    s1_waiting: FxHashSet<MessageId>,
    /// Payload bytes of the unproposed batch.
    unproposed_bytes: usize,
    /// `ADELIVERED`: one id per cast, forever — hence ranges.
    adelivered: IdSet,
    rmcast: RmcastEngine,
    /// Used instead of `rmcast` when `cfg.uniform_dissemination` is set.
    urmcast: UniformRmcastEngine,
    cons: GroupConsensus<MsgBatch>,
    /// Decisions whose instance number is ahead of `K` (link jitter can
    /// reorder consensus learning across instances).
    buffered_decisions: FxHashMap<u64, MsgBatch>,
    /// Whether a batch flush timer is currently armed.
    flush_armed: bool,
    /// Whether the loss-recovery retransmission timer is currently armed.
    retry_armed: bool,
    /// Retry mode only: this group's `(TS, m)` proposal per message,
    /// remembered past delivery so a stuck remote process re-sending a
    /// stale `(TS, m)` can be answered directly (its own exchange partner
    /// may long since have moved on). Bounded: retention is capped at
    /// [`SENT_PROPOSAL_CAP`] entries, evicted oldest-first (see
    /// `sent_proposal_order`) — a nudge for a message older than the last
    /// `SENT_PROPOSAL_CAP` multicasts goes unanswered here, but nudges
    /// arrive within a message's retransmission lifetime, orders of
    /// magnitude sooner.
    sent_proposals: FxHashMap<MessageId, u64>,
    /// Insertion order of `sent_proposals`, for oldest-first eviction.
    sent_proposal_order: std::collections::VecDeque<MessageId>,
    /// Reusable buffer for reliable-multicast engine calls: taken at the
    /// start of a handler, drained by `flush_rmcast`, put back after — no
    /// allocation per message event.
    rm_buf: RmcastOut,
    /// Reusable buffer for consensus engine calls (same pattern).
    sink_buf: MsgSink<MsgBatch>,
    /// Reusable staging buffer for freshly decided consensus instances
    /// (`drain_decisions`); same take/put-back pattern as `sink_buf`, so a
    /// re-entrant drain (decision → propose → decision) falls back to a
    /// fresh vector instead of corrupting the outer frame's.
    dec_buf: Vec<(u64, MsgBatch)>,
    /// Reusable scratch: `process_decision`'s sorted index over the
    /// decided batch.
    order_buf: Vec<usize>,
    /// Reusable scratch: the ids a decision moved into stage s1.
    entered_s1_buf: Vec<MessageId>,
    /// Reusable scratch: per-destination-group `(TS, batch)` staging. Only
    /// the outer vector's capacity is reusable — each inner entry vector
    /// is consumed by the shared batch it becomes.
    ts_batches_buf: Vec<(GroupId, Vec<MsgEntry>)>,
}

/// Retention cap for [`GenuineMulticast`]'s remembered `(TS, m)` proposals
/// (retry mode): large relative to any realistic in-flight window, small
/// enough that long-running deployments do not leak.
const SENT_PROPOSAL_CAP: usize = 4096;

/// Union-by-id combiner installed on the consensus engine: forwarded
/// `msgSet` batches fold into the coordinator's proposal, so one instance
/// decides every message any group member has disseminated. Copy-on-write
/// over the shared batch — public so the engine benchmarks can measure
/// the batch-merge hot path directly.
pub fn merge_msg_sets(acc: &mut MsgBatch, more: MsgBatch) {
    // Batches are small (bounded by the batch policy), so linear id scans
    // beat building a lookup set; the all-duplicates fast path — every
    // copy after the first forward — touches no allocator at all, and
    // `make_mut` copies only when something genuinely appends.
    if more
        .iter()
        .all(|e| acc.iter().any(|a| a.msg.id == e.msg.id))
    {
        return;
    }
    let merged = std::sync::Arc::make_mut(acc);
    for e in more.iter() {
        if !merged.iter().any(|a| a.msg.id == e.msg.id) {
            merged.push(e.clone());
        }
    }
}

impl GenuineMulticast {
    /// Creates the protocol instance for process `me` of `topo`.
    ///
    /// # Panics
    ///
    /// Panics if the config combines `retry` with `uniform_dissemination`:
    /// only the non-uniform engine implements ack-based retransmission, so
    /// that combination would silently lose liveness under message loss
    /// (the uniform baseline exists for clean-link cost comparisons only).
    pub fn new(me: ProcessId, topo: &wamcast_types::Topology, cfg: MulticastConfig) -> Self {
        assert!(
            !(cfg.retry.is_some() && cfg.uniform_dissemination),
            "retry mode requires the non-uniform dissemination engine \
             (UniformRmcastEngine has no retransmission support)"
        );
        let group = topo.group_of(me);
        let members = topo.members(group).to_vec();
        let rmcast = if cfg.retry.is_some() {
            RmcastEngine::new(me).with_acks()
        } else {
            RmcastEngine::new(me)
        };
        GenuineMulticast {
            me,
            group,
            cfg,
            k: 1,
            prop_k: 1,
            pending: FxHashMap::default(),
            by_ts: BinaryHeap::new(),
            unproposed: FxHashSet::default(),
            s1_waiting: FxHashSet::default(),
            unproposed_bytes: 0,
            adelivered: IdSet::new(),
            rmcast,
            urmcast: UniformRmcastEngine::new(me),
            cons: GroupConsensus::new(me, members).with_merge(merge_msg_sets),
            buffered_decisions: FxHashMap::default(),
            flush_armed: false,
            retry_armed: false,
            sent_proposals: FxHashMap::default(),
            sent_proposal_order: std::collections::VecDeque::new(),
            rm_buf: RmcastOut::new(),
            sink_buf: MsgSink::new(),
            dec_buf: Vec::new(),
            order_buf: Vec::new(),
            entered_s1_buf: Vec::new(),
            ts_batches_buf: Vec::new(),
        }
    }

    /// Records this group's s1 proposal for `id`, evicting the oldest
    /// entry beyond [`SENT_PROPOSAL_CAP`].
    fn record_sent_proposal(&mut self, id: MessageId, ts: u64) {
        if self.sent_proposals.insert(id, ts).is_none() {
            self.sent_proposal_order.push_back(id);
            if self.sent_proposal_order.len() > SENT_PROPOSAL_CAP {
                if let Some(old) = self.sent_proposal_order.pop_front() {
                    self.sent_proposals.remove(&old);
                }
            }
        }
    }

    /// The current group clock value (`K`), exposed for tests/inspection.
    pub fn clock(&self) -> u64 {
        self.k
    }

    /// Number of messages currently pending (not yet A-Delivered).
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    // ------------------------------------------------------------------
    // Plumbing: route sub-engine output into the host outbox.
    // ------------------------------------------------------------------

    fn flush_rmcast(
        &mut self,
        rm_out: &mut RmcastOut,
        ctx: &Context,
        out: &mut Outbox<MulticastMsg>,
    ) {
        for (to, m) in rm_out.sends.drain(..) {
            out.send(to, MulticastMsg::Rm(m));
        }
        for m in rm_out.delivered.drain(..) {
            self.on_rdeliver(m, ctx, out);
        }
    }

    fn flush_cons(
        &mut self,
        sink: &mut MsgSink<MsgBatch>,
        ctx: &Context,
        out: &mut Outbox<MulticastMsg>,
    ) {
        for (to, m) in sink.msgs.drain(..) {
            out.send(to, MulticastMsg::Cons(m));
        }
        self.drain_decisions(ctx, out);
    }

    // ------------------------------------------------------------------
    // Algorithm A1, line by line.
    // ------------------------------------------------------------------

    /// Lines 10–13: on R-Deliver(m) or receive(TS, m) with m fresh, add m to
    /// PENDING in stage s0 with the current clock as provisional timestamp.
    fn on_rdeliver(&mut self, m: AppMessage, ctx: &Context, out: &mut Outbox<MulticastMsg>) {
        if self.pending.contains_key(&m.id) || self.adelivered.contains(m.id) {
            return;
        }
        self.by_ts.push(Reverse((self.k, m.id)));
        self.unproposed.insert(m.id);
        self.unproposed_bytes += m.payload.len();
        self.pending.insert(
            m.id,
            Pending {
                ts: self.k,
                stage: Stage::S0,
                remote_proposals: Vec::new(),
                msg: m,
            },
        );
        self.schedule_propose(ctx, out);
    }

    /// The batching gate in front of [`maybe_propose`](Self::maybe_propose):
    /// propose now if batching is off or a size/byte trigger fired;
    /// otherwise arm the flush timer so the pooled batch is proposed at the
    /// latest `batch.max_delay` from now.
    fn schedule_propose(&mut self, ctx: &Context, out: &mut Outbox<MulticastMsg>) {
        if self.prop_k > self.k {
            // An instance is in flight; `process_decision` re-evaluates the
            // gate as soon as it completes.
            return;
        }
        let batch = self.cfg.batch;
        let (msgs, bytes) = (self.unproposed.len(), self.unproposed_bytes);
        if msgs == 0 {
            return;
        }
        if batch.is_disabled() || batch.should_flush(msgs, bytes) {
            self.maybe_propose(ctx, out);
        } else if !self.flush_armed {
            // Sub-threshold pool: wait, bounded by the flush window
            // (is_disabled() above guarantees max_delay > 0 here, so the
            // pool can never wait forever).
            self.flush_armed = true;
            out.set_timer(batch.max_delay, FLUSH_TIMER);
        }
    }

    /// Lines 14–17: propose every stage-s0/s2 message to the next consensus
    /// instance, at most once per instance.
    fn maybe_propose(&mut self, ctx: &Context, out: &mut Outbox<MulticastMsg>) {
        if self.prop_k > self.k {
            return;
        }
        let mut msg_set: Vec<MsgEntry> = Vec::with_capacity(self.unproposed.len());
        msg_set.extend(self.unproposed.iter().map(|id| {
            let p = &self.pending[id];
            debug_assert!(matches!(p.stage, Stage::S0 | Stage::S2));
            MsgEntry {
                msg: p.msg.clone(),
                ts: p.ts,
                stage: p.stage,
            }
        }));
        if msg_set.is_empty() {
            return;
        }
        // The pool is unordered; the proposal itself is what must be
        // deterministic (ascending id, as the ordered pool produced).
        msg_set.sort_unstable_by_key(|e| e.msg.id);
        let mut sink = std::mem::take(&mut self.sink_buf);
        self.cons.propose(self.k, MsgBatch::new(msg_set), &mut sink);
        self.prop_k = self.k + 1;
        self.flush_cons(&mut sink, ctx, out);
        self.sink_buf = sink;
    }

    /// Pulls decided instances from the consensus engine and processes them
    /// strictly in this process's clock order (Lemma A.1 guarantees all
    /// group members observe the same instance sequence). The loop applies
    /// every *consecutive* ready decision in one pass: a decision for the
    /// current clock is processed, the clock advances, and the next
    /// buffered decision (if already learned) follows immediately —
    /// including decisions learned re-entrantly while one was processed.
    fn drain_decisions(&mut self, ctx: &Context, out: &mut Outbox<MulticastMsg>) {
        let mut buf = std::mem::take(&mut self.dec_buf);
        self.cons.drain_decisions_into(&mut buf);
        for (k, v) in buf.drain(..) {
            self.buffered_decisions.insert(k, v);
        }
        // Put the (drained) buffer back *before* processing: a decision
        // handler can re-enter this method via its own propose path.
        self.dec_buf = buf;
        while let Some(msg_set) = self.buffered_decisions.remove(&self.k) {
            self.process_decision(msg_set, ctx, out);
        }
    }

    /// Lines 18–32: handle the decision of instance `K`.
    fn process_decision(
        &mut self,
        msg_set: MsgBatch,
        ctx: &Context,
        out: &mut Outbox<MulticastMsg>,
    ) {
        let k = self.k;
        // The consensus engine keeps its own handle on the decided batch
        // (for Decide catch-up replies), so iterate the shared batch via a
        // sorted index instead of deep-copying it; entries are only cloned
        // where an owned copy genuinely leaves this process (the outbound
        // TS batches, a never-seen message entering `pending`). All
        // per-decision buffers are engine-owned scratch — taken here, put
        // back before any re-entrant call can need them.
        let mut order = std::mem::take(&mut self.order_buf);
        order.extend(0..msg_set.len());
        order.sort_by_key(|&i| msg_set[i].msg.id); // deterministic processing order
        let mut max_ts = 0u64;
        // One (TS, batch) per remote destination group, carrying this
        // decision's stage-s1 entries addressed to it (the batched form of
        // line 24); each member of the group gets an `Arc` handle to the
        // same batch.
        let mut ts_batches = std::mem::take(&mut self.ts_batches_buf);
        // Messages this decision moved into s1; only these can need the
        // post-decision resolution check below (older s1 messages were
        // checked when their TS messages arrived).
        let mut entered_s1 = std::mem::take(&mut self.entered_s1_buf);
        for &i in &order {
            let entry = &msg_set[i];
            let id = entry.msg.id;
            if self.adelivered.contains(id) {
                // Already A-Delivered here (decision learned late); its
                // timestamp no longer matters but keeps the clock monotone.
                max_ts = max_ts.max(entry.ts);
                continue;
            }
            let multi_group = entry.msg.dest.len() > 1;
            let (new_ts, new_stage) = if entry.stage == Stage::S2 {
                // Line 26: second consensus done; the final timestamp
                // (already in `entry.ts`) stands.
                (entry.ts, Stage::S3)
            } else if multi_group {
                // Lines 22–24: this group's proposal is the deciding
                // instance number; exchange it with the other groups.
                if self.cfg.retry.is_some() {
                    self.record_sent_proposal(id, k);
                }
                for g in entry.msg.dest.iter().filter(|&g| g != self.group) {
                    let e = MsgEntry {
                        msg: entry.msg.clone(),
                        ts: k,
                        stage: Stage::S1,
                    };
                    // A message addresses a handful of groups: linear scan
                    // over the staging vector, sorted once at send time.
                    match ts_batches.iter_mut().find(|(pg, _)| *pg == g) {
                        Some((_, batch)) => batch.push(e),
                        None => ts_batches.push((g, vec![e])),
                    }
                }
                (k, Stage::S1)
            } else {
                // Lines 28–29: single destination group — the proposal *is*
                // the final timestamp; no exchange needed, stage s1/s2
                // skipped (paper A1). In Fritzke [5] mode the message still
                // runs the (vacuous) proposal exchange plus the second
                // consensus.
                let stage = if self.cfg.skip_stages {
                    Stage::S3
                } else {
                    Stage::S1
                };
                (k, stage)
            };
            max_ts = max_ts.max(new_ts);
            // Line 30: add the message or update its fields in place
            // (keeping the delivery-order index and batch counters in
            // sync). The decision value may teach us a message we never
            // R-Delivered; an already-pending one keeps its stored body and
            // recorded proposals — only `ts`/`stage` change.
            match self.pending.get_mut(&id) {
                Some(p) => {
                    // A timestamp is monotone over a message's lifetime, so
                    // the old heap pair goes stale on change (lazy
                    // deletion); an unchanged timestamp keeps its live pair.
                    if p.ts != new_ts {
                        self.by_ts.push(Reverse((new_ts, id)));
                    }
                    if matches!(p.stage, Stage::S0 | Stage::S2) && self.unproposed.remove(&id) {
                        self.unproposed_bytes -= p.msg.payload.len();
                    }
                    p.ts = new_ts;
                    p.stage = new_stage;
                }
                None => {
                    self.pending.insert(
                        id,
                        Pending {
                            msg: entry.msg.clone(),
                            ts: new_ts,
                            stage: new_stage,
                            remote_proposals: Vec::new(),
                        },
                    );
                    self.by_ts.push(Reverse((new_ts, id)));
                }
            }
            if new_stage == Stage::S1 {
                entered_s1.push(id);
                self.s1_waiting.insert(id);
            } else {
                self.s1_waiting.remove(&id);
            }
            // Mark as seen so a late R-MCast copy is not re-inserted at s0
            // (the pending/adelivered checks cover the uniform engine).
            if !self.cfg.uniform_dissemination {
                self.rmcast.mark_seen(&entry.msg, ctx.topology());
            }
        }
        order.clear();
        self.order_buf = order;
        // Emission order must match the BTreeMap this staging vector
        // replaced: ascending destination group.
        ts_batches.sort_by_key(|&(g, _)| g);
        for (g, entries) in ts_batches.drain(..) {
            // One wire message per destination *group*, one shared body per
            // member fan-out: the engine clones a refcount per member.
            let batch = MsgBatch::new(entries);
            out.send_many(
                ctx.topology().members(g).iter().copied(),
                MulticastMsg::Ts(batch),
            );
        }
        self.ts_batches_buf = ts_batches;
        // Line 31: K ← max(max decided ts, K) + 1.
        self.k = self.k.max(max_ts) + 1;
        // Freshly-s1 messages whose remote proposals already all arrived
        // can be resolved at once (the TS messages may have beaten our
        // decision, parking their proposals in `remote_proposals`).
        for id in entered_s1.drain(..) {
            self.try_resolve_s1(id, ctx, out);
        }
        self.entered_s1_buf = entered_s1;
        // Line 32 + re-evaluation of the line-14 guard, through the batch
        // gate: the next instance starts when the pool hits a size/byte
        // trigger or the flush timer closes the window. Decisions learned
        // during either call were processed re-entrantly; any the clock was
        // not yet ready for are picked up by `drain_decisions`'s loop.
        self.adelivery_test(out);
        self.schedule_propose(ctx, out);
    }

    /// Lines 33–40: once every other destination group's proposal for `m`
    /// is known, either finalize (own proposal was the maximum: skip s2) or
    /// adopt the maximum and run a second consensus (stage s2).
    fn try_resolve_s1(&mut self, id: MessageId, ctx: &Context, out: &mut Outbox<MulticastMsg>) {
        let Some(p) = self.pending.get(&id) else {
            return;
        };
        if p.stage != Stage::S1 {
            return;
        }
        // One pass over the destination bitset, no allocation: bail on the
        // first group whose proposal is still missing.
        let mut max_remote = 0u64;
        for g in p.msg.dest.iter() {
            if g == self.group {
                continue;
            }
            match p.proposal_of(g) {
                Some(ts) => max_remote = max_remote.max(ts),
                None => return,
            }
        }
        let own = p.ts;
        self.s1_waiting.remove(&id); // leaving s1 either way below
        let p = self.pending.get_mut(&id).expect("checked above");
        if self.cfg.skip_stages && own >= max_remote {
            // Line 35–36: our clock is already past the final timestamp
            // (`ts` is unchanged, so the delivery-order index is too).
            p.stage = Stage::S3;
            self.adelivery_test(out);
        } else {
            // Lines 39–40 (or Fritzke mode: always run the second
            // consensus, even when own == max). The fresh s2 entry joins
            // the unproposed pool; under a batch policy it rides the open
            // window (bounded by `max_delay`) like any other entry.
            p.ts = own.max(max_remote);
            p.stage = Stage::S2;
            let (new_ts, bytes) = (p.ts, p.msg.payload.len());
            if new_ts != own {
                self.by_ts.push(Reverse((new_ts, id)));
            }
            self.unproposed.insert(id);
            self.unproposed_bytes += bytes;
            self.schedule_propose(ctx, out);
        }
    }

    /// Lines 33–40 entry point shared by `Ts` and `TsNudge`: record the
    /// sender group's proposal (disclosing `m` per line 10), try to resolve
    /// stage s1, and — for nudges — answer with this group's own proposal
    /// if it was ever fixed.
    fn on_ts(
        &mut self,
        from: ProcessId,
        entries: &MsgBatch,
        nudge: bool,
        ctx: &Context,
        out: &mut Outbox<MulticastMsg>,
    ) {
        let sender_group = ctx.topology().group_of(from);
        let mut replies: Vec<MsgEntry> = Vec::new();
        for entry in entries.iter() {
            let id = entry.msg.id;
            // One hash probe classifies the entry; the duplicate-copy fast
            // path (every member of the deciding group sends the same
            // (TS, batch), so all but the first copy find the proposal
            // already recorded, or the message long A-Delivered, and
            // nothing below could change any state) skips the re-walk.
            // Nudges still fall through: they may need a reply even when
            // nothing changes locally.
            match self.pending.get_mut(&id) {
                Some(p) => {
                    if !nudge && p.proposal_of(sender_group) == Some(entry.ts) {
                        continue;
                    }
                    p.set_proposal(sender_group, entry.ts);
                }
                None if self.adelivered.contains(id) => {
                    if !nudge {
                        continue;
                    }
                }
                None => {
                    // Line 10: a (TS, m) message also discloses m itself —
                    // this is the only case that needs an owned copy.
                    self.on_rdeliver(entry.msg.clone(), ctx, out);
                    if let Some(p) = self.pending.get_mut(&id) {
                        p.set_proposal(sender_group, entry.ts);
                    }
                }
            }
            self.try_resolve_s1(id, ctx, out);
            if nudge {
                if let Some(&ts) = self.sent_proposals.get(&id) {
                    replies.push(MsgEntry {
                        msg: entry.msg.clone(),
                        ts,
                        stage: Stage::S1,
                    });
                }
            }
        }
        if !replies.is_empty() {
            out.send(from, MulticastMsg::Ts(MsgBatch::new(replies)));
        }
    }

    /// Whether any layer still has work a retransmission could unstick.
    fn has_retry_work(&self) -> bool {
        !self.pending.is_empty() || self.rmcast.has_outstanding() || self.cons.has_unfinished()
    }

    /// Debug/inspection: `(pending, rmcast outstanding, consensus
    /// unfinished)` — the three components of the retry-work signal.
    pub fn debug_retry_state(&self) -> (usize, bool, bool) {
        (
            self.pending.len(),
            self.rmcast.has_outstanding(),
            self.cons.has_unfinished(),
        )
    }

    /// Debug/inspection: undecided consensus instances with local state.
    pub fn debug_consensus(&self) -> Vec<(u64, String)> {
        self.cons.debug_unfinished()
    }

    /// Arms the retransmission timer if retry mode is on, work is in
    /// flight, and it is not armed already. Disarmament is implicit: a
    /// firing with no remaining work simply does not re-arm, so finite
    /// workloads stay quiescent.
    fn arm_retry(&mut self, out: &mut Outbox<MulticastMsg>) {
        let Some(interval) = self.cfg.retry else {
            return;
        };
        if self.retry_armed || !self.has_retry_work() {
            return;
        }
        self.retry_armed = true;
        out.set_timer(interval, RETRY_TIMER);
    }

    /// One retransmission round: re-drive undecided consensus instances,
    /// re-send this group's `(TS, m)` proposal for every stage-s1 message
    /// still missing a remote proposal, and re-send unacked
    /// reliable-multicast copies.
    fn retransmit(&mut self, ctx: &Context, out: &mut Outbox<MulticastMsg>) {
        let mut sink = std::mem::take(&mut self.sink_buf);
        self.cons.tick(&mut sink);
        self.flush_cons(&mut sink, ctx, out);
        self.sink_buf = sink;

        // Only stage-s1 messages can be stuck on a lost (TS, m): walk the
        // s1 index (id order, same order the full pending scan produced),
        // not the whole pending pool.
        let mut per_group: BTreeMap<GroupId, Vec<MsgEntry>> = BTreeMap::new();
        let mut stuck: Vec<MessageId> = self.s1_waiting.iter().copied().collect();
        stuck.sort_unstable();
        for id in &stuck {
            let p = &self.pending[id];
            debug_assert_eq!(p.stage, Stage::S1, "s1 index out of sync");
            for g in p.msg.dest.iter() {
                if g == self.group || p.proposal_of(g).is_some() {
                    continue;
                }
                per_group.entry(g).or_default().push(MsgEntry {
                    msg: p.msg.clone(),
                    ts: p.ts,
                    stage: Stage::S1,
                });
            }
        }
        for (g, entries) in per_group {
            let batch = MsgBatch::new(entries);
            out.send_many(
                ctx.topology().members(g).iter().copied(),
                MulticastMsg::TsNudge(batch),
            );
        }

        let mut rm_out = std::mem::take(&mut self.rm_buf);
        self.rmcast.tick(&mut rm_out);
        self.flush_rmcast(&mut rm_out, ctx, out);
        self.rm_buf = rm_out;
    }

    /// Lines 3–7: A-Deliver every stage-s3 message that is minimal in
    /// `(ts, id)` among *all* pending messages. The `(ts, id)` index makes
    /// each minimality test a tree lookup rather than a scan of the whole
    /// pending set.
    fn adelivery_test(&mut self, out: &mut Outbox<MulticastMsg>) {
        loop {
            let Some(&Reverse((min_ts, min_id))) = self.by_ts.peek() else {
                return;
            };
            // Lazy deletion: a pair that no longer matches `pending` is a
            // leftover from a re-timestamp or an earlier delivery — discard
            // and look again. Every pending message's *current* pair is in
            // the heap, so the first live pair is the true minimum.
            let Some(min_p) = self.pending.get(&min_id).filter(|p| p.ts == min_ts) else {
                self.by_ts.pop();
                continue;
            };
            if min_p.stage != Stage::S3 {
                return;
            }
            self.by_ts.pop();
            let p = self.pending.remove(&min_id).expect("present");
            debug_assert!(!self.s1_waiting.contains(&min_id), "delivering s1 msg");
            self.adelivered.insert(min_id);
            out.deliver(p.msg);
        }
    }
}

impl Protocol for GenuineMulticast {
    type Msg = MulticastMsg;

    /// Line 9: to A-MCast `m`, R-MCast it to the processes of `m.dest`.
    fn on_cast(&mut self, msg: AppMessage, ctx: &Context, out: &mut Outbox<MulticastMsg>) {
        debug_assert_eq!(msg.id.origin, self.me);
        let mut rm_out = std::mem::take(&mut self.rm_buf);
        if self.cfg.uniform_dissemination {
            self.urmcast.rmcast(msg, ctx.topology(), &mut rm_out);
        } else {
            self.rmcast.rmcast(msg, ctx.topology(), &mut rm_out);
        }
        self.flush_rmcast(&mut rm_out, ctx, out);
        self.rm_buf = rm_out;
        self.arm_retry(out);
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: MulticastMsg,
        ctx: &Context,
        out: &mut Outbox<MulticastMsg>,
    ) {
        match msg {
            MulticastMsg::Rm(rm) => {
                let mut rm_out = std::mem::take(&mut self.rm_buf);
                if self.cfg.uniform_dissemination {
                    self.urmcast
                        .on_message(from, rm, ctx.topology(), &mut rm_out);
                } else {
                    self.rmcast
                        .on_message(from, rm, ctx.topology(), &mut rm_out);
                }
                self.flush_rmcast(&mut rm_out, ctx, out);
                self.rm_buf = rm_out;
            }
            MulticastMsg::Cons(c) => {
                let mut sink = std::mem::take(&mut self.sink_buf);
                self.cons.on_message(from, c, &mut sink);
                self.flush_cons(&mut sink, ctx, out);
                self.sink_buf = sink;
            }
            MulticastMsg::Ts(entries) => {
                self.on_ts(from, &entries, false, ctx, out);
            }
            MulticastMsg::TsNudge(entries) => {
                self.on_ts(from, &entries, true, ctx, out);
            }
        }
        self.arm_retry(out);
    }

    /// The batch flush timer proposes whatever pooled, even below the
    /// size/byte triggers (the `max_delay` bound of the batching policy);
    /// the retry timer runs a retransmission round.
    fn on_timer(&mut self, kind: u64, ctx: &Context, out: &mut Outbox<MulticastMsg>) {
        match kind {
            FLUSH_TIMER => {
                self.flush_armed = false;
                self.maybe_propose(ctx, out);
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
        out: &mut Outbox<MulticastMsg>,
    ) {
        // Reliable multicast relays messages whose origin crashed (and, in
        // ack mode, stops retransmitting to the crashed process).
        let mut rm_out = std::mem::take(&mut self.rm_buf);
        self.rmcast
            .on_crash_notification(crashed, ctx.topology(), &mut rm_out);
        self.flush_rmcast(&mut rm_out, ctx, out);
        self.rm_buf = rm_out;
        // Consensus re-coordinates if the crashed process led our group.
        if ctx.topology().group_of(crashed) == self.group {
            let mut sink = std::mem::take(&mut self.sink_buf);
            self.cons.on_suspect(crashed, &mut sink);
            self.flush_cons(&mut sink, ctx, out);
            self.sink_buf = sink;
        }
        self.arm_retry(out);
    }

    fn describe_msg(msg: &MulticastMsg) -> Option<wamcast_types::MsgInfo> {
        Some(describe_multicast_msg(msg))
    }
}

/// Classifies an Algorithm A1 wire message for the trace layer: which
/// lifecycle class it belongs to and the cast ids it carries. Shared with
/// the non-genuine variant, whose wire type embeds the same batches.
pub fn describe_multicast_msg(msg: &MulticastMsg) -> wamcast_types::MsgInfo {
    use wamcast_types::{MsgClass, MsgInfo};
    match msg {
        MulticastMsg::Rm(RmcastMsg::Data(m)) => MsgInfo::new(MsgClass::Rmcast, vec![m.id]),
        MulticastMsg::Rm(RmcastMsg::Ack(id)) => MsgInfo::new(MsgClass::Rmcast, vec![*id]),
        MulticastMsg::Cons(c) => {
            let (class, value) = c.trace_class();
            let casts = value
                .map(|b| b.iter().map(|e| e.msg.id).collect())
                .unwrap_or_default();
            MsgInfo::new(class, casts)
        }
        MulticastMsg::Ts(b) | MulticastMsg::TsNudge(b) => {
            MsgInfo::new(MsgClass::Ts, b.iter().map(|e| e.msg.id).collect())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use wamcast_types::{Action, GroupSet, Payload, SimTime, Topology};

    fn ctx(p: u32, topo: &Arc<Topology>) -> Context {
        Context::new(ProcessId(p), Arc::clone(topo), SimTime::ZERO)
    }

    fn msg(origin: u32, seq: u64, groups: &[u16]) -> AppMessage {
        AppMessage::new(
            MessageId::new(ProcessId(origin), seq),
            groups.iter().map(|&g| GroupId(g)).collect::<GroupSet>(),
            Payload::new(),
        )
    }

    fn sends(out: &mut Outbox<MulticastMsg>) -> Vec<(ProcessId, MulticastMsg)> {
        out.drain()
            .filter_map(|a| match a {
                Action::Send { to, msg } => Some((to, msg)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn cast_rmcasts_to_destination_processes_only() {
        let topo = Arc::new(Topology::symmetric(3, 2));
        let mut p0 = GenuineMulticast::new(ProcessId(0), &topo, MulticastConfig::default());
        let mut out = Outbox::new();
        p0.on_cast(msg(0, 0, &[0, 1]), &ctx(0, &topo), &mut out);
        let tos: Vec<ProcessId> = sends(&mut out)
            .into_iter()
            .filter(|(_, m)| matches!(m, MulticastMsg::Rm(_)))
            .map(|(to, _)| to)
            .collect();
        // Data copies go to p1 (own group) and p2, p3 (g1) — never to g2.
        assert_eq!(tos, vec![ProcessId(1), ProcessId(2), ProcessId(3)]);
    }

    #[test]
    fn single_member_group_decides_and_enters_s1() {
        // 2 groups x 1 process: consensus is local, so the cast handler's
        // self-addressed consensus messages drive the instance once fed
        // back. Feed them manually and check m reaches stage S1 with a TS
        // message to the other group.
        let topo = Arc::new(Topology::symmetric(2, 1));
        let mut p0 = GenuineMulticast::new(ProcessId(0), &topo, MulticastConfig::default());
        let mut out = Outbox::new();
        p0.on_cast(msg(0, 0, &[0, 1]), &ctx(0, &topo), &mut out);
        let mut queue = sends(&mut out);
        let mut ts_seen = false;
        let mut guard = 0;
        while let Some((to, m)) = queue.pop() {
            guard += 1;
            assert!(guard < 100);
            if to != ProcessId(0) {
                if let MulticastMsg::Ts(es) = &m {
                    ts_seen = true;
                    assert_eq!(es.len(), 1);
                    assert_eq!(es[0].stage, Stage::S1);
                    assert_eq!(es[0].ts, 1, "proposal = deciding instance number");
                }
                continue; // remote copies not simulated here
            }
            let mut out = Outbox::new();
            p0.on_message(ProcessId(0), m, &ctx(0, &topo), &mut out);
            queue.extend(sends(&mut out));
        }
        assert!(ts_seen, "a (TS, m) message must go to g1");
        assert_eq!(p0.clock(), 2, "K advances past the proposal");
        assert_eq!(p0.pending_len(), 1);
    }

    #[test]
    fn ts_message_discloses_message_and_resolves_s1() {
        // p0 learns m only via (TS, m) from the remote group; after its own
        // group's consensus the remote proposal is already there.
        let topo = Arc::new(Topology::symmetric(2, 1));
        let mut p0 = GenuineMulticast::new(ProcessId(0), &topo, MulticastConfig::default());
        let m = msg(1, 0, &[0, 1]); // cast by p1 (g1)
        let entry = MsgEntry {
            msg: m.clone(),
            ts: 1,
            stage: Stage::S1,
        };
        let mut out = Outbox::new();
        p0.on_message(
            ProcessId(1),
            MulticastMsg::Ts(MsgBatch::new(vec![entry])),
            &ctx(0, &topo),
            &mut out,
        );
        // m is now pending in s0 and proposed to consensus.
        assert_eq!(p0.pending_len(), 1);
        let mut queue = sends(&mut out);
        let mut delivered = false;
        let mut guard = 0;
        while let Some((to, w)) = queue.pop() {
            guard += 1;
            assert!(guard < 100);
            if to != ProcessId(0) {
                continue;
            }
            let mut out = Outbox::new();
            p0.on_message(ProcessId(0), w, &ctx(0, &topo), &mut out);
            for a in out.drain() {
                match a {
                    Action::Send { to, msg } => queue.push((to, msg)),
                    Action::Deliver(d) => {
                        assert_eq!(d.id, m.id);
                        delivered = true;
                    }
                    _ => {}
                }
            }
        }
        // Own proposal (instance 1) equals the remote proposal (1): skip s2
        // and deliver.
        assert!(delivered, "m must be A-Delivered after s1 resolution");
        assert_eq!(p0.pending_len(), 0);
    }

    #[test]
    fn duplicate_rm_copies_are_ignored() {
        let topo = Arc::new(Topology::symmetric(2, 2));
        let mut p2 = GenuineMulticast::new(ProcessId(2), &topo, MulticastConfig::default());
        let m = msg(0, 0, &[0, 1]);
        let wire = MulticastMsg::Rm(wamcast_rmcast::RmcastMsg::Data(m));
        let mut out = Outbox::new();
        p2.on_message(ProcessId(0), wire.clone(), &ctx(2, &topo), &mut out);
        assert_eq!(p2.pending_len(), 1);
        let mut out2 = Outbox::new();
        p2.on_message(ProcessId(1), wire, &ctx(2, &topo), &mut out2);
        assert_eq!(p2.pending_len(), 1, "second copy must not re-add");
        assert!(out2.is_empty(), "no actions for a duplicate");
    }

    #[test]
    fn debug_retry_state_tracks_in_flight_work() {
        let topo = Arc::new(Topology::symmetric(2, 2));
        let cfg = MulticastConfig::default().with_retry(std::time::Duration::from_millis(100));
        let mut p0 = GenuineMulticast::new(ProcessId(0), &topo, cfg);
        assert_eq!(p0.debug_retry_state(), (0, false, false), "fresh: idle");
        assert!(p0.debug_consensus().is_empty());
        let mut out = Outbox::new();
        p0.on_cast(msg(0, 0, &[0, 1]), &ctx(0, &topo), &mut out);
        let (pending, rm_outstanding, _) = p0.debug_retry_state();
        assert_eq!(pending, 1, "cast is pending");
        assert!(rm_outstanding, "ack mode: un-acked copies in flight");
    }

    #[test]
    #[should_panic(expected = "non-uniform dissemination")]
    fn retry_with_uniform_dissemination_is_rejected() {
        let topo = Arc::new(Topology::symmetric(2, 2));
        let cfg = MulticastConfig {
            uniform_dissemination: true,
            ..MulticastConfig::default()
        }
        .with_retry(std::time::Duration::from_millis(100));
        let _ = GenuineMulticast::new(ProcessId(0), &topo, cfg);
    }

    #[test]
    fn remote_crash_notification_does_not_touch_consensus() {
        // A crash in *another* group only concerns the rmcast relay; the
        // local consensus engine must not be suspicious of a non-member.
        let topo = Arc::new(Topology::symmetric(2, 2));
        let mut p0 = GenuineMulticast::new(ProcessId(0), &topo, MulticastConfig::default());
        let mut out = Outbox::new();
        p0.on_crash_notification(ProcessId(3), &ctx(0, &topo), &mut out);
        assert!(out.is_empty(), "nothing pending, nothing to do");
    }
}
