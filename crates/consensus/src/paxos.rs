//! Multi-instance single-decree Paxos inside one group.
//!
//! Every member of a group runs one [`GroupConsensus`] engine. The engine is
//! sans-io: it never touches the network itself but pushes `(destination,
//! message)` pairs into a [`MsgSink`] that the embedding protocol wraps into
//! its own wire type. All destinations are members of the same group, so
//! consensus traffic is intra-group only — exactly why the paper's
//! algorithms pay no latency degree for it.
//!
//! # Protocol
//!
//! * **Fast path.** Ballot 0 is owned by the lowest-id member. While it is
//!   not suspected, a proposal reaches decision in two intra-group delays:
//!   `Accept(b₀, v)` to all members, each replying `Accepted(b₀, v)` to all
//!   members; a majority of `Accepted` for one ballot decides.
//! * **Forwarding.** Non-coordinator proposers forward their value to the
//!   current coordinator; uniform integrity still holds because a forwarded
//!   value was proposed by some process.
//! * **Recovery.** When the coordinator is suspected (via
//!   [`on_suspect`](GroupConsensus::on_suspect), fed by the simulator's ◇P
//!   oracle or, on sockets, by a `CrashNotify` frame), the next
//!   non-suspected member runs classic prepare/promise with a higher ballot,
//!   adopting the highest accepted value among a majority of promises.
//! * **Catch-up.** A process receiving traffic for an instance it already
//!   decided replies `Decide`.
//! * **Forgetting.** The embedder calls
//!   [`advance_floor`](GroupConsensus::advance_floor) with the lowest
//!   instance it may still propose or need, and every `Accepted` carries
//!   the sender's floor. The group floor is the lowest floor heard from
//!   any member, this one included. Below it every member has consumed
//!   every decision, so the engine drops all it holds there and discards
//!   any later traffic there without acting on it. A member that never
//!   reports (an embedder that never calls `advance_floor`, or a crashed
//!   member) holds the group floor where it is.
//!
//! Uniform agreement holds by the standard Paxos invariant (a chosen value
//! is the only value acceptable at higher ballots); termination holds with a
//! majority of correct members and an eventually accurate suspicion source.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;
use wamcast_types::{FxHashMap, ProcessId};

/// Values decidable by consensus.
///
/// Blanket-implemented; protocols decide on sets of in-flight application
/// messages (A1's `msgSet`, A2's round bundles). The engine never compares
/// two values by content: Paxos needs only that a coordinator proposes a
/// value it was given, so no equality is asked of `V`.
pub trait Value: Clone + fmt::Debug + Send + 'static {}
impl<T: Clone + fmt::Debug + Send + 'static> Value for T {}

/// Combiner folding a second proposal into an accumulated one, installed
/// with [`GroupConsensus::with_merge`].
///
/// Folds values forwarded by other members into the value a coordinator
/// is about to propose. Protocols deciding *batches* of messages install a
/// union-by-message-id combiner so that one consensus instance carries
/// every message any group member has disseminated, instead of the
/// coordinator's view only; messages the coordinator has not yet received
/// would otherwise wait a full extra instance. This is safe because a
/// merged value is only ever *proposed*: Paxos chooses it (or not) through
/// the normal ballot machinery, so uniform agreement is untouched, and
/// validity weakens only from "some member proposed the decision" to
/// "every element of the decision was proposed by some member" — exactly
/// the validity atomic multicast needs.
///
/// # Contract
///
/// The engine folds each `Forward` into the one forwarded value it holds
/// as the `Forward` arrives, and merges that fold into the member's own
/// proposal only when it proposes. That equals folding every value into
/// the proposal in arrival order — the proposal's copy first — as long as
/// the combiner is:
///
/// * **associative**: `merge(merge(a, b), c)` equals
///   `merge(a, merge(b, c))` in content and in order;
/// * **left-biased**: where `acc` and `more` hold an element with the same
///   id, the result keeps `acc`'s copy;
/// * **a no-op on what `acc` already holds**: if every id of `more` is in
///   `acc`, `acc` is left untouched — for an `Arc`-shared batch, the same
///   allocation (`Arc::ptr_eq`) — so a re-forward or an equal batch costs
///   an id check and no copy.
///
/// A union by message id that appends `more`'s new elements in order, or
/// merges two id-sorted lists, is all three; `merge_msg_sets` and
/// `merge_bundles` in `wamcast-core` are checked against them.
pub type MergeFn<V> = fn(&mut V, V);

/// A Paxos ballot, totally ordered by `(round, owner)`.
///
/// Round 0 is reserved for the group's lowest-id member, which lets it skip
/// the prepare phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ballot {
    /// Monotone round counter.
    pub round: u64,
    /// The member that owns (may propose at) this ballot.
    pub owner: ProcessId,
}

impl Ballot {
    /// The fast-path ballot of `owner` (round 0).
    pub fn zero(owner: ProcessId) -> Self {
        Ballot { round: 0, owner }
    }
}

/// Wire messages of the engine. `V` is the consensus value type.
#[derive(Clone, Debug, PartialEq)]
pub enum ConsensusMsg<V> {
    /// A non-coordinator proposer hands its value to the coordinator.
    Forward {
        /// Instance number.
        instance: u64,
        /// Proposed value.
        value: V,
    },
    /// Phase-1a: a recovery coordinator solicits promises.
    Prepare {
        /// Instance number.
        instance: u64,
        /// The coordinator's new ballot.
        ballot: Ballot,
    },
    /// Phase-1b: an acceptor promises and reports its accepted value, if any.
    Promise {
        /// Instance number.
        instance: u64,
        /// The ballot being promised.
        ballot: Ballot,
        /// Highest (ballot, value) this acceptor accepted before promising.
        accepted: Option<(Ballot, V)>,
    },
    /// Phase-2a: the coordinator asks acceptors to accept `value`.
    Accept {
        /// Instance number.
        instance: u64,
        /// The coordinator's ballot.
        ballot: Ballot,
        /// The value to accept.
        value: V,
    },
    /// Phase-2b: an acceptor announces its acceptance **to all members**, so
    /// every member learns decisions directly (two-delay fast path).
    Accepted {
        /// Instance number.
        instance: u64,
        /// The accepted ballot.
        ballot: Ballot,
        /// The accepted value (carried so learners need no extra round).
        value: V,
        /// The sender's floor when it sent this: it will never propose or
        /// need an instance below it again (see
        /// [`GroupConsensus::advance_floor`]).
        floor: u64,
    },
    /// Catch-up: the sender has decided `value` in `instance`.
    Decide {
        /// Instance number.
        instance: u64,
        /// The decided value.
        value: V,
    },
}

impl<V> ConsensusMsg<V> {
    fn instance(&self) -> u64 {
        match self {
            ConsensusMsg::Forward { instance, .. }
            | ConsensusMsg::Prepare { instance, .. }
            | ConsensusMsg::Promise { instance, .. }
            | ConsensusMsg::Accept { instance, .. }
            | ConsensusMsg::Accepted { instance, .. }
            | ConsensusMsg::Decide { instance, .. } => *instance,
        }
    }

    /// Classifies this message for the trace layer and exposes the value
    /// it carries, if any: phase-1 and forwarding traffic is
    /// [`wamcast_types::MsgClass::Propose`], phase-2a is
    /// [`wamcast_types::MsgClass::Accept`], and
    /// decision-carrying traffic (phase-2b, catch-up) is
    /// [`wamcast_types::MsgClass::Decide`]. Embedding protocols map the
    /// carried value to the cast ids it contains.
    pub fn trace_class(&self) -> (wamcast_types::MsgClass, Option<&V>) {
        use wamcast_types::MsgClass;
        match self {
            ConsensusMsg::Forward { value, .. } => (MsgClass::Propose, Some(value)),
            ConsensusMsg::Prepare { .. } => (MsgClass::Propose, None),
            ConsensusMsg::Promise { accepted, .. } => {
                (MsgClass::Propose, accepted.as_ref().map(|(_, v)| v))
            }
            ConsensusMsg::Accept { value, .. } => (MsgClass::Accept, Some(value)),
            ConsensusMsg::Accepted { value, .. } => (MsgClass::Decide, Some(value)),
            ConsensusMsg::Decide { value, .. } => (MsgClass::Decide, Some(value)),
        }
    }
}

/// Sink of outgoing consensus messages, filled by engine calls and drained
/// by the embedding protocol into its own [`Outbox`](wamcast_types::Outbox).
#[derive(Debug)]
pub struct MsgSink<V> {
    /// `(destination, message)` pairs in emission order. Destinations may
    /// include the engine's own process (self-delivery goes through the
    /// host loopback like any other message).
    pub msgs: Vec<(ProcessId, ConsensusMsg<V>)>,
}

impl<V> Default for MsgSink<V> {
    fn default() -> Self {
        MsgSink { msgs: Vec::new() }
    }
}

impl<V> MsgSink<V> {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&mut self, to: ProcessId, msg: ConsensusMsg<V>) {
        self.msgs.push((to, msg));
    }
}

impl<V: Clone> MsgSink<V> {
    fn push_all(&mut self, tos: &[ProcessId], msg: ConsensusMsg<V>) {
        for &to in tos {
            self.msgs.push((to, msg.clone()));
        }
    }
}

/// Per-instance coordinator-side prepare state.
#[derive(Clone, Debug)]
struct PrepareState<V> {
    ballot: Ballot,
    /// Flat (promiser, reported-accepted) pairs: a group has a handful of
    /// members, so linear scans beat tree nodes on every hot path.
    promises: Vec<(ProcessId, Option<(Ballot, V)>)>,
    sent_accept: bool,
    /// The exact value the Accept for `ballot` carried — kept so a
    /// retransmission ([`GroupConsensus::tick`]) re-sends the *same* value
    /// (Paxos: one ballot, one value).
    sent_value: Option<V>,
}

/// A list whose first element is kept inline: an instance's per-ballot
/// vote masks nearly always number one (a second ballot takes a suspected
/// coordinator), so the common case allocates nothing. Later elements go
/// to a `Vec` that grows by exactly one each: vote lists outlive their
/// instance (see [`Decided`]) until the group floor passes it.
#[derive(Clone, Debug)]
struct FirstInline<T> {
    first: Option<T>,
    rest: Vec<T>,
}

impl<T> Default for FirstInline<T> {
    fn default() -> Self {
        FirstInline {
            first: None,
            rest: Vec::new(),
        }
    }
}

impl<T> FirstInline<T> {
    fn push(&mut self, v: T) {
        if self.first.is_none() {
            self.first = Some(v);
        } else {
            self.rest.reserve_exact(1);
            self.rest.push(v);
        }
    }

    fn iter(&self) -> impl Iterator<Item = &T> {
        self.first.iter().chain(&self.rest)
    }

    fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.first.iter_mut().chain(&mut self.rest)
    }
}

/// `Accepted` announcements counted per ballot: bit `i` of a ballot's mask
/// is the vote of `members[i]`. Flat, because an instance sees one ballot
/// unless a coordinator was suspected.
type Votes = FirstInline<(Ballot, u64)>;

/// The mask of `ballot` in `votes`, created (empty) on first use.
fn tally(votes: &mut Votes, ballot: Ballot) -> &mut u64 {
    if !votes.iter().any(|(b, _)| *b == ballot) {
        votes.push((ballot, 0));
    }
    let (_, mask) = votes
        .iter_mut()
        .find(|(b, _)| *b == ballot)
        .expect("pushed above if missing");
    mask
}

/// All that is kept of a decided instance: every handler is guarded by the
/// decisions table once a decision exists, so candidates, forwarded
/// batches, prepare state and the accepted value can never be read again.
/// The vote tallies must survive, because the decided-instance branch of
/// `Accepted` tells a duplicate announcement (a retransmitting peer that
/// missed the decision, owed a `Decide` reply) from a routine first-time
/// late arrival by the votes recorded so far. Dropped, tallies included,
/// once the group floor passes the instance.
#[derive(Clone, Debug)]
struct Decided<V> {
    value: V,
    votes: Votes,
}

/// Per-instance state of an undecided instance.
#[derive(Clone, Debug)]
struct Instance<V> {
    promised: Ballot,
    accepted: Option<(Ballot, V)>,
    /// This member's own proposal (kept for forward/recovery).
    my_value: Option<V>,
    /// What other members forwarded to us, folded as it arrives: with a
    /// merge combiner installed every `Forward` is merged in (see
    /// [`MergeFn`]'s contract); without one the first is kept (first-wins,
    /// the classic shape).
    forwarded: Option<V>,
    /// Fast-path guard: ballot-0 Accept already sent.
    sent_accept0: bool,
    /// The value the ballot-0 Accept carried (for loss-recovery
    /// retransmission — the same ballot must re-ship the same value).
    sent_accept0_value: Option<V>,
    prepare: Option<PrepareState<V>>,
    accepted_votes: Votes,
}

impl<V> Instance<V> {
    fn new(b0_owner: ProcessId) -> Self {
        Instance {
            promised: Ballot::zero(b0_owner),
            accepted: None,
            my_value: None,
            forwarded: None,
            sent_accept0: false,
            sent_accept0_value: None,
            prepare: None,
            accepted_votes: Votes::default(),
        }
    }

    fn has_candidate(&self) -> bool {
        self.my_value.is_some() || self.forwarded.is_some()
    }
}

/// The value a coordinator should propose for `inst`: its own proposal
/// with the folded forwards merged in when a [`MergeFn`] is installed, or
/// else whichever of the two it holds (its own first).
fn merged_candidate<V: Value>(merge: Option<MergeFn<V>>, inst: &Instance<V>) -> Option<V> {
    match (&inst.my_value, &inst.forwarded, merge) {
        (Some(mine), Some(fwd), Some(merge)) => {
            let mut base = mine.clone();
            merge(&mut base, fwd.clone());
            Some(base)
        }
        (Some(v), _, _) | (None, Some(v), _) => Some(v.clone()),
        (None, None, _) => None,
    }
}

/// A multi-instance uniform consensus engine for one group member.
///
/// # Example
///
/// ```
/// use wamcast_consensus::{GroupConsensus, MsgSink};
/// use wamcast_types::ProcessId;
///
/// // A single-member group decides instantly via its own messages.
/// let members = vec![ProcessId(0)];
/// let mut engine: GroupConsensus<u32> = GroupConsensus::new(ProcessId(0), members);
/// let mut sink = MsgSink::new();
/// engine.propose(1, 42, &mut sink);
/// // Loop self-addressed messages back in (the host normally does this).
/// while !sink.msgs.is_empty() {
///     let batch = std::mem::take(&mut sink.msgs);
///     for (to, msg) in batch {
///         assert_eq!(to, ProcessId(0));
///         engine.on_message(ProcessId(0), msg, &mut sink);
///     }
/// }
/// assert_eq!(engine.take_decisions(), vec![(1, 42)]);
/// ```
#[derive(Clone, Debug)]
pub struct GroupConsensus<V> {
    me: ProcessId,
    /// Group members, ascending. `members\[0\]` owns ballot 0. Shared
    /// (`Arc`) because several handlers need the list while an instance is
    /// mutably borrowed: a refcount bump there, never a per-message copy
    /// of the list.
    members: Arc<[ProcessId]>,
    majority: usize,
    suspected: BTreeSet<ProcessId>,
    /// Point-query only (hot path); anything that must *iterate*
    /// instances goes through a sorted key snapshot or the `active` index.
    instances: FxHashMap<u64, Instance<V>>,
    /// Undecided instances with local involvement (a candidate, an
    /// accepted value, or a prepare in flight). Kept so the retry-mode hot
    /// path — [`has_unfinished`](Self::has_unfinished) on every event,
    /// [`tick`](Self::tick) on every retransmission interval — costs
    /// O(in-flight), not O(every instance ever decided).
    active: BTreeSet<u64>,
    /// Point-query only (see `instances`). An instance moves here from
    /// `instances` when it decides and stays until the group floor passes
    /// it.
    decisions: FxHashMap<u64, Decided<V>>,
    /// Every key of `instances` and `decisions`, in instance order: what
    /// forgetting below the group floor walks, so it costs O(dropped).
    held: BTreeSet<u64>,
    /// Per member (indexed like `members`), the highest floor it has
    /// reported; this member's own comes from `advance_floor`.
    floors: Vec<u64>,
    /// The group floor: the minimum of `floors`. Nothing below it is kept,
    /// and traffic below it is discarded.
    floor: u64,
    undrained: Vec<(u64, V)>,
    /// Batch combiner for forwarded proposals; see [`MergeFn`].
    merge: Option<MergeFn<V>>,
}

impl<V: Value> GroupConsensus<V> {
    /// Creates the engine for member `me` of the given (sorted or unsorted)
    /// member list.
    ///
    /// # Panics
    ///
    /// Panics if `me` is not a member, the member list is empty, or it has
    /// more than 64 members (votes are tallied in a `u64` mask).
    pub fn new(me: ProcessId, mut members: Vec<ProcessId>) -> Self {
        members.sort_unstable();
        members.dedup();
        assert!(!members.is_empty(), "group must be non-empty");
        assert!(members.len() <= 64, "at most 64 members per group");
        assert!(members.contains(&me), "engine owner must be a group member");
        let majority = members.len() / 2 + 1;
        GroupConsensus {
            me,
            floors: vec![0; members.len()],
            members: members.into(),
            majority,
            suspected: BTreeSet::new(),
            instances: FxHashMap::default(),
            active: BTreeSet::new(),
            decisions: FxHashMap::default(),
            held: BTreeSet::new(),
            floor: 0,
            undrained: Vec::new(),
            merge: None,
        }
    }

    /// Installs a [`MergeFn`] making this engine *batch-aware*: before the
    /// ballot-0 coordinator sends its `Accept`, every value forwarded by
    /// other members is folded into its proposal. Protocols deciding
    /// batches of application messages (A1's `msgSet`, A2's round bundles)
    /// install a union-by-id combiner so one instance decides every message
    /// any member disseminated.
    ///
    /// # Example
    ///
    /// ```
    /// use wamcast_consensus::{GroupConsensus, MsgSink};
    /// use wamcast_types::ProcessId;
    ///
    /// fn union(acc: &mut Vec<u32>, more: Vec<u32>) {
    ///     for v in more {
    ///         if !acc.contains(&v) {
    ///             acc.push(v);
    ///         }
    ///     }
    /// }
    ///
    /// let members = vec![ProcessId(0), ProcessId(1)];
    /// let mut coord: GroupConsensus<Vec<u32>> =
    ///     GroupConsensus::new(ProcessId(0), members).with_merge(union);
    /// let mut sink = MsgSink::new();
    /// // A forwarded batch arrives before the coordinator's own proposal…
    /// coord.on_message(
    ///     ProcessId(1),
    ///     wamcast_consensus::ConsensusMsg::Forward { instance: 1, value: vec![7] },
    ///     &mut sink,
    /// );
    /// sink.msgs.clear();
    /// coord.propose(1, vec![3], &mut sink);
    /// // …and the Accept carries the union of both batches.
    /// assert!(sink.msgs.iter().any(|(_, m)| matches!(
    ///     m,
    ///     wamcast_consensus::ConsensusMsg::Accept { value, .. } if value == &vec![3, 7]
    /// )));
    /// ```
    #[must_use]
    pub fn with_merge(mut self, merge: MergeFn<V>) -> Self {
        self.merge = Some(merge);
        self
    }

    /// The current coordinator: lowest-id non-suspected member.
    pub fn coordinator(&self) -> ProcessId {
        self.members
            .iter()
            .copied()
            .find(|p| !self.suspected.contains(p))
            .unwrap_or(self.members[0])
    }

    /// The decided value of `instance`, if known locally and not yet
    /// forgotten (below the [`group_floor`](Self::group_floor) it is
    /// `None`).
    pub fn decision(&self, instance: u64) -> Option<&V> {
        self.decisions.get(&instance).map(|d| &d.value)
    }

    /// How many decided instances this engine still holds: those at or
    /// above the group floor.
    pub fn decisions_held(&self) -> usize {
        self.decisions.len()
    }

    /// The decided values this engine still holds, in no particular
    /// order. A member may not yet have learned these; every member has
    /// learned every decision below the group floor.
    pub fn held_decisions(&self) -> impl Iterator<Item = &V> + '_ {
        self.decisions.values().map(|d| &d.value)
    }

    /// The group floor: the lowest floor any member has reported. Every
    /// member has consumed every instance below it.
    pub fn group_floor(&self) -> u64 {
        self.floor
    }

    /// The embedder's promise never to propose, or need the decision of,
    /// any instance below `floor` again. Floors only rise: a lower value
    /// than the last is ignored. The next `Accepted` this member sends
    /// carries it, and once every member has reported a floor above an
    /// instance, every member forgets it.
    pub fn advance_floor(&mut self, floor: u64) {
        let i = self.index_of(self.me).expect("the owner is a member");
        self.hear_floor(i, floor);
    }

    /// Records `floor` for `members[i]` and forgets what falls below the
    /// group floor if it rose.
    fn hear_floor(&mut self, i: usize, floor: u64) {
        if floor <= self.floors[i] {
            return;
        }
        self.floors[i] = floor;
        let w = *self.floors.iter().min().expect("non-empty group");
        if w <= self.floor {
            return;
        }
        self.floor = w;
        while let Some(k) = self.held.first().copied().filter(|&k| k < w) {
            self.held.pop_first();
            self.decisions.remove(&k);
            self.instances.remove(&k);
            self.active.remove(&k);
        }
    }

    fn own_floor(&self) -> u64 {
        let i = self.index_of(self.me).expect("the owner is a member");
        self.floors[i]
    }

    fn index_of(&self, p: ProcessId) -> Option<usize> {
        self.members.iter().position(|&m| m == p)
    }

    /// Drains decisions reached since the previous call, in instance order.
    /// Each decision is emitted exactly once.
    pub fn take_decisions(&mut self) -> Vec<(u64, V)> {
        let mut out = Vec::new();
        self.drain_decisions_into(&mut out);
        out
    }

    /// [`take_decisions`](Self::take_decisions) into a caller-owned buffer:
    /// appends the fresh decisions and sorts the buffer by instance. The
    /// engine's internal staging vector keeps its capacity, so a host that
    /// reuses `out` drains at zero allocations steady-state. Callers pass
    /// an empty buffer (the sort covers the whole vector).
    pub fn drain_decisions_into(&mut self, out: &mut Vec<(u64, V)>) {
        out.append(&mut self.undrained);
        out.sort_by_key(|&(k, _)| k);
    }

    /// Proposes `value` for `instance` (the paper's `Propose(k, msgSet)`).
    /// No-op if the instance already decided locally or lies below the
    /// group floor.
    pub fn propose(&mut self, instance: u64, value: V, sink: &mut MsgSink<V>) {
        if instance < self.floor || self.decisions.contains_key(&instance) {
            return;
        }
        let inst = self.instance_mut(instance);
        if inst.my_value.is_none() {
            inst.my_value = Some(value);
        }
        self.active.insert(instance);
        let coord = self.coordinator();
        if coord == self.me {
            self.drive_as_coordinator(instance, sink);
        } else {
            let v = self.instances[&instance]
                .my_value
                .clone()
                .expect("just set");
            sink.push(coord, ConsensusMsg::Forward { instance, value: v });
        }
    }

    /// Feeds a suspicion (from the host's failure-detector oracle: the
    /// simulator's ◇P, a `CrashNotify` frame on sockets). May trigger
    /// coordinator takeover and re-forwarding of pending proposals.
    pub fn on_suspect(&mut self, suspect: ProcessId, sink: &mut MsgSink<V>) {
        if !self.members.contains(&suspect) || !self.suspected.insert(suspect) {
            return;
        }
        let coord = self.coordinator();
        let mut pending: Vec<u64> = self
            .instances
            .iter()
            .filter(|(_, i)| i.has_candidate() || i.accepted.is_some())
            .map(|(&k, _)| k)
            .collect();
        // The instance table hashes; re-forwarding order must not.
        pending.sort_unstable();
        for k in pending {
            if coord == self.me {
                self.drive_as_coordinator(k, sink);
            } else if let Some(v) = self.instances[&k].my_value.clone() {
                sink.push(
                    coord,
                    ConsensusMsg::Forward {
                        instance: k,
                        value: v,
                    },
                );
            }
        }
    }

    /// Handles an incoming consensus message. Consensus traffic is
    /// intra-group: a message from outside the group is ignored, and so
    /// is one for an instance below the group floor, which every member
    /// has consumed (its floor still counts if it is an `Accepted`).
    pub fn on_message(&mut self, from: ProcessId, msg: ConsensusMsg<V>, sink: &mut MsgSink<V>) {
        let Some(i) = self.index_of(from) else {
            return;
        };
        if let ConsensusMsg::Accepted { floor, .. } = msg {
            self.hear_floor(i, floor);
        }
        if msg.instance() < self.floor {
            return;
        }
        match msg {
            ConsensusMsg::Forward { instance, value } => {
                if let Some(d) = self.decisions.get(&instance) {
                    let v = d.value.clone();
                    sink.push(from, ConsensusMsg::Decide { instance, value: v });
                    return;
                }
                let merge = self.merge;
                let inst = self.instance_mut(instance);
                match (&mut inst.forwarded, merge) {
                    (None, _) => inst.forwarded = Some(value),
                    (Some(held), Some(merge)) => merge(held, value),
                    (Some(_), None) => {}
                }
                self.active.insert(instance);
                if self.coordinator() == self.me {
                    // Batch-aware mode defers the fast-path Accept to this
                    // member's own propose() call so that concurrently
                    // forwarded batches fold into one decided value. Safe
                    // for liveness: dissemination reaches every group
                    // member, so whatever made `from` propose makes this
                    // member propose too; recovery ballots (coordinator
                    // takeover) are never deferred.
                    let inst = &self.instances[&instance];
                    let defer = self.merge.is_some()
                        && self.members[0] == self.me
                        && inst.my_value.is_none()
                        && !inst.sent_accept0
                        && inst.prepare.is_none()
                        && inst.promised == Ballot::zero(self.me);
                    if !defer {
                        self.drive_as_coordinator(instance, sink);
                    }
                } else if self.coordinator() != from {
                    // We are not coordinator; route onwards (suspicion views
                    // may differ transiently).
                    let coord = self.coordinator();
                    if let Some(v) = self.instances[&instance].forwarded.clone() {
                        sink.push(coord, ConsensusMsg::Forward { instance, value: v });
                    }
                }
            }
            ConsensusMsg::Prepare { instance, ballot } => {
                if let Some(d) = self.decisions.get(&instance) {
                    let v = d.value.clone();
                    sink.push(from, ConsensusMsg::Decide { instance, value: v });
                    return;
                }
                let inst = self.instance_mut(instance);
                // `>=`, not `>`: re-promising the currently promised ballot
                // is idempotent and required for loss recovery — if the
                // Promise was dropped, the coordinator re-sends the same
                // Prepare and must get an answer, or recovery deadlocks.
                if ballot >= inst.promised {
                    inst.promised = ballot;
                    let accepted = inst.accepted.clone();
                    sink.push(
                        from,
                        ConsensusMsg::Promise {
                            instance,
                            ballot,
                            accepted,
                        },
                    );
                }
            }
            ConsensusMsg::Promise {
                instance,
                ballot,
                accepted,
            } => {
                if self.decisions.contains_key(&instance) {
                    return;
                }
                let majority = self.majority;
                let members = Arc::clone(&self.members);
                let merge = self.merge;
                let inst = self.instance_mut(instance);
                let Some(ps) = inst.prepare.as_mut() else {
                    return;
                };
                if ps.ballot != ballot || ps.sent_accept {
                    return;
                }
                match ps.promises.iter_mut().find(|(q, _)| *q == from) {
                    Some(slot) => slot.1 = accepted,
                    None => ps.promises.push((from, accepted)),
                }
                if ps.promises.len() >= majority {
                    // Adopt the highest accepted value among the promises
                    // (Paxos safety), else fall back to our own candidate or
                    // locally accepted value. Ties in ballot carry the same
                    // value (one ballot, one value), so scan order is moot.
                    let adopted = ps
                        .promises
                        .iter()
                        .filter_map(|(_, a)| a.as_ref())
                        .max_by_key(|(b, _)| *b)
                        .map(|(_, v)| v.clone());
                    let ballot = ps.ballot;
                    let local = merged_candidate(merge, inst)
                        .or_else(|| inst.accepted.as_ref().map(|(_, v)| v.clone()));
                    if let Some(value) = adopted.or(local) {
                        let ps = inst.prepare.as_mut().expect("checked above");
                        ps.sent_accept = true;
                        ps.sent_value = Some(value.clone());
                        sink.push_all(
                            &members,
                            ConsensusMsg::Accept {
                                instance,
                                ballot,
                                value,
                            },
                        );
                    }
                    // If we still have no value, the Accept goes out when a
                    // proposal or Forward arrives (see drive_as_coordinator).
                }
            }
            ConsensusMsg::Accept {
                instance,
                ballot,
                value,
            } => {
                if let Some(d) = self.decisions.get(&instance) {
                    let v = d.value.clone();
                    sink.push(from, ConsensusMsg::Decide { instance, value: v });
                    return;
                }
                let inst = self.instance_mut(instance);
                if ballot >= inst.promised {
                    inst.promised = ballot;
                    inst.accepted = Some((ballot, value.clone()));
                    self.active.insert(instance);
                    let floor = self.own_floor();
                    sink.push_all(
                        &self.members,
                        ConsensusMsg::Accepted {
                            instance,
                            ballot,
                            value,
                            floor,
                        },
                    );
                }
            }
            ConsensusMsg::Accepted {
                instance,
                ballot,
                value,
                ..
            } => {
                let bit = 1u64 << i;
                if let Some(d) = self.decisions.get_mut(&instance) {
                    // Keep counting votes after deciding; a *duplicate*
                    // announcement can only come from a retransmitting peer
                    // that missed the decision (lossy links), so catch it up
                    // directly. First-time late arrivals — routine in clean
                    // runs — stay silent, keeping clean-run message counts
                    // exactly the paper's.
                    let mask = tally(&mut d.votes, ballot);
                    if *mask & bit != 0 {
                        let v = d.value.clone();
                        sink.push(from, ConsensusMsg::Decide { instance, value: v });
                    } else {
                        *mask |= bit;
                    }
                    return;
                }
                let majority = self.majority;
                let mask = tally(&mut self.instance_mut(instance).accepted_votes, ballot);
                *mask |= bit;
                if mask.count_ones() as usize >= majority {
                    self.learn(instance, value);
                }
            }
            ConsensusMsg::Decide { instance, value } => {
                self.learn(instance, value);
            }
        }
    }

    /// Acts as coordinator for `instance`: fast path if we own ballot 0 and
    /// it is still viable, otherwise run/refresh a recovery ballot.
    fn drive_as_coordinator(&mut self, instance: u64, sink: &mut MsgSink<V>) {
        let me = self.me;
        let members = Arc::clone(&self.members);
        let majority = self.majority;
        let is_b0_owner = members[0] == me;
        let merge = self.merge;
        let inst = self.instance_mut(instance);
        let fast_path = is_b0_owner && inst.promised == Ballot::zero(me);
        if fast_path && inst.sent_accept0 {
            // Fast path already in progress (e.g. a Forward arrived after
            // our own Accept, or vice versa): the circulating ballot-0 value
            // will decide; starting a recovery ballot here would only add
            // traffic.
            return;
        }
        // A takeover coordinator may hold no proposal of its own but an
        // accepted (possibly chosen) value; re-driving with that value is
        // safe and required for liveness.
        let fallback = inst.accepted.as_ref().map(|(_, v)| v.clone());
        let Some(value) = merged_candidate(merge, inst).or(fallback) else {
            return;
        };
        if fast_path {
            inst.sent_accept0 = true;
            inst.sent_accept0_value = Some(value.clone());
            sink.push_all(
                &members,
                ConsensusMsg::Accept {
                    instance,
                    ballot: Ballot::zero(me),
                    value,
                },
            );
            return;
        }
        // Recovery: if a prepare round is already running and majority
        // promises arrived while we lacked a value, fire the Accept now.
        if let Some(ps) = inst.prepare.as_mut() {
            if !ps.sent_accept && ps.promises.len() >= majority {
                let adopted = ps
                    .promises
                    .iter()
                    .filter_map(|(_, a)| a.as_ref())
                    .max_by_key(|(b, _)| *b)
                    .map(|(_, v)| v.clone())
                    .unwrap_or(value);
                ps.sent_accept = true;
                ps.sent_value = Some(adopted.clone());
                let b = ps.ballot;
                sink.push_all(
                    &members,
                    ConsensusMsg::Accept {
                        instance,
                        ballot: b,
                        value: adopted,
                    },
                );
                return;
            }
            if !ps.sent_accept {
                return; // prepare in flight
            }
        }
        if inst.prepare.as_ref().is_some_and(|ps| ps.sent_accept) {
            return; // accept already out for our recovery ballot
        }
        let ballot = Ballot {
            round: inst.promised.round + 1,
            owner: me,
        };
        inst.prepare = Some(PrepareState {
            ballot,
            promises: Vec::new(),
            sent_accept: false,
            sent_value: None,
        });
        self.active.insert(instance);
        sink.push_all(&members, ConsensusMsg::Prepare { instance, ballot });
    }

    /// Debug/inspection: one line per undecided instance with local state
    /// (candidate, accepted ballot, prepare progress, promised ballot).
    pub fn debug_unfinished(&self) -> Vec<(u64, String)> {
        let mut out: Vec<(u64, String)> = self
            .instances
            .iter()
            .map(|(&k, i)| {
                let desc = format!(
                    "cand={} fwd={} acc={:?} prep={:?} promised={:?} sent0={}",
                    i.my_value.is_some(),
                    i.forwarded.is_some(),
                    i.accepted.as_ref().map(|(b, _)| *b),
                    i.prepare
                        .as_ref()
                        .map(|p| (p.ballot, p.sent_accept, p.promises.len())),
                    i.promised,
                    i.sent_accept0,
                );
                (k, desc)
            })
            .collect();
        out.sort_by_key(|&(k, _)| k);
        out
    }

    /// Whether any instance this member is involved in (as proposer,
    /// acceptor or recovery coordinator) is still undecided — the signal a
    /// host uses to keep its retransmission timer armed. O(1): backed by
    /// the `active` index, not a scan of instance history.
    pub fn has_unfinished(&self) -> bool {
        !self.active.is_empty()
    }

    /// Retransmits the in-flight protocol step of every unfinished
    /// instance — the loss-recovery path for lossy links.
    ///
    /// Quasi-reliable links never need this (and the engine never calls it
    /// on itself); under a fault-injection adversary the embedding protocol
    /// drives `tick` from a retransmission timer. Re-sent `Accept`s carry
    /// the exact value their ballot first carried (stored at send time), so
    /// Paxos safety is untouched; duplicate receipts are already idempotent
    /// (per-ballot vote sets, first-wins promises, `Decide` replays). A
    /// member that already decided replies `Decide` to any stale traffic,
    /// so ticking also heals learners that missed the `Accepted` flood.
    pub fn tick(&mut self, sink: &mut MsgSink<V>) {
        let members = Arc::clone(&self.members);
        let coord = self.coordinator();
        let floor = self.own_floor();
        let undecided: Vec<u64> = self.active.iter().copied().collect();
        for instance in undecided {
            if coord == self.me {
                let inst = &self.instances[&instance];
                // Re-send the exact in-flight step, if any.
                if inst.sent_accept0
                    && inst.promised == Ballot::zero(self.me)
                    && self.members[0] == self.me
                {
                    if let Some(value) = inst.sent_accept0_value.clone() {
                        sink.push_all(
                            &members,
                            ConsensusMsg::Accept {
                                instance,
                                ballot: Ballot::zero(self.me),
                                value,
                            },
                        );
                        continue;
                    }
                }
                if let Some(ps) = &inst.prepare {
                    if ps.sent_accept {
                        if let Some(value) = ps.sent_value.clone() {
                            let ballot = ps.ballot;
                            sink.push_all(
                                &members,
                                ConsensusMsg::Accept {
                                    instance,
                                    ballot,
                                    value,
                                },
                            );
                            continue;
                        }
                    } else {
                        let ballot = ps.ballot;
                        sink.push_all(&members, ConsensusMsg::Prepare { instance, ballot });
                        continue;
                    }
                }
                // Nothing in flight yet (e.g. we became coordinator after a
                // suspicion but had no value then): drive from scratch.
                self.drive_as_coordinator(instance, sink);
            } else {
                if let Some(v) = self.instances[&instance].my_value.clone() {
                    sink.push(coord, ConsensusMsg::Forward { instance, value: v });
                }
                // An acceptor stuck with an accepted value re-announces it:
                // peers that already decided answer the duplicate with a
                // Decide, and peers that missed our vote re-count it.
                if let Some((ballot, value)) = self.instances[&instance].accepted.clone() {
                    sink.push_all(
                        &members,
                        ConsensusMsg::Accepted {
                            instance,
                            ballot,
                            value,
                            floor,
                        },
                    );
                }
            }
        }
    }

    fn learn(&mut self, instance: u64, value: V) {
        if self.decisions.contains_key(&instance) {
            return;
        }
        let votes = match self.instances.remove(&instance) {
            Some(inst) => inst.accepted_votes,
            None => {
                self.held.insert(instance);
                Votes::default()
            }
        };
        self.active.remove(&instance);
        self.decisions.insert(
            instance,
            Decided {
                value: value.clone(),
                votes,
            },
        );
        self.undrained.push((instance, value));
    }

    fn instance_mut(&mut self, k: u64) -> &mut Instance<V> {
        let b0 = self.members[0];
        let held = &mut self.held;
        self.instances.entry(k).or_insert_with(|| {
            held.insert(k);
            Instance::new(b0)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy in-memory "network" delivering consensus messages among a set
    /// of engines, with controllable ordering.
    struct Net {
        engines: Vec<GroupConsensus<u32>>,
        queue: std::collections::VecDeque<(ProcessId, ProcessId, ConsensusMsg<u32>)>,
    }

    impl Net {
        fn new(n: u32) -> Self {
            let members: Vec<_> = (0..n).map(ProcessId).collect();
            Net {
                engines: members
                    .iter()
                    .map(|&m| GroupConsensus::new(m, members.clone()))
                    .collect(),
                queue: Default::default(),
            }
        }

        fn absorb(&mut self, from: ProcessId, sink: MsgSink<u32>) {
            for (to, m) in sink.msgs {
                self.queue.push_back((from, to, m));
            }
        }

        fn propose(&mut self, p: ProcessId, instance: u64, v: u32) {
            let mut sink = MsgSink::new();
            self.engines[p.index()].propose(instance, v, &mut sink);
            self.absorb(p, sink);
        }

        fn suspect_everywhere(&mut self, dead: ProcessId) {
            for i in 0..self.engines.len() {
                if i == dead.index() {
                    continue;
                }
                let mut sink = MsgSink::new();
                self.engines[i].on_suspect(dead, &mut sink);
                self.absorb(ProcessId(i as u32), sink);
            }
        }

        /// Delivers all queued messages; messages to `drop_to` are discarded
        /// (simulating a crashed receiver).
        fn run(&mut self, drop_to: &[ProcessId]) {
            let mut guard = 0;
            while let Some((from, to, m)) = self.queue.pop_front() {
                guard += 1;
                assert!(guard < 100_000, "consensus did not terminate");
                if drop_to.contains(&to) || drop_to.contains(&from) {
                    continue;
                }
                let mut sink = MsgSink::new();
                self.engines[to.index()].on_message(from, m, &mut sink);
                self.absorb(to, sink);
            }
        }

        fn decision(&self, p: ProcessId, k: u64) -> Option<u32> {
            self.engines[p.index()].decision(k).copied()
        }
    }

    #[test]
    fn fast_path_decides_everyones_instance() {
        let mut net = Net::new(3);
        net.propose(ProcessId(0), 1, 10);
        net.propose(ProcessId(1), 1, 11);
        net.propose(ProcessId(2), 1, 12);
        net.run(&[]);
        let d0 = net.decision(ProcessId(0), 1).unwrap();
        assert_eq!(net.decision(ProcessId(1), 1), Some(d0));
        assert_eq!(net.decision(ProcessId(2), 1), Some(d0));
        // Uniform integrity: the decision was proposed by someone.
        assert!([10, 11, 12].contains(&d0));
    }

    #[test]
    fn forwarded_value_decides_when_only_follower_proposes() {
        let mut net = Net::new(3);
        net.propose(ProcessId(2), 7, 99);
        net.run(&[]);
        for p in 0..3 {
            assert_eq!(net.decision(ProcessId(p), 7), Some(99));
        }
    }

    #[test]
    fn single_member_group() {
        let mut net = Net::new(1);
        net.propose(ProcessId(0), 3, 5);
        net.run(&[]);
        assert_eq!(net.decision(ProcessId(0), 3), Some(5));
    }

    #[test]
    fn sparse_instance_numbers() {
        let mut net = Net::new(3);
        for &k in &[1u64, 5, 1000, 17] {
            net.propose(ProcessId(0), k, k as u32);
        }
        net.run(&[]);
        for &k in &[1u64, 5, 1000, 17] {
            assert_eq!(net.decision(ProcessId(1), k), Some(k as u32));
        }
        // take_decisions drains in instance order, exactly once.
        let ks: Vec<u64> = net.engines[1]
            .take_decisions()
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        assert_eq!(ks, vec![1, 5, 17, 1000]);
        assert!(net.engines[1].take_decisions().is_empty());
    }

    #[test]
    fn coordinator_crash_recovery() {
        let mut net = Net::new(3);
        // p0 (coordinator) is dead from the start: its messages are dropped.
        net.propose(ProcessId(1), 4, 41);
        net.propose(ProcessId(2), 4, 42);
        net.run(&[ProcessId(0)]); // forwards to p0 vanish
        assert_eq!(net.decision(ProcessId(1), 4), None, "blocked without FD");
        // Failure detector kicks in.
        net.suspect_everywhere(ProcessId(0));
        net.run(&[ProcessId(0)]);
        let d = net.decision(ProcessId(1), 4).unwrap();
        assert_eq!(net.decision(ProcessId(2), 4), Some(d));
        assert!([41, 42].contains(&d));
    }

    #[test]
    fn recovery_preserves_possibly_chosen_value() {
        // p0's Accept(b0, 10) reaches only p1 before p0 crashes; p1 accepted
        // (b0, 10). Recovery led by p1 must re-propose 10, never p2's 22.
        let members: Vec<_> = (0..3).map(ProcessId).collect();
        let mut engines: Vec<GroupConsensus<u32>> = members
            .iter()
            .map(|&m| GroupConsensus::new(m, members.clone()))
            .collect();

        // Step 1: p0 proposes 10; deliver its Accept only to p1.
        let mut s0 = MsgSink::new();
        engines[0].propose(9, 10, &mut s0);
        let mut queue: std::collections::VecDeque<(ProcessId, ProcessId, ConsensusMsg<u32>)> =
            Default::default();
        for (to, m) in s0.msgs {
            if to == ProcessId(1) {
                queue.push_back((ProcessId(0), to, m));
            }
        }
        // p1 processes the Accept; its Accepted broadcast reaches only p1
        // itself (p0 crashed; p2's copy is "lost" with p0's crash window for
        // the sake of the scenario -- links to p2 drop this one message).
        let mut first_accepted = true;
        let mut guard = 0;
        while let Some((from, to, m)) = queue.pop_front() {
            guard += 1;
            assert!(guard < 10_000, "did not terminate");
            if to == ProcessId(0) {
                continue; // p0 is crashed
            }
            // Drop p1's initial Accepted copies addressed to p2, simulating
            // loss concurrent with p0's crash.
            if first_accepted && to == ProcessId(2) && matches!(m, ConsensusMsg::Accepted { .. }) {
                continue;
            }
            let mut out = MsgSink::new();
            engines[to.index()].on_message(from, m, &mut out);
            for (t, mm) in out.msgs {
                queue.push_back((to, t, mm));
            }
        }
        first_accepted = false;
        let _ = first_accepted;
        assert!(engines[1].decision(9).is_none(), "no majority yet");

        // Step 2: p0 is suspected everywhere; p2 proposes 22.
        let mut s = MsgSink::new();
        engines[1].on_suspect(ProcessId(0), &mut s);
        for (to, m) in std::mem::take(&mut s.msgs) {
            queue.push_back((ProcessId(1), to, m));
        }
        engines[2].on_suspect(ProcessId(0), &mut s);
        for (to, m) in std::mem::take(&mut s.msgs) {
            queue.push_back((ProcessId(2), to, m));
        }
        engines[2].propose(9, 22, &mut s);
        for (to, m) in std::mem::take(&mut s.msgs) {
            queue.push_back((ProcessId(2), to, m));
        }
        // Step 3: run to completion among p1, p2.
        let mut guard = 0;
        while let Some((from, to, m)) = queue.pop_front() {
            guard += 1;
            assert!(guard < 10_000, "did not terminate");
            if to == ProcessId(0) {
                continue;
            }
            let mut out = MsgSink::new();
            engines[to.index()].on_message(from, m, &mut out);
            for (t, mm) in out.msgs {
                queue.push_back((to, t, mm));
            }
        }
        assert_eq!(
            engines[1].decision(9),
            Some(&10),
            "chosen value must survive"
        );
        assert_eq!(engines[2].decision(9), Some(&10));
    }

    #[test]
    fn late_proposer_catches_up_via_decide_reply() {
        let mut net = Net::new(3);
        net.propose(ProcessId(0), 2, 7);
        net.run(&[]);
        // p1 already decided via Accepted flood; a late Forward from a
        // hypothetical straggler gets a Decide back. Simulate by clearing
        // p2's decision memory with a fresh engine.
        let members: Vec<_> = (0..3).map(ProcessId).collect();
        let mut fresh = GroupConsensus::<u32>::new(ProcessId(2), members);
        let mut s = MsgSink::new();
        fresh.propose(2, 100, &mut s);
        // Its Forward goes to p0, which decided already.
        let (to, m) = s.msgs.pop().unwrap();
        assert_eq!(to, ProcessId(0));
        let mut reply = MsgSink::new();
        net.engines[0].on_message(ProcessId(2), m, &mut reply);
        let (back_to, decide) = reply.msgs.pop().unwrap();
        assert_eq!(back_to, ProcessId(2));
        fresh.on_message(ProcessId(0), decide, &mut MsgSink::new());
        assert_eq!(fresh.decision(2), Some(&7));
    }

    #[test]
    fn coordinator_accessor_tracks_suspicions() {
        let members: Vec<_> = (0..3).map(ProcessId).collect();
        let mut e: GroupConsensus<u32> = GroupConsensus::new(ProcessId(2), members);
        assert_eq!(e.coordinator(), ProcessId(0));
        e.on_suspect(ProcessId(0), &mut MsgSink::new());
        assert_eq!(e.coordinator(), ProcessId(1));
        e.on_suspect(ProcessId(1), &mut MsgSink::new());
        assert_eq!(e.coordinator(), ProcessId(2));
    }

    #[test]
    fn duplicate_suspicions_are_idempotent() {
        let members: Vec<_> = (0..2).map(ProcessId).collect();
        let mut e: GroupConsensus<u32> = GroupConsensus::new(ProcessId(1), members);
        let mut s = MsgSink::new();
        e.propose(1, 4, &mut s);
        s.msgs.clear();
        e.on_suspect(ProcessId(0), &mut s);
        let n1 = s.msgs.len();
        e.on_suspect(ProcessId(0), &mut s);
        assert_eq!(s.msgs.len(), n1, "second identical suspicion is a no-op");
    }

    #[test]
    fn tick_recovers_coordinator_fast_path_from_total_loss() {
        let mut net = Net::new(3);
        net.propose(ProcessId(0), 1, 10);
        net.queue.clear(); // the adversary ate every copy of the Accept
        assert!(net.engines[0].has_unfinished());
        let mut sink = MsgSink::new();
        net.engines[0].tick(&mut sink);
        // Retransmission carries the same ballot-0 value.
        assert!(sink
            .msgs
            .iter()
            .any(|(_, m)| matches!(m, ConsensusMsg::Accept { value: 10, .. })));
        net.absorb(ProcessId(0), sink);
        net.run(&[]);
        for p in 0..3 {
            assert_eq!(net.decision(ProcessId(p), 1), Some(10));
        }
        assert!(!net.engines[0].has_unfinished());
    }

    #[test]
    fn tick_reforwards_follower_proposals() {
        let mut net = Net::new(3);
        net.propose(ProcessId(2), 1, 9);
        net.queue.clear(); // Forward to the coordinator was lost
        let mut sink = MsgSink::new();
        net.engines[2].tick(&mut sink);
        assert!(sink
            .msgs
            .iter()
            .any(|(to, m)| *to == ProcessId(0)
                && matches!(m, ConsensusMsg::Forward { value: 9, .. })));
        net.absorb(ProcessId(2), sink);
        net.run(&[]);
        assert_eq!(net.decision(ProcessId(0), 1), Some(9));
    }

    #[test]
    fn tick_heals_learner_that_missed_the_accepted_flood() {
        let mut net = Net::new(3);
        net.propose(ProcessId(0), 1, 5);
        // Deliver everything except Accepted copies addressed to p2: p2
        // accepts the value but never learns the decision.
        let mut guard = 0;
        while let Some((from, to, m)) = net.queue.pop_front() {
            guard += 1;
            assert!(guard < 10_000);
            if to == ProcessId(2) && matches!(m, ConsensusMsg::Accepted { .. }) {
                continue;
            }
            let mut sink = MsgSink::new();
            net.engines[to.index()].on_message(from, m, &mut sink);
            net.absorb(to, sink);
        }
        assert_eq!(net.decision(ProcessId(0), 1), Some(5));
        assert_eq!(net.decision(ProcessId(2), 1), None, "p2 missed the flood");
        // p2's own tick re-announces its acceptance; a decided peer answers
        // the duplicate with a Decide.
        let mut sink = MsgSink::new();
        net.engines[2].tick(&mut sink);
        net.absorb(ProcessId(2), sink);
        net.run(&[]);
        assert_eq!(net.decision(ProcessId(2), 1), Some(5));
    }

    #[test]
    fn tick_resends_recovery_prepare() {
        let members: Vec<_> = (0..3).map(ProcessId).collect();
        let mut e: GroupConsensus<u32> = GroupConsensus::new(ProcessId(1), members);
        let mut s = MsgSink::new();
        e.on_suspect(ProcessId(0), &mut s);
        e.propose(4, 7, &mut s);
        s.msgs.clear(); // Prepare lost
        let mut s2 = MsgSink::new();
        e.tick(&mut s2);
        assert!(
            s2.msgs
                .iter()
                .any(|(_, m)| matches!(m, ConsensusMsg::Prepare { .. })),
            "tick must re-solicit promises"
        );
    }

    #[test]
    fn tick_is_silent_when_nothing_is_unfinished() {
        let mut net = Net::new(1);
        net.propose(ProcessId(0), 1, 5);
        net.run(&[]);
        assert!(!net.engines[0].has_unfinished());
        let mut sink = MsgSink::new();
        net.engines[0].tick(&mut sink);
        assert!(sink.msgs.is_empty());
    }

    #[test]
    fn debug_unfinished_describes_stuck_instances() {
        let mut net = Net::new(3);
        net.propose(ProcessId(0), 7, 4);
        net.queue.clear(); // everything lost: instance 7 stays unfinished
        let dump = net.engines[0].debug_unfinished();
        assert_eq!(dump.len(), 1);
        assert_eq!(dump[0].0, 7);
        assert!(dump[0].1.contains("cand=true"), "{}", dump[0].1);
        // Once decided, the instance leaves the report.
        net.propose(ProcessId(0), 7, 4);
        let mut sink = MsgSink::new();
        net.engines[0].tick(&mut sink);
        net.absorb(ProcessId(0), sink);
        net.run(&[]);
        assert!(net.engines[0].debug_unfinished().is_empty());
    }

    #[test]
    fn decided_instance_keeps_only_value_and_per_ballot_votes() {
        let members: Vec<_> = (0..3).map(ProcessId).collect();
        let mut e: GroupConsensus<u32> = GroupConsensus::new(ProcessId(0), members);
        let b0 = Ballot::zero(ProcessId(0));
        let b1 = Ballot {
            round: 1,
            owner: ProcessId(1),
        };
        let accepted = |ballot| ConsensusMsg::Accepted {
            instance: 1,
            ballot,
            value: 5,
            floor: 0,
        };
        let mut s = MsgSink::new();
        e.on_message(ProcessId(0), accepted(b0), &mut s);
        e.on_message(ProcessId(1), accepted(b0), &mut s);
        assert_eq!(e.decision(1), Some(&5), "majority of b0 votes decides");
        assert!(e.instances.is_empty(), "the instance is released");
        assert!(s.msgs.is_empty());
        // First late arrival: silent. Its duplicate: owed a Decide.
        e.on_message(ProcessId(2), accepted(b0), &mut s);
        assert!(s.msgs.is_empty(), "routine late vote stays silent");
        e.on_message(ProcessId(2), accepted(b0), &mut s);
        assert_eq!(
            s.msgs,
            vec![(
                ProcessId(2),
                ConsensusMsg::Decide {
                    instance: 1,
                    value: 5
                }
            )]
        );
        // Votes are tallied per ballot: p2's first vote at another ballot
        // is a first arrival again, and a pre-decision voter's repeat is a
        // duplicate.
        s.msgs.clear();
        e.on_message(ProcessId(2), accepted(b1), &mut s);
        assert!(s.msgs.is_empty());
        e.on_message(ProcessId(1), accepted(b0), &mut s);
        assert_eq!(s.msgs.len(), 1);
        assert!(e.instances.is_empty(), "late traffic re-creates nothing");
    }

    #[test]
    fn tally_counts_each_ballot_apart_with_the_first_inline() {
        let b = |round, owner| Ballot {
            round,
            owner: ProcessId(owner),
        };
        let mut votes = Votes::default();
        *tally(&mut votes, b(0, 0)) |= 1;
        *tally(&mut votes, b(0, 0)) |= 2;
        assert_eq!(votes.rest.capacity(), 0, "one ballot allocates nothing");
        *tally(&mut votes, b(1, 1)) |= 2;
        *tally(&mut votes, b(0, 0)) |= 4;
        *tally(&mut votes, b(2, 2)) |= 1;
        let all: Vec<_> = votes.iter().copied().collect();
        assert_eq!(all, vec![(b(0, 0), 7), (b(1, 1), 2), (b(2, 2), 1)]);

        // An undecided instance decides on a majority at one ballot: a
        // vote at the first ballot and one at the second are not two.
        let members: Vec<_> = (0..3).map(ProcessId).collect();
        let mut e: GroupConsensus<u32> = GroupConsensus::new(ProcessId(0), members);
        let accepted = |ballot| ConsensusMsg::Accepted {
            instance: 1,
            ballot,
            value: 5,
            floor: 0,
        };
        let mut s = MsgSink::new();
        e.on_message(ProcessId(0), accepted(b(0, 0)), &mut s);
        e.on_message(ProcessId(1), accepted(b(1, 1)), &mut s);
        assert_eq!(e.decision(1), None, "one vote at each of two ballots");
        e.on_message(ProcessId(2), accepted(b(1, 1)), &mut s);
        assert_eq!(e.decision(1), Some(&5), "two votes at the second ballot");
        // The decided instance keeps both ballots' tallies: p1 repeating
        // its second-ballot vote is a duplicate, owed a Decide.
        e.on_message(ProcessId(1), accepted(b(1, 1)), &mut s);
        assert_eq!(s.msgs.len(), 1);
    }

    /// Delivers every queued message; an engine not in `silent` reports
    /// `floor` as soon as it drains instance `floor - 1`.
    fn run_reporting(net: &mut Net, floor: u64, silent: &[ProcessId], dead: &[ProcessId]) {
        while let Some((from, to, m)) = net.queue.pop_front() {
            if dead.contains(&to) || dead.contains(&from) {
                continue;
            }
            let mut sink = MsgSink::new();
            let e = &mut net.engines[to.index()];
            e.on_message(from, m, &mut sink);
            let drained = e.take_decisions();
            if !silent.contains(&to) && drained.iter().any(|&(k, _)| k == floor - 1) {
                e.advance_floor(floor);
            }
            net.absorb(to, sink);
        }
    }

    #[test]
    fn a_decision_is_forgotten_once_every_member_is_past_it() {
        let mut net = Net::new(3);
        net.propose(ProcessId(0), 1, 10);
        run_reporting(&mut net, 2, &[], &[]);
        // Every member is past instance 1, but has said so to no one yet.
        for e in &net.engines {
            assert_eq!(e.group_floor(), 0);
            assert_eq!(e.decisions_held(), 1);
        }
        // Instance 2's `Accepted`s carry floor 2 from every member.
        net.propose(ProcessId(0), 2, 20);
        run_reporting(&mut net, 3, &[], &[]);
        for e in &net.engines {
            assert_eq!(e.group_floor(), 2);
            assert_eq!(e.decision(1), None, "forgotten");
            assert_eq!(e.decision(2), Some(&20));
            assert_eq!(e.decisions_held(), 1);
            assert!(e.instances.is_empty() && e.held.len() == 1);
        }
    }

    #[test]
    fn a_silent_or_crashed_member_holds_the_floor() {
        for crashed in [false, true] {
            let mut net = Net::new(3);
            let p2 = [ProcessId(2)];
            let dead: &[ProcessId] = if crashed { &p2 } else { &[] };
            if crashed {
                net.suspect_everywhere(ProcessId(2));
            }
            for k in 1..=3 {
                net.propose(ProcessId(0), k, k as u32);
                run_reporting(&mut net, k + 1, &p2, dead);
            }
            for p in [0, 1] {
                let e = &net.engines[p];
                assert_eq!(e.group_floor(), 0, "crashed={crashed}: p2 reported nothing");
                assert_eq!(e.decisions_held(), 3, "crashed={crashed}");
                assert!(e.floors[..2].iter().all(|&f| f >= 3), "crashed={crashed}");
            }
        }
    }

    #[test]
    fn traffic_below_the_floor_creates_no_state() {
        let members: Vec<_> = (0..2).map(ProcessId).collect();
        let mut e: GroupConsensus<u32> = GroupConsensus::new(ProcessId(0), members);
        let b0 = Ballot::zero(ProcessId(0));
        let mut s = MsgSink::new();
        e.advance_floor(5);
        e.on_message(
            ProcessId(1),
            ConsensusMsg::Accepted {
                instance: 5,
                ballot: b0,
                value: 1,
                floor: 5,
            },
            &mut s,
        );
        assert_eq!(e.group_floor(), 5);
        let stale = [
            ConsensusMsg::Accept {
                instance: 2,
                ballot: b0,
                value: 7,
            },
            ConsensusMsg::Forward {
                instance: 2,
                value: 7,
            },
            ConsensusMsg::Prepare {
                instance: 2,
                ballot: Ballot {
                    round: 1,
                    owner: ProcessId(1),
                },
            },
            ConsensusMsg::Decide {
                instance: 2,
                value: 7,
            },
        ];
        for m in stale {
            e.on_message(ProcessId(1), m.clone(), &mut s);
            assert!(s.msgs.is_empty(), "{m:?} drew a reply");
            assert!(e.take_decisions().is_empty(), "{m:?} decided");
            assert!(!e.has_unfinished(), "{m:?} left work");
            assert!(!e.held.contains(&2), "{m:?} made state");
        }
        e.propose(2, 7, &mut s);
        assert!(s.msgs.is_empty() && !e.has_unfinished());
    }

    #[test]
    fn traffic_from_outside_the_group_is_ignored() {
        let members: Vec<_> = (0..2).map(ProcessId).collect();
        let mut e: GroupConsensus<u32> = GroupConsensus::new(ProcessId(0), members);
        let b0 = Ballot::zero(ProcessId(0));
        let stranger = ProcessId(9);
        let mut s = MsgSink::new();
        e.on_message(
            stranger,
            ConsensusMsg::Decide {
                instance: 1,
                value: 5,
            },
            &mut s,
        );
        assert_eq!(e.decision(1), None);
        assert!(e.take_decisions().is_empty());
        e.on_message(
            stranger,
            ConsensusMsg::Accept {
                instance: 2,
                ballot: b0,
                value: 6,
            },
            &mut s,
        );
        assert!(s.msgs.is_empty(), "a stranger's Accept drew {:?}", s.msgs);
        e.advance_floor(4);
        let accepted = ConsensusMsg::Accepted {
            instance: 4,
            ballot: b0,
            value: 7,
            floor: 4,
        };
        e.on_message(stranger, accepted.clone(), &mut s);
        assert_eq!(e.group_floor(), 0, "a stranger's floor counts for nothing");
        e.on_message(ProcessId(1), accepted, &mut s);
        assert_eq!(e.group_floor(), 4, "a member's does");
    }

    #[test]
    fn propose_after_decide_is_noop() {
        let mut net = Net::new(1);
        net.propose(ProcessId(0), 1, 5);
        net.run(&[]);
        let mut s = MsgSink::new();
        net.engines[0].propose(1, 6, &mut s);
        assert!(s.msgs.is_empty());
        assert_eq!(net.decision(ProcessId(0), 1), Some(5));
    }

    #[test]
    #[should_panic(expected = "must be a group member")]
    fn non_member_owner_panics() {
        let _ = GroupConsensus::<u32>::new(ProcessId(9), vec![ProcessId(0)]);
    }
}
