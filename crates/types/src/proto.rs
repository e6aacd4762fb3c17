//! The sans-io protocol abstraction.
//!
//! Every algorithm in this workspace — the paper's A1 and A2, their
//! substrates (consensus, reliable multicast) and all baselines — is written
//! as a pure state machine implementing [`Protocol`]. A host runtime (the
//! deterministic simulator in `wamcast-sim`, or the TCP runtime in
//! `wamcast-net`) feeds it events and executes the [`Action`]s it
//! emits. Protocol code contains no I/O, no clocks, no threads and no
//! randomness, which gives us:
//!
//! * deterministic, replayable runs (property tests explore thousands of
//!   schedules);
//! * exact latency-degree measurement — the host stamps every send with the
//!   modified Lamport clock of §2.3 *outside* the protocol, so an algorithm
//!   cannot cheat;
//! * runtime independence (the same `Protocol` value runs under virtual or
//!   real time).
//!
//! Determinism contract: handlers must iterate internal collections in a
//! deterministic order (use `BTreeMap`/`BTreeSet` or sorted vectors, never
//! `HashMap` iteration) so that identical event sequences produce identical
//! action sequences.

use crate::{AppMessage, GroupId, MessageId, ProcessId, SimTime, Topology};
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// Coarse lifecycle classification of a protocol wire message, reported to
/// the trace layer via [`Protocol::describe_msg`]. The variants mirror the
/// paper's message kinds: reliable-multicast dissemination, the `(TS, m)`
/// timestamp exchange of A1/A2, and the three consensus phases.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MsgClass {
    /// Reliable-multicast dissemination (data or ack).
    Rmcast,
    /// A1/A2 timestamp exchange (`(TS, m)` announcements and nudges).
    Ts,
    /// Consensus proposal traffic (forward / prepare / promise).
    Propose,
    /// Consensus accept (phase-2a) traffic.
    Accept,
    /// Decision-carrying consensus traffic (phase-2b / learn).
    Decide,
    /// Anything the protocol does not classify further.
    Other,
}

/// A wire message described for tracing: what kind it is and which
/// application casts it carries or references. Returned by
/// [`Protocol::describe_msg`]; hosts turn each referenced cast into one
/// trace event, so a batch of `k` casts yields `k` attributable events.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MsgInfo {
    /// Lifecycle class of the message.
    pub class: MsgClass,
    /// Cast ids the message carries or is about (possibly empty).
    pub casts: Vec<MessageId>,
}

impl MsgClass {
    /// The directional trace phase of a message of this class: what a
    /// host runtime records when such a message is sent (`sending`) or
    /// received. Shared by every runtime so the two trace vocabularies
    /// cannot drift.
    pub fn phase(self, sending: bool) -> wamcast_trace::Phase {
        use wamcast_trace::Phase;
        match (self, sending) {
            (MsgClass::Rmcast, true) => Phase::RmcastSend,
            (MsgClass::Rmcast, false) => Phase::RmcastRecv,
            (MsgClass::Ts, true) => Phase::TsSend,
            (MsgClass::Ts, false) => Phase::TsRecv,
            (MsgClass::Propose, true) => Phase::ProposeSend,
            (MsgClass::Propose, false) => Phase::ProposeRecv,
            (MsgClass::Accept, true) => Phase::AcceptSend,
            (MsgClass::Accept, false) => Phase::AcceptRecv,
            (MsgClass::Decide, true) => Phase::DecideSend,
            (MsgClass::Decide, false) => Phase::DecideRecv,
            (MsgClass::Other, true) => Phase::MsgSend,
            (MsgClass::Other, false) => Phase::MsgRecv,
        }
    }
}

impl MsgInfo {
    /// Describes a message of `class` referencing the given casts.
    pub fn new(class: MsgClass, casts: Vec<MessageId>) -> Self {
        MsgInfo { class, casts }
    }
}

/// A buffered side effect emitted by a protocol handler.
#[derive(Clone, Debug)]
pub enum Action<M> {
    /// Send `msg` to process `to`. All sends emitted by one handler
    /// invocation form a single *send event* for latency-degree stamping.
    Send {
        /// Destination process.
        to: ProcessId,
        /// Protocol message.
        msg: M,
    },
    /// Zero-copy fan-out: one logical message addressed to many processes.
    /// The body is stored **once** behind an `Arc`; hosts hand each
    /// destination a reference-counted handle instead of a deep copy
    /// ([`MsgSlot`]). Observationally this is exactly the sequence of
    /// [`Send`](Self::Send)s over `tos` in order — hosts stamp, sample
    /// latency and account each destination individually — so replacing a
    /// clone-per-destination loop with [`Outbox::send_many`] never changes
    /// a schedule, only its cost.
    SendMany {
        /// Destination processes, in send order.
        tos: Vec<ProcessId>,
        /// The shared message body.
        msg: Arc<M>,
    },
    /// A-Deliver `msg` to the application (a local event).
    Deliver(AppMessage),
    /// Arm a one-shot timer that fires `after` the current instant, carrying
    /// the protocol-chosen token `kind`.
    Timer {
        /// Delay until the timer fires.
        after: Duration,
        /// Opaque token returned to [`Protocol::on_timer`].
        kind: u64,
    },
}

/// How a host-queued message copy holds its body: owned (an ordinary
/// [`Action::Send`]) or shared (one destination of an
/// [`Action::SendMany`] fan-out).
///
/// Hosts store this in their event queues and call [`take`](Self::take)
/// at dispatch time. A shared copy whose siblings were already dispatched
/// (or dropped with a crashed destination) unwraps its `Arc` without
/// copying, so the *last* delivery of a fan-out — and every delivery of a
/// fan-out of one — is move-only.
#[derive(Debug)]
pub enum MsgSlot<M> {
    /// Exclusively owned body.
    Owned(M),
    /// Body shared with the other destinations of a fan-out.
    Shared(Arc<M>),
}

impl<M: Clone> MsgSlot<M> {
    /// Extracts the message, cloning only if other handles are still live.
    #[inline]
    pub fn take(self) -> M {
        match self {
            MsgSlot::Owned(m) => m,
            MsgSlot::Shared(a) => Arc::try_unwrap(a).unwrap_or_else(|a| (*a).clone()),
        }
    }
}

impl<M: Clone> Clone for MsgSlot<M> {
    fn clone(&self) -> Self {
        match self {
            MsgSlot::Owned(m) => MsgSlot::Owned(m.clone()),
            MsgSlot::Shared(a) => MsgSlot::Shared(Arc::clone(a)),
        }
    }
}

/// Handler context: identity, environment, and an action buffer.
///
/// A fresh `Context` is passed to every handler invocation; the host drains
/// the buffered [`Action`]s when the handler returns.
#[derive(Debug)]
pub struct Context {
    id: ProcessId,
    group: GroupId,
    topology: Arc<Topology>,
    now: SimTime,
}

impl Context {
    /// Creates a context for process `id` at instant `now`. Called by host
    /// runtimes; protocol code only consumes contexts.
    pub fn new(id: ProcessId, topology: Arc<Topology>, now: SimTime) -> Self {
        let group = topology.group_of(id);
        Context {
            id,
            group,
            topology,
            now,
        }
    }

    /// This process's id.
    #[inline]
    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// This process's group (`group(p)`).
    #[inline]
    pub fn group(&self) -> GroupId {
        self.group
    }

    /// The static topology.
    #[inline]
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Current instant (virtual in the simulator, wall-clock offset in the
    /// threaded runtime). Protocols may log it but must not branch on it for
    /// correctness.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }
}

/// Action buffer filled by handlers.
///
/// Separated from [`Context`] so a handler can borrow the context immutably
/// (topology lookups) while pushing actions.
pub struct Outbox<M> {
    actions: Vec<Action<M>>,
}

impl<M> Default for Outbox<M> {
    fn default() -> Self {
        Outbox {
            actions: Vec::new(),
        }
    }
}

impl<M> Outbox<M> {
    /// An empty outbox.
    pub fn new() -> Self {
        Self::default()
    }

    /// An outbox reusing `buf` as its backing storage (cleared first).
    /// Hosts pair this with [`into_buffer`](Self::into_buffer) to run one
    /// handler per event without allocating an action vector per step.
    pub fn with_buffer(mut buf: Vec<Action<M>>) -> Self {
        buf.clear();
        Outbox { actions: buf }
    }

    /// Consumes the outbox, returning the backing storage with all
    /// buffered actions still inside (counterpart of
    /// [`with_buffer`](Self::with_buffer)).
    pub fn into_buffer(self) -> Vec<Action<M>> {
        self.actions
    }

    /// Sends `msg` to `to`.
    #[inline]
    pub fn send(&mut self, to: ProcessId, msg: M) {
        self.actions.push(Action::Send { to, msg });
    }

    /// Sends one shared message to every process in `tos` without copying
    /// the body per destination ([`Action::SendMany`]). Equivalent — copy
    /// for copy, in order — to `send`ing a clone to each destination.
    pub fn send_many<I: IntoIterator<Item = ProcessId>>(&mut self, tos: I, msg: M) {
        let mut tos = tos.into_iter();
        let Some(first) = tos.next() else { return };
        let mut rest: Vec<ProcessId> = Vec::with_capacity(tos.size_hint().0 + 1);
        rest.push(first);
        rest.extend(tos);
        if rest.len() == 1 {
            // A fan-out of one is a plain send: no Arc allocation.
            self.send(rest[0], msg);
        } else {
            self.actions.push(Action::SendMany {
                tos: rest,
                msg: Arc::new(msg),
            });
        }
    }

    /// A-Delivers `msg` to the application.
    #[inline]
    pub fn deliver(&mut self, msg: AppMessage) {
        self.actions.push(Action::Deliver(msg));
    }

    /// Arms a one-shot timer.
    #[inline]
    pub fn set_timer(&mut self, after: Duration, kind: u64) {
        self.actions.push(Action::Timer { after, kind });
    }

    /// Buffers a pre-built action verbatim. Wrapper protocols (delivery
    /// interceptors, apply adapters) use this to relay inner actions —
    /// including [`Action::SendMany`], whose shared body must not be
    /// re-expanded into per-destination copies on the way through.
    #[inline]
    pub fn emit(&mut self, action: Action<M>) {
        self.actions.push(action);
    }

    /// Drains the buffered actions in emission order.
    pub fn drain(&mut self) -> std::vec::Drain<'_, Action<M>> {
        self.actions.drain(..)
    }

    /// Number of buffered actions. A [`SendMany`](Action::SendMany)
    /// counts once however many destinations it fans out to.
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// Whether no actions are buffered.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }
}

impl<M: fmt::Debug> fmt::Debug for Outbox<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Outbox")
            .field("actions", &self.actions)
            .finish()
    }
}

/// A sans-io protocol state machine.
///
/// One value of the implementing type runs per process. The host invokes the
/// handlers below; each invocation is one atomic step (the paper's "each
/// line of the algorithm is executed atomically" maps to handler atomicity).
pub trait Protocol {
    /// Wire message type exchanged between replicas of this protocol.
    /// `Sync` because fan-out copies are `Arc`-shared across host threads
    /// ([`Action::SendMany`]); protocol messages are plain data, so the
    /// bound is free.
    type Msg: Clone + fmt::Debug + Send + Sync + 'static;

    /// Invoked once before any other handler, at time 0.
    fn on_start(&mut self, ctx: &Context, out: &mut Outbox<Self::Msg>) {
        let _ = (ctx, out);
    }

    /// The application A-XCasts `msg` (A-MCast or A-BCast) at this process.
    /// Hosts guarantee `msg.id.origin == ctx.id()`.
    fn on_cast(&mut self, msg: AppMessage, ctx: &Context, out: &mut Outbox<Self::Msg>);

    /// A protocol message from `from` arrives (quasi-reliable links: no
    /// corruption, no duplication; delivered unless an endpoint crashed).
    fn on_message(
        &mut self,
        from: ProcessId,
        msg: Self::Msg,
        ctx: &Context,
        out: &mut Outbox<Self::Msg>,
    );

    /// A timer armed via [`Outbox::set_timer`] fires.
    fn on_timer(&mut self, kind: u64, ctx: &Context, out: &mut Outbox<Self::Msg>) {
        let _ = (kind, ctx, out);
    }

    /// The host's failure-detector oracle reports that `crashed` has
    /// crashed. In the simulator this models an eventually perfect detector
    /// with configurable detection delay. `wamcast-net` has no detector of
    /// its own: a socket node invokes this only when it is sent a
    /// `Frame::CrashNotify`. Only ever invoked for processes that really
    /// crashed (accuracy), eventually invoked at every correct process for
    /// every crashed one (completeness).
    fn on_crash_notification(
        &mut self,
        crashed: ProcessId,
        ctx: &Context,
        out: &mut Outbox<Self::Msg>,
    ) {
        let _ = (crashed, ctx, out);
    }

    /// Classifies a wire message for the trace layer: its lifecycle class
    /// and the casts it references. Purely observational — hosts call it
    /// only when tracing is enabled, and it must not mutate anything (it
    /// takes no `&self`, so it cannot). The default declines to classify,
    /// which traces as generic send/recv events; wrapper protocols must
    /// forward to the wrapped protocol's implementation.
    fn describe_msg(msg: &Self::Msg) -> Option<MsgInfo> {
        let _ = msg;
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GroupSet, MessageId, Payload};

    struct Echo;

    impl Protocol for Echo {
        type Msg = u32;

        fn on_cast(&mut self, msg: AppMessage, ctx: &Context, out: &mut Outbox<u32>) {
            // Echo protocols: deliver own casts immediately, ping group peers.
            let peers: Vec<_> = ctx
                .topology()
                .members(ctx.group())
                .iter()
                .copied()
                .filter(|&q| q != ctx.id())
                .collect();
            out.send_many(peers, 7);
            out.deliver(msg);
        }

        fn on_message(&mut self, _f: ProcessId, _m: u32, _ctx: &Context, _out: &mut Outbox<u32>) {}
    }

    #[test]
    fn context_accessors() {
        let topo = Arc::new(Topology::symmetric(2, 2));
        let ctx = Context::new(ProcessId(2), topo, SimTime::from_millis(5));
        assert_eq!(ctx.id(), ProcessId(2));
        assert_eq!(ctx.group(), GroupId(1));
        assert_eq!(ctx.now().as_millis(), 5);
        assert_eq!(ctx.topology().num_processes(), 4);
    }

    #[test]
    fn outbox_buffers_in_order() {
        let topo = Arc::new(Topology::symmetric(1, 3));
        let ctx = Context::new(ProcessId(0), topo, SimTime::ZERO);
        let mut out = Outbox::new();
        let m = AppMessage::new(
            MessageId::new(ProcessId(0), 0),
            GroupSet::singleton(GroupId(0)),
            Payload::new(),
        );
        Echo.on_cast(m.clone(), &ctx, &mut out);
        assert_eq!(out.len(), 2); // one shared fan-out + one deliver
        let acts: Vec<_> = out.drain().collect();
        assert!(matches!(
            &acts[0],
            Action::SendMany { tos, msg }
                if **msg == 7 && tos == &[ProcessId(1), ProcessId(2)]
        ));
        assert!(matches!(&acts[1], Action::Deliver(d) if d.id == m.id));
        assert!(out.is_empty());
    }

    #[test]
    fn send_many_degenerate_shapes() {
        let mut out = Outbox::<u32>::new();
        out.send_many([], 1); // empty fan-out: no action at all
        assert!(out.is_empty());
        out.send_many([ProcessId(4)], 2); // fan-out of one: plain send
        let acts: Vec<_> = out.drain().collect();
        assert!(matches!(acts[0], Action::Send { to, msg: 2 } if to == ProcessId(4)));
    }

    #[test]
    fn msg_slot_take_avoids_copy_when_unique() {
        let shared = Arc::new(vec![1u8, 2, 3]);
        let a = MsgSlot::Shared(Arc::clone(&shared));
        let b = MsgSlot::Shared(shared);
        assert_eq!(a.take(), vec![1, 2, 3]); // clones: sibling still live
        assert_eq!(b.take(), vec![1, 2, 3]); // last handle: moves out
        assert_eq!(MsgSlot::Owned(7u32).take(), 7);
        let c = MsgSlot::Shared(Arc::new(9u32));
        assert_eq!(c.clone().take(), 9);
    }

    #[test]
    fn outbox_buffer_reuse_roundtrip() {
        let mut out = Outbox::with_buffer(vec![Action::<u32>::Timer {
            after: Duration::ZERO,
            kind: 0,
        }]);
        assert!(out.is_empty(), "with_buffer clears stale actions");
        out.send(ProcessId(0), 5);
        out.emit(Action::Deliver(AppMessage::new(
            MessageId::new(ProcessId(0), 0),
            GroupSet::singleton(GroupId(0)),
            Payload::new(),
        )));
        let buf = out.into_buffer();
        assert_eq!(buf.len(), 2);
    }

    #[test]
    fn default_handlers_are_noops() {
        let topo = Arc::new(Topology::symmetric(1, 1));
        let ctx = Context::new(ProcessId(0), topo, SimTime::ZERO);
        let mut out = Outbox::<u32>::new();
        let mut e = Echo;
        e.on_start(&ctx, &mut out);
        e.on_timer(9, &ctx, &mut out);
        e.on_crash_notification(ProcessId(0), &ctx, &mut out);
        assert!(out.is_empty());
    }
}
