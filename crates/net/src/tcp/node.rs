//! The socket-free half of a TCP node: every host decision, no socket,
//! thread or clock. See "Core and shell" in the parent module.

use super::{
    bump, Frame, NetStats, Service, SharedDeliveries, SharedTrace, TcpNodeConfig, MAX_FRAME,
};
use crate::WallFaults;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::ops::Range;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use wamcast_trace::{Phase, TraceEvent};
use wamcast_types::proto::trace_msg;
use wamcast_types::wire::{self, BodyCache, Wire, WireWriter};
use wamcast_types::{
    Action, AppMessage, Context, IdSet, MessageId, MsgSlot, Outbox, ProcessId, Protocol, SimTime,
};

/// Most bytes read from one connection per turn (and the initial size of
/// its reassembly buffer): one ready connection cannot starve the others.
const READ_CHUNK: usize = 64 * 1024;

/// Most bytes queued for one destination. A frame that would push a
/// non-empty out-buffer past this is dropped: the peer is not reading, and
/// queueing further would only grow memory and reorder recovery.
const OUT_CAP: usize = 4 * 1024 * 1024;

/// Whole length-prefixed frames waiting for one destination's socket.
#[derive(Default)]
pub(super) struct OutBuf {
    pub(super) bytes: Vec<u8>,
    /// Frames queued since the shell last took stock: sent once a socket
    /// takes them over, lost if their link stays down.
    pub(super) queued: u64,
    /// The socket refused more bytes; `poll` says when to try again.
    pub(super) blocked: bool,
}

impl OutBuf {
    /// Queues one frame, or counts why it cannot be: too large to frame,
    /// or the buffer is at its cap (an empty buffer takes any frame, so
    /// the cap never makes a frame unsendable).
    fn push(&mut self, body: &[u8], stats: &NetStats) {
        if body.len() > MAX_FRAME as usize {
            bump(&stats.bad_frame);
        } else if !self.bytes.is_empty() && self.bytes.len() + 4 + body.len() > OUT_CAP {
            bump(&stats.out_full);
        } else {
            self.bytes
                .extend_from_slice(&(body.len() as u32).to_le_bytes());
            self.bytes.extend_from_slice(body);
            self.queued += 1;
        }
    }
}

/// One inbound connection's reassembly buffer: `buf[start..end]` is
/// received and not yet consumed. The shell reads into
/// [`spare`](Self::spare); [`next_frame`](Self::next_frame) keeps room
/// after `end`.
pub(super) struct Inbox {
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

/// An inbound length prefix above [`MAX_FRAME`].
struct Oversize;

impl Default for Inbox {
    fn default() -> Self {
        let buf = vec![0; READ_CHUNK];
        Inbox {
            buf,
            start: 0,
            end: 0,
        }
    }
}

impl Inbox {
    /// The free tail one `read` may fill: at most [`READ_CHUNK`] bytes.
    pub(super) fn spare(&mut self) -> &mut [u8] {
        let room = self.buf.len().min(self.end + READ_CHUNK);
        &mut self.buf[self.end..room]
    }

    /// Takes in the first `n` bytes of [`spare`](Self::spare).
    pub(super) fn filled(&mut self, n: usize) {
        self.end += n;
    }

    /// The body of the next complete frame, consuming it; `None` when the
    /// rest of it has yet to arrive, in which case the buffer now has room
    /// for that rest (consumed bytes reclaimed, grown only for a frame
    /// larger than it — bounded, since the claim was checked).
    fn next_frame(&mut self) -> Result<Option<Range<usize>>, Oversize> {
        let have = self.end - self.start;
        if have == 0 {
            self.start = 0;
            self.end = 0;
        }
        let need = if have < 4 {
            4
        } else {
            let prefix = self.buf[self.start..self.start + 4]
                .try_into()
                .expect("four bytes");
            let len = u32::from_le_bytes(prefix);
            if len > MAX_FRAME {
                return Err(Oversize);
            }
            4 + len as usize
        };
        if have >= need {
            let body = self.start + 4..self.start + need;
            self.start += need;
            return Ok(Some(body));
        }
        if self.buf.len() - self.start < need {
            self.buf.copy_within(self.start..self.end, 0);
            self.start = 0;
            self.end = have;
            if self.buf.len() < need {
                self.buf.resize(need, 0);
            }
        }
        Ok(None)
    }
}

/// Everything one node decides: the protocol and its handler context,
/// timers, the host's bookkeeping and one outbound queue per process.
pub(super) struct NodeCore<P: Protocol> {
    me: ProcessId,
    arm: u8,
    proto: P,
    /// The protocol's handler context (it holds the topology), moved to
    /// each step's instant.
    ctx: Context,
    /// The time since the node's zero: the zero of [`Context::now`], of
    /// trace stamps and of timer deadlines.
    clock: Box<dyn Fn() -> SimTime + Send>,
    /// Pending protocol timers, earliest deadline first.
    timers: BinaryHeap<Reverse<(SimTime, u64)>>,
    /// Self-addressed sends of the last step: they never touch a socket.
    pending_self: VecDeque<MsgSlot<P::Msg>>,
    /// Backing storage of every step's [`Outbox`].
    actions: Vec<Action<P::Msg>>,
    /// Scratch each outbound frame is encoded into, once for all copies.
    frame: Vec<u8>,
    /// Casts already injected (a retried `Cast` is acknowledged again but
    /// cast once).
    injected: IdSet,
    /// Bodies decoded lately; every inbound frame is decoded through it.
    bodies: BodyCache,
    delivered: SharedDeliveries,
    service: Service,
    faults: Option<Arc<WallFaults>>,
    trace: Option<SharedTrace>,
    pub(super) stats: Arc<NetStats>,
    /// Peer frames waiting for their link, indexed by process id; `me`'s
    /// stays empty.
    pub(super) links: Vec<OutBuf>,
    /// A `Shutdown` frame arrived.
    pub(super) exit: bool,
}

impl<P> NodeCore<P>
where
    P: Protocol,
    P::Msg: Wire,
{
    /// The core of process `cfg.me`; its listen addresses are the shell's.
    pub(super) fn new(
        cfg: &TcpNodeConfig,
        proto: P,
        delivered: SharedDeliveries,
        service: Service,
        clock: Box<dyn Fn() -> SimTime + Send>,
    ) -> Self {
        NodeCore {
            me: cfg.me,
            arm: cfg.arm,
            proto,
            ctx: Context::new(cfg.me, Arc::clone(&cfg.topo), SimTime::ZERO),
            clock,
            timers: BinaryHeap::new(),
            pending_self: VecDeque::new(),
            actions: Vec::new(),
            frame: Vec::new(),
            injected: IdSet::new(),
            bodies: BodyCache::new(),
            delivered,
            service,
            faults: cfg.faults.clone(),
            trace: cfg.trace.clone(),
            stats: Arc::default(),
            links: cfg.topo.processes().map(|_| OutBuf::default()).collect(),
            exit: false,
        }
    }

    /// Starts the protocol.
    pub(super) fn start(&mut self) {
        self.step(|p, c, o| p.on_start(c, o));
    }

    /// Handles every complete frame `inbox` holds, in order, replying into
    /// `replies`, until the node is told to exit. Returns `false` on an
    /// oversize length claim, which is counted: nothing after it can be
    /// framed, so the connection is lost (the node is not).
    pub(super) fn take_frames(&mut self, inbox: &mut Inbox, replies: &mut OutBuf) -> bool {
        while !self.exit {
            let Ok(next) = inbox.next_frame() else {
                bump(&self.stats.bad_frame);
                return false;
            };
            let Some(body) = next else { break };
            bump(&self.stats.frames_in);
            let frame = wire::open_sharing(self.arm, &inbox.buf[body], &mut self.bodies);
            // Relaxed: statistics, publishing nothing else.
            let (hits, misses) = (self.bodies.hits(), self.bodies.misses());
            self.stats.body_hits.store(hits, Ordering::Relaxed);
            self.stats.body_misses.store(misses, Ordering::Relaxed);
            match frame {
                Ok(frame) => self.dispatch(frame, replies),
                // Wrong version or arm, or garbage: drop the frame, keep the
                // connection — a self-stabilizing receiver never crashes on
                // hostile input.
                Err(_) => bump(&self.stats.bad_frame),
            }
        }
        true
    }

    /// Fires every timer that is due.
    pub(super) fn fire_timers(&mut self) {
        while let Some(&Reverse((at, kind))) = self.timers.peek() {
            if at > (self.clock)() {
                break;
            }
            self.timers.pop();
            self.step(|p, c, o| p.on_timer(kind, c, o));
        }
    }

    /// Milliseconds until the next timer is due, rounded **up** (rounding
    /// down would wake early and spin on a zero wait until the timer is
    /// due), and at most `cap`.
    pub(super) fn next_timer_ms(&self, cap: i32) -> i32 {
        self.timers.peek().map_or(cap, |&Reverse((at, _))| {
            let wait = at.saturating_since((self.clock)());
            wait.as_nanos().div_ceil(1_000_000).min(cap as u128) as i32
        })
    }

    /// Flight-recorder append: a no-op branch when tracing is off. Purely
    /// observational — the lock is held for the push alone, and the only
    /// other holders are short-lived dump readers.
    fn record(&self, phase: Phase, cast: Option<MessageId>, peer: Option<ProcessId>) {
        let Some(Ok(mut ring)) = self.trace.as_ref().map(|t| t.lock()) else {
            return;
        };
        ring.push(TraceEvent {
            at_us: (self.clock)().as_micros(),
            node: self.me.0,
            phase,
            cast: cast.map(MessageId::cast_key),
            peer: peer.map(|q| q.0),
        });
    }

    fn record_msg(&self, msg: &P::Msg, sending: bool, peer: ProcessId) {
        if self.trace.is_some() {
            trace_msg::<P>(msg, sending, |phase, c| self.record(phase, c, Some(peer)));
        }
    }

    /// Runs one protocol handler and carries out what it emitted, then
    /// every self-addressed send that followed from it.
    fn step(&mut self, f: impl FnOnce(&mut P, &Context, &mut Outbox<P::Msg>)) {
        self.step_once(f);
        while let Some(slot) = self.pending_self.pop_front() {
            let msg = slot.take();
            self.record_msg(&msg, false, self.me);
            let me = self.me;
            self.step_once(|p, c, o| p.on_message(me, msg, c, o));
        }
    }

    fn step_once(&mut self, f: impl FnOnce(&mut P, &Context, &mut Outbox<P::Msg>)) {
        self.ctx.set_now((self.clock)());
        let mut out = Outbox::with_buffer(std::mem::take(&mut self.actions));
        f(&mut self.proto, &self.ctx, &mut out);
        let mut actions = out.into_buffer();
        for action in actions.drain(..) {
            match action {
                Action::Send { to, msg } => {
                    if !self.ship(to, &msg, &mut false) {
                        self.pending_self.push_back(MsgSlot::Owned(msg));
                    }
                }
                Action::SendMany { tos, msg } => {
                    let mut encoded = false;
                    for &to in tos.iter() {
                        if !self.ship(to, &msg, &mut encoded) {
                            self.pending_self
                                .push_back(MsgSlot::Shared(Arc::clone(&msg)));
                        }
                    }
                }
                Action::Deliver(m) => {
                    self.record(Phase::Deliver, Some(m.id), None);
                    self.delivered
                        .lock()
                        .expect("delivery log poisoned")
                        .push(m.id);
                }
                // Measured from after the handler that armed it.
                Action::Timer { after, kind } => {
                    self.timers.push(Reverse(((self.clock)() + after, kind)));
                }
            }
        }
        self.actions = actions;
    }

    /// Queues the copies of `msg` for `to` that the adversary lets
    /// through, or returns `false` if `to` is this node: a self-addressed
    /// send is a hand-off the caller queues, not a link, so the adversary
    /// draws no randomness for it. `encoded` says whether `self.frame`
    /// already holds this action's frame, which serves every destination;
    /// an action whose copies are all dropped never encodes at all.
    fn ship(&mut self, to: ProcessId, msg: &P::Msg, encoded: &mut bool) -> bool {
        // Record before the fault fate, mirroring the simulator: the copy
        // *was* sent even if the adversary eats it.
        self.record_msg(msg, true, to);
        if to == self.me {
            return false;
        }
        // One fate per copy, from the adversary every node shares.
        let fate = self
            .faults
            .as_ref()
            .map(|f| f.fate_at(self.me, to, (self.clock)()));
        if fate.as_ref().is_some_and(|f| f.dropped) {
            return true;
        }
        let copies = 1 + usize::from(fate.is_some_and(|f| f.duplicate.is_some()));
        let Some(out) = self.links.get_mut(to.index()) else {
            return true;
        };
        if !*encoded {
            let mut w = WireWriter::over(std::mem::take(&mut self.frame));
            w.raw(&wire::MAGIC);
            w.u8(wire::VERSION);
            w.u8(self.arm);
            w.u8(0); // Frame::Peer tag
            self.me.encode(&mut w);
            msg.encode(&mut w);
            self.frame = w.finish();
            *encoded = true;
        }
        for _ in 0..copies {
            out.push(&self.frame, &self.stats);
        }
        true
    }

    /// Queues `reply` for the connection the frame it answers came from.
    fn reply(&mut self, replies: &mut OutBuf, reply: &Frame<P::Msg>) {
        wire::seal_into(self.arm, reply, &mut self.frame);
        replies.push(&self.frame, &self.stats);
    }

    /// Acts on one decoded inbound frame, unless it names an id the
    /// topology does not have, or is a notice that this node itself
    /// crashed: a running node is not crashed, and believing it would make
    /// its protocol relay its own casts and step down as its group's
    /// coordinator.
    fn dispatch(&mut self, frame: Frame<P::Msg>, replies: &mut OutBuf) {
        let topo = self.ctx.topology();
        let known = match &frame {
            Frame::Peer { from: p, .. } => p.index() < topo.num_processes(),
            Frame::CrashNotify { of } => *of != self.me && of.index() < topo.num_processes(),
            Frame::Cast { dest, .. } => !dest.is_empty() && dest.is_subset(topo.all_groups()),
            _ => true,
        };
        if !known {
            bump(&self.stats.bad_frame);
            return;
        }
        match frame {
            Frame::Peer { from, msg } => {
                self.record_msg(&msg, false, from);
                self.step(|p, c, o| p.on_message(from, msg, c, o));
            }
            Frame::Cast { seq, dest, payload } => {
                let id = MessageId::new(self.me, seq);
                // Ack first (the client records the op before the send, the
                // ack is just confirmation), then inject exactly once even
                // if a client retries the frame.
                self.reply(replies, &Frame::CastAck { id });
                if self.injected.insert(id) {
                    self.record(Phase::Cast, Some(id), None);
                    // A `Cast` names its message by `seq` alone; from here
                    // on every frame carrying it shares this body.
                    self.bodies.prime(id, &payload);
                    let m = AppMessage::new(id, dest, payload);
                    self.step(|p, c, o| p.on_cast(m, c, o));
                }
            }
            Frame::Req { body } => {
                let body = (self.service)(&body);
                self.reply(replies, &Frame::Rep { body });
            }
            Frame::CrashNotify { of } => {
                self.record(Phase::CrashNotice, None, Some(of));
                self.step(|p, c, o| p.on_crash_notification(of, c, o));
            }
            Frame::Shutdown => self.exit = true,
            // Reply frames are client-bound; a node receiving one ignores it.
            Frame::CastAck { .. } | Frame::Rep { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    //! The host policy, driven with frames alone: no socket, no sleep, no
    //! thread. What needs a kernel — flush order, dialing, backpressure,
    //! the oversize close, wake-ups and syscall counts — is tested over
    //! loopback in `tests/tcp_cluster.rs`.

    use super::*;
    use crate::tcp::{read_frame, write_frame};
    use wamcast_types::{shared_ids, FaultPlan, GroupId, GroupSet, Payload, Topology};

    const ARM: u8 = 0x2A;

    type M = AppMessage;
    type F = Frame<M>;

    /// Test protocol: a cast goes to every process of its destination
    /// groups (the caster included) and is delivered on receipt. It counts
    /// the casts and keeps the crash notices it is handed.
    #[derive(Default)]
    struct Flood {
        casts: usize,
        crashed: Vec<ProcessId>,
    }

    impl Protocol for Flood {
        type Msg = M;

        fn on_cast(&mut self, msg: M, ctx: &Context, out: &mut Outbox<M>) {
            self.casts += 1;
            out.send_many(shared_ids(ctx.topology().processes_in(msg.dest)), msg);
        }

        fn on_message(&mut self, _: ProcessId, msg: M, _: &Context, out: &mut Outbox<M>) {
            out.deliver(msg);
        }

        fn on_crash_notification(&mut self, of: ProcessId, _: &Context, _: &mut Outbox<M>) {
            self.crashed.push(of);
        }
    }

    /// Process `me` of an `n` x 1 topology, with an echo service and a
    /// clock that stands still.
    fn core(me: u32, n: usize, faults: Option<Arc<WallFaults>>) -> NodeCore<Flood> {
        let topo = Arc::new(Topology::symmetric(n, 1));
        let (me, addrs, arm, trace) = (ProcessId(me), Vec::new(), ARM, None);
        let cfg = TcpNodeConfig {
            me,
            topo,
            addrs,
            arm,
            faults,
            trace,
        };
        let echo: Service = Arc::new(|body: &[u8]| body.to_vec());
        let stopped = Box::new(|| SimTime::ZERO);
        NodeCore::new(&cfg, Flood::default(), Arc::default(), echo, stopped)
    }

    /// One length-prefixed, enveloped frame.
    fn framed(frame: &F) -> Vec<u8> {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &wire::seal(ARM, frame)).expect("frame fits");
        bytes
    }

    fn cast(seq: u64, dest: GroupSet) -> Vec<u8> {
        let payload = Payload::from_static(b"cast");
        framed(&F::Cast { seq, dest, payload })
    }

    fn req(b: &[u8]) -> Vec<u8> {
        framed(&F::Req { body: b.to_vec() })
    }

    fn rep(b: &[u8]) -> F {
        F::Rep { body: b.to_vec() }
    }

    fn ack(seq: u64) -> F {
        let id = MessageId::new(ProcessId(0), seq);
        F::CastAck { id }
    }

    /// Hands `bytes` to connection `c` as reads would, as much as its
    /// buffer takes at a time, and returns the replies the core queued.
    fn feed(node: &mut NodeCore<Flood>, c: &mut (Inbox, OutBuf), mut bytes: &[u8]) -> Vec<F> {
        while !bytes.is_empty() {
            let spare = c.0.spare();
            let n = spare.len().min(bytes.len());
            spare[..n].copy_from_slice(&bytes[..n]);
            c.0.filled(n);
            bytes = &bytes[n..];
            assert!(node.take_frames(&mut c.0, &mut c.1), "oversize");
        }
        drain(&mut c.1)
    }

    /// The frames queued in `out`, decoded, leaving it empty.
    fn drain(out: &mut OutBuf) -> Vec<F> {
        let bytes = std::mem::take(&mut out.bytes);
        let mut rest = &bytes[..];
        let mut frames = Vec::new();
        while !rest.is_empty() {
            let body = read_frame(&mut rest).expect("whole frames");
            frames.push(wire::open(ARM, &body).expect("decodes"));
        }
        assert_eq!(frames.len() as u64, std::mem::take(&mut out.queued));
        frames
    }

    fn delivered(node: &NodeCore<Flood>) -> Vec<MessageId> {
        node.delivered.lock().expect("log").clone()
    }

    #[test]
    fn frame_arriving_one_byte_at_a_time_reassembles() {
        let (mut node, mut c) = (core(0, 1, None), Default::default());
        let bytes = req(&[7; 40]);
        let (last, rest) = bytes.split_last().expect("bytes");
        for &byte in rest {
            assert_eq!(feed(&mut node, &mut c, &[byte]), [], "partial frame");
        }
        assert_eq!(feed(&mut node, &mut c, &[*last]), [rep(&[7; 40])]);
        assert_eq!((node.stats.frames_in(), node.stats.bad_frame()), (1, 0));
    }

    #[test]
    fn two_frames_in_one_segment_both_dispatch() {
        let (mut node, mut c) = (core(0, 1, None), Default::default());
        let both = [req(&[1]), req(&[2, 2])].concat();
        assert_eq!(feed(&mut node, &mut c, &both), [rep(&[1]), rep(&[2, 2])]);
    }

    #[test]
    fn frames_naming_ids_outside_the_topology_are_refused_and_the_node_keeps_serving() {
        // A 1x1 topology: the only process is p0, the only group g0.
        let (mut node, mut c) = (core(0, 1, None), Default::default());
        let g0 = GroupSet::first_n(1);
        let p7 = ProcessId(7);
        let msg = AppMessage::new(MessageId::new(p7, 0), g0, Payload::new());
        let hostile = [
            cast(1, GroupSet::singleton(GroupId(5))),
            cast(2, GroupSet::new()),
            framed(&F::CrashNotify { of: ProcessId(9) }),
            framed(&F::Peer { from: p7, msg }),
        ];
        // The echo is the only reply: no cast was acked.
        let bytes = [hostile.concat(), req(&[1])].concat();
        assert_eq!(feed(&mut node, &mut c, &bytes), [rep(&[1])]);
        assert!(delivered(&node).is_empty(), "a refused frame takes no step");
        assert_eq!((node.proto.casts, node.proto.crashed.len()), (0, 0));
        assert_eq!(node.stats.bad_frame(), hostile.len() as u64);

        let mut fresh = Default::default();
        assert_eq!(feed(&mut node, &mut fresh, &cast(3, g0)), [ack(3)]);
        assert_eq!(delivered(&node), [MessageId::new(ProcessId(0), 3)]);
        assert_eq!(node.stats.bad_frame(), hostile.len() as u64);
    }

    #[test]
    fn a_version_1_peer_frame_is_refused_and_counted_and_the_node_keeps_serving() {
        // Wire v2 added the sender's floor to consensus `Accepted`, so a v1
        // body cannot be read as v2: the node drops the whole frame, counts
        // it, and keeps both the connection and the node serving.
        let (mut node, mut peer) = (core(0, 2, None), Default::default());
        let g0 = GroupSet::first_n(1);
        let (from, body) = (ProcessId(1), Payload::from_static(b"v1"));
        let msg = AppMessage::new(MessageId::new(from, 0), g0, body);
        let mut v1 = framed(&F::Peer { from, msg });
        assert_eq!(v1[4 + 2], wire::VERSION, "byte 2 of the envelope");
        v1[4 + 2] = 1;
        let bytes = [v1, req(&[1])].concat();
        assert_eq!(feed(&mut node, &mut peer, &bytes), [rep(&[1])]);
        assert!(delivered(&node).is_empty(), "the v1 frame takes no step");
        assert_eq!(node.stats.bad_frame(), 1);

        assert_eq!(feed(&mut node, &mut peer, &cast(0, g0)), [ack(0)]);
        assert_eq!(delivered(&node), [MessageId::new(ProcessId(0), 0)]);
        assert_eq!(node.stats.bad_frame(), 1);
    }

    /// A node told that it crashed itself refuses the notice: were it to
    /// believe it, A1 would relay the node's own pending casts and its Paxos
    /// engine would suspect itself and stop coordinating its group while its
    /// peers still forward to it. A notice about another process is taken.
    #[test]
    fn a_crash_notice_naming_the_receiver_is_refused_and_counted() {
        let (mut node, mut c) = (core(0, 2, None), Default::default());
        let notice = |of| framed(&F::CrashNotify { of: ProcessId(of) });
        let both = [notice(0), notice(1)].concat();
        assert_eq!(feed(&mut node, &mut c, &both), []);
        assert_eq!(node.proto.crashed, [ProcessId(1)]);
        assert_eq!(node.stats.bad_frame(), 1);
    }

    /// Probability-1 rules make every fate certain: p0 -> p1 always drops,
    /// every surviving copy is duplicated. This pins what a fate means in
    /// queued frames: dropped = 0 copies (and a dropped copy is never
    /// duplicated), duplicated = 2, and a self-addressed send is a hand-off
    /// the adversary never sees = 1.
    #[test]
    fn adversary_fates_map_to_copies_on_the_send_path() {
        let (p0, p1, hour) = (ProcessId(0), ProcessId(1), SimTime::from_millis(3_600_000));
        let plan = FaultPlan::none().with_drop(p0, p1, 1.0);
        let plan = plan.with_duplication(1.0, SimTime::ZERO, hour);
        let faults = Arc::new(WallFaults::new(plan, 1));
        let everyone = GroupSet::first_n(3);
        for (me, copies) in [(0, [0, 0, 2]), (1, [2, 0, 2])] {
            let mut node = core(me, 3, Some(Arc::clone(&faults)));
            feed(&mut node, &mut Default::default(), &cast(0, everyone));
            let (from, id) = (ProcessId(me), MessageId::new(ProcessId(me), 0));
            assert_eq!(delivered(&node), [id], "p{me} hands itself one copy");
            let msg = AppMessage::new(id, everyone, Payload::from_static(b"cast"));
            let sent = F::Peer { from, msg };
            for (to, &n) in copies.iter().enumerate() {
                let want = vec![sent.clone(); n];
                assert_eq!(drain(&mut node.links[to]), want, "p{me} -> p{to}");
            }
        }
    }

    /// A client that lost an ack resends its `Cast` under the same `seq`,
    /// on the same connection or on a new one. Each copy is acked with the
    /// one id the client already recorded; the cast is injected once.
    #[test]
    fn a_retried_cast_is_acked_again_and_cast_once() {
        let id = MessageId::new(ProcessId(0), 5);
        for connections in [1, 2] {
            let mut node = core(0, 1, None);
            let mut conns: [(Inbox, OutBuf); 2] = Default::default();
            for i in 0..2 {
                let c = &mut conns[i % connections];
                assert_eq!(feed(&mut node, c, &cast(5, GroupSet::first_n(1))), [ack(5)]);
            }
            assert_eq!(node.proto.casts, 1, "{connections} connection(s)");
            assert_eq!(delivered(&node), [id], "{connections} connection(s)");
        }
    }
}
