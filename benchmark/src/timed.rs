//! `Timed<P>`: the benchmark's span recorder around a protocol's handlers.
//!
//! The layers of the stack (reliable multicast, consensus, the A1/A2
//! ordering logic) are nested inside one [`Protocol`] value, so from
//! outside they are told apart the only way a host can: by the class
//! [`Protocol::describe_msg`] gives each wire message. `Timed` forwards
//! every handler, and — only when a [`Probe`] is attached — times the
//! call, classifies what came in and what went out, and keeps the most
//! recent handler spans for the trace file. Without a probe it is a
//! single branch per handler: the untraced runs host the same type.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use wamcast_types::{Action, AppMessage, Context, MsgClass, MsgInfo, Outbox, ProcessId, Protocol};

/// Number of [`MsgClass`] variants (array dimension of per-class tallies).
pub const CLASSES: usize = 6;

/// Display names of the classes, indexed like the tallies.
pub const CLASS_NAMES: [&str; CLASSES] = ["rmcast", "ts", "propose", "accept", "decide", "other"];

/// Handler spans kept per node for the trace file.
const SPAN_LOG: usize = 4096;

/// Tally index of a class.
pub fn class_index(c: MsgClass) -> usize {
    match c {
        MsgClass::Rmcast => 0,
        MsgClass::Ts => 1,
        MsgClass::Propose => 2,
        MsgClass::Accept => 3,
        MsgClass::Decide => 4,
        MsgClass::Other => 5,
    }
}

/// Count and busy time of one kind of handler call.
#[derive(Clone, Copy, Debug, Default)]
pub struct Calls {
    /// Invocations.
    pub n: u64,
    /// Wall nanoseconds spent inside them.
    pub ns: u64,
}

impl Calls {
    fn add(&mut self, ns: u64) {
        self.n += 1;
        self.ns += ns;
    }

    /// Sums two tallies.
    pub fn plus(self, o: Calls) -> Calls {
        Calls {
            n: self.n + o.n,
            ns: self.ns + o.ns,
        }
    }
}

/// What one node received and sent of one message class.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClassTally {
    /// `on_message` calls for this class.
    pub recv: Calls,
    /// Send actions emitted (a fan-out counts once: it is encoded once).
    pub actions: u64,
    /// Cast ids those actions referenced, summed.
    pub action_casts: u64,
    /// Copies addressed to the sender itself (never cross a socket).
    pub self_copies: u64,
    /// Copies to other members of the sender's group.
    pub intra_copies: u64,
    /// Copies to other groups.
    pub inter_copies: u64,
    /// Framed bytes of the remote copies (0 when no sizer is installed).
    pub bytes: u64,
    /// Actions with at least one remote copy, i.e. actual encodes.
    pub encodes: u64,
    /// Copies emitted from `on_timer` (retransmissions, for rmcast).
    pub timer_copies: u64,
}

/// One handler invocation, kept for the trace file.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// The process whose handler ran.
    pub node: u32,
    /// Start, microseconds since the probe epoch.
    pub start_us: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// `"cast"`, `"timer"`, `"start-or-crash-notice"` or a class name.
    pub what: &'static str,
}

/// The countable part of what a probe accumulated; tallies of several
/// nodes add up.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tallies {
    /// `on_cast` calls.
    pub cast: Calls,
    /// `on_timer` calls.
    pub timer: Calls,
    /// `on_start` + `on_crash_notification` calls.
    pub other: Calls,
    /// Per-class traffic, indexed by [`class_index`].
    pub class: [ClassTally; CLASSES],
    /// Deliver actions emitted.
    pub delivers: u64,
}

impl Tallies {
    /// Adds another node's tallies to these.
    pub fn absorb(&mut self, o: &Tallies) {
        self.cast = self.cast.plus(o.cast);
        self.timer = self.timer.plus(o.timer);
        self.other = self.other.plus(o.other);
        self.delivers += o.delivers;
        for (a, b) in self.class.iter_mut().zip(&o.class) {
            a.recv = a.recv.plus(b.recv);
            a.actions += b.actions;
            a.action_casts += b.action_casts;
            a.self_copies += b.self_copies;
            a.intra_copies += b.intra_copies;
            a.inter_copies += b.inter_copies;
            a.bytes += b.bytes;
            a.encodes += b.encodes;
            a.timer_copies += b.timer_copies;
        }
    }

    /// All `on_message` calls, whatever the class.
    pub fn messages(&self) -> Calls {
        self.class
            .iter()
            .fold(Calls::default(), |a, c| a.plus(c.recv))
    }

    /// Wall nanoseconds inside handlers of every kind.
    pub fn handler_ns(&self) -> u64 {
        self.cast.ns + self.timer.ns + self.other.ns + self.messages().ns
    }
}

/// Everything one node's probe accumulated.
#[derive(Debug)]
pub struct NodeStats<M> {
    /// Counts and busy times since the last [`reset`](Self::reset_tallies).
    pub t: Tallies,
    /// Up to `capture` received messages per class, for the codec replay.
    pub captured: [Vec<M>; CLASSES],
    /// The most recent handler spans.
    pub spans: VecDeque<Span>,
}

impl<M> NodeStats<M> {
    /// Zeroes the tallies at the start of the measured interval; captured
    /// messages and the span log carry over.
    pub fn reset_tallies(&mut self) {
        self.t = Tallies::default();
    }
}

impl<M> Default for NodeStats<M> {
    fn default() -> Self {
        NodeStats {
            t: Tallies::default(),
            captured: std::array::from_fn(|_| Vec::new()),
            spans: VecDeque::new(),
        }
    }
}

/// Shared handle to one node's statistics: the node's handler thread
/// writes, the benchmark's main thread resets and reads.
pub type SharedStats<M> = Arc<Mutex<NodeStats<M>>>;

/// Framed size of a message as the socket runtime would send it; `buf`
/// is scratch the sizer may reuse.
pub type Sizer<M> = fn(&M, &mut Vec<u8>) -> usize;

/// The measuring half of [`Timed`], attached only in traced runs.
pub struct Probe<M> {
    stats: SharedStats<M>,
    epoch: Instant,
    sizer: Option<Sizer<M>>,
    capture: usize,
    kept: [usize; CLASSES],
    scratch: Vec<u8>,
}

impl<M> Probe<M> {
    /// A probe accumulating into `stats`, stamping spans relative to
    /// `epoch`, sizing outgoing frames with `sizer` (if any) and keeping up
    /// to `capture` received messages per class.
    pub fn new(
        stats: SharedStats<M>,
        epoch: Instant,
        sizer: Option<Sizer<M>>,
        capture: usize,
    ) -> Self {
        Probe {
            stats,
            epoch,
            sizer,
            capture,
            kept: [0; CLASSES],
            scratch: Vec::new(),
        }
    }
}

/// Which handler ran (for accounting).
enum Ran<M> {
    Cast,
    Timer,
    Other,
    Message { class: usize, keep: Option<M> },
}

/// A protocol with an optional [`Probe`] around its handlers; see the
/// [module docs](self).
pub struct Timed<P: Protocol> {
    inner: P,
    probe: Option<Probe<P::Msg>>,
}

impl<P: Protocol> Timed<P> {
    /// Wraps `inner`; `probe = None` forwards without measuring.
    pub fn new(inner: P, probe: Option<Probe<P::Msg>>) -> Self {
        Timed { inner, probe }
    }

    /// Runs `f` against the inner protocol under the probe and accounts
    /// for everything it emitted.
    fn measured(
        inner: &mut P,
        probe: &mut Probe<P::Msg>,
        ran: Ran<P::Msg>,
        ctx: &Context,
        out: &mut Outbox<P::Msg>,
        f: impl FnOnce(&mut P, &mut Outbox<P::Msg>),
    ) {
        let mut tmp = Outbox::new();
        let t0 = Instant::now();
        f(inner, &mut tmp);
        let dur_ns = t0.elapsed().as_nanos() as u64;

        let from_timer = matches!(ran, Ran::Timer);
        let me = ctx.id();
        let topo = ctx.topology();
        let mut guard = probe.stats.lock().expect("probe stats poisoned");
        let stats = &mut *guard;
        let what = match ran {
            Ran::Cast => {
                stats.t.cast.add(dur_ns);
                "cast"
            }
            Ran::Timer => {
                stats.t.timer.add(dur_ns);
                "timer"
            }
            Ran::Other => {
                stats.t.other.add(dur_ns);
                "start-or-crash-notice"
            }
            Ran::Message { class, keep } => {
                stats.t.class[class].recv.add(dur_ns);
                stats.captured[class].extend(keep);
                CLASS_NAMES[class]
            }
        };
        if stats.spans.len() == SPAN_LOG {
            stats.spans.pop_front();
        }
        stats.spans.push_back(Span {
            node: me.0,
            start_us: t0.duration_since(probe.epoch).as_micros() as u64,
            dur_ns,
            what,
        });

        for action in tmp.drain() {
            let (msg, tos): (&P::Msg, &[ProcessId]) = match &action {
                Action::Send { to, msg } => (msg, std::slice::from_ref(to)),
                Action::SendMany { tos, msg } => (msg, tos),
                Action::Deliver(_) => {
                    stats.t.delivers += 1;
                    out.emit(action);
                    continue;
                }
                Action::Timer { .. } => {
                    out.emit(action);
                    continue;
                }
            };
            let info = P::describe_msg(msg).unwrap_or(MsgInfo::new(MsgClass::Other, Vec::new()));
            let t = &mut stats.t.class[class_index(info.class)];
            t.actions += 1;
            t.action_casts += info.casts.len() as u64;
            let mut remote = 0u64;
            for &to in tos {
                if to == me {
                    t.self_copies += 1;
                    continue;
                }
                remote += 1;
                if topo.same_group(me, to) {
                    t.intra_copies += 1;
                } else {
                    t.inter_copies += 1;
                }
            }
            if from_timer {
                t.timer_copies += remote;
            }
            if remote > 0 {
                t.encodes += 1;
                if let Some(sizer) = probe.sizer {
                    t.bytes += remote * sizer(msg, &mut probe.scratch) as u64;
                }
            }
            out.emit(action);
        }
    }
}

impl<P: Protocol> Protocol for Timed<P> {
    type Msg = P::Msg;

    fn on_start(&mut self, ctx: &Context, out: &mut Outbox<P::Msg>) {
        match &mut self.probe {
            None => self.inner.on_start(ctx, out),
            Some(probe) => Self::measured(&mut self.inner, probe, Ran::Other, ctx, out, |p, o| {
                p.on_start(ctx, o)
            }),
        }
    }

    fn on_cast(&mut self, msg: AppMessage, ctx: &Context, out: &mut Outbox<P::Msg>) {
        match &mut self.probe {
            None => self.inner.on_cast(msg, ctx, out),
            Some(probe) => Self::measured(&mut self.inner, probe, Ran::Cast, ctx, out, |p, o| {
                p.on_cast(msg, ctx, o)
            }),
        }
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: P::Msg,
        ctx: &Context,
        out: &mut Outbox<P::Msg>,
    ) {
        match &mut self.probe {
            None => self.inner.on_message(from, msg, ctx, out),
            Some(probe) => {
                let class = P::describe_msg(&msg).map_or(MsgClass::Other, |i| i.class);
                let class = class_index(class);
                // Clone for the codec replay until this class's quota is full.
                let keep = (probe.kept[class] < probe.capture).then(|| {
                    probe.kept[class] += 1;
                    msg.clone()
                });
                let ran = Ran::Message { class, keep };
                Self::measured(&mut self.inner, probe, ran, ctx, out, |p, o| {
                    p.on_message(from, msg, ctx, o)
                });
            }
        }
    }

    fn on_timer(&mut self, kind: u64, ctx: &Context, out: &mut Outbox<P::Msg>) {
        match &mut self.probe {
            None => self.inner.on_timer(kind, ctx, out),
            Some(probe) => Self::measured(&mut self.inner, probe, Ran::Timer, ctx, out, |p, o| {
                p.on_timer(kind, ctx, o)
            }),
        }
    }

    fn on_crash_notification(
        &mut self,
        crashed: ProcessId,
        ctx: &Context,
        out: &mut Outbox<P::Msg>,
    ) {
        match &mut self.probe {
            None => self.inner.on_crash_notification(crashed, ctx, out),
            Some(probe) => Self::measured(&mut self.inner, probe, Ran::Other, ctx, out, |p, o| {
                p.on_crash_notification(crashed, ctx, o)
            }),
        }
    }

    fn describe_msg(msg: &P::Msg) -> Option<MsgInfo> {
        P::describe_msg(msg)
    }
}
