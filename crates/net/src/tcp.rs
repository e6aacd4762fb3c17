//! TCP runtime: one node per protocol instance, connected by `std::net`
//! sockets speaking the `wamcast_types::wire` format — one OS process
//! each (the harness's `peer` binary), or all in the calling process over
//! loopback ([`LocalCluster`]).
//!
//! This is the runtime the simulator cannot stand in for: messages really
//! cross byte boundaries (every send pays encode + syscall + decode), and
//! chaos means real `kill -9` and real socket resets, not a flag flip. The
//! protocol values hosted here are the same sans-io state machines the
//! simulator drives — the only new requirement is `P::Msg: Wire`.
//!
//! # Shape
//!
//! * [`serve`] binds a listener and spawns **one thread** — the node — then
//!   returns a non-generic [`TcpNode`] handle. The node owns the protocol
//!   value, the listener, every inbound connection and one outbound link
//!   per peer, all nonblocking, and waits on the lot with `poll(2)`; the
//!   timeout is the next protocol timer, rounded *up* to a millisecond so
//!   a timer neither fires early nor spins the loop.
//! * **One wake-up, one turn.** A turn reads whatever each ready socket
//!   holds into that connection's reassembly buffer, decodes every
//!   complete frame and steps the protocol on it inline (self-addressed
//!   sends and due timers are settled in the same turn), and appends what
//!   the steps emit to per-socket out-buffers. Every dirty socket is then
//!   written **once**: client replies first, peer links second — a
//!   [`Frame::CastAck`] is therefore in the client's socket before any
//!   remote replica can have seen the cast.
//! * Framing is a `u32` little-endian length prefix (bounded by
//!   [`MAX_FRAME`]) around an enveloped [`Frame`]; see
//!   [`wamcast_types::wire`] for the envelope.
//! * **Encode-once fan-out:** a peer frame's bytes name the sender, never
//!   the destination, so each outbound frame is encoded exactly once (into
//!   a scratch buffer) and copied into the out-buffer of every destination
//!   link — and of every adversary-duplicated copy.
//! * **Bounded, lossy links.** Nothing here blocks and nothing queues
//!   without bound: a frame for a link that is down, an out-buffer beyond
//!   its cap (the peer is not reading) and the bytes queued behind a
//!   socket that resets are *dropped*, exactly like a lossy UDP link — the
//!   protocols' retransmission modes (`with_retry`) are what make the
//!   stack live over real sockets, so hosts should enable them. Every such
//!   drop is counted in [`NetStats`]. A down link is redialed on demand,
//!   at most once per 300 ms (longer after a dial that
//!   itself took long), so a dead peer costs the node a bounded share of
//!   its time.
//! * **One body per cast.** A cast's payload reaches a node many times —
//!   in its `Data`, in every `(TS, batch)`, `Accept` and `Accepted` that
//!   names it — and the protocol layers keep what they are handed. Each
//!   node decodes through its own [`BodyCache`], so those copies are
//!   handles to one buffer; [`NetStats::body_hits`] says how often.
//! * **Faults:** an optional [`WallFaults`] is consulted once per outbound
//!   copy to another process: a dropped copy is never queued, a duplicated
//!   one is queued twice. Self-addressed sends never reach it.
//! * **Ids are checked where they enter.** A frame naming a process or a
//!   group the topology does not have is refused at dispatch — counted as
//!   a bad frame, no protocol step, no reply — so the cores' indexing by
//!   id never sees a value a socket made up.
//!
//! Casts carry a client-chosen sequence number and are injected with
//! `MessageId::new(server, seq)`: the client knows the op id *before* the
//! bytes leave it (so a history can record every op it may have caused),
//! while the id's origin stays the hosting process, which is what the
//! protocol cores assume of `on_cast`.
//!
//! Unix only: waiting on many sockets from one thread needs `poll(2)`.

use crate::poll::{self, PollFd, POLLIN, POLLOUT};
use crate::WallFaults;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt;
use std::io::{self, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::ops::Range;
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use wamcast_trace::{Phase, TraceEvent, TraceRing};
use wamcast_types::wire::{self, BodyCache, Wire, WireError, WireReader, WireWriter};
use wamcast_types::{
    wire_enum, Action, AppMessage, Context, GroupSet, IdSet, MessageId, MsgSlot, Outbox, Payload,
    ProcessId, Protocol, SimTime, Topology,
};

/// A node's shared flight recorder: the node thread appends, the
/// control-plane trace pull and the host's panic hook dump.
pub type SharedTrace = Arc<Mutex<TraceRing>>;

/// Upper bound on one frame's body, enforced on read before allocating.
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// How long one outbound dial attempt may take, and the least time a link
/// whose dial failed stays down before the next attempt.
const DIAL_TIMEOUT: Duration = Duration::from_millis(300);

/// Longest the node sleeps in `poll` with nothing to do.
const IDLE_POLL_MS: i32 = 200;

/// Most bytes read from one connection per turn (and the initial size of
/// its reassembly buffer): one ready connection cannot starve the others.
const READ_CHUNK: usize = 64 * 1024;

/// Most bytes queued behind one socket. A frame that would push a
/// non-empty out-buffer past this is dropped: the peer is not reading, and
/// queueing further would only grow memory and reorder recovery.
const OUT_CAP: usize = 4 * 1024 * 1024;

/// Everything that crosses a socket, peer-to-peer or client-to-peer.
///
/// `M` is the hosted protocol's message type; pure clients use [`NoMsg`].
/// Tag values are part of the wire format.
#[derive(Clone, Debug, PartialEq)]
pub enum Frame<M> {
    /// Protocol traffic between peers.
    Peer {
        /// Sending process.
        from: ProcessId,
        /// The protocol message.
        msg: M,
    },
    /// A client asks the receiving peer to A-XCast a payload. The peer
    /// injects `AppMessage` with id `(receiver, seq)`; `seq` spaces of
    /// concurrent clients must be disjoint.
    Cast {
        /// Client-chosen sequence number (the id is known pre-send).
        seq: u64,
        /// Destination groups.
        dest: GroupSet,
        /// Application payload.
        payload: Payload,
    },
    /// The peer's acknowledgement of a [`Cast`](Self::Cast), echoing the
    /// assigned id.
    CastAck {
        /// Id the cast was injected under.
        id: MessageId,
    },
    /// An application-level request answered by the node's service hook
    /// (e.g. "what did op X return?", "send your replica log").
    Req {
        /// Opaque request body, interpreted by the service hook.
        body: Vec<u8>,
    },
    /// The service hook's reply to a [`Req`](Self::Req).
    Rep {
        /// Opaque reply body.
        body: Vec<u8>,
    },
    /// Failure-detector stand-in: tells the peer that `of` crashed.
    CrashNotify {
        /// The crashed process.
        of: ProcessId,
    },
    /// Asks the peer process to exit cleanly.
    Shutdown,
}

wire_enum!(Frame<M> {
    0 => Peer { from, msg },
    1 => Cast { seq, dest, payload },
    2 => CastAck { id },
    3 => Req { body },
    4 => Rep { body },
    5 => CrashNotify { of },
    6 => Shutdown,
});

/// Message type of a pure client: uninhabited, so a client provably never
/// builds or accepts [`Frame::Peer`] traffic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NoMsg {}

impl Wire for NoMsg {
    fn encode(&self, _w: &mut WireWriter) {
        match *self {}
    }

    fn decode(_r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Err(WireError::UnknownTag {
            what: "NoMsg",
            tag: 0,
        })
    }
}

/// Writes one length-prefixed frame.
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> io::Result<()> {
    let len = u32::try_from(body.len())
        .ok()
        .filter(|&l| l <= MAX_FRAME)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(body)?;
    w.flush()
}

/// Reads one length-prefixed frame, rejecting oversize claims before
/// allocating.
pub fn read_frame(r: &mut impl Read) -> io::Result<Vec<u8>> {
    let mut body = Vec::new();
    read_frame_into(r, &mut body)?;
    Ok(body)
}

/// [`read_frame`] into a caller-owned buffer: clears `buf` and fills it
/// with the frame body. A connection reader looping over one buffer pays
/// one allocation for the largest frame it ever sees instead of one per
/// frame. Oversize claims are rejected before the buffer grows.
pub fn read_frame_into(r: &mut impl Read, buf: &mut Vec<u8>) -> io::Result<()> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len);
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds cap {MAX_FRAME}"),
        ));
    }
    buf.clear();
    buf.resize(len as usize, 0);
    r.read_exact(buf)
}

/// The A-Deliver log a node appends to and a host snapshots: the ids of
/// the casts it delivered, in delivery order. It keeps no body.
pub type SharedDeliveries = Arc<Mutex<Vec<MessageId>>>;

/// Application hook answering [`Frame::Req`] bodies. Runs on the node
/// thread, between protocol steps: it must not block (no I/O, no waiting
/// on another thread), because nothing else of the node runs meanwhile.
/// Share state through the same `Arc<Mutex<…>>` handles the host reads;
/// the node holds none of its own locks across the call.
pub type Service = Arc<dyn Fn(&[u8]) -> Vec<u8> + Send + Sync>;

/// A service that answers every request with an empty body.
pub fn null_service() -> Service {
    Arc::new(|_| Vec::new())
}

/// Static configuration of one TCP-hosted node.
pub struct TcpNodeConfig {
    /// This node's process id (an index into `addrs`).
    pub me: ProcessId,
    /// The cluster topology.
    pub topo: Arc<Topology>,
    /// Listen address of every process, indexed by process id.
    pub addrs: Vec<SocketAddr>,
    /// Arm id stamped into every envelope; traffic for other arms is
    /// rejected at decode time.
    pub arm: u8,
    /// Optional outbound-link adversary (the shared fault choke point).
    pub faults: Option<Arc<WallFaults>>,
    /// Optional flight recorder. `None` — the default everywhere tracing
    /// is not requested — keeps the node's record sites to a single
    /// branch; `Some` makes it append one [`TraceEvent`] per lifecycle
    /// step, sharing the ring with whoever holds the other handle (the
    /// control-plane pull, the `peer` binary's panic dump).
    pub trace: Option<SharedTrace>,
}

/// What a node's socket path discarded, how often it woke, what it asked
/// of the kernel, and how its body cache fared. The protocols recover
/// every drop by retransmission; the counters exist so that no frame
/// disappears without a trace. Read them through [`TcpNode::stats`] at any
/// time.
#[derive(Debug, Default)]
pub struct NetStats {
    link_down: AtomicU64,
    reset: AtomicU64,
    out_full: AtomicU64,
    bad_frame: AtomicU64,
    turns: AtomicU64,
    reads: AtomicU64,
    writes: AtomicU64,
    bytes_written: AtomicU64,
    frames_in: AtomicU64,
    frames_out: AtomicU64,
    body_hits: AtomicU64,
    body_misses: AtomicU64,
}

impl NetStats {
    /// Outbound frames dropped because their link was down (the dial
    /// failed, or the last failed dial was too recent to try again).
    pub fn link_down(&self) -> u64 {
        self.link_down.load(Ordering::Relaxed)
    }

    /// Outbound links that died (reset, or closed by the peer) with bytes
    /// still queued behind them; those bytes were dropped.
    pub fn reset(&self) -> u64 {
        self.reset.load(Ordering::Relaxed)
    }

    /// Frames (peer traffic or client replies) dropped because the
    /// destination's out-buffer was at its cap: the other end is not
    /// reading.
    pub fn out_full(&self) -> u64 {
        self.out_full.load(Ordering::Relaxed)
    }

    /// Frames discarded as unusable: inbound ones that failed to decode
    /// (wrong arm or version, garbage), named a process or group the
    /// topology does not have, or claimed more than [`MAX_FRAME`] bytes
    /// (which also closes the connection), and outbound ones too large to
    /// frame.
    pub fn bad_frame(&self) -> u64 {
        self.bad_frame.load(Ordering::Relaxed)
    }

    /// Everything discarded, whatever the reason: 0 on a clean run.
    pub fn dropped(&self) -> u64 {
        self.link_down() + self.reset() + self.out_full() + self.bad_frame()
    }

    /// Times the node thread woke from `poll` — each wake-up is one
    /// read → handle → write turn.
    pub fn turns(&self) -> u64 {
        self.turns.load(Ordering::Relaxed)
    }

    /// `read` calls on the node's sockets, whatever they returned.
    pub fn reads(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }

    /// `write` calls on the node's sockets, whatever they returned.
    pub fn writes(&self) -> u64 {
        self.writes.load(Ordering::Relaxed)
    }

    /// Bytes the kernel took from those writes, length prefixes included.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written.load(Ordering::Relaxed)
    }

    /// Whole frames taken off inbound connections, decodable or not.
    pub fn frames_in(&self) -> u64 {
        self.frames_in.load(Ordering::Relaxed)
    }

    /// Frames queued for a socket: peer traffic (each copy counted) and
    /// client replies. Frames dropped before queueing are not counted.
    pub fn frames_out(&self) -> u64 {
        self.frames_out.load(Ordering::Relaxed)
    }

    /// Message bodies decoded as a handle to a copy the node already held
    /// (see [`BodyCache`]): allocations and retained bytes saved.
    pub fn body_hits(&self) -> u64 {
        self.body_hits.load(Ordering::Relaxed)
    }

    /// Message bodies decoded into a fresh buffer: the first sight of a
    /// cast, or a cache slot another cast had taken meanwhile.
    pub fn body_misses(&self) -> u64 {
        self.body_misses.load(Ordering::Relaxed)
    }
}

impl fmt::Display for NetStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "link_down={} reset={} out_full={} bad_frame={} turns={} reads={} writes={} \
             bytes_written={} frames_in={} frames_out={} body_hits={} body_misses={}",
            self.link_down(),
            self.reset(),
            self.out_full(),
            self.bad_frame(),
            self.turns(),
            self.reads(),
            self.writes(),
            self.bytes_written(),
            self.frames_in(),
            self.frames_out(),
            self.body_hits(),
            self.body_misses()
        )
    }
}

// Relaxed: each counter is a statistic that publishes no other data.
fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

/// Running node handle. Non-generic, so registries can store constructors
/// for heterogeneous protocol arms behind one type.
pub struct TcpNode {
    local: SocketAddr,
    delivered: SharedDeliveries,
    stats: Arc<NetStats>,
    stop: Arc<AtomicBool>,
    thread: JoinHandle<()>,
}

impl TcpNode {
    /// The address this node is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }

    /// Snapshot of the ids A-Delivered so far, in delivery order.
    pub fn delivered(&self) -> Vec<MessageId> {
        self.delivered
            .lock()
            .expect("delivery log poisoned")
            .clone()
    }

    /// The node's live drop, wake-up and socket counters.
    pub fn stats(&self) -> Arc<NetStats> {
        Arc::clone(&self.stats)
    }

    /// Blocks until the node is told to exit (a [`Frame::Shutdown`] from
    /// any connection, or [`shutdown`](Self::shutdown) from another
    /// thread).
    ///
    /// # Panics
    ///
    /// Re-raises a panic of the node thread.
    pub fn wait(self) {
        if let Err(panic) = self.thread.join() {
            std::panic::resume_unwind(panic);
        }
    }

    /// Stops the node and joins its thread.
    ///
    /// # Panics
    ///
    /// Re-raises a panic of the node thread.
    pub fn shutdown(self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the node out of `poll` with a throwaway connection; should
        // the dial fail, the idle timeout notices the flag instead.
        let _ = TcpStream::connect_timeout(&self.local, DIAL_TIMEOUT);
        self.wait();
    }
}

/// Spawns a node: a listener, lazily dialed outbound links to every peer
/// and the protocol, all driven by one thread of *this* process. Peer
/// processes are started from the same address list by the harness's
/// `peer` binary.
///
/// `delivered` receives the id of every A-Deliver; `service` answers
/// [`Frame::Req`] bodies (see [`null_service`]).
///
/// # Errors
///
/// Returns any error binding the listen address or spawning the thread.
pub fn serve<P>(
    cfg: TcpNodeConfig,
    proto: P,
    delivered: SharedDeliveries,
    service: Service,
) -> io::Result<TcpNode>
where
    P: Protocol + Send + 'static,
    P::Msg: Wire,
{
    let TcpNodeConfig {
        me,
        topo,
        addrs,
        arm,
        faults,
        trace,
    } = cfg;
    assert_eq!(
        addrs.len(),
        topo.num_processes(),
        "one listen address per process"
    );
    let listener = TcpListener::bind(addrs[me.index()])?;
    listener.set_nonblocking(true)?;
    let local = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let stats = Arc::new(NetStats::default());
    let now = Instant::now();
    let links = addrs
        .iter()
        .enumerate()
        .map(|(i, &addr)| {
            (i != me.index()).then(|| Link {
                addr,
                stream: None,
                out: OutBuf::default(),
                next_dial: now,
            })
        })
        .collect();
    let mut node = Node {
        me,
        arm,
        proto,
        ctx: Context::new(me, topo, SimTime::ZERO),
        start: faults.as_ref().map_or(now, |f| f.start()),
        listener,
        conns: Vec::new(),
        links,
        timers: BinaryHeap::new(),
        pending_self: VecDeque::new(),
        actions: Vec::new(),
        frame: Vec::new(),
        injected: IdSet::new(),
        bodies: BodyCache::new(),
        delivered: Arc::clone(&delivered),
        service,
        faults,
        trace,
        stats: Arc::clone(&stats),
        stop: Arc::clone(&stop),
        exit: false,
    };
    let thread = std::thread::Builder::new()
        .name(format!("wamcast-node-{}", me.0))
        .spawn(move || node.run())?;
    Ok(TcpNode {
        local,
        delivered,
        stats,
        stop,
        thread,
    })
}

/// Whole length-prefixed frames waiting for one nonblocking socket.
#[derive(Default)]
struct OutBuf {
    bytes: Vec<u8>,
    /// The socket refused more bytes; `poll` says when to try again.
    blocked: bool,
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
            bump(&stats.frames_out);
        }
    }

    /// What to ask `poll` about this buffer's socket: always whether it
    /// is readable, and whether it is writable again once it refused bytes.
    fn interest(&self) -> i16 {
        if self.blocked {
            POLLIN | POLLOUT
        } else {
            POLLIN
        }
    }

    /// Whether a write is worth attempting now.
    fn dirty(&self) -> bool {
        !self.bytes.is_empty() && !self.blocked
    }

    /// Writes as much as the socket takes. What it does not take stays
    /// queued; an error means the socket is dead.
    fn flush(&mut self, mut stream: &TcpStream, stats: &NetStats) -> io::Result<()> {
        let mut done = 0;
        let result = loop {
            if done == self.bytes.len() {
                break Ok(());
            }
            bump(&stats.writes);
            match stream.write(&self.bytes[done..]) {
                Ok(0) => break Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    stats.bytes_written.fetch_add(n as u64, Ordering::Relaxed);
                    done += n;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.blocked = true;
                    break Ok(());
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => break Err(e),
            }
        };
        self.bytes.drain(..done);
        result
    }
}

/// One inbound connection, from a peer's outbound link or from a client.
struct Conn {
    stream: TcpStream,
    /// Reassembly buffer: `rbuf[start..end]` is received and not yet
    /// consumed. [`next_frame`](Self::next_frame) keeps room after `end`.
    rbuf: Vec<u8>,
    start: usize,
    end: usize,
    /// Replies (`CastAck`, `Rep`) to a client.
    out: OutBuf,
    closed: bool,
}

/// An inbound length prefix above [`MAX_FRAME`].
struct Oversize;

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Conn {
            stream,
            rbuf: vec![0; READ_CHUNK],
            start: 0,
            end: 0,
            out: OutBuf::default(),
            closed: false,
        }
    }

    /// One `read` into the free tail of the reassembly buffer, at most
    /// [`READ_CHUNK`] bytes.
    fn fill(&mut self) -> io::Result<usize> {
        let room = self.rbuf.len().min(self.end + READ_CHUNK);
        let n = self.stream.read(&mut self.rbuf[self.end..room])?;
        self.end += n;
        Ok(n)
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
            let prefix = self.rbuf[self.start..self.start + 4]
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
        if self.rbuf.len() - self.start < need {
            self.rbuf.copy_within(self.start..self.end, 0);
            self.start = 0;
            self.end = have;
            if self.rbuf.len() < need {
                self.rbuf.resize(need, 0);
            }
        }
        Ok(None)
    }
}

/// The outbound link to one peer: dialed on demand, write-only.
struct Link {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    out: OutBuf,
    /// Earliest instant of the next dial attempt while the link is down.
    next_dial: Instant,
}

impl Link {
    /// Whether the link is up, dialing it if it is down and due. The dial
    /// blocks the node for at most [`DIAL_TIMEOUT`] (an unreachable host;
    /// a closed port refuses at once), and a failed one keeps the link
    /// down for at least four times as long as it took, so dead peers
    /// cost the node at most a fifth of its time each.
    fn up(&mut self) -> bool {
        if self.stream.is_some() {
            return true;
        }
        let began = Instant::now();
        if began < self.next_dial {
            return false;
        }
        let dialed = TcpStream::connect_timeout(&self.addr, DIAL_TIMEOUT).and_then(|s| {
            s.set_nodelay(true)?;
            s.set_nonblocking(true)?;
            Ok(s)
        });
        match dialed {
            Ok(s) => self.stream = Some(s),
            Err(_) => {
                let now = Instant::now();
                self.next_dial = now + DIAL_TIMEOUT.max(4 * (now - began));
            }
        }
        self.stream.is_some()
    }

    /// Takes the link down, dropping what was queued behind it.
    fn down(&mut self, stats: &NetStats) {
        self.stream = None;
        if !self.out.bytes.is_empty() {
            bump(&stats.reset);
        }
        self.out = OutBuf::default();
    }
}

/// A pending protocol timer; the heap pops the earliest deadline first.
struct TimerEntry {
    at: Instant,
    kind: u64,
}

impl PartialEq for TimerEntry {
    fn eq(&self, o: &Self) -> bool {
        self.at == o.at && self.kind == o.kind
    }
}
impl Eq for TimerEntry {}
impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(o))
    }
}
impl Ord for TimerEntry {
    fn cmp(&self, o: &Self) -> std::cmp::Ordering {
        // Min-heap on deadline.
        o.at.cmp(&self.at).then(o.kind.cmp(&self.kind))
    }
}

/// Everything one node thread owns.
struct Node<P: Protocol> {
    me: ProcessId,
    arm: u8,
    proto: P,
    /// The protocol's handler context (it holds the topology), moved to
    /// each step's instant.
    ctx: Context,
    /// Zero of [`Context::now`] and of trace timestamps.
    start: Instant,
    listener: TcpListener,
    conns: Vec<Conn>,
    /// Indexed by process id; `None` at `me`.
    links: Vec<Option<Link>>,
    timers: BinaryHeap<TimerEntry>,
    /// Self-addressed sends of the last step: they never touch a socket.
    pending_self: VecDeque<MsgSlot<P::Msg>>,
    /// Backing storage of every step's [`Outbox`].
    actions: Vec<Action<P::Msg>>,
    /// Scratch every outbound frame is encoded into before it is copied
    /// into the out-buffers of its destinations.
    frame: Vec<u8>,
    /// Casts already injected (a retried `Cast` is acknowledged again but
    /// cast once).
    injected: IdSet,
    /// The bodies this node decoded lately; every inbound frame is decoded
    /// through it.
    bodies: BodyCache,
    delivered: SharedDeliveries,
    service: Service,
    faults: Option<Arc<WallFaults>>,
    trace: Option<SharedTrace>,
    stats: Arc<NetStats>,
    stop: Arc<AtomicBool>,
    /// A `Shutdown` frame arrived.
    exit: bool,
}

impl<P> Node<P>
where
    P: Protocol,
    P::Msg: Wire,
{
    /// Flight-recorder append: a no-op branch when tracing is off. Purely
    /// observational — the lock is held for the push alone, and the only
    /// other holders are short-lived dump readers.
    fn record(&self, phase: Phase, cast: Option<MessageId>, peer: Option<ProcessId>) {
        if let Some(t) = &self.trace {
            if let Ok(mut ring) = t.lock() {
                ring.push(TraceEvent {
                    at_us: self.start.elapsed().as_micros() as u64,
                    node: self.me.0,
                    phase,
                    cast: cast.map(MessageId::cast_key),
                    peer: peer.map(|q| q.0),
                });
            }
        }
    }

    fn record_msg(&self, msg: &P::Msg, sending: bool, peer: ProcessId) {
        if self.trace.is_none() {
            return;
        }
        match P::describe_msg(msg) {
            Some(info) => {
                let phase = info.class.phase(sending);
                if info.casts.is_empty() {
                    self.record(phase, None, Some(peer));
                } else {
                    for id in info.casts {
                        self.record(phase, Some(id), Some(peer));
                    }
                }
            }
            None => {
                let phase = if sending {
                    Phase::MsgSend
                } else {
                    Phase::MsgRecv
                };
                self.record(phase, None, Some(peer));
            }
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
        self.ctx
            .set_now(SimTime::from_nanos(self.start.elapsed().as_nanos() as u64));
        let mut out = Outbox::with_buffer(std::mem::take(&mut self.actions));
        f(&mut self.proto, &self.ctx, &mut out);
        let mut actions = out.into_buffer();
        for action in actions.drain(..) {
            match action {
                Action::Send { to, msg } => self.ship(to, MsgSlot::Owned(msg), &mut false),
                Action::SendMany { tos, msg } => {
                    let mut encoded = false;
                    for &to in tos.iter() {
                        self.ship(to, MsgSlot::Shared(Arc::clone(&msg)), &mut encoded);
                    }
                }
                Action::Deliver(m) => {
                    self.record(Phase::Deliver, Some(m.id), None);
                    self.delivered
                        .lock()
                        .expect("delivery log poisoned")
                        .push(m.id);
                }
                Action::Timer { after, kind } => self.timers.push(TimerEntry {
                    at: Instant::now() + after,
                    kind,
                }),
            }
        }
        self.actions = actions;
    }

    /// Sends one copy of `msg` to `to`. `encoded` says whether
    /// `self.frame` already holds this action's frame: the bytes carry
    /// `me`, not the destination, so one encoding serves every destination
    /// of a `SendMany` (and every duplicated copy). It is built on the
    /// first remote destination — an action whose copies are all dropped
    /// or self-addressed never encodes at all.
    fn ship(&mut self, to: ProcessId, msg: MsgSlot<P::Msg>, encoded: &mut bool) {
        // Record before the fault fate, mirroring the simulator: the copy
        // *was* sent even if the adversary eats it.
        match &msg {
            MsgSlot::Owned(m) => self.record_msg(m, true, to),
            MsgSlot::Shared(m) => self.record_msg(m, true, to),
        }
        // A self-addressed send is a process-local hand-off, not a link:
        // the adversary never faults `from == to` and draws no randomness
        // for it, so it is not asked.
        if to == self.me {
            self.pending_self.push_back(msg);
            return;
        }
        // One fate per copy, from the adversary every node shares.
        let copies = match &self.faults {
            None => 1,
            Some(f) => {
                let fate = f.fate(self.me, to);
                if fate.dropped {
                    return;
                }
                1 + usize::from(fate.duplicate.is_some())
            }
        };
        let Some(link) = self.links.get_mut(to.index()).and_then(Option::as_mut) else {
            return;
        };
        if !link.up() {
            self.stats
                .link_down
                .fetch_add(copies as u64, Ordering::Relaxed);
            return;
        }
        if !*encoded {
            let mut w = WireWriter::over(std::mem::take(&mut self.frame));
            w.raw(&wire::MAGIC);
            w.u8(wire::VERSION);
            w.u8(self.arm);
            w.u8(0); // Frame::Peer tag
            self.me.encode(&mut w);
            match &msg {
                MsgSlot::Owned(m) => m.encode(&mut w),
                MsgSlot::Shared(m) => m.encode(&mut w),
            }
            self.frame = w.finish();
            *encoded = true;
        }
        for _ in 0..copies {
            link.out.push(&self.frame, &self.stats);
        }
    }

    /// Queues `reply` on connection `i`.
    fn reply(&mut self, i: usize, reply: &Frame<P::Msg>) {
        wire::seal_into(self.arm, reply, &mut self.frame);
        self.conns[i].out.push(&self.frame, &self.stats);
    }

    /// Acts on one decoded inbound frame of connection `i`. The ids a frame
    /// names came off a socket: one the topology does not have is refused
    /// here (no step, no reply), because the protocol cores index by them.
    /// So is a notice that this node itself crashed: a running node is
    /// not crashed, and believing it would make its protocol relay its own
    /// casts and step down as its group's coordinator.
    fn dispatch(&mut self, i: usize, frame: Frame<P::Msg>) {
        let known = match &frame {
            Frame::Peer { from: p, .. } => p.index() < self.ctx.topology().num_processes(),
            Frame::CrashNotify { of } => {
                *of != self.me && of.index() < self.ctx.topology().num_processes()
            }
            Frame::Cast { dest, .. } => {
                !dest.is_empty() && dest.is_subset(self.ctx.topology().all_groups())
            }
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
                self.reply(i, &Frame::CastAck { id });
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
                self.reply(i, &Frame::Rep { body });
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

    /// Reads connection `i` once and handles every frame that completed.
    fn read_conn(&mut self, i: usize) {
        bump(&self.stats.reads);
        match self.conns[i].fill() {
            Ok(n) if n > 0 => {}
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
                ) => {}
            // EOF or reset: the dialer reconnects if it cares.
            _ => self.conns[i].closed = true,
        }
        while !self.exit {
            let body = match self.conns[i].next_frame() {
                Ok(Some(body)) => {
                    bump(&self.stats.frames_in);
                    body
                }
                Ok(None) => break,
                Err(Oversize) => {
                    // Whatever follows an absurd length claim cannot be
                    // framed: this connection is lost, the node is not.
                    bump(&self.stats.bad_frame);
                    self.conns[i].closed = true;
                    break;
                }
            };
            let frame = wire::open_sharing::<Frame<P::Msg>>(
                self.arm,
                &self.conns[i].rbuf[body],
                &mut self.bodies,
            );
            // Relaxed: statistics, publishing nothing else.
            let (hits, misses) = (self.bodies.hits(), self.bodies.misses());
            self.stats.body_hits.store(hits, Ordering::Relaxed);
            self.stats.body_misses.store(misses, Ordering::Relaxed);
            match frame {
                Ok(frame) => self.dispatch(i, frame),
                // Wrong version/arm/garbage: drop the frame, keep the
                // connection — a self-stabilizing receiver never crashes
                // on hostile input.
                Err(_) => bump(&self.stats.bad_frame),
            }
        }
    }

    /// Fires every timer that is due.
    fn fire_timers(&mut self) {
        while self.timers.peek().is_some_and(|t| t.at <= Instant::now()) {
            let t = self.timers.pop().expect("peeked");
            self.step(|p, c, o| p.on_timer(t.kind, c, o));
        }
    }

    /// Milliseconds until the next timer, rounded **up** (rounding down
    /// would wake early and spin on a zero timeout until the timer is
    /// due), capped so the stop flag is noticed.
    fn poll_timeout_ms(&self) -> i32 {
        self.timers.peek().map_or(IDLE_POLL_MS, |t| {
            let ns = t.at.saturating_duration_since(Instant::now()).as_nanos();
            ns.div_ceil(1_000_000).min(IDLE_POLL_MS as u128) as i32
        })
    }

    /// The node thread: one `poll`, one read → handle → write turn, until
    /// told to stop.
    fn run(&mut self) {
        self.step(|p, c, o| p.on_start(c, o));
        self.flush();
        let mut fds: Vec<PollFd> = Vec::new();
        // Process ids of the links in `fds`, which follow the connections.
        let mut polled_links: Vec<usize> = Vec::new();
        while !self.exit && !self.stop.load(Ordering::SeqCst) {
            fds.clear();
            polled_links.clear();
            fds.push(PollFd::new(self.listener.as_raw_fd(), POLLIN));
            for c in &self.conns {
                fds.push(PollFd::new(c.stream.as_raw_fd(), c.out.interest()));
            }
            for (p, link) in self.links.iter().enumerate() {
                let Some(link) = link else { continue };
                let Some(stream) = &link.stream else { continue };
                // POLLIN on a write-only link: the peer closing it is the
                // only thing that can make it readable.
                fds.push(PollFd::new(stream.as_raw_fd(), link.out.interest()));
                polled_links.push(p);
            }
            // Interruption aside, `poll` fails only on a malformed set or
            // an exhausted kernel; the host sees the panic through `wait`.
            poll::wait(&mut fds, self.poll_timeout_ms()).expect("poll(2) on the node's sockets");
            bump(&self.stats.turns);

            let n_conns = self.conns.len();
            for (i, fd) in fds[1..=n_conns].iter().enumerate() {
                if fd.writable() {
                    self.conns[i].out.blocked = false;
                }
                if fd.readable() {
                    self.read_conn(i);
                }
            }
            self.fire_timers();
            for (fd, &p) in fds[1 + n_conns..].iter().zip(&polled_links) {
                let link = self.links[p].as_mut().expect("polled links exist");
                if fd.writable() {
                    link.out.blocked = false;
                }
                if fd.readable() {
                    let mut probe = [0u8; 64];
                    let stream = link.stream.as_mut().expect("polled links are up");
                    bump(&self.stats.reads);
                    match stream.read(&mut probe) {
                        Ok(n) if n > 0 => {} // peers send nothing here; ignore
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                        _ => link.down(&self.stats),
                    }
                }
            }
            if fds[0].readable() {
                self.accept();
            }
            self.flush();
        }
    }

    /// Takes every connection waiting on the listener.
    fn accept(&mut self) {
        while let Ok((stream, _)) = self.listener.accept() {
            if stream.set_nonblocking(true).is_ok() {
                let _ = stream.set_nodelay(true);
                self.conns.push(Conn::new(stream));
            }
        }
    }

    /// Writes every dirty out-buffer once: client replies before peer
    /// links, so a cast's ack is in the client's socket before the cast's
    /// first message can reach another node.
    fn flush(&mut self) {
        for c in &mut self.conns {
            if !c.closed && c.out.dirty() && c.out.flush(&c.stream, &self.stats).is_err() {
                c.closed = true;
            }
        }
        self.conns.retain(|c| !c.closed);
        for link in self.links.iter_mut().flatten() {
            if !link.out.dirty() {
                continue;
            }
            let stream = link
                .stream
                .as_ref()
                .expect("frames queue on live links only");
            if link.out.flush(stream, &self.stats).is_err() {
                link.down(&self.stats);
            }
        }
    }
}

/// Synchronous client of a TCP-hosted cluster: casts payloads and queries
/// node services, reconnecting lazily after resets.
///
/// Each frame leaves in one `write` — length prefix and sealed body built
/// in one buffer the client reuses — and replies are read through a
/// buffer kept beside the stream, so a reply's prefix and body cost one
/// `read` together.
///
/// One attempt per call — a failed [`cast`](Self::cast) is **not**
/// retried internally, because the caller must account for the op id it
/// may have committed before deciding to resend.
#[derive(Debug)]
pub struct TcpClient {
    addr: SocketAddr,
    arm: u8,
    timeout: Duration,
    /// The connection; writes go to the stream under the read buffer.
    conn: Option<BufReader<TcpStream>>,
    /// The last frame sent, prefix included; reused across calls.
    wbuf: Vec<u8>,
    /// The last reply body read; reused across calls.
    rbuf: Vec<u8>,
}

/// Seals `frame` behind its length prefix into `buf` and writes it with
/// one `write_all`, where [`write_frame`] writes prefix and body apart.
fn send_frame(
    w: &mut impl Write,
    arm: u8,
    frame: &Frame<NoMsg>,
    buf: &mut Vec<u8>,
) -> io::Result<()> {
    wire::seal_into(arm, frame, buf);
    let len = u32::try_from(buf.len())
        .ok()
        .filter(|&l| l <= MAX_FRAME)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    buf.splice(0..0, len.to_le_bytes());
    w.write_all(buf)
}

impl TcpClient {
    /// A client of the node at `addr` speaking arm `arm`, with `timeout`
    /// bounding each reply wait.
    pub fn new(addr: SocketAddr, arm: u8, timeout: Duration) -> Self {
        TcpClient {
            addr,
            arm,
            timeout,
            conn: None,
            wbuf: Vec::new(),
            rbuf: Vec::new(),
        }
    }

    /// Drops the current connection; the next call redials.
    pub fn reset(&mut self) {
        self.conn = None;
    }

    /// Sends `frame`, dialling first if there is no connection; drops the
    /// connection if either fails.
    fn send(&mut self, frame: &Frame<NoMsg>) -> io::Result<()> {
        let r = (|| {
            if self.conn.is_none() {
                let s = TcpStream::connect_timeout(&self.addr, self.timeout)?;
                s.set_nodelay(true)?;
                s.set_read_timeout(Some(self.timeout))?;
                self.conn = Some(BufReader::new(s));
            }
            let conn = self.conn.as_mut().expect("just dialled");
            send_frame(conn.get_mut(), self.arm, frame, &mut self.wbuf)
        })();
        if r.is_err() {
            self.reset();
        }
        r
    }

    fn roundtrip(&mut self, out: Frame<NoMsg>) -> io::Result<Frame<NoMsg>> {
        let arm = self.arm;
        let deadline = Instant::now() + self.timeout;
        let res = (|| {
            self.send(&out)?;
            let conn = self.conn.as_mut().expect("sent on a live connection");
            loop {
                if Instant::now() > deadline {
                    return Err(io::Error::new(io::ErrorKind::TimedOut, "reply timeout"));
                }
                read_frame_into(conn, &mut self.rbuf)?;
                match wire::open::<Frame<NoMsg>>(arm, &self.rbuf) {
                    Ok(f @ (Frame::CastAck { .. } | Frame::Rep { .. })) => return Ok(f),
                    Ok(_) | Err(_) => continue, // not for us; keep waiting
                }
            }
        })();
        if res.is_err() {
            self.reset();
        }
        res
    }

    /// Asks the peer to A-XCast `payload` to `dest` under client sequence
    /// number `seq`, returning the op id (always `(peer, seq)`).
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidInput`] if `dest` names a group beyond
    /// [`wire::MAX_GROUPS`]: nothing is sent and the connection stays
    /// usable. Otherwise any socket error or reply timeout; the op may
    /// still commit.
    pub fn cast(&mut self, seq: u64, dest: GroupSet, payload: Payload) -> io::Result<MessageId> {
        if dest.bits() >> wire::MAX_GROUPS != 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "{dest} names a group wire v{} cannot address (at most {} groups)",
                    wire::VERSION,
                    wire::MAX_GROUPS
                ),
            ));
        }
        match self.roundtrip(Frame::Cast { seq, dest, payload })? {
            Frame::CastAck { id } => Ok(id),
            _ => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "expected CastAck",
            )),
        }
    }

    /// Sends a service request and returns the reply body.
    ///
    /// # Errors
    ///
    /// Any socket error or reply timeout.
    pub fn request(&mut self, body: Vec<u8>) -> io::Result<Vec<u8>> {
        match self.roundtrip(Frame::Req { body })? {
            Frame::Rep { body } => Ok(body),
            _ => Err(io::Error::new(io::ErrorKind::InvalidData, "expected Rep")),
        }
    }

    /// Tells the peer that `of` crashed (failure-detector stand-in).
    ///
    /// # Errors
    ///
    /// Any socket error.
    pub fn crash_notify(&mut self, of: ProcessId) -> io::Result<()> {
        self.send(&Frame::CrashNotify { of })
    }

    /// Asks the peer process to exit cleanly.
    ///
    /// # Errors
    ///
    /// Any socket error.
    pub fn shutdown_peer(&mut self) -> io::Result<()> {
        let r = self.send(&Frame::Shutdown);
        self.reset();
        r
    }
}

/// Reserves `n` distinct loopback addresses by binding port 0 `n` times
/// and dropping the listeners, for whoever starts a cluster from one
/// address list. Another process, or another cluster starting beside
/// this one, can take a port before its node binds it; that surfaces as
/// the node's bind error. [`reserve`] holds the ports instead.
///
/// # Errors
///
/// Any error binding a loopback listener.
pub fn free_addrs(n: usize) -> io::Result<Vec<SocketAddr>> {
    reserve(n)?.iter().map(TcpListener::local_addr).collect()
}

/// `n` listeners on distinct loopback ports the kernel chose; a port stays
/// reserved until its listener is dropped. A spawner of nodes or `peer`
/// processes drops each listener just before that node binds its port, as
/// [`LocalCluster::serve`] does, so clusters starting side by side cannot
/// take each other's ports.
///
/// # Errors
///
/// Any error binding a loopback listener.
pub fn reserve(n: usize) -> io::Result<Vec<TcpListener>> {
    (0..n).map(|_| TcpListener::bind("127.0.0.1:0")).collect()
}

/// How long [`LocalCluster`] waits for a node's `CastAck`.
const LOCAL_ACK_TIMEOUT: Duration = Duration::from_secs(5);

/// Every process of a topology served inside the calling process, over
/// loopback TCP: real sockets, real timers and the real node loop, with no
/// OS processes to manage. Tests, examples and probes host a protocol here;
/// anything a client could do from outside works against
/// [`addrs`](Self::addrs) too.
///
/// Links are lossy by design (see the module docs), so hosted protocols
/// should run with their retransmission mode on.
pub struct LocalCluster {
    topo: Arc<Topology>,
    addrs: Vec<SocketAddr>,
    /// Indexed by process id.
    slots: Vec<Slot>,
}

/// What the host keeps per process.
struct Slot {
    /// `None` once crashed.
    node: Option<TcpNode>,
    log: SharedDeliveries,
    stats: Arc<NetStats>,
    /// Carries this process's casts and crash notices; dialed on first use.
    client: TcpClient,
    next_seq: u64,
    /// How far [`LocalCluster::await_delivery_everywhere`] has read `log`,
    /// and the ids it read there: each entry is looked at once.
    awaited: Mutex<(usize, IdSet)>,
}

impl LocalCluster {
    /// Reserves one loopback port per process of `topo` and serves each
    /// process's `factory(p, topo)` on it, under envelope arm `arm` and —
    /// if given — one adversary shared by every node's outbound links.
    ///
    /// # Errors
    ///
    /// Any error reserving the ports or from a node's [`serve`]; the nodes
    /// already started are stopped first.
    pub fn serve<P>(
        topo: Topology,
        arm: u8,
        faults: Option<Arc<WallFaults>>,
        mut factory: impl FnMut(ProcessId, &Topology) -> P,
    ) -> io::Result<Self>
    where
        P: Protocol + Send + 'static,
        P::Msg: Wire,
    {
        let topo = Arc::new(topo);
        let held = reserve(topo.num_processes())?;
        let addrs = held
            .iter()
            .map(TcpListener::local_addr)
            .collect::<io::Result<Vec<_>>>()?;
        let mut cluster = LocalCluster {
            topo: Arc::clone(&topo),
            addrs: addrs.clone(),
            slots: Vec::with_capacity(addrs.len()),
        };
        for (p, hold) in topo.processes().zip(held) {
            // Each port is given up only as its node is about to bind it,
            // so clusters starting side by side cannot take each other's.
            drop(hold);
            let log = SharedDeliveries::default();
            let served = serve(
                TcpNodeConfig {
                    me: p,
                    topo: Arc::clone(&topo),
                    addrs: addrs.clone(),
                    arm,
                    faults: faults.clone(),
                    trace: None,
                },
                factory(p, &topo),
                Arc::clone(&log),
                null_service(),
            );
            match served {
                Ok(node) => cluster.slots.push(Slot {
                    stats: node.stats(),
                    node: Some(node),
                    log,
                    client: TcpClient::new(addrs[p.index()], arm, LOCAL_ACK_TIMEOUT),
                    next_seq: 0,
                    awaited: Mutex::new((0, IdSet::new())),
                }),
                Err(e) => {
                    cluster.shutdown();
                    return Err(e);
                }
            }
        }
        Ok(cluster)
    }

    /// The cluster topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Listen address of every process, indexed by process id.
    pub fn addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }

    /// A-XCasts a fresh message from `caster` to `dest` and returns its id
    /// once `caster` acknowledged it. Sequence numbers count up from 0 per
    /// caster; a client of [`addrs`](Self::addrs) casting through the same
    /// process must stay clear of them.
    ///
    /// # Errors
    ///
    /// Any socket error, or a timeout waiting for the ack — which is also
    /// how a crashed `caster` and a `dest` the node refuses (empty, or
    /// naming a group the topology lacks) show. The cast may still commit.
    pub fn cast(
        &mut self,
        caster: ProcessId,
        dest: GroupSet,
        payload: Payload,
    ) -> io::Result<MessageId> {
        let slot = &mut self.slots[caster.index()];
        let seq = slot.next_seq;
        slot.next_seq += 1;
        slot.client.cast(seq, dest, payload)
    }

    /// Snapshot of the ids A-Delivered by `p`, in delivery order (what it
    /// delivered before crashing, if it crashed).
    pub fn delivered(&self, p: ProcessId) -> Vec<MessageId> {
        self.slots[p.index()]
            .log
            .lock()
            .expect("delivery log poisoned")
            .clone()
    }

    /// How many casts `p` has A-Delivered, without copying its log.
    pub fn delivered_count(&self, p: ProcessId) -> usize {
        self.slots[p.index()]
            .log
            .lock()
            .expect("delivery log poisoned")
            .len()
    }

    /// `p`'s drop and wake-up counters (final ones, if it crashed).
    pub fn stats(&self, p: ProcessId) -> &NetStats {
        &self.slots[p.index()].stats
    }

    /// Crashes `p` — its node stops and its sockets close, with whatever
    /// was queued behind them — then tells every survivor, standing in for
    /// a failure detector.
    ///
    /// # Errors
    ///
    /// Any socket error notifying a survivor (the rest are still told).
    ///
    /// # Panics
    ///
    /// Re-raises a panic of `p`'s node thread.
    pub fn crash(&mut self, p: ProcessId) -> io::Result<()> {
        if let Some(node) = self.slots[p.index()].node.take() {
            node.shutdown();
        }
        let mut result = Ok(());
        for slot in self.slots.iter_mut().filter(|s| s.node.is_some()) {
            if let Err(e) = slot.client.crash_notify(p) {
                result = Err(e);
            }
        }
        result
    }

    /// Blocks until every live process of `dest` — the destination `id`
    /// was cast to — has delivered it. Each poll reads only the log entries
    /// appended since the last one, so awaiting n casts in turn reads each
    /// entry once, not every log on every poll.
    ///
    /// # Errors
    ///
    /// `TimedOut` if `timeout` elapses first.
    pub fn await_delivery_everywhere(
        &self,
        id: MessageId,
        dest: GroupSet,
        timeout: Duration,
    ) -> io::Result<()> {
        let delivered_by = |p: ProcessId| {
            let slot = &self.slots[p.index()];
            if slot.node.is_none() {
                return true;
            }
            let log = slot.log.lock().expect("delivery log poisoned");
            let mut awaited = slot.awaited.lock().expect("await cursor poisoned");
            let (read, ids) = &mut *awaited;
            for &d in &log[*read..] {
                ids.insert(d);
            }
            *read = log.len();
            ids.contains(id)
        };
        let deadline = Instant::now() + timeout;
        loop {
            if self.topo.processes_in(dest).all(delivered_by) {
                return Ok(());
            }
            if Instant::now() > deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("{id} not delivered everywhere within {timeout:?}"),
                ));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Stops every node and joins its thread.
    ///
    /// # Panics
    ///
    /// Re-raises a panic of a node thread.
    pub fn shutdown(self) {
        for node in self.slots.into_iter().filter_map(|s| s.node) {
            node.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_variants_roundtrip() {
        let frames: Vec<Frame<u64>> = vec![
            Frame::Peer {
                from: ProcessId(1),
                msg: 42,
            },
            Frame::Cast {
                seq: 7,
                dest: GroupSet::first_n(2),
                payload: Payload::from(b"x".to_vec()),
            },
            Frame::CastAck {
                id: MessageId::new(ProcessId(0), 7),
            },
            Frame::Req { body: vec![1, 2] },
            Frame::Rep { body: vec![] },
            Frame::CrashNotify { of: ProcessId(3) },
            Frame::Shutdown,
        ];
        for f in frames {
            assert_eq!(Frame::<u64>::from_wire(&f.to_wire()).unwrap(), f);
        }
    }

    fn peer_frame(seq: u64, body: &[u8]) -> Frame<AppMessage> {
        Frame::Peer {
            from: ProcessId(1),
            msg: AppMessage::new(
                MessageId::new(ProcessId(0), seq),
                GroupSet::first_n(2),
                Payload::copy_from_slice(body),
            ),
        }
    }

    fn body_of(frame: &Frame<AppMessage>) -> &Payload {
        match frame {
            Frame::Peer { msg, .. } => &msg.payload,
            other => panic!("not a peer frame: {other:?}"),
        }
    }

    #[test]
    fn body_cache_shares_equal_bytes_and_nothing_else() {
        const ARM: u8 = 3;
        let mut cache = BodyCache::new();
        let mut open = |f: &Frame<AppMessage>| -> Frame<AppMessage> {
            wire::open_sharing(ARM, &wire::seal(ARM, f), &mut cache).expect("decodes")
        };
        // Same id, same bytes, two frames: one buffer.
        let original = peer_frame(7, b"the body");
        let (a, b) = (open(&original), open(&original));
        assert_eq!((&a, &b), (&original, &original));
        assert_eq!(body_of(&a).as_ptr(), body_of(&b).as_ptr());
        // Same id, other bytes (a lying or buggy sender): no sharing, and
        // neither value is disturbed — ids are never trusted alone.
        let forged = peer_frame(7, b"THE BODY");
        let c = open(&forged);
        assert_eq!(c, forged);
        assert_ne!(body_of(&c).as_ptr(), body_of(&a).as_ptr());
        assert_eq!((&a, &b), (&original, &original));
        // Empty bodies own no buffer: nothing to copy, nothing to cache.
        let empty = open(&peer_frame(8, b""));
        assert_eq!(empty, peer_frame(8, b""));
        assert_eq!((cache.hits(), cache.misses()), (1, 2));
        // A reader without a cache decodes the same values, each its own.
        let plain: Frame<AppMessage> =
            wire::open(ARM, &wire::seal(ARM, &original)).expect("decodes");
        assert_eq!(plain, original);
        assert_ne!(body_of(&plain).as_ptr(), body_of(&a).as_ptr());
    }

    #[test]
    fn a_primed_cast_shares_its_body_with_later_frames() {
        let mut cache = BodyCache::new();
        let cast = Payload::copy_from_slice(b"from the client");
        cache.prime(MessageId::new(ProcessId(0), 7), &cast);
        let frame = peer_frame(7, &cast);
        let echoed: Frame<AppMessage> =
            wire::open_sharing(3, &wire::seal(3, &frame), &mut cache).expect("decodes");
        assert_eq!(body_of(&echoed).as_ptr(), cast.as_ptr());
    }

    #[test]
    fn framing_roundtrip_and_cap() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"abc").unwrap();
        assert_eq!(read_frame(&mut &buf[..]).unwrap(), b"abc");
        // Oversize claim rejected before allocation.
        let huge = (MAX_FRAME + 1).to_le_bytes();
        assert!(read_frame(&mut &huge[..]).is_err());
        // Truncated body is an error, not a hang (reader sees EOF).
        let bad = [5u8, 0, 0, 0, b'x'];
        assert!(read_frame(&mut &bad[..]).is_err());
    }

    /// A sink that records each `write` call it gets.
    #[derive(Default)]
    struct CountingSink {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingSink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn the_client_sends_a_frame_in_one_write() {
        let frames: [Frame<NoMsg>; 3] = [
            Frame::Cast {
                seq: 3,
                dest: GroupSet::first_n(2),
                payload: Payload::from(vec![7; 200]),
            },
            Frame::Req { body: Vec::new() },
            Frame::CrashNotify { of: ProcessId(2) },
        ];
        let mut buf = vec![0xAA; 8]; // stale bytes must not leak
        for frame in &frames {
            let mut client = CountingSink::default();
            send_frame(&mut client, 5, frame, &mut buf).unwrap();
            let mut two = CountingSink::default();
            write_frame(&mut two, &wire::seal(5, frame)).unwrap();
            assert_eq!((client.writes, two.writes), (1, 2), "{frame:?}");
            assert_eq!(client.bytes, two.bytes, "{frame:?}");
        }
    }
}
