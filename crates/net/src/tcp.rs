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
//!   returns a non-generic [`TcpNode`] handle.
//! * **Core and shell.** The node's core (`tcp/node.rs`, crate-private)
//!   makes every host decision and owns no socket, thread or clock: it is
//!   handed start, complete frame bodies (with the out-buffer replies go
//!   to) and due timers, reads time from a clock the shell hands it, and
//!   queues what it sends in one out-buffer per destination. The shell
//!   only moves bytes: it owns the listener, the inbound connections and
//!   one outbound link per peer, all nonblocking, and waits on the lot
//!   with `poll(2)` until the core's next timer, rounded *up* to a
//!   millisecond so a timer neither fires early nor spins the loop.
//! * **One wake-up, one turn.** A turn reads whatever each ready socket
//!   holds into that connection's reassembly buffer; the core decodes
//!   every complete frame in place and steps the protocol on it inline
//!   (self-addressed sends and due timers are settled in the same turn).
//!   Every dirty socket is then written **once**: client replies first,
//!   peer links second — a [`Frame::CastAck`] is therefore in the client's
//!   socket before any remote replica can have seen the cast.
//! * Framing is a `u32` little-endian length prefix (bounded by
//!   [`MAX_FRAME`]) around an enveloped [`Frame`]; see
//!   [`wamcast_types::wire`] for the envelope.
//! * **Encode-once fan-out:** a peer frame's bytes name the sender, never
//!   the destination, so each outbound frame is encoded exactly once and
//!   copied into the out-buffer of every destination (and duplicate).
//! * **Bounded, lossy links.** No protocol step waits on a socket and
//!   nothing queues without bound: the frames for a link that is down, a
//!   frame beyond its out-buffer's cap (the peer is not reading) and the
//!   bytes queued behind a socket that resets are *dropped*, like a lossy
//!   UDP link — the protocols' retransmission modes (`with_retry`) make
//!   the stack live over real sockets, so hosts should enable them. Each
//!   drop is counted in [`NetStats`]. A down link with frames waiting is
//!   dialed at the flush, after the turn's replies are written, at most
//!   once per 300 ms (longer after a slow dial), so a dead peer costs the
//!   node a bounded share of its time.
//! * **One body per cast.** A cast's payload reaches a node many times —
//!   in its `Data`, in every `(TS, batch)`, `Accept` and `Accepted` that
//!   names it. Each node decodes through its own
//!   [`BodyCache`](wire::BodyCache), so those copies are handles to one
//!   buffer; [`NetStats::body_hits`] says how often.
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
use node::{Inbox, NodeCore, OutBuf};
use std::fmt;
use std::io::ErrorKind::{Interrupted, WouldBlock};
use std::io::{self, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use wamcast_trace::TraceRing;
use wamcast_types::wire::{self, Wire, WireError, WireReader, WireWriter};
use wamcast_types::{
    wire_enum, GroupSet, IdSet, MessageId, Payload, ProcessId, Protocol, SimTime, Topology,
};

mod node;

/// A node's shared flight recorder: the node thread appends, the
/// control-plane trace pull and the host's panic hook dump.
pub type SharedTrace = Arc<Mutex<TraceRing>>;

/// Upper bound on one frame's body, enforced on read before allocating.
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// How long one outbound dial attempt may take, and the least time a link
/// whose dial failed stays down before the next attempt.
const DIAL_TIMEOUT: Duration = Duration::from_millis(300);

/// Longest the node sleeps in `poll` with nothing to do, so that it
/// notices the stop flag.
const IDLE_POLL_MS: i32 = 200;

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
    /// Optional flight recorder. `None`, the default where tracing is not
    /// requested, keeps the node's record sites to a single branch; `Some`
    /// makes it append one [`wamcast_trace::TraceEvent`] per lifecycle
    /// step, sharing the ring with whoever holds the other handle (the
    /// control-plane pull, the `peer` binary's panic dump).
    pub trace: Option<SharedTrace>,
}

/// Declares [`NetStats`] from its counters in display order: each is one
/// relaxed atomic, a reader and a `name=value` word of the display line.
macro_rules! net_stats {
    ($($(#[doc = $doc:literal])+ $name:ident,)+) => {
        /// What a node's socket path discarded, how often it woke, what it
        /// asked of the kernel, and how its body cache fared. The protocols
        /// recover every drop by retransmission; the counters exist so that
        /// no frame disappears without a trace. Read them through
        /// [`TcpNode::stats`] at any time.
        #[derive(Debug, Default)]
        pub struct NetStats {
            $($name: AtomicU64,)+
        }

        impl NetStats {
            $($(#[doc = $doc])+
            pub fn $name(&self) -> u64 {
                self.$name.load(Ordering::Relaxed)
            })+
        }

        impl fmt::Display for NetStats {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                let words = [$(format!("{}={}", stringify!($name), self.$name())),+];
                f.write_str(&words.join(" "))
            }
        }
    };
}

net_stats! {
    /// Outbound frames dropped because their link was down (the dial
    /// failed, or the last failed dial was too recent to try again).
    link_down,
    /// Outbound links that died (reset, or closed by the peer) with bytes
    /// still queued behind them; those bytes were dropped.
    reset,
    /// Frames (peer traffic or client replies) dropped because the
    /// destination's out-buffer was at its cap: the other end is not
    /// reading.
    out_full,
    /// Frames discarded as unusable: inbound ones that failed to decode
    /// (wrong arm or version, garbage), named a process or group the
    /// topology does not have, or claimed more than [`MAX_FRAME`] bytes
    /// (which also closes the connection), and outbound ones too large to
    /// frame.
    bad_frame,
    /// Times the node thread woke from `poll` — each wake-up is one
    /// read → handle → write turn.
    turns,
    /// `read` calls on the node's sockets, whatever they returned.
    reads,
    /// `write` calls on the node's sockets, whatever they returned.
    writes,
    /// Bytes the kernel took from those writes, length prefixes included.
    bytes_written,
    /// Whole frames taken off inbound connections, decodable or not.
    frames_in,
    /// Frames queued for a socket: peer traffic (each copy counted) and
    /// client replies. Frames dropped before queueing are not counted.
    frames_out,
    /// Message bodies decoded as a handle to a copy the node already held
    /// (see [`BodyCache`](wire::BodyCache)): allocations and retained
    /// bytes saved.
    body_hits,
    /// Message bodies decoded into a fresh buffer: the first sight of a
    /// cast, or a cache slot another cast had taken meanwhile.
    body_misses,
}

impl NetStats {
    /// Everything discarded, whatever the reason: 0 on a clean run.
    pub fn dropped(&self) -> u64 {
        self.link_down() + self.reset() + self.out_full() + self.bad_frame()
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
    assert_eq!(
        cfg.addrs.len(),
        cfg.topo.num_processes(),
        "one listen address per process"
    );
    let listener = TcpListener::bind(cfg.addrs[cfg.me.index()])?;
    listener.set_nonblocking(true)?;
    let local = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let now = Instant::now();
    let start = cfg.faults.as_ref().map_or(now, |f| f.start());
    let clock = Box::new(move || SimTime::from_nanos(start.elapsed().as_nanos() as u64));
    let core = NodeCore::new(&cfg, proto, Arc::clone(&delivered), service, clock);
    let stats = Arc::clone(&core.stats);
    let link = |&addr| Link {
        addr,
        stream: None,
        next_dial: now,
    };
    let links = cfg.addrs.iter().map(link).collect();
    let mut node = Node {
        core,
        listener,
        conns: Vec::new(),
        links,
        stop: Arc::clone(&stop),
    };
    let thread = std::thread::Builder::new()
        .name(format!("wamcast-node-{}", cfg.me.0))
        .spawn(move || node.run())?;
    Ok(TcpNode {
        local,
        delivered,
        stats,
        stop,
        thread,
    })
}

impl OutBuf {
    /// What to ask `poll` about this buffer's socket: always whether it
    /// is readable, and whether it is writable again once it refused bytes.
    fn interest(&self) -> i16 {
        POLLIN | if self.blocked { POLLOUT } else { 0 }
    }

    /// Counts the frames queued since the last flush as sent — a socket
    /// has taken them over — then writes as much as it takes, unless it
    /// refused bytes and `poll` has not yet said it wants more. What it
    /// does not take stays queued; an error means the socket is dead.
    fn flush(&mut self, mut stream: &TcpStream, stats: &NetStats) -> io::Result<()> {
        let queued = std::mem::take(&mut self.queued);
        stats.frames_out.fetch_add(queued, Ordering::Relaxed);
        let mut done = 0;
        let result = loop {
            if self.blocked || done == self.bytes.len() {
                break Ok(());
            }
            bump(&stats.writes);
            match stream.write(&self.bytes[done..]) {
                Ok(0) => break Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    stats.bytes_written.fetch_add(n as u64, Ordering::Relaxed);
                    done += n;
                }
                Err(e) if e.kind() == WouldBlock => {
                    self.blocked = true;
                    break Ok(());
                }
                Err(e) if e.kind() == Interrupted => {}
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
    inbox: Inbox,
    /// Replies (`CastAck`, `Rep`) to a client.
    out: OutBuf,
    closed: bool,
}

/// The outbound link to one peer: dialed when frames wait for it,
/// write-only. The frames themselves queue in the core.
struct Link {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    /// Earliest instant of the next dial attempt while the link is down.
    next_dial: Instant,
}

impl Link {
    /// The link's stream, dialing it if it is down and due. The dial
    /// blocks the node for at most [`DIAL_TIMEOUT`] (an unreachable host;
    /// a closed port refuses at once), and a failed one keeps the link
    /// down for at least four times as long as it took, so dead peers
    /// cost the node at most a fifth of its time each.
    fn up(&mut self) -> Option<&TcpStream> {
        if self.stream.is_none() && Instant::now() >= self.next_dial {
            let began = Instant::now();
            let dialed = TcpStream::connect_timeout(&self.addr, DIAL_TIMEOUT).and_then(|s| {
                s.set_nodelay(true)?;
                s.set_nonblocking(true)?;
                Ok(s)
            });
            let now = Instant::now();
            match dialed {
                Ok(s) => self.stream = Some(s),
                Err(_) => self.next_dial = now + DIAL_TIMEOUT.max(4 * (now - began)),
            }
        }
        self.stream.as_ref()
    }

    /// Takes the link down, dropping `out`, what was queued behind it.
    fn down(&mut self, out: &mut OutBuf, stats: &NetStats) {
        self.stream = None;
        if !out.bytes.is_empty() {
            bump(&stats.reset);
        }
        *out = OutBuf::default();
    }
}

/// The node thread: the core, and the sockets it cannot own.
struct Node<P: Protocol> {
    core: NodeCore<P>,
    listener: TcpListener,
    conns: Vec<Conn>,
    /// Indexed by process id; `me`'s is never dialed (nothing queues there).
    links: Vec<Link>,
    stop: Arc<AtomicBool>,
}

impl<P> Node<P>
where
    P: Protocol,
    P::Msg: Wire,
{
    /// Reads connection `i` once and lets the core handle every frame that
    /// completed.
    fn read_conn(&mut self, i: usize) {
        let conn = &mut self.conns[i];
        bump(&self.core.stats.reads);
        match conn.stream.read(conn.inbox.spare()) {
            Ok(n) if n > 0 => conn.inbox.filled(n),
            Err(e) if matches!(e.kind(), WouldBlock | Interrupted) => {}
            // EOF or reset: the dialer reconnects if it cares.
            _ => conn.closed = true,
        }
        conn.closed |= !self.core.take_frames(&mut conn.inbox, &mut conn.out);
    }

    /// The node thread: one `poll`, one read → handle → write turn, until
    /// told to stop.
    fn run(&mut self) {
        self.core.start();
        self.flush();
        let mut fds: Vec<PollFd> = Vec::new();
        while !self.core.exit && !self.stop.load(Ordering::SeqCst) {
            fds.clear();
            fds.push(PollFd::new(self.listener.as_raw_fd(), POLLIN));
            for c in &self.conns {
                fds.push(PollFd::new(c.stream.as_raw_fd(), c.out.interest()));
            }
            // One entry per process, after the connections: `poll` skips
            // the -1 of a link that is down. POLLIN on a write-only link:
            // the peer closing it is the only thing that can make it readable.
            for (link, out) in self.links.iter().zip(&self.core.links) {
                let fd = link.stream.as_ref().map_or(-1, AsRawFd::as_raw_fd);
                fds.push(PollFd::new(fd, out.interest()));
            }
            // Interruption aside, `poll` fails only on a malformed set or
            // an exhausted kernel; the host sees the panic through `wait`.
            let timeout = self.core.next_timer_ms(IDLE_POLL_MS);
            poll::wait(&mut fds, timeout).expect("poll(2) on the node's sockets");
            bump(&self.core.stats.turns);

            // Links first: one its peer closed is down before this turn
            // queues anything behind it, and is redialed at the flush.
            let n_conns = self.conns.len();
            let links = self.links.iter_mut().zip(&mut self.core.links);
            for (fd, (link, out)) in fds[1 + n_conns..].iter().zip(links) {
                out.blocked &= !fd.writable();
                if fd.readable() {
                    let mut probe = [0u8; 64];
                    let stream = link.stream.as_mut().expect("polled links are up");
                    bump(&self.core.stats.reads);
                    match stream.read(&mut probe) {
                        Ok(n) if n > 0 => {} // peers send nothing here; ignore
                        Err(e) if e.kind() == WouldBlock => {}
                        _ => link.down(out, &self.core.stats),
                    }
                }
            }
            for (i, fd) in fds[1..=n_conns].iter().enumerate() {
                self.conns[i].out.blocked &= !fd.writable();
                if fd.readable() {
                    self.read_conn(i);
                }
            }
            self.core.fire_timers();
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
                self.conns.push(Conn {
                    stream,
                    inbox: Inbox::default(),
                    out: OutBuf::default(),
                    closed: false,
                });
            }
        }
    }

    /// Writes every dirty out-buffer once: client replies before peer
    /// links, so a cast's ack is in the client's socket before the cast's
    /// first message can reach another node. A down link with frames
    /// waiting is dialed only then, after the replies; frames for a link
    /// that stays down are dropped.
    fn flush(&mut self) {
        let stats = &self.core.stats;
        for c in &mut self.conns {
            if !c.closed && c.out.flush(&c.stream, stats).is_err() {
                c.closed = true;
            }
        }
        self.conns.retain(|c| !c.closed);
        for (link, out) in self.links.iter_mut().zip(&mut self.core.links) {
            if out.bytes.is_empty() {
                continue;
            }
            let Some(stream) = link.up() else {
                let lost = std::mem::take(&mut out.queued);
                stats.link_down.fetch_add(lost, Ordering::Relaxed);
                out.bytes.clear();
                continue;
            };
            if out.flush(stream, stats).is_err() {
                link.down(out, stats);
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
    use wamcast_types::{wire::BodyCache, AppMessage};

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
