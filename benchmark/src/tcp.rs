//! The socket workloads `tcp_global` and `tcp_kv`: a 2×2 cluster of
//! `tcp::serve` nodes in this process, over loopback with no injected
//! delay, driven through two client connections.
//!
//! An operation is *committed* when every addressed replica has applied
//! it. The replicas' state machine ([`Stamp`]) notes each apply in a
//! per-connection table of atomic bit masks; whichever replica completes
//! a mask sends the commit instant down that connection's completion
//! channel, and the generator thread blocked on the channel accounts for
//! it. Nothing polls, and nothing about commitment crosses the wire: the
//! runtime has no commit push to clients, so the reply hop is not part of
//! the latency (stated in the README).

use crate::kernels::{self, CodecCost};
use crate::layers::{self, ratio, Algo};
use crate::procstat::{self, Cpu};
use crate::report::Outcome;
use crate::stats;
use crate::timed::{
    class_index, NodeStats, Probe, SharedStats, Tallies, Timed, CLASSES, CLASS_NAMES,
};
use crate::tracing::{self, RING_CAP};
use crate::{alloc, batch8, OrderDigest, RunArgs, SETUPS, TRACE_UNTRACED_SHARE};
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::io::{self, BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use wamcast_core::{GenuineMulticast, MulticastMsg, WithApply};
use wamcast_harness::registry::a1_stack_config;
use wamcast_harness::scenario::RETRY_INTERVAL;
use wamcast_harness::workload::ZipfSampler;
use wamcast_net::tcp::{
    self, null_service, read_frame_into, write_frame, Frame, NoMsg, SharedDeliveries, SharedTrace,
    TcpClient, TcpNode, TcpNodeConfig,
};
use wamcast_net::WallFaults;
use wamcast_smr::{
    history, shared_replica, Command, History, OpRecord, ReplicaLog, ShardMap, SharedKv,
};
use wamcast_trace::TraceRing;
use wamcast_types::wire::{self, Wire, WireWriter};
use wamcast_types::{
    AppMessage, FaultPlan, GroupId, GroupSet, MessageId, MsgClass, Payload, ProcessId, SimTime,
    SplitMix64, StateMachine, Topology,
};

/// Wire arm id of the benchmark's clusters (any value no other host uses).
pub const ARM: u8 = 0x5B;

/// Groups × processes per group.
pub const SHAPE: (usize, usize) = (2, 2);

/// Outstanding operations per connection in a closed loop.
pub const WINDOW: usize = 32;

/// An operation not committed this long after it was (due to be) sent has
/// failed.
pub const OP_TIMEOUT: Duration = Duration::from_secs(2);

/// The measured interval is cut into this many equal windows; throughput
/// and latency percentiles are medians over them.
pub const WINDOWS: usize = 10;

/// `tcp_global`: payload bytes per cast, and the fixed-work warm-up.
pub const GLOBAL_PAYLOAD: usize = 200;
/// Warm-up operations of `tcp_global`.
pub const GLOBAL_WARMUP_OPS: u64 = 20_000;

/// `tcp_kv`: key-space size and Zipf exponent of the key popularity.
pub const KV_KEYS: usize = 10_000;
/// Zipf exponent of `tcp_kv`'s key popularity (the YCSB default).
pub const KV_THETA: f64 = 0.99;
/// Warm-up operations of `tcp_kv` (open loop at [`KV_RATE_PER_S`]).
pub const KV_WARMUP_OPS: u64 = 20_000;
/// `tcp_kv`'s offered load, operations per second over both connections:
/// the round number nearest 40 % of the closed-loop capacity measured on
/// the calibration box (see README, "Calibration").
pub const KV_RATE_PER_S: f64 = 20_000.0;

/// An open-loop run whose generator ran later than this (µs) at the 99th
/// percentile — median over the windows, like the latencies — did not
/// offer the load it claims.
const MAX_LATE_P99_US: f64 = 50_000.0;

/// Operations one connection can track (one byte each).
const MAX_OPS_PER_CONN: usize = 1 << 22;

/// Replicas publish a `(count, digest)` checkpoint this often.
const CHECK_EVERY: u64 = 4096;

/// A closed loop runs for a fixed time, so how much the system has
/// retained at the end depends on how fast it went; and a later cluster
/// starts on the heap an earlier one left behind. `peak_rss_mb` is
/// therefore read when a connection has committed this many operations of
/// the *first* cluster's life (warm-up included): fixed work on a fresh
/// heap, so a faster system is not charged for doing more.
const RSS_AT_LANE_OPS: u64 = 30_000;

/// Commands of the measured stream the KV kernels run over.
const KERNEL_CMDS: usize = 100_000;

/// Messages kept per class, over all nodes, for the codec replay.
const CAPTURE_PER_CLASS: usize = 10_000;

type Stack = WithApply<Timed<GenuineMulticast>, Stamp>;

/// The two socket workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    /// Every cast to both groups, batched A1, closed loop.
    Global,
    /// Single-key KV commands to the owner group, unbatched A1, open loop.
    Kv,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Global => "tcp_global",
            Kind::Kv => "tcp_kv",
        }
    }

    /// The server process each of the two connections casts at: one
    /// member of each group.
    fn servers(topo: &Topology) -> [ProcessId; 2] {
        [GroupId(0), GroupId(1)].map(|g| topo.members(g)[0])
    }

    /// The replicas that must apply an operation cast through `server`,
    /// as `(process → bit, complete mask)`.
    fn quorum(self, topo: &Topology, server: ProcessId) -> (Vec<(ProcessId, u8)>, u8) {
        let procs: Vec<ProcessId> = match self {
            Kind::Global => topo.processes().collect(),
            Kind::Kv => topo.members(topo.group_of(server)).to_vec(),
        };
        let full = (1u16 << procs.len()) as u8 - 1;
        let bits = procs
            .into_iter()
            .enumerate()
            .map(|(i, p)| (p, 1u8 << i))
            .collect();
        (bits, full)
    }
}

/// Per-connection commit table: bit `r` of `masks[seq]` is set once
/// addressed replica `r` has applied operation `seq`.
struct Tracker {
    masks: Vec<AtomicU8>,
    duplicates: AtomicU64,
}

impl Tracker {
    fn new() -> Arc<Tracker> {
        Arc::new(Tracker {
            masks: (0..MAX_OPS_PER_CONN).map(|_| AtomicU8::new(0)).collect(),
            duplicates: AtomicU64::new(0),
        })
    }
}

/// `(seq, commit instant)` of an operation whose last addressed replica
/// just applied it.
type Done = (u64, Instant);

/// Where one replica reports the applies of one connection's operations.
struct Route {
    server: ProcessId,
    tracker: Arc<Tracker>,
    bit: u8,
    full: u8,
    tx: Sender<Done>,
}

/// What a replica has delivered so far, readable from outside its thread.
#[derive(Default)]
struct ReplicaCheck {
    count: AtomicU64,
    digest: AtomicU64,
    /// `(count, digest)` every [`CHECK_EVERY`] deliveries, until drained.
    checkpoints: Mutex<Vec<(u64, u64)>>,
}

/// The replicas' state machine: applies to the KV replica (on `tcp_kv`),
/// then stamps the delivery — commit table, running order digest.
struct Stamp {
    kv: Option<SharedKv>,
    routes: Vec<Route>,
    check: Arc<ReplicaCheck>,
    count: u64,
    digest: OrderDigest,
}

impl StateMachine for Stamp {
    fn apply(&mut self, msg: &AppMessage) {
        if let Some(kv) = &mut self.kv {
            kv.apply(msg);
        }
        let now = Instant::now();
        self.count += 1;
        self.digest.mix_id(msg.id);
        // The count publishes the digest: Release here pairs with the
        // Acquire load of whoever waits for the final count.
        self.check.digest.store(self.digest.0, Ordering::Relaxed);
        self.check.count.store(self.count, Ordering::Release);
        if self.count % CHECK_EVERY == 0 {
            self.check
                .checkpoints
                .lock()
                .expect("checkpoints poisoned")
                .push((self.count, self.digest.0));
        }
        let Some(route) = self.routes.iter().find(|r| r.server == msg.id.origin) else {
            return;
        };
        let Some(mask) = route.tracker.masks.get(msg.id.seq as usize) else {
            return;
        };
        // AcqRel: the replica that completes the mask must observe the
        // others' bits, and its channel send publishes the commit.
        let before = mask.fetch_or(route.bit, Ordering::AcqRel);
        if before & route.bit != 0 {
            route.tracker.duplicates.fetch_add(1, Ordering::Relaxed);
        } else if before | route.bit == route.full {
            let _ = route.tx.send((msg.id.seq, now));
        }
    }
}

/// Framed size of a peer message as the runtime sends it: length prefix,
/// envelope, `Frame::Peer` tag, sender id, body.
fn peer_frame_len(msg: &MulticastMsg, scratch: &mut Vec<u8>) -> usize {
    let mut w = WireWriter::over(std::mem::take(scratch));
    msg.encode(&mut w);
    let body = w.len();
    *scratch = w.finish();
    4 + wire::ENVELOPE_LEN + 1 + 4 + body
}

/// The tracing equipment of a probed cluster.
struct Tracing {
    ring: SharedTrace,
    clock: Arc<WallFaults>,
    epoch: Instant,
    stats: Vec<SharedStats<MulticastMsg>>,
}

/// A running cluster and the handles the benchmark keeps into it.
struct Cluster {
    topo: Arc<Topology>,
    nodes: Vec<TcpNode>,
    addrs: Vec<SocketAddr>,
    delivered: Vec<SharedDeliveries>,
    checks: Vec<Arc<ReplicaCheck>>,
    kvs: Vec<SharedKv>,
    trackers: Vec<Arc<Tracker>>,
    tracing: Option<Tracing>,
}

fn free_addrs(n: usize) -> io::Result<Vec<SocketAddr>> {
    // Held together so the kernel hands out n distinct ports, released
    // just before the nodes bind them.
    let held: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0"))
        .collect::<io::Result<_>>()?;
    held.iter().map(TcpListener::local_addr).collect()
}

impl Cluster {
    /// Spawns the cluster; returns it with the two completion channels.
    fn spawn(kind: Kind, probed: bool) -> io::Result<(Cluster, Vec<Receiver<Done>>)> {
        let topo = Arc::new(Topology::symmetric(SHAPE.0, SHAPE.1));
        let n = topo.num_processes();
        let addrs = free_addrs(n)?;
        let shards = ShardMap::new(SHAPE.0);
        let batch = match kind {
            Kind::Global => Some(batch8()),
            Kind::Kv => None,
        };
        let mcfg = a1_stack_config(batch, Some(RETRY_INTERVAL));
        let clock = Arc::new(WallFaults::new(FaultPlan::none(), 0));
        let tracing = probed.then(|| Tracing {
            ring: Arc::new(Mutex::new(TraceRing::new(RING_CAP))),
            epoch: clock.start(),
            clock,
            stats: (0..n).map(|_| Arc::default()).collect(),
        });
        let servers = Kind::servers(&topo);
        let trackers: Vec<Arc<Tracker>> = servers.iter().map(|_| Tracker::new()).collect();
        let (txs, rxs): (Vec<Sender<Done>>, Vec<Receiver<Done>>) =
            servers.iter().map(|_| channel()).unzip();

        let mut cluster = Cluster {
            topo: Arc::clone(&topo),
            nodes: Vec::with_capacity(n),
            addrs: addrs.clone(),
            delivered: Vec::new(),
            checks: Vec::new(),
            kvs: Vec::new(),
            trackers,
            tracing,
        };
        for p in topo.processes() {
            let routes = servers
                .iter()
                .enumerate()
                .filter_map(|(c, &server)| {
                    let (bits, full) = kind.quorum(&topo, server);
                    let bit = bits.iter().find(|(q, _)| *q == p)?.1;
                    Some(Route {
                        server,
                        tracker: Arc::clone(&cluster.trackers[c]),
                        bit,
                        full,
                        tx: txs[c].clone(),
                    })
                })
                .collect();
            let kv = (kind == Kind::Kv).then(|| shared_replica(topo.group_of(p), shards));
            cluster.kvs.extend(kv.clone());
            let check = Arc::new(ReplicaCheck::default());
            cluster.checks.push(Arc::clone(&check));
            let probe = cluster.tracing.as_ref().map(|t| {
                Probe::new(
                    Arc::clone(&t.stats[p.index()]),
                    t.epoch,
                    Some(peer_frame_len),
                    CAPTURE_PER_CLASS / n,
                )
            });
            let stamp = Stamp {
                kv,
                routes,
                check,
                count: 0,
                digest: OrderDigest::default(),
            };
            let proto: Stack = WithApply::new(
                Timed::new(GenuineMulticast::new(p, &topo, mcfg), probe),
                stamp,
            );
            let delivered: SharedDeliveries = Arc::default();
            cluster.delivered.push(Arc::clone(&delivered));
            cluster.nodes.push(tcp::serve(
                TcpNodeConfig {
                    me: p,
                    topo: Arc::clone(&topo),
                    addrs: addrs.clone(),
                    arm: ARM,
                    // An empty plan injects nothing; sharing it gives the
                    // probed nodes one trace clock (its epoch).
                    faults: cluster.tracing.as_ref().map(|t| Arc::clone(&t.clock)),
                    trace: cluster.tracing.as_ref().map(|t| Arc::clone(&t.ring)),
                },
                proto,
                delivered,
                null_service(),
            )?);
        }
        Ok((cluster, rxs))
    }

    /// Empties the delivery logs the benchmark handed to `serve` (it never
    /// reads them; they would otherwise grow for the whole run).
    fn drain_delivery_logs(&self) {
        for log in &self.delivered {
            log.lock().expect("delivery log poisoned").clear();
        }
    }

    /// Moves every replica's pending checkpoints into `seen`, recording a
    /// violation where replicas that deliver the same sequence disagree.
    fn compare_checkpoints(
        &self,
        kind: Kind,
        seen: &mut BTreeMap<(usize, u64), u64>,
        out: &mut Outcome,
    ) {
        for (p, check) in self.checks.iter().enumerate() {
            // `tcp_global` orders every cast at all four replicas; on
            // `tcp_kv` only the members of one group share a sequence.
            let set = match kind {
                Kind::Global => 0,
                Kind::Kv => p / SHAPE.1,
            };
            let drained = std::mem::take(&mut *check.checkpoints.lock().expect("poisoned"));
            for (count, digest) in drained {
                let first = *seen.entry((set, count)).or_insert(digest);
                out.require(first == digest, || {
                    format!(
                        "replica {p} diverged from its peers within the first {count} deliveries"
                    )
                });
            }
        }
    }

    /// Stops every node (in parallel: each joins threads that poll their
    /// stop flag on a 200 ms timeout).
    fn shutdown(self) {
        std::thread::scope(|s| {
            for node in self.nodes {
                s.spawn(move || node.shutdown());
            }
        });
    }
}

/// One client connection: pipelined `Cast` frames out, `CastAck`s in.
struct Conn {
    w: BufWriter<TcpStream>,
    r: BufReader<TcpStream>,
    wbuf: Vec<u8>,
    rbuf: Vec<u8>,
}

impl Conn {
    fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, OP_TIMEOUT)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(OP_TIMEOUT))?;
        Ok(Conn {
            r: BufReader::new(stream.try_clone()?),
            w: BufWriter::new(stream),
            wbuf: Vec::new(),
            rbuf: Vec::new(),
        })
    }

    fn cast(&mut self, seq: u64, dest: GroupSet, payload: Payload) -> io::Result<()> {
        let frame: Frame<NoMsg> = Frame::Cast { seq, dest, payload };
        wire::seal_into(ARM, &frame, &mut self.wbuf);
        write_frame(&mut self.w, &self.wbuf)
    }

    /// Consumes one `CastAck`. The peer acks a cast before injecting it,
    /// so by the time an operation has committed its ack (and every
    /// earlier one) is already in the socket: called once per commit,
    /// this never waits.
    fn ack(&mut self) -> io::Result<()> {
        read_frame_into(&mut self.r, &mut self.rbuf)?;
        match wire::open::<Frame<NoMsg>>(ARM, &self.rbuf) {
            Ok(Frame::CastAck { .. }) => Ok(()),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected CastAck, got {other:?}"),
            )),
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum OpState {
    Pending,
    Done,
    Failed,
}

/// What [`Lane::wait`] woke up for.
enum Event {
    /// Operation `seq`, stamped `sent`, committed at `done`.
    Committed {
        seq: u64,
        sent: Instant,
        done: Instant,
    },
    /// The oldest outstanding operation timed out.
    Failed,
    /// The caller's own deadline passed.
    Deadline,
}

/// One generator's connection plus its flight table. Sequence numbers
/// run from 0 for the life of the cluster.
struct Lane {
    conn: Conn,
    rx: Receiver<Done>,
    sent: Vec<Instant>,
    state: Vec<OpState>,
    order: VecDeque<u64>,
    outstanding: usize,
}

impl Lane {
    fn new(conn: Conn, rx: Receiver<Done>) -> Lane {
        Lane {
            conn,
            rx,
            sent: Vec::new(),
            state: Vec::new(),
            order: VecDeque::new(),
            outstanding: 0,
        }
    }

    /// Casts the next operation, stamped `at` for latency and time-out.
    fn send(&mut self, dest: GroupSet, payload: Payload, at: Instant) -> io::Result<u64> {
        let seq = self.sent.len() as u64;
        if seq as usize >= MAX_OPS_PER_CONN {
            return Err(io::Error::other("connection out of trackable operations"));
        }
        self.sent.push(at);
        self.state.push(OpState::Pending);
        self.order.push_back(seq);
        self.outstanding += 1;
        self.conn.cast(seq, dest, payload)?;
        Ok(seq)
    }

    /// Blocks until an operation commits, the oldest outstanding one
    /// times out, or `until` passes — whichever is first.
    fn wait(&mut self, until: Option<Instant>) -> io::Result<Event> {
        loop {
            while self
                .order
                .front()
                .is_some_and(|&s| self.state[s as usize] != OpState::Pending)
            {
                self.order.pop_front();
            }
            let expiry = self
                .order
                .front()
                .map(|&s| self.sent[s as usize] + OP_TIMEOUT);
            let deadline = match (expiry, until) {
                (Some(e), Some(u)) => e.min(u),
                (Some(d), None) | (None, Some(d)) => d,
                (None, None) => return Ok(Event::Deadline),
            };
            let now = Instant::now();
            match self
                .rx
                .recv_timeout(deadline.saturating_duration_since(now))
            {
                Ok((seq, done)) => {
                    if self.state[seq as usize] != OpState::Pending {
                        continue; // committed after it had timed out
                    }
                    self.state[seq as usize] = OpState::Done;
                    self.outstanding -= 1;
                    self.conn.ack()?;
                    let sent = self.sent[seq as usize];
                    return Ok(Event::Committed { seq, sent, done });
                }
                Err(RecvTimeoutError::Timeout) => {
                    if !expiry.is_some_and(|e| e <= Instant::now()) {
                        return Ok(Event::Deadline);
                    }
                    let oldest = *self.order.front().expect("expiry implies an oldest");
                    self.state[oldest as usize] = OpState::Failed;
                    self.outstanding -= 1;
                    return Ok(Event::Failed);
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(io::Error::other(
                        "every replica dropped the completion channel",
                    ))
                }
            }
        }
    }
}

/// When a closed-loop phase stops issuing new operations.
#[derive(Clone, Copy)]
enum Stop {
    AfterOps(u64),
    At(Instant),
}

/// Attempted and failed operations of one phase on one lane.
#[derive(Clone, Copy, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn plus(self, o: Tally) -> Tally {
        Tally {
            attempted: self.attempted + o.attempted,
            failed: self.failed + o.failed,
        }
    }
}

/// Closed loop: keeps [`WINDOW`] operations outstanding until `stop`,
/// then waits for the stragglers. `next` makes each operation;
/// `committed(seq, sent, done)` sees each commit.
fn closed_loop(
    lane: &mut Lane,
    stop: Stop,
    mut next: impl FnMut(u64) -> (GroupSet, Payload),
    mut committed: impl FnMut(u64, Instant, Instant),
) -> io::Result<Tally> {
    let mut tally = Tally::default();
    loop {
        let more = |t: &Tally| match stop {
            Stop::AfterOps(n) => t.attempted < n,
            Stop::At(end) => Instant::now() < end,
        };
        while lane.outstanding < WINDOW && more(&tally) {
            let (dest, payload) = next(tally.attempted);
            lane.send(dest, payload, Instant::now())?;
            tally.attempted += 1;
        }
        if lane.outstanding == 0 {
            return Ok(tally);
        }
        match lane.wait(None)? {
            Event::Committed { seq, sent, done } => committed(seq, sent, done),
            Event::Failed => tally.failed += 1,
            Event::Deadline => unreachable!("no deadline was given"),
        }
    }
}

/// One operation of an open-loop schedule.
#[derive(Clone)]
struct Planned {
    /// Due time, as an offset from the start of the schedule.
    due: Duration,
    dest: GroupSet,
    payload: Payload,
}

/// Open loop: casts each planned operation when it is due, whatever is
/// still outstanding, timing it from its due time. `late(due, ns)` sees
/// how far behind its schedule the generator actually sent each one.
fn open_loop(
    lane: &mut Lane,
    t0: Instant,
    plan: impl Iterator<Item = Planned>,
    mut late: impl FnMut(Duration, f64),
    mut committed: impl FnMut(u64, Instant, Instant),
) -> io::Result<Tally> {
    let mut tally = Tally::default();
    let mut plan = plan.peekable();
    loop {
        let due = plan.peek().map(|p| t0 + p.due);
        if let Some(due) = due {
            let now = Instant::now();
            if due <= now {
                let p = plan.next().expect("peeked");
                late(p.due, now.duration_since(due).as_nanos() as f64);
                lane.send(p.dest, p.payload, due)?;
                tally.attempted += 1;
                continue;
            }
        } else if lane.outstanding == 0 {
            return Ok(tally);
        }
        match lane.wait(due)? {
            Event::Committed { seq, sent, done } => committed(seq, sent, done),
            Event::Failed => tally.failed += 1,
            Event::Deadline => {}
        }
    }
}

/// `tcp_kv`'s load: seeded Poisson arrivals at [`KV_RATE_PER_S`] of
/// single-key commands, generated as they fall due. A lane iterates the
/// whole stream and keeps the commands its server's group owns.
struct KvStream {
    rng: SplitMix64,
    zipf: ZipfSampler,
    shards: ShardMap,
    at_s: f64,
    end_s: f64,
    lane: Option<usize>,
}

impl KvStream {
    /// The stream of `seed` over `horizon`; `lane = None` keeps every
    /// command.
    fn new(seed: u64, horizon: Duration, lane: Option<usize>) -> KvStream {
        KvStream {
            rng: SplitMix64::new(seed),
            zipf: ZipfSampler::new(KV_KEYS, KV_THETA),
            shards: ShardMap::new(SHAPE.0),
            at_s: 0.0,
            end_s: horizon.as_secs_f64(),
            lane,
        }
    }
}

impl Iterator for KvStream {
    type Item = Planned;

    fn next(&mut self) -> Option<Planned> {
        loop {
            // Exponential gaps: a Poisson process at the fixed total rate.
            self.at_s += -self.rng.next_f64().max(1e-12).ln() / KV_RATE_PER_S;
            if self.at_s >= self.end_s {
                return None;
            }
            let cmd = kv_command(&mut self.rng, &self.zipf);
            let dest = self.shards.dest_of(&cmd);
            let owner = dest.min().expect("one key").index();
            if self.lane.map_or(true, |l| l == owner) {
                return Some(Planned {
                    due: Duration::from_secs_f64(self.at_s),
                    dest,
                    payload: cmd.encode(),
                });
            }
        }
    }
}

/// The inputs generated from the seed before a cluster starts.
struct Inputs {
    /// `tcp_global`: the payload every cast carries.
    payload: Payload,
    /// `tcp_kv`: the warm-up schedule per lane — the first
    /// [`KV_WARMUP_OPS`] arrivals of a stream of its own, at the measured
    /// rate, so the set-up takes the same time on any build that keeps up.
    warmup: [Vec<Planned>; 2],
}

fn kv_command(rng: &mut SplitMix64, zipf: &ZipfSampler) -> Command {
    let key = zipf.sample(rng) as u64;
    match rng.next_below(100) {
        0..=49 => Command::Get { key },
        50..=89 => Command::Put {
            key,
            value: rng.next_below(1 << 32) as i64,
        },
        _ => Command::Incr {
            key,
            delta: rng.next_below(16) as i64 - 8,
        },
    }
}

fn generate(kind: Kind, seed: u64) -> Inputs {
    let mut rng = SplitMix64::new(seed);
    let payload: Vec<u8> = (0..GLOBAL_PAYLOAD).map(|_| rng.next_u64() as u8).collect();
    let mut inputs = Inputs {
        payload: Payload::from(payload),
        warmup: Default::default(),
    };
    if kind == Kind::Kv {
        let stream = KvStream::new(rng.next_u64(), Duration::MAX, None);
        for op in stream.take(KV_WARMUP_OPS as usize) {
            let lane = op.dest.min().expect("one key").index();
            inputs.warmup[lane].push(op);
        }
    }
    inputs
}

/// What one generator measured on its lane.
#[derive(Default)]
struct LaneLog {
    tally: Tally,
    /// Commit latencies per window, ns.
    windows: Vec<Vec<f64>>,
    /// Operations committed after the last window closed.
    after: u64,
    /// Open-loop send lateness per window (of the due time), ns.
    late: Vec<Vec<f64>>,
    /// `VmHWM` when this lane committed its [`RSS_AT_LANE_OPS`]th
    /// operation of the cluster's life.
    rss_at_fixed_work_mb: Option<f64>,
}

/// One measured interval, or several pooled: windows side by side, counts
/// and CPU summed.
#[derive(Default)]
struct Measurement {
    /// Commit latencies per window (both lanes), ascending, ms.
    windows: Vec<Vec<f64>>,
    /// Open-loop send lateness per window (both lanes), ascending, ns.
    late_ns: Vec<Vec<f64>>,
    window_len: Duration,
    tally: Tally,
    committed_after: u64,
    cpu: Cpu,
    ctx_switches: u64,
    threads: u64,
    peak_rss_mb: f64,
    allocs: (u64, u64),
}

impl Measurement {
    fn absorb(&mut self, o: Measurement) {
        let first = self.windows.is_empty();
        self.windows.extend(o.windows);
        self.late_ns.extend(o.late_ns);
        self.window_len = o.window_len;
        self.tally = self.tally.plus(o.tally);
        self.committed_after += o.committed_after;
        self.cpu.user_s += o.cpu.user_s;
        self.cpu.sys_s += o.cpu.sys_s;
        self.ctx_switches += o.ctx_switches;
        self.threads = o.threads;
        if first {
            // Fixed work on a fresh heap: the first cluster's reading.
            self.peak_rss_mb = o.peak_rss_mb;
        }
        self.allocs = (self.allocs.0 + o.allocs.0, self.allocs.1 + o.allocs.1);
    }

    fn committed_in_windows(&self) -> f64 {
        self.windows.iter().map(Vec::len).sum::<usize>() as f64
    }

    fn ops_per_s(&self) -> f64 {
        let per_window = self
            .windows
            .iter()
            .map(|w| w.len() as f64 / self.window_len.as_secs_f64())
            .collect();
        stats::median(per_window)
    }

    /// Median over the windows of each window's exact percentile.
    fn latency_ms(&self, q: f64) -> f64 {
        stats::median(
            self.windows
                .iter()
                .map(|w| stats::percentile(w, q))
                .collect(),
        )
    }

    /// Median over the windows of each window's p99 send lateness, µs.
    fn late_p99_us(&self) -> f64 {
        stats::median(
            self.late_ns
                .iter()
                .map(|w| stats::percentile(w, 0.99) / 1e3)
                .collect(),
        )
    }

    fn cpu_us_per_op(&self) -> f64 {
        ratio(self.cpu.total_s() * 1e6, self.committed_in_windows())
    }

    fn pooled_ms(&self) -> Vec<f64> {
        let mut all: Vec<f64> = self.windows.iter().flatten().copied().collect();
        stats::sort(&mut all);
        all
    }
}

/// What a probed session adds.
struct Traced {
    tallies: Tallies,
    codec: [CodecCost; CLASSES],
    events: Vec<wamcast_trace::TraceEvent>,
    events_seen: u64,
    spans: Vec<crate::timed::Span>,
    hop_rtt_us: f64,
}

struct Session {
    setup_s: f64,
    measurement: Measurement,
    traced: Option<Traced>,
}

/// `(seq, sent, committed)` of each warm-up operation of one lane.
type WarmLog = Vec<(u64, Instant, Instant)>;

/// A lane's warm-up: fixed work, under the workload's own kind of load.
fn warm_up(kind: Kind, lane: &mut Lane, i: usize, inputs: &Inputs) -> io::Result<WarmLog> {
    let mut log = WarmLog::new();
    let tally = match kind {
        Kind::Global => closed_loop(
            lane,
            Stop::AfterOps(GLOBAL_WARMUP_OPS / 2),
            |_| (GroupSet::first_n(SHAPE.0), inputs.payload.clone()),
            |_, _, _| {},
        )?,
        Kind::Kv => open_loop(
            lane,
            Instant::now(),
            inputs.warmup[i].iter().cloned(),
            |_, _| {},
            |seq, sent, done| log.push((seq, sent, done)),
        )?,
    };
    if tally.failed > 0 {
        return Err(io::Error::other(format!(
            "{} warm-up operations timed out",
            tally.failed
        )));
    }
    Ok(log)
}

/// A lane's measured interval: [`WINDOWS`] windows of `len` from `t0`.
fn generate_load(
    kind: Kind,
    lane: &mut Lane,
    i: usize,
    inputs: &Inputs,
    seed: u64,
    t0: Instant,
    len: Duration,
) -> io::Result<LaneLog> {
    let mut log = LaneLog {
        windows: vec![Vec::new(); WINDOWS],
        late: vec![Vec::new(); WINDOWS],
        ..LaneLog::default()
    };
    let LaneLog {
        windows,
        after,
        late,
        rss_at_fixed_work_mb,
        ..
    } = &mut log;
    let record = |seq: u64, sent: Instant, done: Instant| {
        let w = (done.saturating_duration_since(t0).as_nanos() / len.as_nanos()) as usize;
        match windows.get_mut(w) {
            Some(bin) => bin.push(done.duration_since(sent).as_nanos() as f64),
            None => *after += 1,
        }
        if seq == RSS_AT_LANE_OPS {
            *rss_at_fixed_work_mb = procstat::peak_rss_mb().ok();
        }
    };
    std::thread::sleep(t0.saturating_duration_since(Instant::now()));
    let horizon = len * WINDOWS as u32;
    let tally = match kind {
        Kind::Global => closed_loop(
            lane,
            Stop::At(t0 + horizon),
            |_| (GroupSet::first_n(SHAPE.0), inputs.payload.clone()),
            record,
        )?,
        Kind::Kv => open_loop(
            lane,
            t0,
            KvStream::new(seed, horizon, Some(i)),
            |due, ns| late[(due.as_nanos() / len.as_nanos()) as usize].push(ns),
            record,
        )?,
    };
    log.tally = tally;
    Ok(log)
}

/// The main thread's side of a measured interval: process accounting at
/// both ends, and at every window boundary the delivery logs drained and
/// the replicas' checkpoints compared.
fn account(
    cluster: &Cluster,
    kind: Kind,
    t0: Instant,
    len: Duration,
    seen: &mut BTreeMap<(usize, u64), u64>,
    out: &mut Outcome,
) -> io::Result<Measurement> {
    std::thread::sleep(t0.saturating_duration_since(Instant::now()));
    let cpu0 = procstat::cpu()?;
    let thr0 = procstat::threads()?;
    let allocs0 = alloc::counts();
    for w in 1..=WINDOWS as u32 {
        std::thread::sleep((t0 + len * w).saturating_duration_since(Instant::now()));
        cluster.drain_delivery_logs();
        cluster.compare_checkpoints(kind, seen, out);
    }
    let cpu = procstat::cpu()?.since(cpu0);
    let thr1 = procstat::threads()?;
    let allocs1 = alloc::counts();
    Ok(Measurement {
        window_len: len,
        cpu,
        ctx_switches: thr1.ctx_switches.saturating_sub(thr0.ctx_switches),
        threads: thr1.count,
        peak_rss_mb: procstat::peak_rss_mb()?,
        allocs: (allocs1.0 - allocs0.0, allocs1.1 - allocs0.1),
        ..Measurement::default()
    })
}

/// What a session is for.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Purpose {
    /// End-to-end numbers: nothing attached.
    EndToEnd,
    /// The untraced phase of a traced run: allocations counted.
    Baseline,
    /// The traced phase: probes and the flight recorder on.
    Probed,
}

/// One cluster's life: spawn, connect, warm up (that much is `setup_s`),
/// measure for `measure`, run the end-of-run checks, tear down.
fn session(
    kind: Kind,
    seed: u64,
    purpose: Purpose,
    measure: Duration,
    out: &mut Outcome,
) -> io::Result<Session> {
    let t_setup = Instant::now();
    let inputs = generate(kind, seed);
    let (cluster, rxs) = Cluster::spawn(kind, purpose == Purpose::Probed)?;
    let servers = Kind::servers(&cluster.topo);
    let mut lanes = Vec::new();
    for (rx, server) in rxs.into_iter().zip(servers) {
        lanes.push(Lane::new(Conn::open(cluster.addrs[server.index()])?, rx));
    }
    let epoch = Instant::now();
    let warm_logs: Vec<WarmLog> = std::thread::scope(|s| {
        let inputs = &inputs;
        let handles: Vec<_> = lanes
            .iter_mut()
            .enumerate()
            .map(|(i, lane)| s.spawn(move || warm_up(kind, lane, i, inputs)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect::<io::Result<_>>()
    })?;
    let setup_s = t_setup.elapsed().as_secs_f64();

    // Every warm-up operation has committed at every replica it addresses:
    // on `tcp_kv` the replica logs now hold exactly the warm-up history.
    let warm_replicas: Vec<ReplicaLog> = cluster
        .topo
        .processes()
        .zip(&cluster.kvs)
        .map(|(p, kv)| ReplicaLog::capture(p, &kv.lock().expect("replica poisoned")))
        .collect();
    if let Some(t) = &cluster.tracing {
        for s in &t.stats {
            s.lock().expect("probe stats poisoned").reset_tallies();
        }
    }
    cluster.drain_delivery_logs();
    let mut seen = BTreeMap::new();
    let len = measure / WINDOWS as u32;
    let t0 = Instant::now() + Duration::from_millis(5);
    alloc::set_counting(purpose == Purpose::Baseline);
    let (accounted, lane_logs) = std::thread::scope(|s| {
        let inputs = &inputs;
        let handles: Vec<_> = lanes
            .iter_mut()
            .enumerate()
            .map(|(i, lane)| s.spawn(move || generate_load(kind, lane, i, inputs, seed, t0, len)))
            .collect();
        let accounted = account(&cluster, kind, t0, len, &mut seen, out);
        let logs: io::Result<Vec<LaneLog>> = handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect();
        (accounted, logs)
    });
    alloc::set_counting(false);
    let mut m = accounted?;
    m.windows = vec![Vec::new(); WINDOWS];
    m.late_ns = vec![Vec::new(); WINDOWS];
    for log in lane_logs? {
        m.tally = m.tally.plus(log.tally);
        m.committed_after += log.after;
        for (bin, lane_bin) in m.windows.iter_mut().zip(log.windows) {
            bin.extend(lane_bin.into_iter().map(|ns| ns / 1e6));
        }
        for (bin, lane_bin) in m.late_ns.iter_mut().zip(log.late) {
            bin.extend(lane_bin);
        }
        // Memory at fixed work, not at the end of a fixed time (see
        // `RSS_AT_LANE_OPS`).
        m.peak_rss_mb = log.rss_at_fixed_work_mb.unwrap_or(m.peak_rss_mb);
    }
    for bin in m.windows.iter_mut().chain(&mut m.late_ns) {
        stats::sort(bin);
    }

    // Everything sent has committed or timed out; let the slower replicas
    // finish applying what the faster ones committed, then judge.
    let sent: Vec<u64> = lanes.iter().map(|l| l.sent.len() as u64).collect();
    let expected: Vec<u64> = cluster
        .topo
        .processes()
        .map(|p| match kind {
            Kind::Global => sent.iter().sum(),
            Kind::Kv => sent[cluster.topo.group_of(p).index()],
        })
        .collect();
    let counts = || -> Vec<u64> {
        let count = |c: &Arc<ReplicaCheck>| c.count.load(Ordering::Acquire);
        cluster.checks.iter().map(count).collect()
    };
    let settle = Instant::now() + OP_TIMEOUT;
    while counts() != expected && Instant::now() < settle {
        std::thread::sleep(Duration::from_millis(5));
    }
    // A timed-out operation may or may not have been applied everywhere;
    // exact agreement is only owed when nothing failed.
    let clean = m.tally.failed == 0;
    out.require(!clean || counts() == expected, || {
        format!(
            "replicas delivered {:?} operations, expected {expected:?}",
            counts()
        )
    });
    cluster.compare_checkpoints(kind, &mut seen, out);
    let duplicates: u64 = cluster
        .trackers
        .iter()
        .map(|t| t.duplicates.load(Ordering::Relaxed))
        .sum();
    out.require(duplicates == 0, || {
        format!("{duplicates} duplicate deliveries")
    });
    match kind {
        Kind::Global => {
            let digests: Vec<u64> = cluster
                .checks
                .iter()
                .map(|c| c.digest.load(Ordering::Relaxed))
                .collect();
            out.require(!clean || digests.windows(2).all(|w| w[0] == w[1]), || {
                format!("replicas ended with different delivery-order digests {digests:x?}")
            });
        }
        Kind::Kv => check_kv(
            &cluster,
            &inputs,
            &warm_logs,
            warm_replicas,
            epoch,
            clean,
            out,
        ),
    }

    let traced = match &cluster.tracing {
        Some(t) => Some(harvest(&cluster, t, servers[0], out)?),
        None => None,
    };
    drop(lanes);
    cluster.shutdown();
    Ok(Session {
        setup_s,
        measurement: m,
        traced,
    })
}

/// `tcp_kv`'s end-of-run checks: same-shard replicas agree, nothing failed
/// to decode, and the warm-up history passes the full KV checker.
fn check_kv(
    cluster: &Cluster,
    inputs: &Inputs,
    warm_logs: &[WarmLog],
    warm_replicas: Vec<ReplicaLog>,
    epoch: Instant,
    clean: bool,
    out: &mut Outcome,
) {
    let shards = ShardMap::new(SHAPE.0);
    let servers = Kind::servers(&cluster.topo);
    for group in cluster.kvs.chunks(SHAPE.1) {
        let states: Vec<(u64, u64)> = group
            .iter()
            .map(|kv| {
                let kv = kv.lock().expect("replica poisoned");
                (kv.digest(), kv.decode_errors())
            })
            .collect();
        out.require(
            !clean || states.windows(2).all(|w| w[0].0 == w[1].0),
            || format!("same-shard replicas ended with different digests {states:x?}"),
        );
        out.require(states.iter().all(|s| s.1 == 0), || {
            "a replica could not decode a command".to_string()
        });
    }
    let at = |t: Instant| SimTime::from_nanos(t.saturating_duration_since(epoch).as_nanos() as u64);
    let mut ops = Vec::new();
    for (lane, log) in warm_logs.iter().enumerate() {
        let responder = &warm_replicas[servers[lane].index()];
        let responses: BTreeMap<MessageId, _> = responder
            .applied
            .iter()
            .map(|a| (a.id, a.response))
            .collect();
        for &(seq, sent, done) in log {
            let cmd = Command::decode(&inputs.warmup[lane][seq as usize].payload)
                .expect("own encoding decodes");
            let id = MessageId::new(servers[lane], seq);
            ops.push(OpRecord {
                id,
                dest: shards.dest_of(&cmd),
                cmd,
                client: lane,
                invoked_at: at(sent),
                responded_at: Some(at(done)),
                response: responses.get(&id).copied(),
            });
        }
    }
    out.require(ops.len() as u64 == KV_WARMUP_OPS, || {
        format!(
            "warm-up history holds {} of {KV_WARMUP_OPS} operations",
            ops.len()
        )
    });
    let report = history::check(&History {
        shards,
        ops,
        replicas: warm_replicas,
    });
    out.violations.extend(report.violations);
}

/// Collects what the probes and the recorder hold, replays the captured
/// messages through the codec, and times the idle hop.
fn harvest(
    cluster: &Cluster,
    t: &Tracing,
    server: ProcessId,
    out: &mut Outcome,
) -> io::Result<Traced> {
    let mut tallies = Tallies::default();
    let mut captured: [Vec<MulticastMsg>; CLASSES] = Default::default();
    let mut spans = Vec::new();
    for stats in &t.stats {
        let mut stats = stats.lock().expect("probe stats poisoned");
        tallies.absorb(&stats.t);
        let NodeStats {
            captured: c,
            spans: s,
            ..
        } = &mut *stats;
        for (all, node) in captured.iter_mut().zip(c) {
            all.append(node);
        }
        spans.extend(s.drain(..));
    }
    let (events, events_seen) = {
        let ring = t.ring.lock().expect("trace ring poisoned");
        (ring.events(), ring.len() as u64 + ring.evicted())
    };
    // The probes sized frames without sealing them; hold that to the
    // real thing on one message per class.
    let mut scratch = Vec::new();
    for msg in captured.iter().filter_map(|c| c.first()) {
        let frame = Frame::Peer {
            from: server,
            msg: msg.clone(),
        };
        let (sized, sealed) = (
            peer_frame_len(msg, &mut scratch),
            4 + wire::seal(ARM, &frame).len(),
        );
        out.require(sized == sealed, || {
            format!("probe sized a frame at {sized} B, the codec seals it at {sealed} B")
        });
    }
    let codec = captured.map(|msgs| kernels::codec_replay(ARM, msgs));

    // One idle loopback hop: a request the node's reader thread answers
    // by itself (two small frames, one thread wake each way).
    let mut client = TcpClient::new(cluster.addrs[server.index()], ARM, OP_TIMEOUT);
    let mut rtts = Vec::new();
    for i in 0..2_000 {
        let start = Instant::now();
        client.request(Vec::new())?;
        if i >= 200 {
            rtts.push(start.elapsed().as_nanos() as f64 / 1e3);
        }
    }
    Ok(Traced {
        tallies,
        codec,
        events,
        events_seen,
        spans,
        hop_rtt_us: stats::median(rtts),
    })
}

/// Runs `tcp_global`.
///
/// # Errors
///
/// Socket or `/proc` failures; a warm-up that timed out.
pub fn run_global(args: &RunArgs) -> io::Result<Outcome> {
    run(args, Kind::Global)
}

/// Runs `tcp_kv`.
///
/// # Errors
///
/// As [`run_global`].
pub fn run_kv(args: &RunArgs) -> io::Result<Outcome> {
    run(args, Kind::Kv)
}

/// The runner's self-checks on a measured interval of `sessions` clusters.
fn self_checks(kind: Kind, m: &Measurement, sessions: usize, out: &mut Outcome) {
    let committed = m.committed_in_windows() as u64 + m.committed_after;
    out.require(m.tally.attempted == committed + m.tally.failed, || {
        format!(
            "attempted {} != committed {committed} + failed {}",
            m.tally.attempted, m.tally.failed
        )
    });
    let full = m.windows.len() == sessions * WINDOWS && m.windows.iter().all(|w| !w.is_empty());
    out.require(full, || {
        format!(
            "not every one of the {} windows saw a commit",
            sessions * WINDOWS
        )
    });
    out.require_cpu_identity(m.ops_per_s(), m.cpu_us_per_op());
    if kind == Kind::Kv {
        let late = m.late_p99_us();
        out.require(late <= MAX_LATE_P99_US, || {
            format!("invalid run: the open-loop generator ran {late} us late at p99")
        });
    }
}

fn run(args: &RunArgs, kind: Kind) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    let seconds = Duration::from_secs(args.seconds);

    if !args.trace {
        // SETUPS clusters, each measured for its share of the time: the
        // set-up time is a median, and the windows of all of them are
        // pooled, so one cluster's luck with thread and flow placement
        // does not decide the run.
        let mut setups = Vec::new();
        let mut m = Measurement::default();
        for _ in 0..SETUPS {
            let share = seconds / SETUPS as u32;
            let s = session(kind, args.seed, Purpose::EndToEnd, share, &mut out)?;
            setups.push(s.setup_s);
            m.absorb(s.measurement);
        }
        self_checks(kind, &m, SETUPS, &mut out);
        out.attempted = m.tally.attempted;
        out.failed = m.tally.failed;
        out.set("setup_s", stats::median(setups));
        out.set("ops_per_s", m.ops_per_s());
        out.set("lat_p50_ms", m.latency_ms(0.50));
        out.set("cpu_us_per_op", m.cpu_us_per_op());
        out.set("peak_rss_mb", m.peak_rss_mb);
        return Ok(out);
    }

    // Traced: an untraced phase (allocations counted) for the baseline,
    // then the probed phase on a fresh cluster.
    let base = session(
        kind,
        args.seed,
        Purpose::Baseline,
        seconds.mul_f64(TRACE_UNTRACED_SHARE),
        &mut out,
    )?
    .measurement;
    self_checks(kind, &base, 1, &mut out);
    let probed = session(
        kind,
        args.seed,
        Purpose::Probed,
        seconds.mul_f64(1.0 - TRACE_UNTRACED_SHARE),
        &mut out,
    )?;
    let (m, t) = (probed.measurement, probed.traced.expect("probed session"));
    out.attempted = m.tally.attempted;
    out.failed = m.tally.failed;
    let ops = m.committed_in_windows();

    let mut rows = layers::protocol_layers(&mut out, &t.tallies, ops, Algo::A1);
    let (inter, intra) = layers::copies_per_op(&t.tallies, ops);
    layers::set_msgs_per_op(&mut out, Algo::A1, inter, intra);
    if kind == Kind::Kv {
        out.require(inter == 0.0, || {
            format!("single-shard commands caused {inter} inter-group messages per op")
        });
    }

    // Codec: each action with a remote copy is sealed once; each remote
    // copy is opened once at its receiver.
    let (mut frames, mut bytes, mut seal_ns, mut open_ns, mut encodes) = (0.0, 0.0, 0.0, 0.0, 0.0);
    let _ = writeln!(out.notes, "  codec replay per message class:");
    for (c, cost) in t.codec.iter().enumerate() {
        let tally = &t.tallies.class[c];
        let copies = (tally.intra_copies + tally.inter_copies) as f64;
        frames += copies;
        bytes += tally.bytes as f64;
        encodes += tally.encodes as f64;
        seal_ns += tally.encodes as f64 * cost.seal_ns;
        open_ns += copies * cost.open_ns;
        let _ = writeln!(
            out.notes,
            "    {:<8} {:>6} msgs  seal {:>8.1} ns  open {:>8.1} ns  {:>7.1} B  ({:.3} copies/op)",
            CLASS_NAMES[c],
            cost.msgs,
            cost.seal_ns,
            cost.open_ns,
            cost.bytes,
            ratio(copies, ops)
        );
    }
    out.require(t.codec[class_index(MsgClass::Rmcast)].msgs > 0, || {
        "no reliable-multicast message was captured for the codec replay".to_string()
    });
    out.set("net.frames_per_op", ratio(frames, ops));
    out.set("net.bytes_per_op", ratio(bytes, ops));
    out.set("net.hop_rtt_us", t.hop_rtt_us);
    let base_ops = base.committed_in_windows();
    out.set(
        "net.ctx_switches_per_op",
        ratio(base.ctx_switches as f64, base_ops),
    );
    out.set(
        "net.sys_cpu_share",
        ratio(base.cpu.sys_s, base.cpu.total_s()),
    );
    out.set("net.threads", base.threads as f64);
    out.set("wire.seal_ns_per_msg", ratio(seal_ns, encodes));
    out.set("wire.open_ns_per_msg", ratio(open_ns, frames));
    out.set("wire.bytes_per_msg", ratio(bytes, frames));
    let codec_us_per_op = ratio((seal_ns + open_ns) / 1e3, ops);
    out.set("wire.codec_us_per_op", codec_us_per_op);
    rows.push(("wire seal + open", codec_us_per_op));

    let smr = match kind {
        Kind::Global => kernels::SmrCost::default(),
        Kind::Kv => {
            let cmds: Vec<Command> = KvStream::new(args.seed, seconds, None)
                .take(KERNEL_CMDS)
                .map(|p| Command::decode(&p.payload).expect("own encoding decodes"))
                .collect();
            kernels::smr_kernels(&cmds, ShardMap::new(SHAPE.0))
        }
    };
    out.set("smr.apply_ns_per_op", smr.apply_ns);
    out.set("smr.encode_ns", smr.encode_ns);
    out.set("smr.decode_ns", smr.decode_ns);
    out.set("smr.payload_bytes", smr.payload_bytes);
    // Every replica of the owner shard decodes and applies the command.
    rows.push((
        "smr decode + apply",
        (smr.decode_ns + smr.apply_ns) * SHAPE.1 as f64 / 1e3,
    ));
    layers::budget(&mut out, &rows, base.cpu_us_per_op());

    let [s1, s2, s3] = tracing::stage_medians_ms(&t.events);
    out.set("amcast.stage_ms.cast_to_ts", s1);
    out.set("amcast.stage_ms.ts_to_decide", s2);
    out.set("amcast.stage_ms.decide_to_deliver", s3);
    out.set("alloc.allocs_per_op", ratio(base.allocs.0 as f64, base_ops));
    out.set("alloc.bytes_per_op", ratio(base.allocs.1 as f64, base_ops));
    out.set(
        "trace.overhead_pct",
        100.0 * (ratio(m.cpu_us_per_op(), base.cpu_us_per_op()) - 1.0),
    );
    out.set("trace.events_per_op", ratio(t.events_seen as f64, ops));
    out.set("trace.push_ns", kernels::trace_push_ns());
    out.set("metrics.record_ns", kernels::histogram_record_ns());
    out.set("gen.late_p99_us", base.late_p99_us());
    let pooled = base.pooled_ms();
    out.set("client.lat_p90_ms", base.latency_ms(0.90));
    out.set("client.lat_p99_ms", base.latency_ms(0.99));
    out.set("client.lat_p999_ms", stats::percentile(&pooled, 0.999));
    out.set("client.lat_max_ms", pooled.last().copied().unwrap_or(0.0));
    out.set("client.ops_per_s", base.ops_per_s());
    out.set(
        "client.failed_ops",
        (base.tally.failed + m.tally.failed) as f64,
    );
    out.set("client.samples", pooled.len() as f64);
    out.zero_unset(&["sim."]); // a socket run never enters the simulator
    if let Some(dir) = &args.out {
        tracing::write_trace_file(dir, kind.name(), &t.events, &t.spans)?;
    }
    Ok(out)
}
