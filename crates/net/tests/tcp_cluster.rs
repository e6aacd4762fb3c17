//! The TCP runtime's socket plumbing, over real localhost sockets in one
//! test process: framing, dial/redial, cast/ack, service requests. (The
//! protocol-level cases on the in-process host are in `cluster.rs`; the
//! multi-*process* version — spawned peers, `kill -9` chaos — lives in the
//! harness crate, which owns the `peer` binary.) The second half drives
//! one node's sockets directly, with raw sockets standing in for clients
//! and peers: what needs a kernel. The host policy behind them is tested
//! without sockets in `tcp::node`.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use wamcast_core::{GenuineMulticast, MulticastConfig, RoundBroadcast, WithApply};
use wamcast_net::tcp::{
    self, free_addrs, null_service, read_frame, write_frame, Frame, LocalCluster, NoMsg, Service,
    SharedDeliveries, TcpClient, TcpNode, TcpNodeConfig, MAX_FRAME,
};
use wamcast_types::wire::{self, Wire};
use wamcast_types::{
    shared_ids, AppMessage, BatchConfig, Context, GroupId, GroupSet, MessageId, Outbox, Payload,
    ProcessId, Protocol, StateMachine, Topology,
};

const RETRY: Duration = Duration::from_millis(100);

#[test]
fn broadcast_total_order_over_sockets() {
    let cluster = LocalCluster::serve(Topology::symmetric(2, 2), 7, None, |p, t| {
        RoundBroadcast::new(p, t).with_retry(RETRY)
    })
    .expect("serve");
    // An outside client with its own sequence numbers: the host casts none.
    let mut client = TcpClient::new(cluster.addrs()[0], 7, Duration::from_secs(5));
    let all = GroupSet::first_n(2);
    let n_msgs = 20u64;
    for seq in 0..n_msgs {
        let id = client
            .cast(seq, all, Payload::from(vec![seq as u8]))
            .expect("cast");
        assert_eq!(id, MessageId::new(ProcessId(0), seq));
    }
    for seq in 0..n_msgs {
        cluster
            .await_delivery_everywhere(
                MessageId::new(ProcessId(0), seq),
                all,
                Duration::from_secs(30),
            )
            .expect("every node delivered every message");
    }
    // Total order: every node delivered the identical sequence.
    let first = cluster.delivered(ProcessId(0));
    assert_eq!(first.len(), n_msgs as usize);
    for p in cluster.topology().processes() {
        assert_eq!(cluster.delivered(p), first, "delivery orders diverged");
    }
    cluster.shutdown();
}

#[test]
fn genuine_multicast_over_sockets_routes_by_group() {
    let mut cluster = LocalCluster::serve(Topology::symmetric(2, 2), 3, None, |p, t| {
        GenuineMulticast::new(p, t, MulticastConfig::default().with_retry(RETRY))
    })
    .expect("serve");
    // Group-0-only cast from a group-0 member: genuineness says group 1
    // must stay silent.
    let g0 = GroupSet::first_n(1);
    let id = cluster
        .cast(ProcessId(0), g0, Payload::from_static(b"local"))
        .expect("cast");
    cluster
        .await_delivery_everywhere(id, g0, Duration::from_secs(30))
        .expect("group 0 delivered");
    std::thread::sleep(Duration::from_millis(200));
    for bystander in [ProcessId(2), ProcessId(3)] {
        assert_eq!(
            cluster.delivered_count(bystander),
            0,
            "genuineness violated"
        );
    }
    cluster.shutdown();
}

/// A state machine that keeps every message it is applied, body included.
#[derive(Default)]
struct Applied(Vec<AppMessage>);

impl StateMachine for Applied {
    fn apply(&mut self, msg: &AppMessage) {
        self.0.push(msg.clone());
    }
}

/// Batched A1 puts every cast's body on the wire many times — its `Data`,
/// each group's `(TS, batch)`, the `Accept`s and `Accepted`s naming it. A
/// node's body cache must turn the repeats into handles to one buffer
/// without ever changing what the application is handed. The node's own
/// log holds ids only, so the bodies are read where an application reads
/// them: in a state machine fed by `WithApply`.
#[test]
fn bodies_are_shared_per_node_and_delivered_intact_on_a_batched_a1_run() {
    let batch = BatchConfig::new(8).with_max_delay(Duration::from_millis(5));
    let machines: Vec<Arc<Mutex<Applied>>> = (0..4).map(|_| Arc::default()).collect();
    let mut cluster = LocalCluster::serve(Topology::symmetric(2, 2), 4, None, |p, t| {
        let cfg = MulticastConfig::default()
            .with_batch(batch)
            .with_retry(RETRY);
        WithApply::new(
            GenuineMulticast::new(p, t, cfg),
            Arc::clone(&machines[p.index()]),
        )
    })
    .expect("serve");
    let both = GroupSet::first_n(2);
    let body = |i: u64| -> Vec<u8> { (0..64).map(|b| (i * 31 + b) as u8).collect() };
    let mut cast: Vec<(MessageId, Vec<u8>)> = Vec::new();
    for i in 0..40u64 {
        let caster = ProcessId(if i % 2 == 0 { 0 } else { 2 });
        let id = cluster
            .cast(caster, both, Payload::from(body(i)))
            .expect("cast");
        cast.push((id, body(i)));
    }
    for (id, _) in &cast {
        cluster
            .await_delivery_everywhere(*id, both, Duration::from_secs(30))
            .expect("delivered everywhere");
    }
    for p in cluster.topology().processes() {
        let applied = &machines[p.index()].lock().expect("machine").0;
        assert_eq!(applied.len(), cast.len(), "{p} applied each cast once");
        let order: Vec<MessageId> = applied.iter().map(|m| m.id).collect();
        assert_eq!(cluster.delivered(p), order, "{p} logs what it applies");
        for (id, bytes) in &cast {
            let m = applied.iter().find(|m| m.id == *id).expect("applied");
            assert_eq!(m.payload.as_slice(), &bytes[..], "{p} applied {id} intact");
        }
        let stats = cluster.stats(p);
        assert_eq!(stats.dropped(), 0, "{p}: {stats}");
        assert!(stats.body_hits() > 0, "{p} shared no body: {stats}");
    }
    cluster.shutdown();
}

#[test]
fn service_requests_answered_on_node_thread() {
    let topo = Arc::new(Topology::symmetric(1, 1));
    let addrs = free_addrs(1).expect("ports");
    let delivered: SharedDeliveries = Arc::new(Mutex::new(Vec::new()));
    let node = tcp::serve(
        TcpNodeConfig {
            me: ProcessId(0),
            topo: Arc::clone(&topo),
            addrs: addrs.clone(),
            arm: 0,
            faults: None,
            trace: None,
        },
        RoundBroadcast::new(ProcessId(0), &topo),
        Arc::clone(&delivered),
        Arc::new(|body: &[u8]| body.iter().rev().copied().collect()),
    )
    .expect("serve");
    let mut client = TcpClient::new(addrs[0], 0, Duration::from_secs(5));
    assert_eq!(
        client.request(vec![1, 2, 3]).expect("request"),
        vec![3, 2, 1]
    );
    // Wrong-arm clients get no reply (their frames are rejected at decode).
    let mut wrong = TcpClient::new(addrs[0], 9, Duration::from_millis(300));
    assert!(wrong.request(vec![0]).is_err());
    node.shutdown();
}

#[test]
fn shutdown_frame_ends_wait() {
    let topo = Arc::new(Topology::symmetric(1, 1));
    let addrs = free_addrs(1).expect("ports");
    let delivered: SharedDeliveries = Arc::new(Mutex::new(Vec::new()));
    let node = tcp::serve(
        TcpNodeConfig {
            me: ProcessId(0),
            topo: Arc::clone(&topo),
            addrs: addrs.clone(),
            arm: 1,
            faults: None,
            trace: None,
        },
        RoundBroadcast::new(ProcessId(0), &topo),
        delivered,
        null_service(),
    )
    .expect("serve");
    let addr = addrs[0];
    let h = std::thread::spawn(move || {
        let mut client = TcpClient::new(addr, 1, Duration::from_secs(5));
        std::thread::sleep(Duration::from_millis(100));
        client.shutdown_peer().expect("shutdown frame");
    });
    node.wait(); // returns once the Shutdown frame lands
    h.join().unwrap();
}

// ---- the node's read/write state machine ------------------------------

/// Test protocol: a cast goes to every process of its destination groups
/// (the caster included) and is delivered on receipt — no ordering, no
/// agreement, so a dead destination never holds a delivery back.
struct Flood;

type M = AppMessage;

impl Protocol for Flood {
    type Msg = M;

    fn on_cast(&mut self, msg: M, ctx: &Context, out: &mut Outbox<M>) {
        out.send_many(shared_ids(ctx.topology().processes_in(msg.dest)), msg);
    }

    fn on_message(&mut self, _: ProcessId, msg: M, _: &Context, out: &mut Outbox<M>) {
        out.deliver(msg);
    }
}

const ARM: u8 = 0x2A;

/// Serves `proto` as process 0 of a `groups` x 1 topology whose other
/// addresses are `others` (whatever the test put there).
fn serve_p0<P>(proto: P, others: &[SocketAddr], service: Service) -> (TcpNode, SocketAddr)
where
    P: Protocol + Send + 'static,
    P::Msg: Wire,
{
    let topo = Arc::new(Topology::symmetric(1 + others.len(), 1));
    let mut addrs = free_addrs(1).expect("ports");
    addrs.extend_from_slice(others);
    let node = tcp::serve(
        TcpNodeConfig {
            me: ProcessId(0),
            topo,
            addrs: addrs.clone(),
            arm: ARM,
            faults: None,
            trace: None,
        },
        proto,
        Arc::default(),
        service,
    )
    .expect("serve");
    (node, addrs[0])
}

fn echo_service() -> Service {
    Arc::new(|body: &[u8]| body.to_vec())
}

/// One length-prefixed, enveloped client frame.
fn framed(frame: &Frame<NoMsg>) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_frame(&mut bytes, &wire::seal(ARM, frame)).expect("frame fits");
    bytes
}

fn raw_client(addr: SocketAddr) -> TcpStream {
    let s = TcpStream::connect(addr).expect("connect");
    s.set_nodelay(true).expect("nodelay");
    s.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    s
}

fn read_reply(s: &mut TcpStream) -> Frame<NoMsg> {
    wire::open(ARM, &read_frame(s).expect("reply frame")).expect("reply decodes")
}

fn await_that(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting until {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn socket_counters_count_one_cast_exactly() {
    let (node, addr) = serve_p0(Flood, &[], null_service());
    let mut s = raw_client(addr);
    let cast = Frame::Cast {
        seq: 0,
        dest: GroupSet::first_n(1),
        payload: Payload::from_static(b"counted"),
    };
    s.write_all(&framed(&cast)).expect("write");
    let id = MessageId::new(ProcessId(0), 0);
    let ack = Frame::CastAck { id };
    assert_eq!(read_reply(&mut s), ack);
    let stats = node.stats();
    let ack_len = framed(&ack).len() as u64;
    // The counters are bumped after the syscall returns: the client may
    // read the ack first.
    await_that("the ack's write is counted", || {
        stats.bytes_written() == ack_len
    });
    assert_eq!(stats.frames_in(), 1, "{stats}");
    assert_eq!(
        stats.frames_out(),
        1,
        "the ack only (1×1: no peer): {stats}"
    );
    assert!(stats.writes() >= 1, "{stats}");
    assert!(stats.reads() >= 1, "{stats}");
    assert_eq!(stats.dropped(), 0, "{stats}");
    node.shutdown();
}

#[test]
fn oversize_length_claim_closes_that_connection_only() {
    let (node, addr) = serve_p0(Flood, &[], echo_service());
    let mut other = TcpClient::new(addr, ARM, Duration::from_secs(5));
    assert_eq!(other.request(vec![1]).expect("before"), vec![1]);
    let mut hostile = raw_client(addr);
    hostile
        .write_all(&(MAX_FRAME + 1).to_le_bytes())
        .expect("write");
    // The node hangs up on the claim rather than buffering towards it.
    assert_eq!(hostile.read(&mut [0u8; 8]).expect("eof, not a timeout"), 0);
    assert_eq!(node.stats().bad_frame(), 1);
    // The connection that was open before still works, and so do new ones.
    assert_eq!(other.request(vec![2]).expect("after"), vec![2]);
    let mut fresh = TcpClient::new(addr, ARM, Duration::from_secs(5));
    assert_eq!(fresh.request(vec![3]).expect("fresh"), vec![3]);
    node.shutdown();
}

#[test]
fn cast_beyond_the_wire_group_limit_is_refused_and_the_client_keeps_working() {
    let (node, addr) = serve_p0(Flood, &[], echo_service());
    let mut client = TcpClient::new(addr, ARM, Duration::from_secs(5));
    let unaddressable = GroupSet::singleton(GroupId(wire::MAX_GROUPS as u16));
    let err = client
        .cast(0, unaddressable, Payload::from_static(b"g64"))
        .expect_err("wire v2 cannot carry g64");
    assert_eq!(err.kind(), ErrorKind::InvalidInput, "{err}");
    let id = client
        .cast(1, GroupSet::first_n(1), Payload::from_static(b"valid"))
        .expect("the same client's next cast is acked");
    await_that("the valid cast is delivered", || {
        node.delivered().contains(&id)
    });
    assert_eq!(
        node.stats().bad_frame(),
        0,
        "nothing was sent for the bad cast"
    );
    node.shutdown();
}

#[test]
fn peer_that_never_reads_fills_the_capped_out_buffer_and_the_node_keeps_serving() {
    // Process 1 is a listener nobody accepts from: the kernel completes the
    // handshake and buffers what it is sent, up to its limits.
    let stuck = TcpListener::bind("127.0.0.1:0").expect("bind");
    let (node, addr) = serve_p0(Flood, &[stuck.local_addr().expect("addr")], null_service());
    let stats = node.stats();
    let mut client = TcpClient::new(addr, ARM, Duration::from_secs(5));
    let both = GroupSet::first_n(2);
    let mut seq = 0;
    await_that("the out-buffer to the stuck peer overflows", || {
        client
            .cast(seq, both, Payload::from(vec![0u8; 512 * 1024]))
            .expect("acked while the link backs up");
        seq += 1;
        stats.out_full() > 0
    });
    // Overflow is loss on that link, not a stall of the node: a cast to
    // this node's own group is still acknowledged and delivered.
    let id = client
        .cast(seq, GroupSet::first_n(1), Payload::from_static(b"local"))
        .expect("acked after the overflow");
    await_that("the single-group cast is delivered", || {
        node.delivered().contains(&id)
    });
    assert_eq!(stats.reset(), 0);
    assert_eq!(stats.link_down(), 0);
    node.shutdown();
}

#[test]
fn refusing_peer_does_not_delay_the_cast_ack() {
    // Process 1's address has no listener: every dial is refused.
    let (node, addr) = serve_p0(Flood, &free_addrs(1).expect("ports"), echo_service());
    let mut client = TcpClient::new(addr, ARM, Duration::from_secs(5));
    client.request(vec![0]).expect("client connected");
    let t = Instant::now();
    client
        .cast(0, GroupSet::first_n(2), Payload::from_static(b"x"))
        .expect("acked");
    let took = t.elapsed();
    assert!(took < Duration::from_millis(50), "ack took {took:?}");
    await_that("the undeliverable copy is counted", || {
        node.stats().link_down() >= 1
    });
    assert_eq!(node.delivered().len(), 1, "delivered locally regardless");
    node.shutdown();
}

#[test]
fn cast_ack_is_readable_before_any_remote_replica_sees_the_cast() {
    // The test plays process 1, so it knows the instant the first byte of
    // the cast's first message reaches another process.
    let remote = TcpListener::bind("127.0.0.1:0").expect("bind");
    let (node, addr) = serve_p0(Flood, &[remote.local_addr().expect("addr")], null_service());
    let mut client = raw_client(addr);
    // Big enough that writing it to the link takes the node milliseconds:
    // were the ack written after the link, it could not be in the client's
    // socket by the time the link's first bytes are read here.
    let cast = Frame::Cast {
        seq: 9,
        dest: GroupSet::first_n(2),
        payload: Payload::from(vec![0xAB; 8 * 1024 * 1024]),
    };
    client.write_all(&framed(&cast)).expect("cast");
    let (mut link, _) = remote.accept().expect("node dials process 1");
    link.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let mut prefix = [0u8; 4];
    link.read_exact(&mut prefix).expect("peer frame begins");
    assert!(u32::from_le_bytes(prefix) > 8 * 1024 * 1024);
    // Replies are flushed before peer links in the same turn, and loopback
    // delivers synchronously: the ack must already be waiting, whole.
    client.set_nonblocking(true).expect("nonblocking");
    let mut ack = vec![0u8; 64];
    let n = match client.read(&mut ack) {
        Ok(n) => n,
        Err(e) if e.kind() == ErrorKind::WouldBlock => 0,
        Err(e) => panic!("client read: {e}"),
    };
    let expected = framed(&Frame::CastAck {
        id: MessageId::new(ProcessId(0), 9),
    });
    assert_eq!(&ack[..n], &expected[..], "ack not in the socket yet");
    node.shutdown();
}

/// Test protocol: re-arms a 1.5 ms timer `rounds` times, noting when each
/// one fired.
struct Ticker {
    fired: Arc<Mutex<Vec<Instant>>>,
    rounds: usize,
}

const TICK: Duration = Duration::from_micros(1500);

impl Protocol for Ticker {
    type Msg = u64;

    fn on_start(&mut self, _: &Context, out: &mut Outbox<u64>) {
        self.fired.lock().unwrap().push(Instant::now());
        out.set_timer(TICK, 0);
    }

    fn on_cast(&mut self, _: AppMessage, _: &Context, _: &mut Outbox<u64>) {}

    fn on_message(&mut self, _: ProcessId, _: u64, _: &Context, _: &mut Outbox<u64>) {}

    fn on_timer(&mut self, _: u64, _: &Context, out: &mut Outbox<u64>) {
        let mut fired = self.fired.lock().unwrap();
        fired.push(Instant::now());
        if fired.len() <= self.rounds {
            out.set_timer(TICK, 0);
        }
    }
}

#[test]
fn sub_millisecond_timer_neither_fires_early_nor_spins() {
    let rounds = 100;
    let fired = Arc::new(Mutex::new(Vec::new()));
    let ticker = Ticker {
        fired: Arc::clone(&fired),
        rounds,
    };
    let (node, _) = serve_p0(ticker, &[], null_service());
    await_that("every round fired", || fired.lock().unwrap().len() > rounds);
    let turns = node.stats().turns();
    node.shutdown();
    // Each entry is taken inside the handler that arms the next timer, so
    // consecutive entries are at least one full timer apart.
    let fired = fired.lock().unwrap();
    for pair in fired.windows(2) {
        let gap = pair[1] - pair[0];
        assert!(gap >= TICK, "timer fired {:?} early", TICK - gap);
    }
    // A 1.5 ms wait rounded up is one 2 ms sleep; rounded down it would be
    // a 1 ms sleep and then a zero-timeout spin until the deadline.
    assert!(
        turns <= 3 * rounds as u64,
        "{turns} wake-ups for {rounds} timers"
    );
}
