//! The TCP runtime's socket plumbing, over real localhost sockets in one
//! test process: framing, dial/redial, cast/ack, service requests. (The
//! protocol-level cases on the in-process host are in `cluster.rs`; the
//! multi-*process* version — spawned peers, `kill -9` chaos — lives in the
//! harness crate, which owns the `peer` binary.) The second half drives
//! one node's read/write state machine directly, with raw sockets standing
//! in for clients and peers, so each case controls exactly which bytes
//! arrive when; it ends with the fault path, under probability-1 rules.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use wamcast_core::{GenuineMulticast, MulticastConfig, RoundBroadcast};
use wamcast_net::tcp::{
    self, free_addrs, null_service, read_frame, write_frame, Frame, LocalCluster, NoMsg, Service,
    SharedDeliveries, TcpClient, TcpNode, TcpNodeConfig, MAX_FRAME,
};
use wamcast_net::WallFaults;
use wamcast_types::wire::{self, Wire};
use wamcast_types::{
    AppMessage, BatchConfig, Context, FaultPlan, GroupId, GroupSet, MessageId, Outbox, Payload,
    ProcessId, Protocol, SimTime, Topology,
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
            .await_delivery_everywhere(MessageId::new(ProcessId(0), seq), Duration::from_secs(30))
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
    let id = cluster
        .cast(
            ProcessId(0),
            GroupSet::first_n(1),
            Payload::from_static(b"local"),
        )
        .expect("cast");
    cluster
        .await_delivery_everywhere(id, Duration::from_secs(30))
        .expect("group 0 delivered");
    std::thread::sleep(Duration::from_millis(200));
    for bystander in [ProcessId(2), ProcessId(3)] {
        assert!(
            cluster.delivered(bystander).is_empty(),
            "genuineness violated"
        );
    }
    cluster.shutdown();
}

/// Batched A1 puts every cast's body on the wire many times — its `Data`,
/// each group's `(TS, batch)`, the `Accept`s and `Accepted`s naming it. A
/// node's body cache must turn the repeats into handles to one buffer
/// without ever changing what is delivered.
#[test]
fn bodies_are_shared_per_node_and_delivered_intact_on_a_batched_a1_run() {
    let batch = BatchConfig::new(8).with_max_delay(Duration::from_millis(5));
    let mut cluster = LocalCluster::serve(Topology::symmetric(2, 2), 4, None, |p, t| {
        let cfg = MulticastConfig::default()
            .with_batch(batch)
            .with_retry(RETRY);
        GenuineMulticast::new(p, t, cfg)
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
            .await_delivery_everywhere(*id, Duration::from_secs(30))
            .expect("delivered everywhere");
    }
    for p in cluster.topology().processes() {
        let delivered = cluster.delivered(p);
        assert_eq!(delivered.len(), cast.len(), "{p} delivered each cast once");
        for (id, bytes) in &cast {
            let m = delivered.iter().find(|m| m.id == *id).expect("delivered");
            assert_eq!(
                m.payload.as_slice(),
                &bytes[..],
                "{p} delivered {id} intact"
            );
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

impl Protocol for Flood {
    type Msg = AppMessage;

    fn on_cast(&mut self, msg: AppMessage, ctx: &Context, out: &mut Outbox<AppMessage>) {
        let tos: Vec<ProcessId> = ctx.topology().processes_in(msg.dest).collect();
        out.send_many(tos, msg);
    }

    fn on_message(
        &mut self,
        _: ProcessId,
        msg: AppMessage,
        _: &Context,
        out: &mut Outbox<AppMessage>,
    ) {
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
    framed_as(frame)
}

/// [`framed`] for any frame, peer traffic included.
fn framed_as<M: Wire>(frame: &Frame<M>) -> Vec<u8> {
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
fn frame_arriving_one_byte_at_a_time_reassembles() {
    let (node, addr) = serve_p0(Flood, &[], echo_service());
    let mut s = raw_client(addr);
    for byte in framed(&Frame::Req { body: vec![7; 40] }) {
        s.write_all(&[byte]).expect("write");
        // Long enough for the node to wake, read the byte and go back to
        // sleep with the frame still incomplete.
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(read_reply(&mut s), Frame::Rep { body: vec![7; 40] });
    assert_eq!(node.stats().bad_frame(), 0);
    node.shutdown();
}

#[test]
fn two_frames_in_one_segment_both_dispatch() {
    let (node, addr) = serve_p0(Flood, &[], echo_service());
    let mut s = raw_client(addr);
    let mut bytes = framed(&Frame::Req { body: vec![1] });
    bytes.extend(framed(&Frame::Req { body: vec![2, 2] }));
    s.write_all(&bytes).expect("write");
    assert_eq!(read_reply(&mut s), Frame::Rep { body: vec![1] });
    assert_eq!(read_reply(&mut s), Frame::Rep { body: vec![2, 2] });
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
fn frames_naming_ids_outside_the_topology_are_refused_and_the_node_keeps_serving() {
    // A 1x1 topology: the only process is p0, the only group g0.
    let (node, addr) = serve_p0(Flood, &[], echo_service());
    let hostile: Vec<Vec<u8>> = vec![
        framed(&Frame::Cast {
            seq: 1,
            dest: GroupSet::singleton(GroupId(5)),
            payload: Payload::new(),
        }),
        framed(&Frame::Cast {
            seq: 2,
            dest: GroupSet::new(),
            payload: Payload::new(),
        }),
        framed(&Frame::CrashNotify { of: ProcessId(9) }),
        framed_as(&Frame::Peer {
            from: ProcessId(7),
            msg: AppMessage::new(
                MessageId::new(ProcessId(7), 0),
                GroupSet::first_n(1),
                Payload::new(),
            ),
        }),
    ];
    let mut s = raw_client(addr);
    for bytes in &hostile {
        s.write_all(bytes).expect("write");
    }
    // Frames of one connection are handled in order, so the echo says all
    // of the above were — and being the first reply, that no cast was acked.
    s.write_all(&framed(&Frame::Req { body: vec![1] }))
        .expect("write");
    assert_eq!(read_reply(&mut s), Frame::Rep { body: vec![1] });
    assert!(node.delivered().is_empty(), "a refused frame takes no step");

    let mut fresh = TcpClient::new(addr, ARM, Duration::from_secs(5));
    let id = fresh
        .cast(3, GroupSet::first_n(1), Payload::from_static(b"valid"))
        .expect("a fresh connection is accepted and its cast acked");
    await_that("the valid cast is delivered", || {
        node.delivered().iter().any(|m| m.id == id)
    });
    assert_eq!(node.stats().bad_frame(), hostile.len() as u64);
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
        node.delivered().iter().any(|m| m.id == id)
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

#[test]
fn adversary_fates_map_to_copies_on_the_send_path() {
    // Probability-1 rules make every fate certain: p0 -> p1 always drops,
    // every surviving copy is duplicated. This pins, on the node's real
    // send path, what a fate means in frames: dropped = 0 copies (and a
    // dropped copy is never duplicated), duplicated = 2, and a
    // self-addressed send is a hand-off the adversary never sees = 1.
    let (p0, p1, p2) = (ProcessId(0), ProcessId(1), ProcessId(2));
    let plan = FaultPlan::none().with_drop(p0, p1, 1.0).with_duplication(
        1.0,
        SimTime::ZERO,
        SimTime::from_millis(3_600_000),
    );
    let faults = Arc::new(WallFaults::new(plan, 1));
    let mut cluster =
        LocalCluster::serve(Topology::symmetric(3, 1), ARM, Some(faults), |_, _| Flood)
            .expect("serve");
    let everyone = cluster.topology().all_groups();
    let ids_at = |cluster: &LocalCluster, p| -> Vec<MessageId> {
        cluster.delivered(p).iter().map(|m| m.id).collect()
    };

    let a = cluster.cast(p0, everyone, Payload::new()).expect("cast");
    await_that("p2 has both copies of a", || ids_at(&cluster, p2) == [a, a]);
    let b = cluster.cast(p1, everyone, Payload::new()).expect("cast");
    await_that("p0 and p2 have both copies of b", || {
        ids_at(&cluster, p0) == [a, b, b] && ids_at(&cluster, p2) == [a, a, b, b]
    });
    // p0 queues its copy for p1 before the one for p2 and p2 has long had
    // both of its: had a copy of a been sent to p1, it would be here.
    assert_eq!(ids_at(&cluster, p1), [b], "p0 -> p1 drops; self-send once");
    cluster.shutdown();
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
