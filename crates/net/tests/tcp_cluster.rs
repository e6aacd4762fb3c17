//! In-process smoke of the TCP runtime: several `TcpNode`s in one test
//! process, talking over real localhost sockets. The multi-*process*
//! version (spawned peers, `kill -9` chaos) lives in the harness crate,
//! which owns the `peer` binary; this tier proves the socket plumbing —
//! framing, dial/redial, cast/ack, service requests — with no process
//! management in the way. The second half drives one node's read/write
//! state machine directly, with raw sockets standing in for clients and
//! peers, so each case controls exactly which bytes arrive when.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use wamcast_core::{GenuineMulticast, MulticastConfig, RoundBroadcast};
use wamcast_net::tcp::{
    self, null_service, read_frame, write_frame, Frame, NoMsg, Service, SharedDeliveries,
    TcpClient, TcpNode, TcpNodeConfig, MAX_FRAME,
};
use wamcast_types::wire;
use wamcast_types::{
    AppMessage, Context, GroupSet, MessageId, Outbox, Payload, ProcessId, Protocol, Topology,
};

/// Reserves `n` distinct localhost ports by binding and dropping.
fn free_addrs(n: usize) -> Vec<SocketAddr> {
    let holds: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind"))
        .collect();
    holds
        .iter()
        .map(|l| l.local_addr().expect("addr"))
        .collect()
}

fn spawn_a2_cluster(
    k: usize,
    d: usize,
    arm: u8,
) -> (Vec<TcpNode>, Vec<SharedDeliveries>, Vec<SocketAddr>) {
    let topo = Arc::new(Topology::symmetric(k, d));
    let addrs = free_addrs(topo.num_processes());
    let mut nodes = Vec::new();
    let mut logs = Vec::new();
    for p in topo.processes() {
        let delivered: SharedDeliveries = Arc::new(Mutex::new(Vec::new()));
        let node = tcp::serve(
            TcpNodeConfig {
                me: p,
                topo: Arc::clone(&topo),
                addrs: addrs.clone(),
                arm,
                faults: None,
                trace: None,
            },
            RoundBroadcast::new(p, &topo).with_retry(Duration::from_millis(100)),
            Arc::clone(&delivered),
            null_service(),
        )
        .expect("serve");
        logs.push(delivered);
        nodes.push(node);
    }
    (nodes, logs, addrs)
}

fn await_all(logs: &[SharedDeliveries], want: usize, timeout: Duration) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if logs.iter().all(|l| l.lock().unwrap().len() >= want) {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    false
}

#[test]
fn broadcast_total_order_over_sockets() {
    let (nodes, logs, addrs) = spawn_a2_cluster(2, 2, 7);
    let mut client = TcpClient::new(addrs[0], 7, Duration::from_secs(5));
    let all = GroupSet::first_n(2);
    let n_msgs = 20u64;
    for seq in 0..n_msgs {
        let id = client
            .cast(seq, all, Payload::from(vec![seq as u8]))
            .expect("cast");
        assert_eq!(id.origin, ProcessId(0));
        assert_eq!(id.seq, seq);
    }
    assert!(
        await_all(&logs, n_msgs as usize, Duration::from_secs(30)),
        "not all nodes delivered {n_msgs} messages: {:?}",
        logs.iter()
            .map(|l| l.lock().unwrap().len())
            .collect::<Vec<_>>()
    );
    // Total order: every node delivered the identical sequence.
    let first: Vec<AppMessage> = logs[0].lock().unwrap().clone();
    for log in &logs[1..] {
        assert_eq!(&*log.lock().unwrap(), &first, "delivery orders diverged");
    }
    for node in nodes {
        node.shutdown();
    }
}

#[test]
fn genuine_multicast_over_sockets_routes_by_group() {
    let topo = Arc::new(Topology::symmetric(2, 2));
    let addrs = free_addrs(topo.num_processes());
    let arm = 3;
    let mut nodes = Vec::new();
    let mut logs = Vec::new();
    for p in topo.processes() {
        let delivered: SharedDeliveries = Arc::new(Mutex::new(Vec::new()));
        let node = tcp::serve(
            TcpNodeConfig {
                me: p,
                topo: Arc::clone(&topo),
                addrs: addrs.clone(),
                arm,
                faults: None,
                trace: None,
            },
            GenuineMulticast::new(
                p,
                &topo,
                MulticastConfig::default().with_retry(Duration::from_millis(100)),
            ),
            Arc::clone(&delivered),
            null_service(),
        )
        .expect("serve");
        logs.push(delivered);
        nodes.push(node);
    }
    // Group-0-only cast from a group-0 member: genuineness says group 1
    // must stay silent.
    let mut client = TcpClient::new(addrs[0], arm, Duration::from_secs(5));
    let g0 = GroupSet::first_n(1);
    client
        .cast(0, g0, Payload::from_static(b"local"))
        .expect("cast");
    assert!(
        await_all(&logs[..2], 1, Duration::from_secs(30)),
        "group 0 did not deliver"
    );
    std::thread::sleep(Duration::from_millis(200));
    assert!(logs[2].lock().unwrap().is_empty(), "genuineness violated");
    assert!(logs[3].lock().unwrap().is_empty(), "genuineness violated");
    for node in nodes {
        node.shutdown();
    }
}

#[test]
fn service_requests_answered_on_node_thread() {
    let topo = Arc::new(Topology::symmetric(1, 1));
    let addrs = free_addrs(1);
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
    let addrs = free_addrs(1);
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
    P::Msg: wire::Wire,
{
    let topo = Arc::new(Topology::symmetric(1 + others.len(), 1));
    let mut addrs = free_addrs(1);
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
    let (node, addr) = serve_p0(Flood, &free_addrs(1), echo_service());
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
