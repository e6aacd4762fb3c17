//! Unit-cost kernels: single layers replayed in isolation over inputs
//! captured from (or generated for) the run, so `count × unit cost` can be
//! set against the end-to-end CPU figure.

use std::hint::black_box;
use std::time::{Duration, Instant};
use wamcast_metrics::Histogram;
use wamcast_net::tcp::Frame;
use wamcast_sim::{BucketQueue, NetConfig};
use wamcast_smr::{Command, KvStateMachine, ShardMap};
use wamcast_trace::{Phase, TraceEvent, TraceRing};
use wamcast_types::wire::{self, Wire};
use wamcast_types::{GroupId, MessageId, ProcessId, SimTime, SplitMix64, Topology};

fn ns_per(elapsed: Duration, n: usize) -> f64 {
    elapsed.as_nanos() as f64 / n.max(1) as f64
}

/// Cost of one `TraceRing::push` at a full ring (the steady state of a
/// long traced run), ns.
pub fn trace_push_ns() -> f64 {
    const N: usize = 1 << 20;
    let mut ring = TraceRing::new(1 << 16);
    let start = Instant::now();
    for i in 0..N as u64 {
        ring.push(black_box(TraceEvent {
            at_us: i,
            node: (i % 9) as u32,
            phase: Phase::RmcastRecv,
            cast: Some(wamcast_trace::CastKey::new((i % 9) as u32, i)),
            peer: Some(1),
        }));
    }
    let ns = ns_per(start.elapsed(), N);
    black_box(ring.len());
    ns
}

/// Cost of one `Histogram::record` over latency-shaped values, ns.
pub fn histogram_record_ns() -> f64 {
    const N: usize = 1 << 20;
    let mut rng = SplitMix64::new(0x4815);
    let values: Vec<u64> = (0..N)
        .map(|_| 50_000 + rng.next_below(400_000_000))
        .collect();
    let mut h = Histogram::new();
    let start = Instant::now();
    for &v in &values {
        h.record(black_box(v));
    }
    let ns = ns_per(start.elapsed(), N);
    black_box(h.count());
    ns
}

/// Seal and open cost of captured protocol messages, as the socket
/// runtime pays them: each message framed as `Frame::Peer`, sealed into a
/// reused buffer, and opened from its bytes.
#[derive(Clone, Copy, Debug, Default)]
pub struct CodecCost {
    /// Messages replayed.
    pub msgs: usize,
    /// `wire::seal_into` per message, ns.
    pub seal_ns: f64,
    /// `wire::open` per message, ns.
    pub open_ns: f64,
    /// Sealed bytes per message (without the 4-byte length prefix).
    pub bytes: f64,
}

/// Replays `msgs` through the codec; see [`CodecCost`].
pub fn codec_replay<M: Wire>(arm: u8, msgs: Vec<M>) -> CodecCost {
    if msgs.is_empty() {
        return CodecCost::default();
    }
    let frames: Vec<Frame<M>> = msgs
        .into_iter()
        .map(|msg| Frame::Peer {
            from: ProcessId(1),
            msg,
        })
        .collect();
    let mut buf = Vec::new();
    let mut bytes = 0usize;
    let start = Instant::now();
    for f in &frames {
        wire::seal_into(arm, black_box(f), &mut buf);
        bytes += black_box(&buf).len();
    }
    let seal = start.elapsed();
    let sealed: Vec<Vec<u8>> = frames.iter().map(|f| wire::seal(arm, f)).collect();
    let start = Instant::now();
    for s in &sealed {
        let f = wire::open::<Frame<M>>(arm, black_box(s)).expect("own encoding opens");
        black_box(f);
    }
    let open = start.elapsed();
    CodecCost {
        msgs: frames.len(),
        seal_ns: ns_per(seal, frames.len()),
        open_ns: ns_per(open, frames.len()),
        bytes: bytes as f64 / frames.len() as f64,
    }
}

/// Cost of one event's trip through the simulator's queue (a push and its
/// pop), replaying the arrival schedule the recorder captured: every
/// recorded send is pushed at its send instant plus its link's (constant,
/// default-`NetConfig`) delay, and everything due is popped first — the
/// engine's own interleaving of the two. A batch of `k` casts is recorded
/// as `k` events of one message copy; they replay as `k` same-instant
/// entries, which is the collision pattern the queue is built for.
pub fn queue_replay_ns(events: &[TraceEvent], topo: &Topology, net: &NetConfig) -> f64 {
    let delay = |from: u32, to: u32| {
        if topo.same_group(ProcessId(from), ProcessId(to)) {
            net.intra.min_delay()
        } else {
            net.inter.min_delay()
        }
    };
    let schedule: Vec<(SimTime, SimTime)> = events
        .iter()
        .filter(|ev| {
            matches!(
                ev.phase,
                Phase::RmcastSend
                    | Phase::TsSend
                    | Phase::ProposeSend
                    | Phase::AcceptSend
                    | Phase::DecideSend
                    | Phase::MsgSend
            )
        })
        .filter_map(|ev| {
            let now = SimTime::from_micros(ev.at_us);
            ev.peer.map(|to| (now, now + delay(ev.node, to)))
        })
        .collect();
    if schedule.is_empty() {
        return 0.0;
    }
    let mut q: BucketQueue<u32> = BucketQueue::new();
    let mut popped = 0usize;
    let start = Instant::now();
    for (seq, &(now, at)) in schedule.iter().enumerate() {
        while q.peek().is_some_and(|(due, _, _)| due <= now) {
            black_box(q.pop());
            popped += 1;
        }
        q.push(at, seq as u64, seq as u32);
    }
    while let Some(e) = q.pop() {
        black_box(e);
        popped += 1;
    }
    let elapsed = start.elapsed();
    assert_eq!(popped, schedule.len(), "every pushed event pops once");
    ns_per(elapsed, schedule.len())
}

/// Costs of the KV layer over a command stream.
#[derive(Clone, Copy, Debug, Default)]
pub struct SmrCost {
    /// `KvStateMachine::apply_command` per command, ns.
    pub apply_ns: f64,
    /// `Command::encode` per command, ns.
    pub encode_ns: f64,
    /// `Command::decode` per command, ns.
    pub decode_ns: f64,
    /// Encoded payload bytes per command.
    pub payload_bytes: f64,
}

/// Runs the KV kernels over `cmds` (single-key commands; each is applied
/// at a replica of its owner shard, as the service routes them).
pub fn smr_kernels(cmds: &[Command], shards: ShardMap) -> SmrCost {
    if cmds.is_empty() {
        return SmrCost::default();
    }
    let n = cmds.len();
    let start = Instant::now();
    let payloads: Vec<_> = cmds.iter().map(|c| black_box(c).encode()).collect();
    let encode = start.elapsed();
    let start = Instant::now();
    for p in &payloads {
        black_box(Command::decode(black_box(p)).expect("own encoding decodes"));
    }
    let decode = start.elapsed();
    let mut replicas: Vec<KvStateMachine> = (0..shards.num_shards())
        .map(|g| KvStateMachine::new(GroupId(g as u16), shards))
        .collect();
    let start = Instant::now();
    for (i, c) in cmds.iter().enumerate() {
        let dest = shards.dest_of(c);
        let owner = dest.min().expect("commands touch a key");
        let id = MessageId::new(ProcessId(0), i as u64);
        black_box(replicas[owner.index()].apply_command(id, dest, c));
    }
    let apply = start.elapsed();
    SmrCost {
        apply_ns: ns_per(apply, n),
        encode_ns: ns_per(encode, n),
        decode_ns: ns_per(decode, n),
        payload_bytes: payloads.iter().map(|p| p.len()).sum::<usize>() as f64 / n as f64,
    }
}
