//! TCP hosting of the partitioned KV service, and the client driver that
//! runs it across real OS processes.
//!
//! The registry gives every *delivery* arm socket hosting for free
//! ([`crate::registry::ProtocolArm::serve_tcp`]); this module is the
//! application-layer counterpart: one peer process hosts
//! `WithApply<GenuineMulticast, BuggyKv>` — the same A1 stack
//! [`crate::smr::run_smr_sim`] builds, through the same
//! [`a1_stack_config`] construction site — plus a [`Service`] hook
//! answering the control-plane requests a client needs to drive, judge
//! and diagnose a run:
//!
//! | request body                  | reply body              |
//! |-------------------------------|-------------------------|
//! | `[REQ_DELIVERED]`             | `Vec<AppMessage>`       |
//! | `[REQ_POLL] ++ MessageId`     | `Option<AppliedOp>`     |
//! | `[REQ_LOG]`                   | `ReplicaLog`            |
//! | `[REQ_TRACE]`                 | flight-recorder text    |
//! | `[REQ_STATS]`                 | socket-path counters    |
//!
//! Request and reply bodies use the [`wamcast_types::wire`] codec (they
//! travel inside `Frame::Req`/`Frame::Rep`, which are themselves
//! enveloped).
//!
//! [`run_smr_tcp`] is the driver: closed-loop clients over [`TcpClient`],
//! recording each [`OpRecord`] *before* the cast leaves the client — cast
//! ids are the deterministic `(caster, seq)` with per-client-disjoint
//! `seq` spaces, so the history is complete even for ops whose ack or
//! response was lost — then polling the responder shard, waiting for
//! replica quiescence, fetching every correct replica's [`ReplicaLog`]
//! over the wire and handing the lot to the `wamcast_smr::history`
//! checker.

use crate::registry::a1_stack_config;
use crate::scenario::RETRY_INTERVAL;
use crate::smr::{mean_response_latency, OpGen, SmrConfig, SmrOutcome};
use std::io;
use std::net::SocketAddr;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};
use wamcast_core::{GenuineMulticast, WithApply};
use wamcast_net::tcp::{
    self, NetStats, Service, SharedDeliveries, SharedTrace, TcpClient, TcpNode, TcpNodeConfig,
};
use wamcast_net::WallFaults;
use wamcast_smr::{
    history, responder_shard, shared_replica, AppliedOp, BuggyKv, History, OpRecord, ReplicaLog,
    ShardMap, SharedKv,
};
use wamcast_types::wire::{Wire, WireReader, WireWriter};
use wamcast_types::{AppMessage, BatchConfig, GroupId, MessageId, ProcessId, SimTime, Topology};

/// Wire arm id of the SMR service stack. Deliberately far above the
/// registry's table indices so a KV peer and a bare-arm peer can never
/// mistake each other's traffic.
pub const SMR_ARM: u8 = 0x51;

/// Request tag: fetch the node's A-Deliver log (`Vec<AppMessage>`).
pub const REQ_DELIVERED: u8 = 0;
/// Request tag: poll one op's applied response (`Option<AppliedOp>`).
pub const REQ_POLL: u8 = 1;
/// Request tag: capture the replica's log (`ReplicaLog`).
pub const REQ_LOG: u8 = 2;
/// Request tag: dump the node's flight recorder (UTF-8 text; see
/// [`with_trace`]). Answered only by nodes serving with a trace ring —
/// others reply empty, which [`fetch_trace`] surfaces as `InvalidData`.
pub const REQ_TRACE: u8 = 3;

/// Request tag: the node's socket-path drop and wake-up counters (one line
/// of UTF-8 text; see [`with_stats`]).
pub const REQ_STATS: u8 = 4;

/// A service answering only [`REQ_DELIVERED`] — what bare delivery arms
/// (the `peer` binary without `--smr`) expose so a client can read back
/// the delivery order.
pub fn delivery_service(delivered: &SharedDeliveries) -> Service {
    let delivered = Arc::clone(delivered);
    Arc::new(move |body: &[u8]| {
        let mut r = WireReader::new(body);
        match r.u8() {
            Ok(REQ_DELIVERED) if r.is_empty() => {
                delivered.lock().expect("delivery log poisoned").to_wire()
            }
            _ => Vec::new(),
        }
    })
}

/// The KV peer's service: delivery log, per-op response polling, and
/// replica-log capture. Runs on the node thread between protocol steps
/// (so it only ever takes locks nobody holds for long); all state is
/// behind the same mutexes the apply path uses.
pub fn kv_service(me: ProcessId, kv: &SharedKv, delivered: &SharedDeliveries) -> Service {
    let kv = Arc::clone(kv);
    let delivered = Arc::clone(delivered);
    Arc::new(move |body: &[u8]| {
        let mut r = WireReader::new(body);
        let Ok(tag) = r.u8() else { return Vec::new() };
        match tag {
            REQ_DELIVERED if r.is_empty() => {
                delivered.lock().expect("delivery log poisoned").to_wire()
            }
            REQ_POLL => {
                let Ok(id) = MessageId::decode(&mut r) else {
                    return Vec::new();
                };
                if !r.is_empty() {
                    return Vec::new();
                }
                kv.lock()
                    .expect("replica poisoned")
                    .response_of(id)
                    .cloned()
                    .to_wire()
            }
            REQ_LOG if r.is_empty() => {
                ReplicaLog::capture(me, &kv.lock().expect("replica poisoned")).to_wire()
            }
            _ => Vec::new(),
        }
    })
}

/// Wraps a service so it additionally answers [`REQ_TRACE`] with the
/// flight recorder's text dump; everything else defers to `inner`. This
/// is how a node's recent causal history is pulled over the wire after a
/// chaos run — including from *surviving* nodes after a peer was
/// `kill -9`ed, which is the only party left holding evidence.
pub fn with_trace(inner: Service, trace: &SharedTrace) -> Service {
    let trace = Arc::clone(trace);
    Arc::new(move |body: &[u8]| {
        if body == [REQ_TRACE] {
            return trace
                .lock()
                .map(|ring| ring.dump().into_bytes())
                .unwrap_or_default();
        }
        inner(body)
    })
}

/// Where a service finds its own node's [`NetStats`]: the service has to
/// exist before [`tcp::serve`] returns the node whose counters it reports,
/// so the host fills the cell in right after.
pub type StatsCell = Arc<OnceLock<Arc<NetStats>>>;

/// Wraps a service so it additionally answers [`REQ_STATS`] with the
/// node's [`NetStats`] line (empty until `stats` is filled in);
/// everything else defers to `inner`.
pub fn with_stats(inner: Service, stats: &StatsCell) -> Service {
    let stats = Arc::clone(stats);
    Arc::new(move |body: &[u8]| {
        if body == [REQ_STATS] {
            return stats
                .get()
                .map(|s| s.to_string().into_bytes())
                .unwrap_or_default();
        }
        inner(body)
    })
}

fn fetch_text(client: &mut TcpClient, tag: u8, what: &str) -> io::Result<String> {
    let rep = client.request(vec![tag])?;
    if rep.is_empty() {
        return Err(bad_reply(what));
    }
    String::from_utf8(rep).map_err(|_| bad_reply(what))
}

/// Pulls a remote node's flight-recorder dump ([`REQ_TRACE`]).
///
/// # Errors
///
/// Socket errors, reply timeout, or an empty/undecodable reply (a node
/// serving without a trace ring answers empty).
pub fn fetch_trace(client: &mut TcpClient) -> io::Result<String> {
    fetch_text(client, REQ_TRACE, "trace")
}

/// Pulls a remote node's socket-path counters ([`REQ_STATS`]).
///
/// # Errors
///
/// Socket errors, reply timeout, or an empty/undecodable reply.
pub fn fetch_stats(client: &mut TcpClient) -> io::Result<String> {
    fetch_text(client, REQ_STATS, "stats")
}

/// Prints every peer's socket-path counters to stderr, one line each —
/// what a failed run asks first: did the transport drop something, and
/// where. A peer that does not answer is reported as such.
pub fn report_net_stats(addrs: &[SocketAddr]) {
    for (i, &addr) in addrs.iter().enumerate() {
        let mut client = TcpClient::new(addr, SMR_ARM, Duration::from_secs(1));
        match fetch_stats(&mut client) {
            Ok(line) => eprintln!("net stats p{i}: {line}"),
            Err(e) => eprintln!("net stats p{i}: unavailable ({e})"),
        }
    }
}

/// One TCP-served KV replica living in *this* process (the `peer` binary
/// wraps exactly one of these; in-process tests host several).
pub struct KvPeer {
    /// The serving node handle.
    pub node: TcpNode,
    /// Direct handle to the replica state (in-process inspection).
    pub kv: SharedKv,
}

/// Spawns one KV replica: the A1 SMR stack (built at the registry's
/// single [`a1_stack_config`] site, retransmission on — TCP links drop
/// frames when a peer is down) served over TCP with [`kv_service`]
/// answering the control plane.
///
/// # Errors
///
/// Returns any error binding the listen address.
pub fn spawn_smr_peer(
    me: ProcessId,
    topo: Arc<Topology>,
    addrs: Vec<SocketAddr>,
    batch: Option<BatchConfig>,
    faults: Option<Arc<WallFaults>>,
    trace: Option<SharedTrace>,
) -> io::Result<KvPeer> {
    let shards = ShardMap::new(topo.num_groups());
    let kv = shared_replica(topo.group_of(me), shards);
    let delivered: SharedDeliveries = Arc::new(Mutex::new(Vec::new()));
    let stats = StatsCell::default();
    let mut service = with_stats(kv_service(me, &kv, &delivered), &stats);
    if let Some(t) = &trace {
        service = with_trace(service, t);
    }
    let proto = WithApply::new(
        GenuineMulticast::new(me, &topo, a1_stack_config(batch, Some(RETRY_INTERVAL))),
        BuggyKv::new(Arc::clone(&kv), None),
    );
    let node = tcp::serve(
        TcpNodeConfig {
            me,
            topo,
            addrs,
            arm: SMR_ARM,
            faults,
            trace,
        },
        proto,
        delivered,
        service,
    )?;
    stats
        .set(node.stats())
        .expect("the cell is filled exactly once");
    Ok(KvPeer { node, kv })
}

fn bad_reply(what: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("malformed {what} reply"),
    )
}

/// Fetches a peer's A-Deliver log ([`REQ_DELIVERED`]).
///
/// # Errors
///
/// Socket errors, reply timeout, or an undecodable reply.
pub fn fetch_delivered(client: &mut TcpClient) -> io::Result<Vec<AppMessage>> {
    let rep = client.request(vec![REQ_DELIVERED])?;
    Vec::<AppMessage>::from_wire(&rep).map_err(|_| bad_reply("delivered-log"))
}

/// Polls a peer for one op's applied response ([`REQ_POLL`]); `Ok(None)`
/// means "not applied yet (or not addressed to this shard)".
///
/// # Errors
///
/// Socket errors, reply timeout, or an undecodable reply.
pub fn poll_response(client: &mut TcpClient, id: MessageId) -> io::Result<Option<AppliedOp>> {
    let mut w = WireWriter::new();
    w.u8(REQ_POLL);
    id.encode(&mut w);
    let rep = client.request(w.finish())?;
    Option::<AppliedOp>::from_wire(&rep).map_err(|_| bad_reply("poll"))
}

/// Fetches a peer's end-of-run replica log ([`REQ_LOG`]).
///
/// # Errors
///
/// Socket errors, reply timeout, or an undecodable reply.
pub fn fetch_replica_log(client: &mut TcpClient) -> io::Result<ReplicaLog> {
    let rep = client.request(vec![REQ_LOG])?;
    ReplicaLog::from_wire(&rep).map_err(|_| bad_reply("replica-log"))
}

/// Fetches the replica log of every process in `of` once the replicas are
/// quiet: sweeps repeat until two consecutive ones agree on every
/// `(digest, length)`, so the capture cannot race straggler applies into a
/// spurious disagreement. After `timeout` the last sweep is returned as it
/// is; `None` marks a replica whose fetch failed in it.
pub fn fetch_quiesced_logs(
    addrs: &[SocketAddr],
    of: &[ProcessId],
    timeout: Duration,
) -> Vec<Option<ReplicaLog>> {
    let mut clients: Vec<TcpClient> = of
        .iter()
        .map(|p| TcpClient::new(addrs[p.index()], SMR_ARM, timeout))
        .collect();
    let mut sweep = || -> Vec<Option<ReplicaLog>> {
        clients
            .iter_mut()
            .map(|c| fetch_replica_log(c).ok())
            .collect()
    };
    let deadline = Instant::now() + timeout;
    let mut logs = sweep();
    loop {
        std::thread::sleep(Duration::from_millis(100));
        let again = sweep();
        let stable = logs.iter().zip(&again).all(|pair| {
            matches!(pair, (Some(a), Some(b))
                if a.digest == b.digest && a.applied.len() == b.applied.len())
        });
        logs = again;
        if stable || Instant::now() > deadline {
            return logs;
        }
    }
}

/// Configuration of one TCP-driven SMR run against already-listening
/// peers (spawned by `smr_kv --tcp`, a test, or by hand).
pub struct TcpRunConfig {
    /// Topology shape `(groups, procs-per-group)`; `addrs[i]` is process
    /// `i`'s listen address.
    pub shape: (usize, usize),
    /// Listen address of every peer, indexed by process id.
    pub addrs: Vec<SocketAddr>,
    /// Workload knobs (clients, ops, cross-shard mix, seed-keyed).
    pub smr: SmrConfig,
    /// Workload seed (same generator as the other runtimes).
    pub seed: u64,
    /// Per-op wait bound (ack + response polling).
    pub op_timeout: Duration,
    /// Replicas to leave out of the final history (crashed/restarted
    /// processes are not "correct at the end" and their logs are void).
    pub exclude: Vec<ProcessId>,
    /// Whether an unresponded op is a violation (`true` for clean runs;
    /// chaos runs tolerate maybe-committed ops).
    pub expect_all_commit: bool,
}

/// The client-side sequence number of client `c`'s round-`r` op. Clients
/// sharing a caster must use disjoint spaces — the server injects ids
/// `(caster, seq)` and dedups on `seq`.
pub fn client_seq(client: usize, round: usize) -> u64 {
    ((client as u64) << 32) | round as u64
}

/// Drives the closed-loop KV workload against live TCP peers — OS
/// processes or [`spawn_smr_peer`]s of this one, the driver cannot tell —
/// and judges the recorded history: the socket sibling of
/// [`crate::smr::run_smr_sim`]. Every op is recorded *before* its cast is
/// sent: a cast whose ack is lost may still commit, and the checker must
/// know the op existed.
pub fn run_smr_tcp(rc: &TcpRunConfig) -> SmrOutcome {
    let (k, d) = rc.shape;
    let topo = Topology::symmetric(k, d);
    assert_eq!(
        rc.addrs.len(),
        topo.num_processes(),
        "one address per process"
    );
    let shards = ShardMap::new(k);
    let started = Instant::now();
    let now = |started: Instant| SimTime::from_nanos(started.elapsed().as_nanos() as u64);

    let num_clients = k * rc.smr.clients_per_group;
    let mut gens: Vec<OpGen> = (0..num_clients)
        .map(|c| OpGen::new(&rc.smr, shards, rc.seed, c))
        .collect();
    // Each client casts through one member of its home group (spread over
    // the group when there are more clients than one).
    let casters: Vec<ProcessId> = (0..num_clients)
        .map(|c| topo.members(GroupId((c % k) as u16))[c / k % d])
        .collect();
    let mut clients: Vec<TcpClient> = casters
        .iter()
        .map(|p| TcpClient::new(rc.addrs[p.index()], SMR_ARM, rc.op_timeout))
        .collect();
    // Lazily-dialed pollers, one per process.
    let mut pollers: Vec<Option<TcpClient>> = (0..topo.num_processes()).map(|_| None).collect();

    let mut ops: Vec<OpRecord> = Vec::new();
    let mut violations: Vec<String> = Vec::new();
    for round in 0..rc.smr.ops_per_client {
        let mut outstanding: Vec<usize> = Vec::new();
        for c in 0..num_clients {
            let cmd = gens[c].next();
            let dest = shards.dest_of(&cmd);
            let seq = client_seq(c, round);
            let id = MessageId::new(casters[c], seq);
            ops.push(OpRecord {
                id,
                cmd: cmd.clone(),
                dest,
                client: c,
                invoked_at: now(started),
                responded_at: None,
                response: None,
            });
            outstanding.push(ops.len() - 1);
            // A failed cast may still have committed: the record above
            // covers it either way.
            if let Ok(ack) = clients[c].cast(seq, dest, cmd.encode()) {
                if ack != id {
                    violations.push(format!(
                        "wire: cast ack id {ack} does not match the predicted {id}"
                    ));
                }
            }
        }
        // Closed loop: poll each op's responder shard for its response.
        for i in outstanding {
            let responder = responder_shard(&shards, &ops[i].cmd, ops[i].dest);
            let Some(&p) = topo
                .members(responder)
                .iter()
                .find(|p| !rc.exclude.contains(p))
            else {
                continue; // whole responder shard is dead
            };
            let poller = pollers[p.index()]
                .get_or_insert_with(|| TcpClient::new(rc.addrs[p.index()], SMR_ARM, rc.op_timeout));
            let deadline = Instant::now() + rc.op_timeout;
            loop {
                if let Ok(Some(applied)) = poll_response(poller, ops[i].id) {
                    ops[i].responded_at = Some(now(started));
                    ops[i].response = Some(applied.response);
                    break;
                }
                if Instant::now() > deadline {
                    if rc.expect_all_commit {
                        violations.push(format!(
                            "liveness: op {} saw no response within {:?}",
                            ops[i].id, rc.op_timeout
                        ));
                    }
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }

    let included: Vec<ProcessId> = topo
        .processes()
        .filter(|p| !rc.exclude.contains(p))
        .collect();
    let logs = fetch_quiesced_logs(&rc.addrs, &included, rc.op_timeout);

    let mut replicas: Vec<ReplicaLog> = Vec::new();
    for (i, log) in logs.into_iter().enumerate() {
        match log {
            Some(l) => replicas.push(l),
            None => violations.push(format!(
                "wire: could not fetch replica log from {}",
                included[i]
            )),
        }
    }

    let end_time = now(started);
    let hist = History {
        shards,
        ops,
        replicas,
    };
    let report = history::check(&hist);
    violations.extend(report.violations);
    let committed = hist.committed();
    let mean_latency = mean_response_latency(&hist);
    SmrOutcome {
        violations,
        committed,
        unresponded: hist.ops.len() - committed,
        end_time,
        intra_sends: 0, // the TCP runtime does not meter sends
        inter_sends: 0,
        steps: 0,
        dropped: 0,
        duplicated: 0,
        crashes: rc.exclude.len(),
        mean_latency,
        cpu: started.elapsed(),
        history: hist,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wamcast_net::tcp::free_addrs;

    #[test]
    fn in_process_tcp_smr_run_is_clean() {
        // Eager A1, then batching with the flush timer running on real
        // time: the delivery -> apply hookup and the history checker hold
        // on sockets either way.
        let batched = BatchConfig::new(4).with_max_delay(Duration::from_millis(5));
        for batch in [None, Some(batched)] {
            let (kk, dd) = (2usize, 2usize);
            let topo = Arc::new(Topology::symmetric(kk, dd));
            let addrs = free_addrs(topo.num_processes()).expect("ports");
            let peers: Vec<KvPeer> = topo
                .processes()
                .map(|p| {
                    spawn_smr_peer(p, Arc::clone(&topo), addrs.clone(), batch, None, None)
                        .expect("spawn")
                })
                .collect();
            let cfg = TcpRunConfig {
                shape: (kk, dd),
                addrs,
                smr: SmrConfig {
                    clients_per_group: 1,
                    ops_per_client: 4,
                    ..SmrConfig::default()
                },
                seed: 0xC0FFEE,
                op_timeout: Duration::from_secs(30),
                exclude: Vec::new(),
                expect_all_commit: true,
            };
            let out = run_smr_tcp(&cfg);
            assert!(out.is_ok(), "batch {batch:?}: {:?}", out.violations);
            assert_eq!(out.committed, kk * 4);
            assert_eq!(out.unresponded, 0);
            assert_eq!(out.history.replicas.len(), kk * dd);
            assert!(
                out.history.ops.iter().any(|o| o.dest.len() > 1),
                "the workload must exercise cross-shard commands"
            );
            for peer in peers {
                peer.node.shutdown();
            }
        }
    }

    #[test]
    fn control_plane_rejects_malformed_requests() {
        let topo = Arc::new(Topology::symmetric(1, 1));
        let addrs = free_addrs(1).expect("ports");
        let peer = spawn_smr_peer(
            ProcessId(0),
            Arc::clone(&topo),
            addrs.clone(),
            None,
            None,
            None,
        )
        .expect("spawn");
        let mut client = TcpClient::new(addrs[0], SMR_ARM, Duration::from_secs(5));
        // Unknown tag and truncated poll bodies: empty reply, which the
        // typed helpers surface as InvalidData — never a peer crash.
        assert_eq!(
            client.request(vec![9, 9, 9]).expect("req"),
            Vec::<u8>::new()
        );
        assert_eq!(
            client.request(vec![REQ_POLL, 1]).expect("req"),
            Vec::<u8>::new()
        );
        // And the peer still answers well-formed requests afterwards.
        let log = fetch_replica_log(&mut client).expect("log");
        assert_eq!(log.process, ProcessId(0));
        assert!(fetch_delivered(&mut client).expect("delivered").is_empty());
        peer.node.shutdown();
    }
}
