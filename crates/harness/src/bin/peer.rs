//! One node of a multi-process cluster: hosts a registry arm (or the SMR
//! KV stack) on a TCP socket and serves until told to exit.
//!
//! ```text
//! peer --me N --groups K --procs D --addrs HOST:PORT,HOST:PORT,...
//!      [--arm NAME]        # registry arm to host (default a1)
//!      [--smr]             # host the KV service stack instead
//!      [--batch B]         # consensus batch size (smr mode; 1 = off)
//!      [--drop-pct P]      # lossy-link adversary on outbound copies
//!      [--seed S]          # fate-stream seed for --drop-pct
//!      [--trace-cap N]     # flight-recorder capacity (default 8192; 0 off)
//! ```
//!
//! Every peer keeps a bounded flight recorder of its recent causal trace
//! (cast/send/recv/deliver events). The recorder is dumped to stderr if
//! the process panics, and is served over the control plane
//! (`REQ_TRACE`), so after a chaos run — even one that `kill -9`s this
//! peer — the *surviving* peers still hold pullable evidence.
//!
//! The address list names every process of the topology, indexed by
//! process id; `--me` picks this process's slot. On success the peer
//! prints one `peer: listening on <addr> …` line (flushed, so a parent
//! reading a pipe sees it) and then blocks until a `Shutdown` frame
//! arrives. Binding retries briefly on `AddrInUse` so a `kill -9`'d peer
//! can be restarted on its old port while the kernel finishes reclaiming
//! it.
//!
//! Every hosted stack is built exactly the way the fuzz harness builds it
//! (through the registry's single monomorphization point, or
//! `spawn_smr_peer`'s `a1_stack_config` call): the peer adds transport,
//! never policy.

use std::io::Write;
use std::net::SocketAddr;
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::Duration;
use wamcast_harness::cli;
use wamcast_harness::tcp_host::{self, delivery_service, with_stats, with_trace, StatsCell};
use wamcast_harness::StackRegistry;
use wamcast_net::tcp::{SharedTrace, TcpNodeConfig};
use wamcast_net::WallFaults;
use wamcast_sim::FaultPlan;
use wamcast_trace::TraceRing;
use wamcast_types::{BatchConfig, ProcessId, Topology};

struct PeerArgs {
    arm: String,
    me: u32,
    groups: usize,
    procs: usize,
    batch: usize,
    seed: u64,
    drop_pct: u8,
    trace_cap: usize,
    smr: bool,
    addrs: Vec<SocketAddr>,
}

fn parse_args() -> Result<PeerArgs, String> {
    let mut a = PeerArgs {
        arm: "a1".to_string(),
        me: 0,
        groups: 1,
        procs: 1,
        batch: 1,
        seed: 1,
        drop_pct: 0,
        trace_cap: 8192,
        smr: false,
        addrs: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut grab = |name: &str| -> Result<String, String> {
            it.next().ok_or_else(|| format!("{name} requires a value"))
        };
        match flag.as_str() {
            "--arm" => a.arm = grab(&flag)?,
            "--me" => a.me = cli::parse_u64(&flag, &grab(&flag)?)? as u32,
            "--groups" => a.groups = cli::parse_u64(&flag, &grab(&flag)?)? as usize,
            "--procs" => a.procs = cli::parse_u64(&flag, &grab(&flag)?)? as usize,
            "--batch" => a.batch = cli::parse_u64(&flag, &grab(&flag)?)? as usize,
            "--seed" => a.seed = cli::parse_u64(&flag, &grab(&flag)?)?,
            "--drop-pct" => {
                a.drop_pct = cli::parse_u64(&flag, &grab(&flag)?)?.min(100) as u8;
            }
            "--trace-cap" => {
                a.trace_cap = cli::parse_u64(&flag, &grab(&flag)?)? as usize;
            }
            "--smr" => a.smr = true,
            "--addrs" => {
                // Name the bad entry AND its position: a 12-address list
                // with one typo is unreadable without the index.
                a.addrs = grab(&flag)?
                    .split(',')
                    .enumerate()
                    .map(|(i, s)| {
                        s.trim()
                            .parse::<SocketAddr>()
                            .map_err(|e| format!("--addrs: entry {i} ({s:?}): {e}"))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if a.addrs.is_empty() {
        return Err("--addrs is required (comma-separated, one per process)".into());
    }
    if a.addrs.len() != a.groups * a.procs {
        return Err(format!(
            "--addrs lists {} addresses but the {}x{} topology has {} processes",
            a.addrs.len(),
            a.groups,
            a.procs,
            a.groups * a.procs
        ));
    }
    if a.me as usize >= a.addrs.len() {
        return Err(format!("--me {} out of range", a.me));
    }
    Ok(a)
}

/// Builds the optional lossy-link adversary from `--drop-pct`/`--seed`:
/// this process's own [`WallFaults`], consulted on every outbound copy.
fn faults_of(a: &PeerArgs, topo: &Topology) -> Option<Arc<WallFaults>> {
    if a.drop_pct == 0 {
        return None;
    }
    let p = f64::from(a.drop_pct) / 100.0;
    let mut plan = FaultPlan::none();
    for from in topo.processes() {
        for to in topo.processes() {
            if from != to {
                plan = plan.with_drop(from, to, p);
            }
        }
    }
    Some(Arc::new(WallFaults::new(plan, a.seed)))
}

/// Retries `serve` briefly when the listen port is still being reclaimed
/// after a `kill -9` (restart-under-chaos support).
fn with_bind_retry<T>(mut serve: impl FnMut() -> std::io::Result<T>) -> std::io::Result<T> {
    let mut last = None;
    for _ in 0..25 {
        match serve() {
            Ok(t) => return Ok(t),
            Err(e) if e.kind() == std::io::ErrorKind::AddrInUse => {
                last = Some(e);
                std::thread::sleep(Duration::from_millis(200));
            }
            Err(e) => return Err(e),
        }
    }
    Err(last.expect("retries imply an error"))
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("peer: {e}");
            return ExitCode::from(2);
        }
    };
    let topo = Arc::new(Topology::symmetric(a.groups, a.procs));
    let me = ProcessId(a.me);
    let faults = faults_of(&a, &topo);

    let trace: Option<SharedTrace> =
        (a.trace_cap > 0).then(|| Arc::new(Mutex::new(TraceRing::new(a.trace_cap))));
    if let Some(t) = &trace {
        // Dump the flight recorder before the default panic message so a
        // crashed peer leaves its causal evidence on stderr. try_lock:
        // if the panicking thread died inside the recorder itself, skip
        // the dump rather than deadlock.
        let t = Arc::clone(t);
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if let Ok(ring) = t.try_lock() {
                eprintln!("peer: panic; dumping flight recorder\n{}", ring.dump());
            }
            prev(info);
        }));
    }

    let announce = |addr: SocketAddr, what: &str| {
        println!("peer: listening on {addr} ({what}, process {me})");
        let _ = std::io::stdout().flush();
    };

    if a.smr {
        let batch = (a.batch > 1)
            .then(|| BatchConfig::new(a.batch).with_max_delay(Duration::from_millis(15)));
        let peer = match with_bind_retry(|| {
            tcp_host::spawn_smr_peer(
                me,
                Arc::clone(&topo),
                a.addrs.clone(),
                batch,
                faults.clone(),
                trace.clone(),
            )
        }) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("peer: serve failed: {e}");
                return ExitCode::from(1);
            }
        };
        announce(peer.node.local_addr(), "smr");
        peer.node.wait();
    } else {
        let reg = StackRegistry::standard();
        let Some(arm) = reg.by_name(&a.arm) else {
            eprintln!(
                "peer: unknown arm {} (valid: {})",
                a.arm,
                reg.arms().map(|x| x.name()).collect::<Vec<_>>().join(", ")
            );
            return ExitCode::from(2);
        };
        let delivered = Arc::new(Mutex::new(Vec::new()));
        let stats = StatsCell::default();
        let service = with_stats(delivery_service(&delivered), &stats);
        let service = match &trace {
            Some(t) => with_trace(service, t),
            None => service,
        };
        let node = match with_bind_retry(|| {
            arm.serve_tcp(
                TcpNodeConfig {
                    me,
                    topo: Arc::clone(&topo),
                    addrs: a.addrs.clone(),
                    arm: reg.id_of(arm),
                    faults: faults.clone(),
                    trace: trace.clone(),
                },
                Arc::clone(&delivered),
                service.clone(),
            )
        }) {
            Ok(n) => n,
            Err(e) => {
                eprintln!("peer: serve failed: {e}");
                return ExitCode::from(1);
            }
        };
        stats
            .set(node.stats())
            .expect("the cell is filled exactly once");
        announce(node.local_addr(), arm.name());
        node.wait();
    }
    ExitCode::SUCCESS
}
