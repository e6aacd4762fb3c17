//! The partitioned KV service driver — run the store end to end and judge
//! the recorded history.
//!
//! Closed-loop clients issue `Get`/`Put`/`Incr` (single-shard) and
//! `MultiPut`/`Transfer` (cross-shard) commands over genuine atomic
//! multicast; every run ends with the `wamcast-smr` history checker
//! verdict (replica agreement, cross-shard atomicity, per-key
//! linearizability, cross-shard serializability). Violations — which only
//! `--inject-bug` should ever produce — exit non-zero with a replay line.
//!
//! ```text
//! smr_kv [--groups K] [--procs D] [--clients C] [--ops N]
//!        [--cross-pct P] [--batch B] [--seed S] [--runs R]
//!        [--faulty]          # compile a fault plan from each seed
//!        [--tcp]             # spawn one OS process per replica (peer bin)
//!        [--inject-bug]      # plant the lost-apply defect; must be caught
//!        [--replay --seed S [--plan-hash H]]   # reproduce one faulty run
//!        [--trace-out PATH]  # Chrome trace_event JSON of the (last) sim run
//! ```
//!
//! `--runs R` sweeps seeds `S..S+R` (default 1), stopping at the first
//! violation. `--replay` pins a single seed and prints the rebuilt fault
//! plan; `--plan-hash` (with `--faulty`) cross-checks its fingerprint the
//! way `scenario_fuzz` does, so a changed fault distribution is detected
//! instead of silently replaying a different adversary.

use std::net::SocketAddr;
use std::process::{Child, Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use wamcast_harness::cli::{self, CommonArgs};
use wamcast_harness::scenario::capture_trace;
use wamcast_harness::smr::{run_smr_sim, InjectedBug, SmrConfig, SmrOutcome};
use wamcast_harness::tcp_host::{self, run_smr_tcp, TcpRunConfig, SMR_ARM};
use wamcast_harness::Table;
use wamcast_net::tcp::{free_addrs, TcpClient};
use wamcast_sim::{FaultConfig, FaultPlan};
use wamcast_types::{BatchConfig, Topology};

struct KvArgs {
    groups: usize,
    procs: usize,
    clients: usize,
    ops: usize,
    cross_pct: u8,
    batch: usize,
    faulty: bool,
    tcp: bool,
}

fn main() -> ExitCode {
    let mut kv = KvArgs {
        groups: 3,
        procs: 2,
        clients: 2,
        ops: 8,
        cross_pct: 40,
        batch: 1,
        faulty: false,
        tcp: false,
    };
    let mut trace_out: Option<String> = None;
    let parsed = cli::parse_common(1, "smr-kv-failure.txt", |flag, grab| {
        match flag {
            "--groups" => kv.groups = cli::parse_u64(flag, &grab(flag)?)? as usize,
            "--procs" => kv.procs = cli::parse_u64(flag, &grab(flag)?)? as usize,
            "--clients" => kv.clients = cli::parse_u64(flag, &grab(flag)?)? as usize,
            "--ops" => kv.ops = cli::parse_u64(flag, &grab(flag)?)? as usize,
            "--cross-pct" => kv.cross_pct = cli::parse_u64(flag, &grab(flag)?)?.min(100) as u8,
            "--batch" => kv.batch = cli::parse_u64(flag, &grab(flag)?)? as usize,
            "--faulty" => kv.faulty = true,
            "--tcp" => kv.tcp = true,
            "--trace-out" => trace_out = Some(grab(flag)?),
            _ => return Ok(false),
        }
        Ok(true)
    });
    let args = match parsed {
        Ok(a) => a,
        Err(e) => {
            eprintln!("smr_kv: {e}");
            return ExitCode::from(2);
        }
    };
    if kv.tcp && (kv.faulty || args.inject_bug || args.replay) {
        eprintln!(
            "smr_kv: --tcp spawns live peer processes on clean links; it combines with none of \
             --faulty, --inject-bug, --replay"
        );
        return ExitCode::from(2);
    }
    if args.plan_hash.is_some() && !kv.faulty {
        eprintln!("smr_kv: --plan-hash cross-checks a compiled fault plan; it requires --faulty");
        return ExitCode::from(2);
    }
    if trace_out.is_some() && kv.tcp {
        eprintln!(
            "smr_kv: --trace-out captures the deterministic simulator's flight recorder; \
             it does not combine with --tcp (pull live peers' recorders over the control \
             plane instead)"
        );
        return ExitCode::from(2);
    }

    let runs = if args.replay { 1 } else { args.runs };
    for i in 0..runs {
        let seed = args.seed.wrapping_add(i);
        let code = run_seed(&kv, &args, seed, trace_out.as_deref());
        if code != ExitCode::SUCCESS {
            return code;
        }
        if runs > 1 {
            println!("--- seed {seed} clean ({}/{runs} runs) ---\n", i + 1);
        }
    }
    ExitCode::SUCCESS
}

/// Locates the `peer` binary next to the running `smr_kv` executable
/// (cargo puts workspace binaries in one target directory).
fn peer_binary() -> Result<std::path::PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = me.parent().ok_or("current_exe has no parent dir")?;
    let peer = dir.join(format!("peer{}", std::env::consts::EXE_SUFFIX));
    if peer.is_file() {
        Ok(peer)
    } else {
        Err(format!(
            "peer binary not found at {} (build it: cargo build -p wamcast-harness --bins)",
            peer.display()
        ))
    }
}

/// The spawned cluster: shut down gracefully first, `kill` stragglers.
struct PeerProcs {
    addrs: Vec<SocketAddr>,
    children: Vec<Child>,
}

impl PeerProcs {
    fn shutdown(mut self) {
        for addr in &self.addrs {
            let mut c = TcpClient::new(*addr, SMR_ARM, Duration::from_millis(500));
            let _ = c.shutdown_peer();
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        for child in &mut self.children {
            loop {
                match child.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(50));
                    }
                    _ => {
                        let _ = child.kill();
                        let _ = child.wait();
                        break;
                    }
                }
            }
        }
    }
}

/// Spawns one `peer --smr` process per replica and waits until every one
/// answers its control plane.
fn spawn_tcp_cluster(kv: &KvArgs, seed: u64) -> Result<PeerProcs, String> {
    let n = kv.groups * kv.procs;
    let addrs = free_addrs(n).map_err(|e| format!("reserve ports: {e}"))?;
    let addr_list = addrs
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join(",");
    let peer_bin = peer_binary()?;
    let mut children = Vec::with_capacity(n);
    for i in 0..n {
        let child = Command::new(&peer_bin)
            .args([
                "--smr",
                "--me",
                &i.to_string(),
                "--groups",
                &kv.groups.to_string(),
                "--procs",
                &kv.procs.to_string(),
                "--batch",
                &kv.batch.to_string(),
                "--seed",
                &seed.to_string(),
                "--addrs",
                &addr_list,
            ])
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn peer {i}: {e}"));
        match child {
            Ok(c) => children.push(c),
            Err(e) => {
                PeerProcs { addrs, children }.shutdown();
                return Err(e);
            }
        }
    }
    let procs = PeerProcs { addrs, children };
    let deadline = Instant::now() + Duration::from_secs(15);
    let laggard = procs.addrs.iter().find_map(|addr| {
        let mut c = TcpClient::new(*addr, SMR_ARM, Duration::from_millis(500));
        loop {
            if tcp_host::fetch_replica_log(&mut c).is_ok() {
                return None;
            }
            if Instant::now() > deadline {
                return Some(*addr);
            }
            std::thread::sleep(Duration::from_millis(50));
        }
    });
    if let Some(addr) = laggard {
        procs.shutdown();
        return Err(format!("peer at {addr} never became ready"));
    }
    Ok(procs)
}

fn run_tcp(kv: &KvArgs, cfg: &SmrConfig, seed: u64) -> Result<SmrOutcome, String> {
    let procs = spawn_tcp_cluster(kv, seed)?;
    let out = run_smr_tcp(&TcpRunConfig {
        shape: (kv.groups, kv.procs),
        addrs: procs.addrs.clone(),
        smr: cfg.clone(),
        seed,
        op_timeout: Duration::from_secs(20),
        exclude: Vec::new(),
        expect_all_commit: true,
    });
    if !out.is_ok() {
        tcp_host::report_net_stats(&procs.addrs);
    }
    procs.shutdown();
    Ok(out)
}

fn run_seed(kv: &KvArgs, args: &CommonArgs, seed: u64, trace_out: Option<&str>) -> ExitCode {
    let cfg = SmrConfig {
        clients_per_group: kv.clients,
        ops_per_client: kv.ops,
        cross_shard_pct: kv.cross_pct,
        batch: (kv.batch > 1)
            .then(|| BatchConfig::new(kv.batch).with_max_delay(Duration::from_millis(15))),
        ..SmrConfig::default()
    };
    let shape = (kv.groups, kv.procs);
    let bug = args.inject_bug.then(InjectedBug::default_lost_apply);

    let plan = if kv.faulty {
        let topo = Topology::symmetric(kv.groups, kv.procs);
        FaultConfig::default().compile(&topo, seed)
    } else {
        FaultPlan::none()
    };
    if kv.faulty {
        let hash = plan.fingerprint();
        if let Some(expect) = args.plan_hash {
            if expect != hash {
                eprintln!(
                    "smr_kv: plan hash mismatch (expected {expect:#018x}, rebuilt {hash:#018x}) \
                     — the fault distribution changed since the violation was found"
                );
                return ExitCode::from(2);
            }
        }
        if args.replay {
            println!("replaying seed {seed}, plan hash {hash:#018x}");
            println!("plan: {plan:#?}");
        }
    }

    println!(
        "smr_kv: {}x{} shards, {} clients/group x {} ops, {}% cross-shard, batch {}, seed {}{}{}\n",
        kv.groups,
        kv.procs,
        kv.clients,
        kv.ops,
        kv.cross_pct,
        if kv.batch > 1 {
            kv.batch.to_string()
        } else {
            "off".into()
        },
        seed,
        if kv.faulty { ", fault plan on" } else { "" },
        if kv.tcp {
            " — multi-process TCP runtime"
        } else {
            " — deterministic simulator"
        },
    );

    let out = if kv.tcp {
        match run_tcp(kv, &cfg, seed) {
            Ok(out) => out,
            Err(e) => {
                eprintln!("smr_kv: {e}");
                return ExitCode::from(1);
            }
        }
    } else {
        match trace_out {
            None => run_smr_sim(shape, &plan, &cfg, seed, bug),
            Some(path) => {
                // Recording is observation-only, so the traced run is the
                // run (pinned by tests/trace_neutrality.rs).
                let (out, ring) =
                    capture_trace(1 << 17, || run_smr_sim(shape, &plan, &cfg, seed, bug));
                let json = wamcast_trace::chrome_trace(&ring.events());
                match std::fs::write(path, json) {
                    Ok(()) => println!("smr_kv: Chrome trace written to {path}"),
                    Err(e) => eprintln!("smr_kv: could not write {path}: {e}"),
                }
                out
            }
        }
    };
    print_table(kv, &out);

    if out.is_ok() {
        println!(
            "history checker: OK ({} replicas agree; atomicity, linearizability and \
             serializability hold)",
            out.history.replicas.len()
        );
        return ExitCode::SUCCESS;
    }
    let mut replay = format!(
        "cargo run --release -p wamcast-harness --bin smr_kv -- --groups {} --procs {} \
         --clients {} --ops {} --cross-pct {} --batch {} --replay --seed {seed}",
        kv.groups, kv.procs, kv.clients, kv.ops, kv.cross_pct, kv.batch,
    );
    if kv.faulty {
        replay.push_str(&format!(
            " --faulty --plan-hash {:#018x}",
            plan.fingerprint()
        ));
    }
    if kv.tcp {
        replay.push_str(" --tcp");
    }
    if args.inject_bug {
        replay.push_str(" --inject-bug");
    }
    let mut report = format!(
        "smr_kv: {} violation(s) at seed {seed}:\n",
        out.violations.len()
    );
    for v in &out.violations {
        report.push_str(&format!("  {v}\n"));
    }
    report.push_str(&format!("replay: {replay}\n"));
    eprint!("{report}");
    if args.inject_bug {
        eprintln!("(expected: --inject-bug plants a lost apply precisely so the checker flags it)");
    }
    if let Err(e) = std::fs::write(&args.artifact, &report) {
        eprintln!("smr_kv: could not write {}: {e}", args.artifact);
    }
    ExitCode::from(1)
}

fn print_table(kv: &KvArgs, out: &SmrOutcome) {
    let mut t = Table::new(vec![
        "ops",
        "committed",
        "unresponded",
        "cross-shard",
        "mean latency",
        "sends/op",
        "crashes",
        "dropped",
        "end",
    ]);
    let cross = out.history.ops.iter().filter(|o| o.dest.len() > 1).count();
    t.row(vec![
        out.history.ops.len().to_string(),
        out.committed.to_string(),
        out.unresponded.to_string(),
        cross.to_string(),
        format!("{:.1} ms", out.mean_latency.as_secs_f64() * 1e3),
        if kv.tcp {
            "-".into()
        } else {
            format!("{:.1}", out.sends_per_op())
        },
        out.crashes.to_string(),
        out.dropped.to_string(),
        format!("{}", out.end_time),
    ]);
    println!("{}", t.render());
}
