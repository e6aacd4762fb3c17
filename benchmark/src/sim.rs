//! The simulator workloads `sim_a1` and `sim_a2`: no sockets, no codec,
//! one thread. Virtual-time latencies and message counts are exact.

use crate::kernels;
use crate::layers::{self, ratio, Algo};
use crate::procstat;
use crate::report::Outcome;
use crate::stats;
use crate::timed::{NodeStats, Probe, SharedStats, Timed};
use crate::tracing::{self, RING_CAP};
use crate::{alloc, batch8, OrderDigest, RunArgs, SETUPS, TRACE_UNTRACED_SHARE};
use std::io;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use wamcast_core::{GenuineMulticast, RoundBroadcast};
use wamcast_harness::registry::a1_stack_config;
use wamcast_harness::scenario::RETRY_INTERVAL;
use wamcast_harness::workload::{all_group_pairs, poisson, PlannedCast};
use wamcast_sim::invariants::check_with_profile;
use wamcast_sim::{InvariantProfile, NetConfig, RunMetrics, SimConfig, Simulation};
use wamcast_trace::TraceRing;
use wamcast_types::{GroupSet, Payload, ProcessId, Protocol, Topology};

/// Topology of both simulator workloads: groups × processes per group.
pub const SHAPE: (usize, usize) = (3, 3);

/// Offered load, casts per virtual second (open loop, Poisson).
pub const RATE_PER_S: f64 = 2000.0;

/// Arrival horizon of one repetition (virtual time).
pub const HORIZON: Duration = Duration::from_secs(10);

/// `sim_a1`'s destination mix: every group pair, plus all groups.
pub fn a1_dests(topo: &Topology) -> Vec<GroupSet> {
    let mut dests = all_group_pairs(topo);
    dests.push(topo.all_groups());
    dests
}

/// What one repetition produced.
pub struct Rep {
    /// Wall time building the simulation and scheduling the casts.
    pub build: Duration,
    /// Wall time of the run loop.
    pub run: Duration,
    /// The engine's record of the run.
    pub metrics: RunMetrics,
    /// The flight recorder, when the repetition was traced.
    pub trace: Option<TraceRing>,
}

impl Rep {
    /// A digest of everything about the schedule that must repeat exactly:
    /// step and send counts, the end instant, every process's delivery
    /// sequence.
    pub fn fingerprint(&self) -> u64 {
        let m = &self.metrics;
        let mut h = OrderDigest::default();
        for count in [m.steps, m.inter_sends, m.intra_sends, m.end_time.as_nanos()] {
            h.mix(count);
        }
        for seq in &m.delivered_seq {
            h.mix(seq.len() as u64);
            for &id in seq {
                h.mix_id(id);
            }
        }
        h.0
    }

    /// Commit latency (cast → last delivery among the addressed
    /// processes) of every committed cast in virtual ms, ascending, and the
    /// number of casts some addressed process never delivered.
    pub fn commit_latencies_ms(&self, topo: &Topology) -> (Vec<f64>, u64) {
        let mut lat = Vec::with_capacity(self.metrics.casts.len());
        let mut failed = 0;
        for (id, cast) in &self.metrics.casts {
            let addressed = topo.processes_in(cast.dest).count();
            match self.metrics.deliveries.get(id) {
                Some(dels) if dels.len() == addressed => {
                    let last = dels.values().map(|d| d.time).max().expect("non-empty");
                    lat.push(last.saturating_since(cast.time).as_nanos() as f64 / 1e6);
                }
                _ => failed += 1,
            }
        }
        stats::sort(&mut lat);
        (lat, failed)
    }
}

/// Runs one repetition: the plan cast into a fresh default-`NetConfig`
/// simulation seeded with `seed`, send log off, run to quiescence.
/// `trace_cap > 0` turns the engine's flight recorder on.
pub fn run_rep<P: Protocol>(
    topo: &Arc<Topology>,
    plan: &[PlannedCast],
    seed: u64,
    trace_cap: usize,
    factory: impl FnMut(ProcessId, &Topology) -> P,
) -> Rep {
    let t0 = Instant::now();
    let cfg = SimConfig::default().with_seed(seed).with_send_log(false);
    let mut sim = Simulation::new_shared(Arc::clone(topo), cfg, factory);
    if trace_cap > 0 {
        sim.enable_trace(trace_cap);
    }
    for c in plan {
        sim.cast_at(c.at, c.caster, c.dest, Payload::new());
    }
    let build = t0.elapsed();
    let t1 = Instant::now();
    sim.run_to_quiescence();
    let run = t1.elapsed();
    let trace = sim.take_trace();
    Rep {
        build,
        run,
        metrics: sim.into_metrics(),
        trace,
    }
}

/// The `sim_a1` stack: `a1-batched` with retransmission, exactly what
/// `wamcast_harness::perf`'s engine probe hosts.
fn a1(p: ProcessId, t: &Topology) -> GenuineMulticast {
    GenuineMulticast::new(p, t, a1_stack_config(Some(batch8()), Some(RETRY_INTERVAL)))
}

/// The `sim_a2` stack: the registry's `a2` fuzz constructor.
fn a2(p: ProcessId, t: &Topology) -> RoundBroadcast {
    RoundBroadcast::with_pacing(p, t, Duration::from_millis(10)).with_retry(RETRY_INTERVAL)
}

/// `sim_a2`'s only destination set: all groups.
fn a2_dests(topo: &Topology) -> Vec<GroupSet> {
    vec![topo.all_groups()]
}

/// One untraced repetition of a simulator workload over the plan of
/// `horizon` (the workloads use [`HORIZON`]). `Algo::A1` at 1 s and seed
/// `0xE12` is the historical E12 engine probe (69 665 steps).
pub fn rep(algo: Algo, horizon: Duration, seed: u64) -> Rep {
    let topo = Arc::new(Topology::symmetric(SHAPE.0, SHAPE.1));
    match algo {
        Algo::A1 => {
            let plan = poisson(&topo, RATE_PER_S, horizon, &a1_dests(&topo), seed);
            run_rep(&topo, &plan, seed, 0, a1)
        }
        Algo::A2 => {
            let plan = poisson(&topo, RATE_PER_S, horizon, &a2_dests(&topo), seed);
            run_rep(&topo, &plan, seed, 0, a2)
        }
    }
}

/// Runs `sim_a1`.
///
/// # Errors
///
/// `/proc` accounting is unavailable, or the trace file cannot be written.
pub fn run_a1(args: &RunArgs) -> io::Result<Outcome> {
    run(
        args,
        "sim_a1",
        Algo::A1,
        InvariantProfile::GENUINE_UNIFORM,
        a1_dests,
        a1,
    )
}

/// Runs `sim_a2`: the registry's `a2` fuzz stack, every cast to all groups.
///
/// # Errors
///
/// As [`run_a1`].
pub fn run_a2(args: &RunArgs) -> io::Result<Outcome> {
    run(
        args,
        "sim_a2",
        Algo::A2,
        InvariantProfile::BROADCAST_UNIFORM,
        a2_dests,
        a2,
    )
}

/// The untraced, measured repetitions.
struct Measured {
    /// `(build, run)` wall time of each.
    reps: Vec<(Duration, Duration)>,
    /// Process CPU seconds from before the first to after the last.
    cpu_s: f64,
}

/// Repeats `rep` until `budget` of wall time is used (at least once),
/// checking each against the fingerprint `want`.
fn measure(
    out: &mut Outcome,
    budget: Duration,
    want: u64,
    mut rep: impl FnMut() -> Rep,
) -> io::Result<Measured> {
    let start = Instant::now();
    let cpu0 = procstat::cpu()?;
    let mut reps = Vec::new();
    while reps.is_empty() || start.elapsed() < budget {
        let r = rep();
        out.require(r.fingerprint() == want, || {
            format!("repetition {} diverged from the checked one", reps.len())
        });
        reps.push((r.build, r.run));
    }
    Ok(Measured {
        reps,
        cpu_s: procstat::cpu()?.since(cpu0).total_s(),
    })
}

fn run<P: Protocol>(
    args: &RunArgs,
    name: &str,
    algo: Algo,
    profile: InvariantProfile,
    dests: fn(&Topology) -> Vec<GroupSet>,
    make: fn(ProcessId, &Topology) -> P,
) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    let topo = Arc::new(Topology::symmetric(SHAPE.0, SHAPE.1));
    let plain = |p: ProcessId, t: &Topology| Timed::new(make(p, t), None);

    // Set-up, several times over: generate the inputs, run one full
    // repetition untimed, check it against the specification.
    let mut setups = Vec::new();
    let mut checked = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let plan = poisson(&topo, RATE_PER_S, HORIZON, &dests(&topo), args.seed);
        let rep = run_rep(&topo, &plan, args.seed, 0, plain);
        let correct: Vec<ProcessId> = topo.processes().collect();
        let report = check_with_profile(&topo, &rep.metrics, &correct, profile);
        out.violations.extend(report.violations);
        setups.push(t0.elapsed().as_secs_f64());
        checked = Some((plan, rep));
    }
    let (plan, reference) = checked.expect("SETUPS > 0");
    let want = reference.fingerprint();
    let (lat_ms, failed) = reference.commit_latencies_ms(&topo);
    let ops = lat_ms.len() as f64;
    out.attempted = plan.len() as u64;
    out.failed = failed;
    out.require(out.attempted == lat_ms.len() as u64 + failed, || {
        "attempted != committed + failed".into()
    });

    let seconds = Duration::from_secs(args.seconds);
    let untraced_budget = if args.trace {
        seconds.mul_f64(TRACE_UNTRACED_SHARE)
    } else {
        seconds
    };
    // A traced run counts allocations here, in its untraced phase: the
    // probes' own allocations would drown the system's.
    let allocs0 = alloc::counts();
    alloc::set_counting(args.trace);
    let m = measure(&mut out, untraced_budget, want, || {
        run_rep(&topo, &plan, args.seed, 0, plain)
    });
    alloc::set_counting(false);
    let (m, allocs1) = (m?, alloc::counts());
    let rep_walls: Vec<f64> = m
        .reps
        .iter()
        .map(|(b, r)| (*b + *r).as_secs_f64())
        .collect();
    let rep_wall = stats::median(rep_walls.clone());
    let ops_per_s = ratio(ops, rep_wall);
    let cpu_us_per_op = ratio(m.cpu_s * 1e6, ops * m.reps.len() as f64);
    out.require_cpu_identity(ops_per_s, cpu_us_per_op);

    if !args.trace {
        out.set("setup_s", stats::median(setups));
        out.set("ops_per_s", ops_per_s);
        out.set("lat_p50_ms", stats::percentile(&lat_ms, 0.50));
        out.set("cpu_us_per_op", cpu_us_per_op);
        out.set("peak_rss_mb", procstat::peak_rss_mb()?);
        return Ok(out);
    }

    // Traced repetitions: probes around every handler and the engine's
    // flight recorder on.
    let stats_all: SharedStats<P::Msg> = Arc::new(Mutex::new(NodeStats::default()));
    let epoch = Instant::now();
    let probed = |p: ProcessId, t: &Topology| {
        let probe = Probe::new(Arc::clone(&stats_all), epoch, None, 0);
        Timed::new(make(p, t), Some(probe))
    };
    let traced_start = Instant::now();
    let cpu0 = procstat::cpu()?;
    let mut traced_reps = 0u32;
    let mut last = None;
    while last.is_none() || traced_start.elapsed() < seconds - untraced_budget {
        let rep = run_rep(&topo, &plan, args.seed, RING_CAP, probed);
        out.require(rep.fingerprint() == want, || {
            "tracing changed the schedule".to_string()
        });
        traced_reps += 1;
        last = Some(rep);
    }
    let traced_cpu_s = procstat::cpu()?.since(cpu0).total_s();
    let last = last.expect("at least one traced repetition");
    let ring = last.trace.as_ref().expect("traced repetition has a ring");
    let events = ring.events();
    let traced_ops = ops * f64::from(traced_reps);
    let t = stats_all.lock().expect("probe stats poisoned").t;

    let mut rows = layers::protocol_layers(&mut out, &t, traced_ops, algo);
    let rm = &reference.metrics;
    layers::set_msgs_per_op(
        &mut out,
        algo,
        ratio(rm.inter_sends as f64, ops),
        ratio(rm.intra_sends as f64, ops),
    );
    let steps = rm.steps as f64;
    let run_wall = stats::median(m.reps.iter().map(|(_, r)| r.as_secs_f64()).collect());
    let handler_s_per_rep = t.handler_ns() as f64 / 1e9 / f64::from(traced_reps);
    let engine_s = (rep_wall - handler_s_per_rep).max(0.0);
    out.set("sim.events_per_s", ratio(steps, run_wall));
    out.set("sim.steps_per_op", ratio(steps, ops));
    out.set("sim.engine_ns_per_step", ratio(engine_s * 1e9, steps));
    out.set(
        "sim.queue_ns_per_event",
        kernels::queue_replay_ns(&events, &topo, &NetConfig::default()),
    );
    rows.push((
        "sim engine (rep wall - handlers)",
        ratio(engine_s * 1e6, ops),
    ));
    layers::budget(&mut out, &rows, cpu_us_per_op);

    let [s1, s2, s3] = match algo {
        Algo::A1 => tracing::stage_medians_ms(&events),
        Algo::A2 => [0.0; 3],
    };
    out.set("amcast.stage_ms.cast_to_ts", s1);
    out.set("amcast.stage_ms.ts_to_decide", s2);
    out.set("amcast.stage_ms.decide_to_deliver", s3);
    let untraced_ops = ops * m.reps.len() as f64;
    out.set(
        "alloc.allocs_per_op",
        ratio((allocs1.0 - allocs0.0) as f64, untraced_ops),
    );
    out.set(
        "alloc.bytes_per_op",
        ratio((allocs1.1 - allocs0.1) as f64, untraced_ops),
    );
    let traced_cpu_us_per_op = ratio(traced_cpu_s * 1e6, traced_ops);
    out.set(
        "trace.overhead_pct",
        100.0 * (ratio(traced_cpu_us_per_op, cpu_us_per_op) - 1.0),
    );
    out.set(
        "trace.events_per_op",
        ratio((ring.len() as u64 + ring.evicted()) as f64, ops),
    );
    out.set("trace.push_ns", kernels::trace_push_ns());
    out.set("metrics.record_ns", kernels::histogram_record_ns());
    out.set("client.lat_p90_ms", stats::percentile(&lat_ms, 0.90));
    out.set("client.lat_p99_ms", stats::percentile(&lat_ms, 0.99));
    out.set("client.lat_p999_ms", stats::percentile(&lat_ms, 0.999));
    out.set("client.lat_max_ms", lat_ms.last().copied().unwrap_or(0.0));
    out.set("client.ops_per_s", ops_per_s);
    out.set("client.failed_ops", failed as f64);
    out.set("client.samples", ops);
    out.set("net.threads", procstat::threads()?.count as f64);
    out.zero_unset(&["net.", "wire.", "smr.", "gen."]); // a simulator run never enters these

    if let Some(dir) = &args.out {
        let stats = stats_all.lock().expect("probe stats poisoned");
        let spans: Vec<_> = stats.spans.iter().copied().collect();
        tracing::write_trace_file(dir, name, &events, &spans)?;
    }
    Ok(out)
}
