//! The closed-loop client driver for the partitioned KV service
//! (`wamcast-smr`) on the simulator, and the workload the socket driver
//! ([`crate::tcp_host::run_smr_tcp`]) shares with it.
//!
//! This is the end-to-end path the ROADMAP's "open a new workload" step
//! asks for: clients issue [`Command`]s, each command is atomically
//! multicast to exactly the shards its keys touch, replicas apply
//! deliveries through `wamcast_core::WithApply`, and everything observable
//! — invocations, responses, per-replica apply logs, digests — is recorded
//! into a [`History`] that the `wamcast_smr::history` checker then judges.
//!
//! Two entry points:
//!
//! * [`run_smr_sim`] — the deterministic simulator, with an arbitrary
//!   [`FaultPlan`] adversary and optional [`InjectedBug`] (the
//!   `--inject-bug` hook proving the checker rejects bad histories);
//! * [`run_smr_scenario`] — the `scenario_fuzz --arm smr` arm: derives the
//!   topology/fault plan from a [`RunSpec`] seed exactly like the delivery
//!   arm, then checks *application-level* correctness on top.
//!
//! The clients are closed-loop: each issues its next command only after
//! the previous one responded (lockstep rounds), so the recorded
//! invocation/response windows are meaningful for the checker's per-key
//! real-time test. Under a fault plan an op can time out — its caster may
//! have crashed mid-dissemination — in which case the client records no
//! response and moves on; the checker treats such ops as
//! "maybe-uncommitted" (they must still be all-or-nothing across shards).

use crate::registry::a1_stack_config;
use crate::scenario::{RunSpec, RETRY_INTERVAL};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wamcast_core::{GenuineMulticast, MulticastConfig, WithApply};
use wamcast_metrics::Histogram;
use wamcast_sim::{invariants, FaultPlan, SimConfig, Simulation};
use wamcast_smr::{
    history, responder_shard, shared_replica, ApplyBug, BuggyKv, Command, History, OpRecord,
    ReplicaLog, ShardMap, SharedKv,
};
use wamcast_types::{BatchConfig, GroupId, MessageId, ProcessId, SimTime, SplitMix64, Topology};

/// Virtual-time allowance for one closed-loop round (and for the final
/// drain); generous because a round may have to ride out a partition
/// window before its ops can complete.
const ROUND_GRACE: Duration = Duration::from_secs(600);

/// Keys `0..HOT_KEYS` form the skew hot set
/// ([`SmrConfig::hot_key_pct`] of single-key commands land there).
const HOT_KEYS: u64 = 4;

/// Workload and stack configuration of one SMR run.
#[derive(Clone, Debug)]
pub struct SmrConfig {
    /// Closed-loop clients homed to each group.
    pub clients_per_group: usize,
    /// Commands each client issues.
    pub ops_per_client: usize,
    /// Key universe size (keys are drawn below this bound).
    pub key_space: u64,
    /// Percentage of commands that are cross-shard (`MultiPut`/`Transfer`
    /// between two distinct shards); the rest are single-key.
    pub cross_shard_pct: u8,
    /// Percentage of single-key commands aimed at the 4-key hot set
    /// (key skew; see `HOT_KEYS`).
    pub hot_key_pct: u8,
    /// Consensus-amortization policy; `None` = the eager schedule.
    pub batch: Option<BatchConfig>,
    /// Retransmission interval; required under a lossy [`FaultPlan`],
    /// `None` keeps the paper-exact message counts on clean links.
    pub retry: Option<Duration>,
}

impl Default for SmrConfig {
    fn default() -> Self {
        SmrConfig {
            clients_per_group: 2,
            ops_per_client: 6,
            key_space: 64,
            cross_shard_pct: 40,
            hot_key_pct: 50,
            batch: None,
            retry: Some(RETRY_INTERVAL),
        }
    }
}

/// Where an [`ApplyBug`] is planted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BugScope {
    /// One replica (the lost-update shape: its shard peers stay healthy).
    Process(ProcessId),
    /// Every replica of one group (the reordered-apply shape: the shard
    /// stays internally consistent, so only cross-shard checks can see it).
    Group(GroupId),
}

/// A deliberately planted apply-path defect for checker validation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InjectedBug {
    /// Which replicas misbehave.
    pub scope: BugScope,
    /// How they misbehave.
    pub bug: ApplyBug,
}

impl InjectedBug {
    /// The default `--inject-bug` shape: replica p1 silently loses every
    /// third apply.
    pub fn default_lost_apply() -> Self {
        InjectedBug {
            scope: BugScope::Process(ProcessId(1)),
            bug: ApplyBug::LoseEvery(3),
        }
    }

    fn bug_for(self, p: ProcessId, topo: &Topology) -> Option<ApplyBug> {
        let afflicted = match self.scope {
            BugScope::Process(victim) => p == victim,
            BugScope::Group(g) => topo.group_of(p) == g,
        };
        afflicted.then_some(self.bug)
    }
}

/// Everything one SMR run produced.
#[derive(Clone, Debug)]
pub struct SmrOutcome {
    /// Liveness + delivery-invariant + history-checker violations (empty =
    /// the run passed end to end).
    pub violations: Vec<String>,
    /// The recorded history (ops + correct replicas' logs).
    pub history: History,
    /// Ops whose clients saw a response.
    pub committed: usize,
    /// Ops whose clients gave up (possible under crash faults only).
    pub unresponded: usize,
    /// Virtual (or wall) time at which the run ended.
    pub end_time: SimTime,
    /// Protocol copies sent intra-group / inter-group.
    pub intra_sends: u64,
    /// See [`intra_sends`](Self::intra_sends).
    pub inter_sends: u64,
    /// Handler invocations executed.
    pub steps: u64,
    /// Copies the fault adversary dropped / duplicated.
    pub dropped: u64,
    /// See [`dropped`](Self::dropped).
    pub duplicated: u64,
    /// Processes crashed by the plan.
    pub crashes: usize,
    /// Mean invocation→response latency over committed ops.
    pub mean_latency: Duration,
    /// Host CPU time spent on the run.
    pub cpu: Duration,
}

impl SmrOutcome {
    /// Whether the run satisfied every check.
    pub fn is_ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Protocol copies per committed op (the amortization observable).
    pub fn sends_per_op(&self) -> f64 {
        (self.intra_sends + self.inter_sends) as f64 / (self.committed.max(1)) as f64
    }
}

/// Deterministic per-client command generator (key skew + cross-shard
/// ratio), independent of the simulator's randomness stream. Shared with
/// the TCP driver (`crate::tcp_host`) so every runtime offers the same
/// workload for the same seed.
pub(crate) struct OpGen {
    rng: SplitMix64,
    shards: ShardMap,
    key_space: u64,
    cross_shard_pct: u8,
    hot_key_pct: u8,
}

impl OpGen {
    pub(crate) fn new(cfg: &SmrConfig, shards: ShardMap, seed: u64, client: usize) -> Self {
        OpGen {
            // Distinct golden-ratio-offset stream per client.
            rng: SplitMix64::new(seed ^ (client as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            shards,
            key_space: cfg.key_space.max(HOT_KEYS),
            cross_shard_pct: cfg.cross_shard_pct,
            hot_key_pct: cfg.hot_key_pct,
        }
    }

    fn pick_key(&mut self) -> u64 {
        if self.rng.next_below(100) < u64::from(self.hot_key_pct) {
            self.rng.next_below(HOT_KEYS)
        } else {
            self.rng.next_below(self.key_space)
        }
    }

    pub(crate) fn next(&mut self) -> Command {
        let k = self.shards.num_shards() as u64;
        if k > 1 && self.rng.next_below(100) < u64::from(self.cross_shard_pct) {
            // Two distinct shards, keys pinned to each.
            let ga = self.rng.next_below(k) as u16;
            let mut gb = self.rng.next_below(k - 1) as u16;
            if gb >= ga {
                gb += 1;
            }
            let hint_a = self.pick_key();
            let hint_b = self.pick_key();
            let ka = self.shards.key_owned_by(GroupId(ga), hint_a);
            let kb = self.shards.key_owned_by(GroupId(gb), hint_b);
            if self.rng.next_below(2) == 0 {
                Command::Transfer {
                    from: ka,
                    to: kb,
                    amount: 1 + self.rng.next_below(9) as i64,
                }
            } else {
                Command::MultiPut {
                    entries: vec![
                        (ka, self.rng.next_below(100) as i64),
                        (kb, self.rng.next_below(100) as i64),
                    ],
                }
            }
        } else {
            let key = self.pick_key();
            match self.rng.next_below(3) {
                0 => Command::Get { key },
                1 => Command::Put {
                    key,
                    value: self.rng.next_below(100) as i64,
                },
                _ => Command::Incr {
                    key,
                    delta: self.rng.next_below(9) as i64 - 4,
                },
            }
        }
    }
}

/// Runs the KV service under the deterministic simulator, driving
/// closed-loop clients against a [`FaultPlan`], and checks the recorded
/// history. `bug` plants an [`ApplyBug`] (checker validation); `None` is
/// the production path.
pub fn run_smr_sim(
    shape: (usize, usize),
    plan: &FaultPlan,
    cfg: &SmrConfig,
    seed: u64,
    bug: Option<InjectedBug>,
) -> SmrOutcome {
    let (k, d) = shape;
    // One shared immutable topology per shape across the whole sweep (the
    // ShardMap is a `Copy` wrapper over the shard count — nothing to
    // share).
    let topo = crate::scenario::shared_topology(k, d);
    let shards = ShardMap::new(k);
    let mut handles: Vec<SharedKv> = Vec::with_capacity(k * d);
    let sim_cfg = SimConfig::default()
        .with_seed(seed)
        .with_send_log(false)
        .with_max_steps(20_000_000)
        .with_faults(plan.clone());
    let mcfg = multicast_config(cfg);
    let started = Instant::now();
    let mut sim = Simulation::new_shared(topo, sim_cfg, |p, t| {
        let kv = shared_replica(t.group_of(p), shards);
        handles.push(Arc::clone(&kv));
        let tap = BuggyKv::new(kv, bug.and_then(|b| b.bug_for(p, t)));
        WithApply::new(GenuineMulticast::new(p, t, mcfg), tap)
    });
    let trace_cap = crate::scenario::requested_trace_capacity();
    if trace_cap > 0 {
        sim.enable_trace(trace_cap);
    }

    let num_clients = k * cfg.clients_per_group;
    let mut gens: Vec<OpGen> = (0..num_clients)
        .map(|c| OpGen::new(cfg, shards, seed, c))
        .collect();

    let mut ops: Vec<OpRecord> = Vec::new();
    let mut violations: Vec<String> = Vec::new();
    'rounds: for _round in 0..cfg.ops_per_client {
        // Every client issues its next command from an alive member of its
        // home group (compiled plans always leave one: crash minorities).
        let mut outstanding: Vec<(usize, MessageId)> = Vec::new();
        for (c, gen) in gens.iter_mut().enumerate() {
            let cmd = gen.next();
            let dest = shards.dest_of(&cmd);
            let home = GroupId((c % k) as u16);
            let caster = sim
                .topology()
                .members(home)
                .iter()
                .copied()
                .find(|&p| sim.is_alive(p));
            let Some(caster) = caster else {
                continue; // whole home group crashed: client is cut off
            };
            let id = sim.cast_at(sim.now(), caster, dest, cmd.encode());
            ops.push(OpRecord {
                id,
                cmd,
                dest,
                client: c,
                invoked_at: sim.now(),
                responded_at: None,
                response: None,
            });
            outstanding.push((ops.len() - 1, id));
        }
        let ids: Vec<MessageId> = outstanding.iter().map(|&(_, id)| id).collect();
        let deadline = sim.now() + ROUND_GRACE;
        match sim.try_run_until_delivered(&ids, deadline) {
            // `false` covers deadline *and* ops that became undeliverable
            // (caster crashed mid-dissemination before any correct process
            // heard of the command) — sorted out per op below.
            Ok(_) => {}
            Err(e) => {
                // RunError::StepBudgetExhausted: a live-locked run.
                violations.push(format!("liveness: {e}"));
                break 'rounds;
            }
        }
        // Collect responses from each op's responder shard.
        for (i, id) in outstanding {
            let (cmd, dest) = (ops[i].cmd.clone(), ops[i].dest);
            let responder = responder_shard(&shards, &cmd, dest);
            let observed = sim
                .topology()
                .members(responder)
                .iter()
                .copied()
                .filter(|&p| sim.is_alive(p))
                .find_map(|p| {
                    let at = sim.metrics().deliveries.get(&id)?.get(&p)?.time;
                    let resp = handles[p.index()]
                        .lock()
                        .expect("replica poisoned")
                        .response_of(id)
                        .map(|a| a.response)?;
                    Some((at, resp))
                });
            if let Some((at, resp)) = observed {
                ops[i].responded_at = Some(at);
                ops[i].response = Some(resp);
            }
        }
    }

    // Let stragglers (ops that timed out mid-partition) converge before
    // judging the final logs.
    match sim.try_run_until(sim.now() + ROUND_GRACE) {
        Ok(true) => {}
        Ok(false) => violations.push(format!(
            "liveness: run did not converge by {} (queue still busy)",
            sim.now()
        )),
        Err(e) => violations.push(format!("liveness: {e}")),
    }

    // Delivery-level invariants still hold underneath the service…
    let correct = sim.alive_processes();
    let delivery = invariants::check_all(sim.topology(), sim.metrics(), &correct)
        .merge(invariants::check_genuineness(sim.topology(), sim.metrics()));
    violations.extend(delivery.violations);

    // …and the application-level history must check out on top.
    let replicas: Vec<ReplicaLog> = correct
        .iter()
        .map(|&p| ReplicaLog::capture(p, &handles[p.index()].lock().expect("replica poisoned")))
        .collect();
    let hist = History {
        shards,
        ops,
        replicas,
    };
    let report = history::check(&hist);
    violations.extend(report.violations);

    if let Some(t) = sim.take_trace() {
        crate::scenario::park_captured_trace(t);
    }
    let m = sim.metrics();
    let committed = hist.committed();
    let mean_latency = mean_response_latency(&hist);
    SmrOutcome {
        violations,
        committed,
        unresponded: hist.ops.len() - committed,
        end_time: m.end_time,
        intra_sends: m.intra_sends,
        inter_sends: m.inter_sends,
        steps: m.steps,
        dropped: m.dropped_sends,
        duplicated: m.duplicated_sends,
        crashes: plan.crashes.len(),
        mean_latency,
        cpu: started.elapsed(),
        history: hist,
    }
}

/// The `scenario_fuzz --arm smr` runner: derives the fault plan and
/// topology from `spec` exactly like the delivery arm, reads the batching
/// policy off the spec's registry arm (the SMR stack always runs A1 — A2
/// is a broadcast algorithm, the wrong shape for a partitioned store, so
/// its arm contributes only its amortization policy), and checks
/// application-level correctness.
///
/// # Panics
///
/// Panics if the spec's arm does not host the SMR service (the fuzz
/// binary restricts `--arm smr` rotations to SMR-capable arms).
pub fn run_smr_scenario(spec: &RunSpec, bug: Option<InjectedBug>) -> SmrOutcome {
    let batch = spec.arm.smr_batch().unwrap_or_else(|| {
        panic!(
            "arm {} cannot host the SMR service (see StackRegistry::smr_rotation)",
            spec.arm.name()
        )
    });
    let cfg = SmrConfig {
        batch,
        // Seed-striped workload shape: vary the cross-shard pressure.
        cross_shard_pct: 20 + (spec.seed % 4) as u8 * 20,
        ..SmrConfig::default()
    };
    run_smr_sim(spec.topo, &spec.plan, &cfg, spec.seed, bug)
}

fn multicast_config(cfg: &SmrConfig) -> MulticastConfig {
    // Built at the registry's single A1 construction site, so the SMR
    // stack can never drift from the delivery arms' policy plumbing.
    a1_stack_config(cfg.batch, cfg.retry)
}

/// The invocation→response latency distribution of a history's committed
/// ops (nanoseconds) — the commit-latency histogram both SMR drivers
/// (sim and TCP) share, reported through the same
/// [`percentile_cells`](crate::table::percentile_cells) path as every
/// other harness bin. Unresponded ops contribute nothing (the checker
/// already accounts for them as maybe-uncommitted).
pub fn response_latency_histogram(hist: &History) -> Histogram {
    let mut h = Histogram::new();
    for op in &hist.ops {
        if let Some(r) = op.responded_at {
            h.record(r.saturating_since(op.invoked_at).as_nanos() as u64);
        }
    }
    h
}

pub(crate) fn mean_response_latency(hist: &History) -> Duration {
    let mut total = Duration::ZERO;
    let mut n = 0u32;
    for op in &hist.ops {
        if let Some(r) = op.responded_at {
            total += r.saturating_since(op.invoked_at);
            n += 1;
        }
    }
    if n == 0 {
        Duration::ZERO
    } else {
        total / n
    }
}

/// One cell of the end-to-end SMR throughput table (E11): committed
/// ops/sec of *virtual* time under the closed-loop load, with the protocol
/// cost per op alongside.
#[derive(Clone, Debug)]
pub struct SmrThroughputCell {
    /// Batch size (1 = batching off).
    pub batch_msgs: usize,
    /// Cross-shard command percentage of the workload.
    pub cross_shard_pct: u8,
    /// Ops committed (all offered ops, in a clean run).
    pub committed: usize,
    /// Committed ops per second of virtual time.
    pub ops_per_sec: f64,
    /// Protocol copies per committed op.
    pub sends_per_op: f64,
    /// Mean invocation→response latency.
    pub mean_latency: Duration,
    /// Full invocation→response latency distribution (nanoseconds),
    /// from [`response_latency_histogram`].
    pub latency: Histogram,
    /// Host CPU time spent simulating the cell.
    pub cpu: Duration,
}

/// Measures one E11 cell: a fault-free closed-loop run on the symmetric
/// `k`×`d` topology. Panics (via the embedded checks) if the run violates
/// any delivery invariant or history property — throughput numbers can
/// never come from a broken run.
pub fn smr_throughput_once(
    k: usize,
    d: usize,
    clients_per_group: usize,
    ops_per_client: usize,
    cross_shard_pct: u8,
    batch_msgs: usize,
    seed: u64,
) -> SmrThroughputCell {
    let cfg = SmrConfig {
        clients_per_group,
        ops_per_client,
        cross_shard_pct,
        key_space: 256,
        batch: (batch_msgs > 1)
            .then(|| BatchConfig::new(batch_msgs).with_max_delay(Duration::from_millis(10))),
        retry: None, // clean links: paper-exact message counts
        ..SmrConfig::default()
    };
    let out = run_smr_sim((k, d), &FaultPlan::none(), &cfg, seed, None);
    assert!(
        out.is_ok(),
        "E11 throughput run must be violation-free: {:?}",
        out.violations
    );
    let makespan = out
        .history
        .ops
        .iter()
        .filter_map(|o| o.responded_at)
        .max()
        .unwrap_or(SimTime::ZERO);
    let secs = makespan.as_nanos() as f64 / 1e9;
    SmrThroughputCell {
        batch_msgs,
        cross_shard_pct,
        committed: out.committed,
        ops_per_sec: out.committed as f64 / secs.max(1e-9),
        sends_per_op: out.sends_per_op(),
        mean_latency: out.mean_latency,
        latency: response_latency_histogram(&out.history),
        cpu: out.cpu,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wamcast_sim::FaultConfig;

    #[test]
    fn clean_run_commits_everything_and_checks_out() {
        let cfg = SmrConfig::default();
        let out = run_smr_sim((3, 2), &FaultPlan::none(), &cfg, 0x5312, None);
        assert!(out.is_ok(), "{:?}", out.violations);
        assert_eq!(out.unresponded, 0, "clean runs answer every op");
        assert_eq!(
            out.committed,
            3 * cfg.clients_per_group * cfg.ops_per_client
        );
        assert_eq!(out.history.replicas.len(), 6);
        // The workload really exercised cross-shard commands.
        assert!(
            out.history.ops.iter().any(|o| o.dest.len() > 1),
            "no cross-shard ops generated"
        );
        assert!(out.mean_latency > Duration::ZERO);
    }

    #[test]
    fn deterministic_replay() {
        let cfg = SmrConfig::default();
        let a = run_smr_sim((2, 3), &FaultPlan::none(), &cfg, 7, None);
        let b = run_smr_sim((2, 3), &FaultPlan::none(), &cfg, 7, None);
        assert_eq!(a.committed, b.committed);
        assert_eq!(a.end_time, b.end_time);
        assert_eq!(
            a.history.replicas[0].digest, b.history.replicas[0].digest,
            "same seed, same digests"
        );
        let c = run_smr_sim((2, 3), &FaultPlan::none(), &cfg, 8, None);
        assert_ne!(
            a.history.replicas[0].digest, c.history.replicas[0].digest,
            "different seed, different workload"
        );
    }

    #[test]
    fn genuineness_shows_up_as_bystander_silence() {
        // A 3-shard run whose workload only ever touches shards 0 and 1:
        // shard 2's replicas must apply nothing (their only traffic is the
        // messages addressed to them — none).
        let cfg = SmrConfig {
            cross_shard_pct: 100,
            clients_per_group: 1,
            ops_per_client: 4,
            ..SmrConfig::default()
        };
        // Build the run manually so every command targets shards {0, 1}.
        let shards = ShardMap::new(3);
        let k01 = (
            shards.key_owned_by(GroupId(0), 0),
            shards.key_owned_by(GroupId(1), 9),
        );
        let topo = Topology::symmetric(3, 2);
        let mut handles: Vec<SharedKv> = Vec::new();
        let mut sim = Simulation::new(topo, SimConfig::default().with_send_log(false), |p, t| {
            let kv = shared_replica(t.group_of(p), shards);
            handles.push(Arc::clone(&kv));
            WithApply::new(
                GenuineMulticast::new(p, t, multicast_config(&cfg)),
                BuggyKv::new(kv, None),
            )
        });
        let cmd = Command::Transfer {
            from: k01.0,
            to: k01.1,
            amount: 2,
        };
        let dest = shards.dest_of(&cmd);
        assert_eq!(dest.len(), 2);
        let id = sim.cast_at(SimTime::ZERO, ProcessId(0), dest, cmd.encode());
        assert!(sim.run_until_delivered(&[id], SimTime::from_millis(600_000)));
        sim.run_to_quiescence();
        for p in [4usize, 5] {
            assert!(
                handles[p].lock().unwrap().log().is_empty(),
                "bystander shard applied a command it was never addressed by"
            );
        }
        invariants::check_genuineness(sim.topology(), sim.metrics()).assert_ok();
    }

    #[test]
    fn smr_scenario_arm_is_clean_on_fuzz_seeds() {
        let faults = FaultConfig::default();
        for seed in 0..6u64 {
            let spec = RunSpec::derive(seed, &faults);
            let out = run_smr_scenario(&spec, None);
            assert!(
                out.is_ok(),
                "seed {seed} ({} on {:?}): {:?}",
                spec.arm.name(),
                spec.topo,
                out.violations
            );
            assert!(out.committed > 0);
        }
    }

    #[test]
    fn lost_apply_bug_is_caught_by_the_checker() {
        let out = run_smr_sim(
            (2, 3),
            &FaultPlan::none(),
            &SmrConfig::default(),
            0xB16,
            Some(InjectedBug::default_lost_apply()),
        );
        assert!(!out.is_ok(), "a lost apply must be flagged");
        assert!(
            out.violations
                .iter()
                .any(|s| s.contains("disagree") || s.contains("digest")),
            "expected a replica-agreement violation, got {:?}",
            out.violations
        );
    }

    #[test]
    fn reordered_cross_shard_apply_is_caught_by_the_checker() {
        // Plant the swap on *every* replica of group 1: the shard stays
        // internally consistent (agreement passes), so the violation can
        // only come from the cross-shard serializability pass.
        let cfg = SmrConfig {
            cross_shard_pct: 100,
            clients_per_group: 2,
            ops_per_client: 3,
            ..SmrConfig::default()
        };
        let bug = InjectedBug {
            scope: BugScope::Group(GroupId(1)),
            bug: ApplyBug::SwapCrossShard,
        };
        let out = run_smr_sim((2, 2), &FaultPlan::none(), &cfg, 0x5AB, Some(bug));
        assert!(
            !out.is_ok(),
            "a reordered cross-shard apply must be flagged"
        );
        assert!(
            out.violations.iter().any(|s| s.contains("serializability")),
            "expected a serializability cycle, got {:?}",
            out.violations
        );
        assert!(
            !out.violations.iter().any(|s| s.contains("disagree")),
            "the swap is shard-internally consistent; got {:?}",
            out.violations
        );
    }
}
