//! The stack registry: **the one place protocol arms are dispatched**.
//!
//! Before this module, three divergent `match` blocks (the fuzz driver,
//! the SMR batch policy, the `% 3` arm modulus in `RunSpec::derive`) each
//! hard-coded the three paper arms, and the Figure 1 baselines — although
//! executable [`Protocol`] state machines — were unreachable from the
//! simulator sweeps, the fault injector and `scenario_fuzz`. The registry
//! replaces all of them with one table of named, constructible protocol
//! stacks ([`ProtocolArm`]): constructor closures (the fuzz stack with its
//! retry policy, and the paper-exact probe stack), the workload shape, the
//! fault classes the stack tolerates ([`FaultTolerance`]), the invariant
//! profile it is judged against ([`InvariantProfile`]), its analytic
//! Figure 1 row ([`AnalyticDegree`] + complexity class), and — for the
//! paper arms — the SMR batching policy.
//!
//! Everything arm-indexed flows through here:
//!
//! * [`RunSpec::derive_with`](crate::scenario::RunSpec::derive_with) picks
//!   an arm from a registry subset (the arm count comes from the list, not
//!   a hard-coded modulus);
//! * [`run_scenario_full`](crate::scenario::run_scenario_full) calls the
//!   arm's hosted runner;
//! * `run_smr_scenario` reads the arm's SMR batch policy;
//! * the claims file ([`crate::paper`]) calls the arm's failure-free
//!   probe for every Figure 1 row, the Prop 3.1 / Theorem 4.1 / 5.1 rows
//!   derived from them and the Δ·L shape sweep, and compares each against
//!   the arm's analytic row;
//! * the claims file's batching rows and the SMR service build the paper
//!   stack through [`a1_stack_config`].
//!
//! **Determinism contract:** the default fuzz rotation is the arm-table
//! prefix [`DEFAULT_ROTATION_LEN`] (`a1`, `a1-batched`, `a2`), and
//! [`StackRegistry::default_rotation`] never changes when arms are
//! appended — so the seed → (topology, arm) map of the default rotation,
//! and with it PR 4's golden engine fingerprints, is independent of how
//! many baseline arms the registry grows. Baseline arms join a sweep only
//! through an explicit subset (`scenario_fuzz --arms all`).

use crate::measure::{measure_broadcast_steady, measure_one_multicast};
use crate::scenario::{self, RunSpec, ScenarioOutcome, RETRY_INTERVAL};
use crate::workload::PlannedCast;
use std::fmt;
use std::io;
use std::sync::{Arc, OnceLock};
use std::time::Duration;
use wamcast_baselines::{
    fritzke_config, OptimisticBroadcast, RingMulticast, RodriguesMulticast, SequencerBroadcast,
    SkeenMulticast,
};
use wamcast_core::{GenuineMulticast, MulticastConfig, RoundBroadcast};
use wamcast_net::tcp::{self, Service, SharedDeliveries, TcpNode, TcpNodeConfig};
use wamcast_sim::{FaultPlan, InvariantProfile, NetConfig, RunMetrics};
use wamcast_types::wire::Wire;
use wamcast_types::{BatchConfig, Protocol, SimTime};

/// Arms `[0, DEFAULT_ROTATION_LEN)` of the table are the default fuzz
/// rotation — the three paper arms PR 4's golden fingerprints were
/// generated over. Appending arms after this prefix never perturbs the
/// default rotation's seed → arm map.
pub const DEFAULT_ROTATION_LEN: usize = 3;

/// What destination sets an arm's workload draws from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadShape {
    /// Genuine multicast: group pairs plus the all-groups set (bystander
    /// groups exercise genuineness).
    Multicast,
    /// Broadcast-only: every message goes to all groups.
    Broadcast,
}

/// The fault classes a stack stays live under — what
/// [`restrict`](Self::restrict) leaves in a compiled [`FaultPlan`] when
/// the fuzz harness hosts the arm. Duplication and latency spikes are
/// always kept: every hosted stack handles both idempotently.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultTolerance {
    /// Crashes, message loss, partitions, duplication, latency spikes —
    /// the stack has both crash recovery and a retransmission layer.
    Full,
    /// Crashes (plus duplication/spikes) but no loss or partitions: the
    /// stack recovers from crash-stop failures through its consensus
    /// substrate but has no end-to-end retransmission path.
    CrashOnly,
    /// Duplication and latency spikes only: the stack's own model is
    /// failure-free (Skeen, fixed-sequencer designs).
    FailureFree,
}

impl FaultTolerance {
    /// Strips the fault classes the arm does not tolerate out of a
    /// compiled plan, deterministically (pure filtering — no RNG).
    pub fn restrict(self, mut plan: FaultPlan) -> FaultPlan {
        match self {
            FaultTolerance::Full => plan,
            FaultTolerance::CrashOnly => {
                plan.drops.clear();
                plan.partitions.clear();
                plan
            }
            FaultTolerance::FailureFree => {
                plan.crashes.clear();
                plan.drops.clear();
                plan.partitions.clear();
                plan
            }
        }
    }
}

/// An arm's analytic Figure 1 latency degree, as a function of the number
/// of destination groups `k`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AnalyticDegree {
    /// A constant degree (most rows).
    Const(u64),
    /// `k + 1` (the ring's sequential group visits).
    KPlusOne,
}

impl AnalyticDegree {
    /// Evaluates the degree for `k` destination groups.
    pub fn eval(self, k: usize) -> u64 {
        match self {
            AnalyticDegree::Const(c) => c,
            AnalyticDegree::KPlusOne => k as u64 + 1,
        }
    }
}

impl fmt::Display for AnalyticDegree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalyticDegree::Const(c) => write!(f, "{c}"),
            AnalyticDegree::KPlusOne => write!(f, "k+1"),
        }
    }
}

/// Result of an arm's failure-free Figure 1 probe.
#[derive(Clone, Copy, Debug)]
pub struct ArmProbe {
    /// Measured latency degree of the probe message.
    pub degree: u64,
    /// Measured inter-group message copies attributable to the probe.
    pub inter_msgs: u64,
    /// Virtual-time delivery latency of the probe.
    pub wall: Duration,
}

type ScenarioRunner =
    Box<dyn Fn(&RunSpec, Option<u64>) -> (ScenarioOutcome, RunMetrics) + Send + Sync>;
type ProbeRunner = Box<dyn Fn(usize, usize, NetConfig) -> ArmProbe + Send + Sync>;
type TcpRunner =
    Box<dyn Fn(TcpNodeConfig, SharedDeliveries, Service) -> io::Result<TcpNode> + Send + Sync>;
type OpenLoopRunner = Box<
    dyn Fn(
            Arc<wamcast_types::Topology>,
            &[PlannedCast],
            u64,
            u64,
            SimTime,
        ) -> (Result<(), String>, RunMetrics)
        + Send
        + Sync,
>;

/// One named, constructible protocol stack. See the module docs; values
/// live only inside the process-wide [`StackRegistry`] table and are
/// always handled as `&'static ProtocolArm`.
///
/// # Example
///
/// Arms are looked up by name and drive everything arm-indexed — here the
/// failure-free Figure 1 probe, checked against the arm's own analytic
/// latency degree:
///
/// ```
/// use wamcast_harness::registry::StackRegistry;
/// use wamcast_sim::NetConfig;
///
/// let reg = StackRegistry::standard();
/// let a1 = reg.by_name("a1").expect("a1 is always registered");
/// assert_eq!(a1.name(), "a1");
/// let probe = a1.probe(3, 2, NetConfig::default()); // 3 groups × 2 processes
/// assert_eq!(probe.degree, a1.analytic_degree().eval(3));
/// ```
pub struct ProtocolArm {
    name: &'static str,
    algorithm: &'static str,
    workload: WorkloadShape,
    faults: FaultTolerance,
    profile: InvariantProfile,
    degree: AnalyticDegree,
    paper_msgs: &'static str,
    /// `None`: the arm cannot host the SMR service. `Some(batch)`: it can,
    /// with this consensus-amortization policy.
    smr: Option<Option<BatchConfig>>,
    run: ScenarioRunner,
    probe: ProbeRunner,
    tcp: TcpRunner,
    open_loop: OpenLoopRunner,
}

impl fmt::Debug for ProtocolArm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProtocolArm")
            .field("name", &self.name)
            .field("workload", &self.workload)
            .field("faults", &self.faults)
            .field("profile", &self.profile)
            .finish_non_exhaustive()
    }
}

impl ProtocolArm {
    /// Short stable name (tables, replay output, `--arms` values).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Figure 1-style display label (with the paper's reference number).
    pub fn algorithm(&self) -> &'static str {
        self.algorithm
    }

    /// The workload shape the arm's protocol expects.
    pub fn workload(&self) -> WorkloadShape {
        self.workload
    }

    /// The fault classes the arm is hosted under.
    pub fn faults(&self) -> FaultTolerance {
        self.faults
    }

    /// The invariant profile the arm's runs are checked against.
    pub fn profile(&self) -> InvariantProfile {
        self.profile
    }

    /// The analytic Figure 1 latency degree.
    pub fn analytic_degree(&self) -> AnalyticDegree {
        self.degree
    }

    /// The analytic inter-group message complexity class.
    pub fn paper_msgs(&self) -> &'static str {
        self.paper_msgs
    }

    /// The SMR hosting policy: `None` if the arm cannot host the KV
    /// service, otherwise the batch policy to run it with.
    pub fn smr_batch(&self) -> Option<Option<BatchConfig>> {
        self.smr
    }

    /// Runs one fuzz scenario on this arm (the fuzz stack: retry on where
    /// the arm supports it). `broken_every` injects the test-only
    /// delivery-dropping bug.
    pub fn run_scenario(
        &self,
        spec: &RunSpec,
        broken_every: Option<u64>,
    ) -> (ScenarioOutcome, RunMetrics) {
        (self.run)(spec, broken_every)
    }

    /// Runs the arm's failure-free Figure 1 probe (the paper-exact stack:
    /// no retransmission layer) on the symmetric `k`×`d` topology over
    /// `net`:
    ///
    /// ```
    /// use std::time::Duration;
    /// use wamcast_harness::StackRegistry;
    /// use wamcast_sim::NetConfig;
    ///
    /// let a1 = StackRegistry::standard().by_name("a1").unwrap();
    /// let probe = a1.probe(2, 2, NetConfig::wan(Duration::from_millis(50)));
    /// assert_eq!(probe.degree, 2);
    /// assert!(probe.wall < Duration::from_millis(101)); // two 50 ms hops
    /// ```
    pub fn probe(&self, k: usize, d: usize, net: NetConfig) -> ArmProbe {
        (self.probe)(k, d, net)
    }

    /// Runs this arm's paper-exact stack under an open-loop planned
    /// workload (arrivals do not wait for completions) and returns the raw
    /// run metrics — the open-loop cells derive their latency histograms
    /// from these after the fact, so recording never perturbs the schedule.
    ///
    /// A converged run is judged with
    /// [`check_with_profile`](wamcast_sim::invariants::check_with_profile)
    /// under the arm's [`profile`](Self::profile). `Err` carries either
    /// those violations or a liveness description (non-convergence by
    /// `deadline`, or `max_steps` budget exhaustion); the recorded metrics
    /// are returned either way so a failed cell can still be reported
    /// honestly.
    pub fn run_open_loop(
        &self,
        topo: Arc<wamcast_types::Topology>,
        plan: &[PlannedCast],
        seed: u64,
        max_steps: u64,
        deadline: SimTime,
    ) -> (Result<(), String>, RunMetrics) {
        (self.open_loop)(topo, plan, seed, max_steps, deadline)
    }

    /// Hosts this arm's fuzz stack (retransmission on, where the arm
    /// supports it) as one TCP-served node of a multi-process cluster.
    /// Every registered arm gets socket hosting through this one method —
    /// the same constructor closure the fuzz runner monomorphizes is what
    /// serves here, so an arm can never behave differently on sockets than
    /// under the simulator for construction reasons. `cfg.arm` should be
    /// [`StackRegistry::id_of`] for this arm so envelopes are stamped
    /// consistently cluster-wide.
    ///
    /// # Errors
    ///
    /// Returns any error binding the node's listen address.
    pub fn serve_tcp(
        &self,
        cfg: TcpNodeConfig,
        delivered: SharedDeliveries,
        service: Service,
    ) -> io::Result<TcpNode> {
        (self.tcp)(cfg, delivered, service)
    }
}

/// Metadata of one arm, separated from the constructors for readability
/// of the table below.
struct ArmMeta {
    name: &'static str,
    algorithm: &'static str,
    workload: WorkloadShape,
    faults: FaultTolerance,
    profile: InvariantProfile,
    degree: AnalyticDegree,
    paper_msgs: &'static str,
    smr: Option<Option<BatchConfig>>,
}

/// Builds one arm from its metadata and two constructors: `fuzz` (the
/// fault-hosted stack) and `probe` (the paper-exact stack, used for
/// measured-vs-analytic Figure 1 rows). This is the only monomorphization
/// point — every hosted protocol enters the registry through here.
fn arm<P, FF, PF>(meta: ArmMeta, fuzz: FF, probe: PF) -> ProtocolArm
where
    P: Protocol + Send + 'static,
    P::Msg: Wire,
    FF: Fn(wamcast_types::ProcessId, &wamcast_types::Topology) -> P + Send + Sync + 'static,
    PF: Fn(wamcast_types::ProcessId, &wamcast_types::Topology) -> P + Send + Sync + 'static,
{
    let (workload, profile) = (meta.workload, meta.profile);
    // The fuzz constructor is shared: the scenario runner and the TCP host
    // must build byte-identical stacks. The probe constructor is likewise
    // shared between the one-shot Figure 1 probe and the open-loop scale
    // runner — both measure the paper-exact stack.
    let fuzz = Arc::new(fuzz);
    let fuzz_tcp = Arc::clone(&fuzz);
    let probe = Arc::new(probe);
    let probe_open = Arc::clone(&probe);
    ProtocolArm {
        name: meta.name,
        algorithm: meta.algorithm,
        workload: meta.workload,
        faults: meta.faults,
        profile: meta.profile,
        degree: meta.degree,
        paper_msgs: meta.paper_msgs,
        smr: meta.smr,
        run: Box::new(move |spec, broken| scenario::drive_arm(spec, broken, |p, t| fuzz(p, t))),
        tcp: Box::new(move |cfg, delivered, service| {
            let proto = fuzz_tcp(cfg.me, &cfg.topo);
            tcp::serve(cfg, proto, delivered, service)
        }),
        open_loop: Box::new(move |topo, plan, seed, max_steps, deadline| {
            crate::scale::drive_open_loop(topo, plan, seed, max_steps, deadline, profile, |p, t| {
                probe_open(p, t)
            })
        }),
        probe: Box::new(move |k, d, net| match workload {
            WorkloadShape::Multicast => measure_one_multicast(k, d, |p, t| probe(p, t), net),
            WorkloadShape::Broadcast => {
                let r = measure_broadcast_steady(
                    k,
                    d,
                    |p, t| probe(p, t),
                    8,
                    Duration::from_millis(50),
                    net,
                );
                ArmProbe {
                    degree: r.probe_degree,
                    inter_msgs: r.probe_inter_msgs,
                    wall: r.probe_wall,
                }
            }
        }),
    }
}

/// One construction site for the paper's A1 stack. The claims file's
/// batching rows, the SMR service and the registry's `a1`/`a1-batched`
/// arms all build their [`MulticastConfig`] here, so policy knobs
/// (batching, retransmission) cannot drift between hosts.
pub fn a1_stack_config(batch: Option<BatchConfig>, retry: Option<Duration>) -> MulticastConfig {
    let mut cfg = MulticastConfig::default();
    if let Some(b) = batch {
        cfg = cfg.with_batch(b);
    }
    if let Some(r) = retry {
        cfg = cfg.with_retry(r);
    }
    cfg
}

/// The fuzz rotation's batch policy for the `a1-batched` arm (size 8,
/// 20 ms window) — also the arm's SMR policy.
fn batch8() -> BatchConfig {
    BatchConfig::new(8).with_max_delay(Duration::from_millis(20))
}

/// The process-wide table of hostable protocol stacks.
pub struct StackRegistry {
    arms: Vec<ProtocolArm>,
}

impl StackRegistry {
    /// The standard registry: the three paper arms (the default rotation
    /// prefix) followed by the executable Figure 1 baselines, Skeen first.
    /// Built once; every handle is `&'static`.
    pub fn standard() -> &'static StackRegistry {
        static REG: OnceLock<StackRegistry> = OnceLock::new();
        REG.get_or_init(|| StackRegistry {
            arms: vec![
                arm(
                    ArmMeta {
                        name: "a1",
                        algorithm: "Algorithm A1 (this paper)",
                        workload: WorkloadShape::Multicast,
                        faults: FaultTolerance::Full,
                        profile: InvariantProfile::GENUINE_UNIFORM,
                        degree: AnalyticDegree::Const(2),
                        paper_msgs: "O(k^2 d^2)",
                        smr: Some(None),
                    },
                    |p, t| GenuineMulticast::new(p, t, a1_stack_config(None, Some(RETRY_INTERVAL))),
                    |p, t| GenuineMulticast::new(p, t, a1_stack_config(None, None)),
                ),
                arm(
                    ArmMeta {
                        name: "a1-batched",
                        algorithm: "Algorithm A1, batched (this paper)",
                        workload: WorkloadShape::Multicast,
                        faults: FaultTolerance::Full,
                        profile: InvariantProfile::GENUINE_UNIFORM,
                        degree: AnalyticDegree::Const(2),
                        paper_msgs: "O(k^2 d^2)",
                        smr: Some(Some(batch8())),
                    },
                    |p, t| {
                        GenuineMulticast::new(
                            p,
                            t,
                            a1_stack_config(Some(batch8()), Some(RETRY_INTERVAL)),
                        )
                    },
                    |p, t| GenuineMulticast::new(p, t, a1_stack_config(Some(batch8()), None)),
                ),
                arm(
                    ArmMeta {
                        name: "a2",
                        algorithm: "Algorithm A2 (this paper)",
                        workload: WorkloadShape::Broadcast,
                        faults: FaultTolerance::Full,
                        profile: InvariantProfile::BROADCAST_UNIFORM,
                        degree: AnalyticDegree::Const(1),
                        paper_msgs: "O(n^2)",
                        smr: Some(Some(
                            BatchConfig::new(16).with_max_delay(Duration::from_millis(10)),
                        )),
                    },
                    |p, t| {
                        RoundBroadcast::with_pacing(p, t, Duration::from_millis(10))
                            .with_retry(RETRY_INTERVAL)
                    },
                    |p, t| RoundBroadcast::with_pacing(p, t, Duration::from_millis(10)),
                ),
                arm(
                    ArmMeta {
                        name: "skeen",
                        algorithm: "[2] Skeen (failure-free)",
                        workload: WorkloadShape::Multicast,
                        faults: FaultTolerance::FailureFree,
                        profile: InvariantProfile::GENUINE_UNIFORM,
                        degree: AnalyticDegree::Const(2),
                        paper_msgs: "O(k^2 d^2)",
                        smr: None,
                    },
                    |p, _| SkeenMulticast::new(p),
                    |p, _| SkeenMulticast::new(p),
                ),
                arm(
                    ArmMeta {
                        name: "fritzke",
                        algorithm: "[5] Fritzke et al.",
                        workload: WorkloadShape::Multicast,
                        faults: FaultTolerance::Full,
                        profile: InvariantProfile::GENUINE_UNIFORM,
                        degree: AnalyticDegree::Const(2),
                        paper_msgs: "O(k^2 d^2)",
                        smr: None,
                    },
                    |p, t| GenuineMulticast::new(p, t, fritzke_config().with_retry(RETRY_INTERVAL)),
                    |p, t| GenuineMulticast::new(p, t, fritzke_config()),
                ),
                arm(
                    ArmMeta {
                        name: "ring",
                        algorithm: "[4] Delporte-G. & Fauconnier (ring)",
                        workload: WorkloadShape::Multicast,
                        faults: FaultTolerance::Full,
                        profile: InvariantProfile::GENUINE_UNIFORM,
                        degree: AnalyticDegree::KPlusOne,
                        paper_msgs: "O(kd^2)",
                        smr: None,
                    },
                    |p, t| RingMulticast::new(p, t).with_retry(RETRY_INTERVAL),
                    RingMulticast::new,
                ),
                arm(
                    ArmMeta {
                        name: "rodrigues",
                        algorithm: "[10] Rodrigues et al.",
                        workload: WorkloadShape::Multicast,
                        faults: FaultTolerance::CrashOnly,
                        profile: InvariantProfile::GENUINE_NONUNIFORM,
                        degree: AnalyticDegree::Const(4),
                        paper_msgs: "O(k^2 d^2)",
                        smr: None,
                    },
                    |p, _| RodriguesMulticast::new(p),
                    |p, _| RodriguesMulticast::new(p),
                ),
                arm(
                    ArmMeta {
                        name: "sequencer",
                        algorithm: "[13] Vicente & Rodrigues (sequencers)",
                        workload: WorkloadShape::Broadcast,
                        faults: FaultTolerance::FailureFree,
                        profile: InvariantProfile::BROADCAST_UNIFORM,
                        degree: AnalyticDegree::Const(2),
                        paper_msgs: "O(n^2)",
                        smr: None,
                    },
                    |p, _| SequencerBroadcast::new(p),
                    |p, _| SequencerBroadcast::new(p),
                ),
                arm(
                    ArmMeta {
                        name: "optimistic",
                        algorithm: "[12] Sousa et al. (optimistic, non-uniform)",
                        workload: WorkloadShape::Broadcast,
                        faults: FaultTolerance::FailureFree,
                        profile: InvariantProfile::BROADCAST_NONUNIFORM,
                        degree: AnalyticDegree::Const(2),
                        paper_msgs: "O(n)",
                        smr: None,
                    },
                    |p, _| OptimisticBroadcast::new(p, Duration::from_millis(5)),
                    |p, _| OptimisticBroadcast::new(p, Duration::from_millis(5)),
                ),
            ],
        })
    }

    /// Every registered arm, in table order (default rotation first).
    pub fn arms(&'static self) -> impl Iterator<Item = &'static ProtocolArm> {
        self.arms.iter()
    }

    /// The default fuzz rotation: the paper arms PR 4's goldens pin. This
    /// list is *fixed* — appending baseline arms to the registry never
    /// changes it, which is what keeps existing seeds' (topology, arm)
    /// assignments stable.
    pub fn default_rotation(&'static self) -> Vec<&'static ProtocolArm> {
        self.arms[..DEFAULT_ROTATION_LEN].iter().collect()
    }

    /// Every arm, as a rotation list (`--arms all`).
    pub fn all(&'static self) -> Vec<&'static ProtocolArm> {
        self.arms.iter().collect()
    }

    /// The arms able to host the SMR service (the paper arms).
    pub fn smr_rotation(&'static self) -> Vec<&'static ProtocolArm> {
        self.arms.iter().filter(|a| a.smr.is_some()).collect()
    }

    /// Looks an arm up by its short name.
    pub fn by_name(&'static self, name: &str) -> Option<&'static ProtocolArm> {
        self.arms.iter().find(|a| a.name == name)
    }

    /// The wire arm id of `arm`: its registry table index, stamped into
    /// every TCP envelope so peers of different arms reject each other's
    /// traffic at decode time. Stable as long as arms are only appended
    /// (the same growth invariant the default rotation relies on).
    ///
    /// # Panics
    ///
    /// Panics if `arm` is not a handle from this registry.
    pub fn id_of(&'static self, arm: &'static ProtocolArm) -> u8 {
        self.arms
            .iter()
            .position(|a| std::ptr::eq(a, arm))
            .expect("arm handle from a different registry") as u8
    }

    /// Resolves a wire arm id back to its registry arm.
    pub fn by_id(&'static self, id: u8) -> Option<&'static ProtocolArm> {
        self.arms.get(id as usize)
    }

    /// Parses a `--arms` value: `default`, `all`, or a comma-separated
    /// list of arm names (e.g. `a1,ring,skeen`).
    ///
    /// # Errors
    ///
    /// Returns a message naming the unknown arm (and the valid names) for
    /// anything else.
    pub fn subset(&'static self, spec: &str) -> Result<Vec<&'static ProtocolArm>, String> {
        match spec {
            "default" => Ok(self.default_rotation()),
            "all" => Ok(self.all()),
            list => list
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(|name| {
                    self.by_name(name).ok_or_else(|| {
                        let known: Vec<&str> = self.arms.iter().map(|a| a.name).collect();
                        format!(
                            "unknown arm {name} (valid: {}, all, default)",
                            known.join(", ")
                        )
                    })
                })
                .collect::<Result<Vec<_>, _>>()
                .and_then(|arms| {
                    if arms.is_empty() {
                        Err("--arms: empty arm list".to_string())
                    } else {
                        Ok(arms)
                    }
                }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_rotation_is_the_fixed_paper_prefix() {
        let reg = StackRegistry::standard();
        let names: Vec<&str> = reg.default_rotation().iter().map(|a| a.name()).collect();
        assert_eq!(names, ["a1", "a1-batched", "a2"]);
        // Growth invariant: the registry has more arms, but the default
        // rotation must never see them.
        assert!(reg.arms().count() > DEFAULT_ROTATION_LEN);
    }

    #[test]
    fn skeen_is_the_first_baseline_arm() {
        let reg = StackRegistry::standard();
        let all = reg.all();
        assert_eq!(all[DEFAULT_ROTATION_LEN].name(), "skeen");
    }

    #[test]
    fn subset_parsing() {
        let reg = StackRegistry::standard();
        assert_eq!(reg.subset("default").unwrap().len(), 3);
        assert_eq!(reg.subset("all").unwrap().len(), reg.arms().count());
        let picked = reg.subset("ring, a1").unwrap();
        assert_eq!(picked[0].name(), "ring");
        assert_eq!(picked[1].name(), "a1");
        assert!(reg.subset("nope").unwrap_err().contains("unknown arm"));
        assert!(reg.subset(",").is_err());
    }

    #[test]
    fn smr_rotation_is_exactly_the_paper_arms() {
        let reg = StackRegistry::standard();
        let names: Vec<&str> = reg.smr_rotation().iter().map(|a| a.name()).collect();
        assert_eq!(names, ["a1", "a1-batched", "a2"]);
    }

    #[test]
    fn fault_restriction_strips_what_arms_cannot_host() {
        let plan = FaultPlan::none()
            .with_crash(SimTime::from_millis(1), wamcast_types::ProcessId(0))
            .with_drop(
                wamcast_types::ProcessId(0),
                wamcast_types::ProcessId(1),
                0.5,
            )
            .with_partition(
                &[wamcast_types::ProcessId(0)],
                SimTime::ZERO,
                SimTime::from_millis(5),
            )
            .with_duplication(0.5, SimTime::ZERO, SimTime::from_millis(5))
            .with_latency_spike(2.0, SimTime::ZERO, SimTime::from_millis(5));
        let full = FaultTolerance::Full.restrict(plan.clone());
        assert_eq!(full, plan);
        let crash_only = FaultTolerance::CrashOnly.restrict(plan.clone());
        assert_eq!(crash_only.crashes.len(), 1);
        assert!(crash_only.drops.is_empty() && crash_only.partitions.is_empty());
        assert_eq!(crash_only.duplicates.len(), 1);
        assert_eq!(crash_only.spikes.len(), 1);
        let quiet = FaultTolerance::FailureFree.restrict(plan);
        assert!(quiet.crashes.is_empty());
        assert_eq!(quiet.duplicates.len(), 1);
    }

    #[test]
    fn arm_ids_roundtrip_through_the_table() {
        let reg = StackRegistry::standard();
        for arm in reg.arms() {
            let id = reg.id_of(arm);
            assert!(std::ptr::eq(reg.by_id(id).expect("id resolves"), arm));
        }
        assert!(reg.by_id(reg.arms().count() as u8).is_none());
    }

    #[test]
    fn every_arm_is_tcp_hostable() {
        // Socket hosting comes for free through the single `arm()`
        // monomorphization point: each registered arm must serve on a real
        // listener and shut down cleanly.
        use std::sync::Mutex;
        use wamcast_net::tcp::null_service;
        let reg = StackRegistry::standard();
        let topo = std::sync::Arc::new(wamcast_types::Topology::symmetric(1, 1));
        for arm in reg.arms() {
            let node = arm
                .serve_tcp(
                    TcpNodeConfig {
                        me: wamcast_types::ProcessId(0),
                        topo: std::sync::Arc::clone(&topo),
                        addrs: vec!["127.0.0.1:0".parse().expect("addr")],
                        arm: reg.id_of(arm),
                        faults: None,
                        trace: None,
                    },
                    std::sync::Arc::new(Mutex::new(Vec::new())),
                    null_service(),
                )
                .unwrap_or_else(|e| panic!("arm {} failed to serve: {e}", arm.name()));
            assert_ne!(node.local_addr().port(), 0);
            node.shutdown();
        }
    }

    #[test]
    fn analytic_degrees_evaluate() {
        assert_eq!(AnalyticDegree::Const(2).eval(4), 2);
        assert_eq!(AnalyticDegree::KPlusOne.eval(4), 5);
        assert_eq!(AnalyticDegree::KPlusOne.to_string(), "k+1");
    }
}
