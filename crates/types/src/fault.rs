//! Deterministic fault injection: the [`FaultPlan`] adversary.
//!
//! The paper's algorithms are proved correct over crash-stop processes and
//! quasi-reliable links; their interesting behavior — Paxos recovery
//! ballots, `on_crash_notification` relays, retransmission — only shows
//! *under failures*. This module defines a declarative, runtime-agnostic
//! adversary:
//!
//! * [`FaultPlan`] — a concrete schedule of faults: crash-at times, per
//!   directed-pair link-drop probabilities, partition/heal windows, message
//!   duplication and latency spikes, each scoped to a [`FaultWindow`];
//! * [`FaultConfig`] — a *distribution* over plans; [`FaultConfig::compile`]
//!   turns `(config, topology, seed)` into a concrete plan, deterministically
//!   and respecting liveness preconditions (per-group crash minorities,
//!   bounded fault horizons);
//! * [`FaultInjector`] — the runtime state: given one message copy
//!   `(from, to, now)` it returns a [`LinkFate`] (deliver / drop / duplicate
//!   / delay factor), drawing from its own [`SplitMix64`] stream so fault
//!   decisions never perturb the host's main schedule stream.
//!
//! Both runtimes consume the same adversary: the discrete-event simulator
//! applies fates at delivery-scheduling time (virtual time), and the
//! socket runtime (`wamcast-net`) applies them at send time (wall-clock
//! offsets). A simulated run therefore stays a pure function of
//! `(topology, config, workload, seed)` — every fuzzed failure reproduces
//! bit-for-bit from its seed and [`FaultPlan::fingerprint`].
//!
//! # Semantics
//!
//! * **Crashes** are schedule entries `(at, process)`; the host kills the
//!   process and drives its ◇P oracle as for manual crash injection.
//! * **Drops** apply per message *copy* on a directed process pair while the
//!   rule's window is active; multiple matching rules compound.
//! * **Partitions** split the process set in two sides for a window; every
//!   copy crossing the cut is dropped (both directions) until the window
//!   closes ("heals").
//! * **Duplication** delivers a second copy of a surviving message, delayed
//!   by a random extra fraction of the link latency.
//! * **Latency spikes** multiply the sampled link delay while active.
//! * **Self-sends** (`from == to`) model process-local hand-offs, not
//!   network traffic: no fault ever applies to them.
//!
//! # Example
//!
//! ```
//! use wamcast_types::{FaultInjector, FaultPlan, ProcessId, SimTime};
//!
//! let plan = FaultPlan::none()
//!     .with_crash(SimTime::from_millis(50), ProcessId(3))
//!     .with_drop_during(
//!         ProcessId(0),
//!         ProcessId(1),
//!         1.0,
//!         SimTime::ZERO,
//!         SimTime::from_millis(10),
//!     );
//! let mut inj = FaultInjector::new(plan, 7);
//! // Inside the window the 0 -> 1 link drops everything…
//! assert!(inj.on_send(ProcessId(0), ProcessId(1), SimTime::from_millis(5)).dropped);
//! // …after it heals, copies flow again.
//! assert!(!inj.on_send(ProcessId(0), ProcessId(1), SimTime::from_millis(20)).dropped);
//! ```

use crate::{ProcessId, SimTime, SplitMix64, Topology};
use std::time::Duration;

/// Half-open interval of activity `[from, until)` for one fault rule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultWindow {
    /// First instant at which the rule applies.
    pub from: SimTime,
    /// First instant at which it no longer applies.
    pub until: SimTime,
}

impl FaultWindow {
    /// Builds `[from, until)`.
    pub fn new(from: SimTime, until: SimTime) -> Self {
        FaultWindow { from, until }
    }

    /// Whether `t` falls inside the window.
    #[inline]
    pub fn contains(&self, t: SimTime) -> bool {
        self.from <= t && t < self.until
    }
}

/// Per directed-pair probabilistic message loss.
#[derive(Clone, Debug, PartialEq)]
pub struct DropRule {
    /// Sending process.
    pub from: ProcessId,
    /// Receiving process.
    pub to: ProcessId,
    /// Per-copy drop probability in `[0, 1]`.
    pub prob: f64,
    /// When the rule is active.
    pub window: FaultWindow,
}

/// A network partition: copies crossing between `side` and its complement
/// are dropped while the window is active; the partition heals when it ends.
#[derive(Clone, Debug, PartialEq)]
pub struct PartitionRule {
    /// One side of the cut (the other side is the complement).
    pub side: Vec<ProcessId>,
    /// When the partition is in force.
    pub window: FaultWindow,
}

/// Probabilistic duplication of surviving copies.
#[derive(Clone, Debug, PartialEq)]
pub struct DuplicateRule {
    /// Per-copy duplication probability in `[0, 1]`.
    pub prob: f64,
    /// When the rule is active.
    pub window: FaultWindow,
}

/// Multiplies sampled link delays while active (WAN congestion burst).
#[derive(Clone, Debug, PartialEq)]
pub struct SpikeRule {
    /// Delay multiplier (`>= 1.0`).
    pub factor: f64,
    /// When the spike is in force.
    pub window: FaultWindow,
}

/// A concrete, declarative fault schedule (see the module docs).
///
/// Plans are plain data: build one with the `with_*` combinators, compile
/// one from a seed with [`FaultConfig::compile`], or ship one to either
/// runtime. [`FaultPlan::none`] is the identity adversary; hosts treat it as
/// "no fault layer at all" (the zero-fault fast path is byte-identical to a
/// run without fault injection — guarded by a property test in
/// `wamcast-sim`).
///
/// ```
/// use wamcast_types::{FaultPlan, ProcessId, SimTime};
///
/// // Crash p2 at t=80ms, and partition {p0, p1} away from everyone else
/// // for the first 50ms (the cut heals when the window closes).
/// let plan = FaultPlan::none()
///     .with_crash(SimTime::from_millis(80), ProcessId(2))
///     .with_partition(
///         &[ProcessId(0), ProcessId(1)],
///         SimTime::ZERO,
///         SimTime::from_millis(50),
///     );
/// assert!(!plan.is_none());
///
/// // Plans are plain data with a canonical fingerprint: the same
/// // combinators always rebuild the same adversary, which is what a
/// // `--replay --plan-hash` line checks against.
/// let again = FaultPlan::none()
///     .with_crash(SimTime::from_millis(80), ProcessId(2))
///     .with_partition(
///         &[ProcessId(0), ProcessId(1)],
///         SimTime::ZERO,
///         SimTime::from_millis(50),
///     );
/// assert_eq!(plan.fingerprint(), again.fingerprint());
/// assert_ne!(plan.fingerprint(), FaultPlan::none().fingerprint());
/// ```
#[derive(Clone, Debug, PartialEq, Default)]
pub struct FaultPlan {
    /// Scheduled crash-stop failures.
    pub crashes: Vec<(SimTime, ProcessId)>,
    /// Probabilistic loss rules.
    pub drops: Vec<DropRule>,
    /// Partition/heal windows.
    pub partitions: Vec<PartitionRule>,
    /// Duplication rules.
    pub duplicates: Vec<DuplicateRule>,
    /// Latency-spike rules.
    pub spikes: Vec<SpikeRule>,
}

impl FaultPlan {
    /// The empty plan: no faults whatsoever.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Whether the plan injects nothing (hosts skip the fault layer
    /// entirely, keeping the zero-fault path byte-identical).
    pub fn is_none(&self) -> bool {
        self.crashes.is_empty()
            && self.drops.is_empty()
            && self.partitions.is_empty()
            && self.duplicates.is_empty()
            && self.spikes.is_empty()
    }

    /// Schedules a crash of `p` at `at`.
    #[must_use]
    pub fn with_crash(mut self, at: SimTime, p: ProcessId) -> Self {
        self.crashes.push((at, p));
        self
    }

    /// Drops copies on the directed link `from -> to` with probability
    /// `prob`, forever.
    #[must_use]
    pub fn with_drop(self, from: ProcessId, to: ProcessId, prob: f64) -> Self {
        self.with_drop_during(from, to, prob, SimTime::ZERO, SimTime::MAX)
    }

    /// Drops copies on the directed link `from -> to` with probability
    /// `prob` while `start <= now < until`.
    #[must_use]
    pub fn with_drop_during(
        mut self,
        from: ProcessId,
        to: ProcessId,
        prob: f64,
        start: SimTime,
        until: SimTime,
    ) -> Self {
        self.drops.push(DropRule {
            from,
            to,
            prob,
            window: FaultWindow::new(start, until),
        });
        self
    }

    /// Partitions `side` from the rest of the system during
    /// `[start, until)`; the cut heals at `until`.
    #[must_use]
    pub fn with_partition(mut self, side: &[ProcessId], start: SimTime, until: SimTime) -> Self {
        let mut side = side.to_vec();
        side.sort_unstable();
        side.dedup();
        self.partitions.push(PartitionRule {
            side,
            window: FaultWindow::new(start, until),
        });
        self
    }

    /// Duplicates surviving copies with probability `prob` during
    /// `[start, until)`.
    #[must_use]
    pub fn with_duplication(mut self, prob: f64, start: SimTime, until: SimTime) -> Self {
        self.duplicates.push(DuplicateRule {
            prob,
            window: FaultWindow::new(start, until),
        });
        self
    }

    /// Multiplies link delays by `factor` during `[start, until)`.
    #[must_use]
    pub fn with_latency_spike(mut self, factor: f64, start: SimTime, until: SimTime) -> Self {
        self.spikes.push(SpikeRule {
            factor,
            window: FaultWindow::new(start, until),
        });
        self
    }

    /// A stable 64-bit fingerprint of the plan, printed in replay lines
    /// (`--plan-hash`) so a reproduced run can prove it rebuilt the same
    /// adversary. FNV-1a over a canonical field encoding.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        h.u64(self.crashes.len() as u64);
        for &(at, p) in &self.crashes {
            h.u64(at.as_nanos());
            h.u64(u64::from(p.0));
        }
        h.u64(self.drops.len() as u64);
        for d in &self.drops {
            h.u64(u64::from(d.from.0));
            h.u64(u64::from(d.to.0));
            h.u64(d.prob.to_bits());
            h.window(d.window);
        }
        h.u64(self.partitions.len() as u64);
        for p in &self.partitions {
            h.u64(p.side.len() as u64);
            for q in &p.side {
                h.u64(u64::from(q.0));
            }
            h.window(p.window);
        }
        h.u64(self.duplicates.len() as u64);
        for d in &self.duplicates {
            h.u64(d.prob.to_bits());
            h.window(d.window);
        }
        h.u64(self.spikes.len() as u64);
        for s in &self.spikes {
            h.u64(s.factor.to_bits());
            h.window(s.window);
        }
        h.finish()
    }

    /// The last instant at which any non-crash rule can still act (`None`
    /// when a rule is unbounded). Useful for choosing run deadlines: after
    /// this instant plus detection/retransmission time, a live protocol
    /// must converge.
    pub fn fault_horizon(&self) -> Option<SimTime> {
        let mut horizon = SimTime::ZERO;
        let windows = self
            .drops
            .iter()
            .map(|d| d.window)
            .chain(self.partitions.iter().map(|p| p.window))
            .chain(self.duplicates.iter().map(|d| d.window))
            .chain(self.spikes.iter().map(|s| s.window));
        for w in windows {
            if w.until == SimTime::MAX {
                return None;
            }
            horizon = horizon.max(w.until);
        }
        Some(horizon)
    }
}

/// Tiny FNV-1a accumulator for [`FaultPlan::fingerprint`].
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn window(&mut self, w: FaultWindow) {
        self.u64(w.from.as_nanos());
        self.u64(w.until.as_nanos());
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The fate of one message copy, decided by [`FaultInjector::on_send`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkFate {
    /// The copy never arrives.
    pub dropped: bool,
    /// A second copy arrives, delayed by this extra fraction of the link
    /// latency (`None` = no duplicate).
    pub duplicate: Option<f64>,
    /// Multiplier applied to the sampled link delay (`1.0` = unchanged).
    pub delay_factor: f64,
}

impl LinkFate {
    /// The fate of an unmolested copy.
    pub const CLEAN: LinkFate = LinkFate {
        dropped: false,
        duplicate: None,
        delay_factor: 1.0,
    };
}

/// Runtime state of the adversary: a [`FaultPlan`] plus the deterministic
/// stream driving its probabilistic rules.
///
/// The stream is seeded from `(host seed, plan fingerprint)` so that equal
/// `(plan, seed)` pairs replay identical fault sequences, while the host's
/// own generator (latency jitter, workloads) is never consumed by fault
/// decisions.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: SplitMix64,
    /// Per-directed-pair index over `plan.drops`: `(from, to)` → the
    /// matching rules' `(window, prob)`. `on_send` runs once per message
    /// copy — the hottest fault-layer path — and with the index it walks
    /// only the rules that can apply to this link instead of every drop
    /// rule in the plan. Built once at construction; the fate stream is
    /// bit-identical to the full-scan version (same rules, same order,
    /// same draws).
    drop_index: crate::FxHashMap<(ProcessId, ProcessId), Vec<(FaultWindow, f64)>>,
}

impl FaultInjector {
    /// Builds the injector for `plan`, mixing `seed` into its private
    /// stream.
    pub fn new(plan: FaultPlan, seed: u64) -> Self {
        let rng = SplitMix64::new(seed ^ plan.fingerprint() ^ 0xFA17_1A7E_D05E_ED5E);
        let mut drop_index: crate::FxHashMap<(ProcessId, ProcessId), Vec<(FaultWindow, f64)>> =
            crate::FxHashMap::default();
        for d in &plan.drops {
            drop_index
                .entry((d.from, d.to))
                .or_default()
                .push((d.window, d.prob));
        }
        FaultInjector {
            plan,
            rng,
            drop_index,
        }
    }

    /// The plan being executed.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Decides the fate of one copy sent `from -> to` at `now`. Self-sends
    /// are never faulted. Draw order is fixed (drop, then duplication), so
    /// fates replay exactly for a given `(plan, seed)`.
    pub fn on_send(&mut self, from: ProcessId, to: ProcessId, now: SimTime) -> LinkFate {
        if from == to {
            return LinkFate::CLEAN;
        }
        // Partitions drop deterministically — no randomness consumed.
        for p in &self.plan.partitions {
            if p.window.contains(now)
                && p.side.binary_search(&from).is_ok() != p.side.binary_search(&to).is_ok()
            {
                return LinkFate {
                    dropped: true,
                    ..LinkFate::CLEAN
                };
            }
        }
        // Matching drop rules compound: survive all of them or vanish.
        let mut survive = 1.0f64;
        if let Some(rules) = self.drop_index.get(&(from, to)) {
            for (window, prob) in rules {
                if window.contains(now) {
                    survive *= 1.0 - prob.clamp(0.0, 1.0);
                }
            }
        }
        if survive < 1.0 && self.rng.next_f64() >= survive {
            return LinkFate {
                dropped: true,
                ..LinkFate::CLEAN
            };
        }
        let mut fate = LinkFate::CLEAN;
        for d in &self.plan.duplicates {
            if fate.duplicate.is_none() && d.window.contains(now) && self.rng.next_f64() < d.prob {
                fate.duplicate = Some(self.rng.next_f64());
            }
        }
        for s in &self.plan.spikes {
            if s.window.contains(now) {
                fate.delay_factor = fate.delay_factor.max(s.factor.max(1.0));
            }
        }
        fate
    }
}

/// A distribution over [`FaultPlan`]s: knobs bounding what
/// [`compile`](FaultConfig::compile) may generate. The scenario-fuzz
/// harness sweeps seeds through one config; every generated plan respects
/// the liveness preconditions of the paper's algorithms (each group keeps a
/// correct majority; every probabilistic rule's window closes by
/// [`fault_horizon`](Self::fault_horizon), after which links are clean and
/// retransmission converges).
#[derive(Clone, Debug, PartialEq)]
pub struct FaultConfig {
    /// Upper bound on scheduled crashes (further capped so every group
    /// keeps a strict majority of correct members).
    pub max_crashes: usize,
    /// Crashes are scheduled in `[0, crash_horizon)`.
    pub crash_horizon: Duration,
    /// Upper bound on lossy directed pairs.
    pub max_lossy_links: usize,
    /// Upper bound on each lossy pair's drop probability.
    pub max_drop_prob: f64,
    /// Upper bound on partition windows.
    pub max_partitions: usize,
    /// Upper bound on duplication rules.
    pub max_duplicate_rules: usize,
    /// Upper bound on each duplication rule's probability.
    pub max_dup_prob: f64,
    /// Upper bound on latency-spike rules.
    pub max_spikes: usize,
    /// Upper bound on a spike's delay multiplier.
    pub max_spike_factor: f64,
    /// Every probabilistic rule's window closes by this instant.
    pub fault_horizon: Duration,
}

impl Default for FaultConfig {
    /// The scenario-fuzz defaults: aggressive but liveness-preserving.
    fn default() -> Self {
        FaultConfig {
            max_crashes: 2,
            crash_horizon: Duration::from_millis(1500),
            max_lossy_links: 6,
            max_drop_prob: 0.8,
            max_partitions: 1,
            max_duplicate_rules: 2,
            max_dup_prob: 0.5,
            max_spikes: 2,
            max_spike_factor: 8.0,
            fault_horizon: Duration::from_secs(3),
        }
    }
}

impl FaultConfig {
    /// A config that generates only empty plans (useful as a control arm).
    pub fn quiet() -> Self {
        FaultConfig {
            max_crashes: 0,
            max_lossy_links: 0,
            max_partitions: 0,
            max_duplicate_rules: 0,
            max_spikes: 0,
            ..FaultConfig::default()
        }
    }

    /// Compiles a concrete [`FaultPlan`] for `topo` from `seed`,
    /// deterministically. Equal `(config, topo, seed)` triples yield equal
    /// plans (hence equal [`FaultPlan::fingerprint`]s).
    pub fn compile(&self, topo: &Topology, seed: u64) -> FaultPlan {
        let mut rng = SplitMix64::new(seed ^ 0x00C0_4F16_F022);
        let mut plan = FaultPlan::none();
        let horizon = SimTime::ZERO + self.fault_horizon;
        let n = topo.num_processes() as u64;

        // Crashes, respecting each group's strict correct majority: a group
        // of d members tolerates floor((d-1)/2) failures before consensus
        // (and hence delivery to that group) can no longer progress.
        let mut crashed_per_group = vec![0usize; topo.num_groups()];
        let budget = rng.next_below(self.max_crashes as u64 + 1) as usize;
        let mut scheduled = 0usize;
        let mut attempts = 0;
        while scheduled < budget && attempts < 16 {
            attempts += 1;
            let p = ProcessId(rng.next_below(n) as u32);
            let g = topo.group_of(p);
            let d = topo.members(g).len();
            let tolerance = (d - 1) / 2;
            if crashed_per_group[g.0 as usize] >= tolerance {
                continue;
            }
            if plan.crashes.iter().any(|&(_, q)| q == p) {
                continue;
            }
            crashed_per_group[g.0 as usize] += 1;
            scheduled += 1;
            let at = SimTime::from_nanos(rng.next_below(self.crash_horizon.as_nanos() as u64 + 1));
            plan = plan.with_crash(at, p);
        }

        // The windowed rules need at least one instant inside the horizon
        // and at least one link to fault; degenerate configs (zero
        // fault_horizon, single-process topology) just get crash-only
        // plans instead of panicking in `next_below`.
        if horizon == SimTime::ZERO || n < 2 {
            return plan;
        }
        let window = |rng: &mut SplitMix64| {
            let a = rng.next_below(horizon.as_nanos());
            let b = rng.next_below(horizon.as_nanos());
            FaultWindow::new(
                SimTime::from_nanos(a.min(b)),
                SimTime::from_nanos(a.max(b) + 1),
            )
        };

        for _ in 0..rng.next_below(self.max_lossy_links as u64 + 1) {
            let from = ProcessId(rng.next_below(n) as u32);
            let to = ProcessId(rng.next_below(n) as u32);
            if from == to {
                continue;
            }
            let prob = rng.next_f64() * self.max_drop_prob;
            let w = window(&mut rng);
            plan = plan.with_drop_during(from, to, prob, w.from, w.until);
        }

        for _ in 0..rng.next_below(self.max_partitions as u64 + 1) {
            // A non-empty strict subset of the processes.
            let size = 1 + rng.next_below(n - 1);
            let mut side: Vec<ProcessId> = topo.processes().collect();
            // Deterministic Fisher–Yates prefix selection.
            for i in 0..size as usize {
                let j = i + rng.next_below((side.len() - i) as u64) as usize;
                side.swap(i, j);
            }
            side.truncate(size as usize);
            let w = window(&mut rng);
            plan = plan.with_partition(&side, w.from, w.until);
        }

        for _ in 0..rng.next_below(self.max_duplicate_rules as u64 + 1) {
            let prob = rng.next_f64() * self.max_dup_prob;
            let w = window(&mut rng);
            plan = plan.with_duplication(prob, w.from, w.until);
        }

        for _ in 0..rng.next_below(self.max_spikes as u64 + 1) {
            let factor = 1.0 + rng.next_f64() * (self.max_spike_factor - 1.0).max(0.0);
            let w = window(&mut rng);
            plan = plan.with_latency_spike(factor, w.from, w.until);
        }

        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GroupId;

    #[test]
    fn none_is_none_and_fates_are_clean() {
        let plan = FaultPlan::none();
        assert!(plan.is_none());
        let mut inj = FaultInjector::new(plan, 1);
        for t in 0..100 {
            let fate = inj.on_send(ProcessId(0), ProcessId(1), SimTime::from_millis(t));
            assert_eq!(fate, LinkFate::CLEAN);
        }
    }

    #[test]
    fn self_sends_are_never_faulted() {
        let plan = FaultPlan::none()
            .with_drop(ProcessId(0), ProcessId(0), 1.0)
            .with_partition(&[ProcessId(0)], SimTime::ZERO, SimTime::MAX);
        let mut inj = FaultInjector::new(plan, 2);
        let fate = inj.on_send(ProcessId(0), ProcessId(0), SimTime::ZERO);
        assert_eq!(fate, LinkFate::CLEAN);
    }

    #[test]
    fn certain_drop_window_drops_exactly_inside() {
        let plan = FaultPlan::none().with_drop_during(
            ProcessId(0),
            ProcessId(1),
            1.0,
            SimTime::from_millis(10),
            SimTime::from_millis(20),
        );
        let mut inj = FaultInjector::new(plan, 3);
        assert!(
            !inj.on_send(ProcessId(0), ProcessId(1), SimTime::from_millis(9))
                .dropped
        );
        assert!(
            inj.on_send(ProcessId(0), ProcessId(1), SimTime::from_millis(10))
                .dropped
        );
        assert!(
            inj.on_send(ProcessId(0), ProcessId(1), SimTime::from_millis(19))
                .dropped
        );
        assert!(
            !inj.on_send(ProcessId(0), ProcessId(1), SimTime::from_millis(20))
                .dropped
        );
        // The reverse direction is untouched.
        assert!(
            !inj.on_send(ProcessId(1), ProcessId(0), SimTime::from_millis(15))
                .dropped
        );
    }

    #[test]
    fn partition_cuts_both_directions_until_heal() {
        let heal = SimTime::from_millis(100);
        let plan =
            FaultPlan::none().with_partition(&[ProcessId(0), ProcessId(2)], SimTime::ZERO, heal);
        let mut inj = FaultInjector::new(plan, 4);
        let t = SimTime::from_millis(50);
        assert!(inj.on_send(ProcessId(0), ProcessId(1), t).dropped);
        assert!(inj.on_send(ProcessId(1), ProcessId(0), t).dropped);
        // Same side: flows.
        assert!(!inj.on_send(ProcessId(0), ProcessId(2), t).dropped);
        assert!(!inj.on_send(ProcessId(1), ProcessId(3), t).dropped);
        // Healed.
        assert!(!inj.on_send(ProcessId(0), ProcessId(1), heal).dropped);
    }

    #[test]
    fn duplication_and_spike_apply() {
        let plan = FaultPlan::none()
            .with_duplication(1.0, SimTime::ZERO, SimTime::MAX)
            .with_latency_spike(3.0, SimTime::ZERO, SimTime::MAX);
        let mut inj = FaultInjector::new(plan, 5);
        let fate = inj.on_send(ProcessId(0), ProcessId(1), SimTime::ZERO);
        assert!(!fate.dropped);
        let extra = fate.duplicate.expect("prob 1.0 must duplicate");
        assert!((0.0..1.0).contains(&extra));
        assert_eq!(fate.delay_factor, 3.0);
    }

    #[test]
    fn drop_probability_is_roughly_respected() {
        let plan = FaultPlan::none().with_drop(ProcessId(0), ProcessId(1), 0.3);
        let mut inj = FaultInjector::new(plan, 6);
        let dropped = (0..10_000)
            .filter(|_| {
                inj.on_send(ProcessId(0), ProcessId(1), SimTime::ZERO)
                    .dropped
            })
            .count();
        assert!((2_500..3_500).contains(&dropped), "{dropped}");
    }

    #[test]
    fn compound_drop_rules_multiply() {
        // Two 50% rules on the same pair => 75% loss.
        let plan = FaultPlan::none()
            .with_drop(ProcessId(0), ProcessId(1), 0.5)
            .with_drop(ProcessId(0), ProcessId(1), 0.5);
        let mut inj = FaultInjector::new(plan, 7);
        let dropped = (0..10_000)
            .filter(|_| {
                inj.on_send(ProcessId(0), ProcessId(1), SimTime::ZERO)
                    .dropped
            })
            .count();
        assert!((7_000..8_000).contains(&dropped), "{dropped}");
    }

    #[test]
    fn fates_replay_bit_for_bit() {
        let plan = FaultPlan::none()
            .with_drop(ProcessId(0), ProcessId(1), 0.4)
            .with_duplication(0.4, SimTime::ZERO, SimTime::MAX);
        let mut a = FaultInjector::new(plan.clone(), 9);
        let mut b = FaultInjector::new(plan, 9);
        for t in 0..1_000 {
            let now = SimTime::from_micros(t);
            assert_eq!(
                a.on_send(ProcessId(0), ProcessId(1), now),
                b.on_send(ProcessId(0), ProcessId(1), now)
            );
        }
    }

    #[test]
    fn fingerprint_distinguishes_plans() {
        let a = FaultPlan::none().with_crash(SimTime::from_millis(1), ProcessId(0));
        let b = FaultPlan::none().with_crash(SimTime::from_millis(2), ProcessId(0));
        let c = FaultPlan::none().with_crash(SimTime::from_millis(1), ProcessId(1));
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
        assert_eq!(a.fingerprint(), a.clone().fingerprint());
        assert_ne!(FaultPlan::none().fingerprint(), a.fingerprint());
    }

    #[test]
    fn fault_horizon_reports_latest_window() {
        assert_eq!(FaultPlan::none().fault_horizon(), Some(SimTime::ZERO));
        let bounded = FaultPlan::none()
            .with_drop_during(
                ProcessId(0),
                ProcessId(1),
                1.0,
                SimTime::ZERO,
                SimTime::from_millis(5),
            )
            .with_duplication(0.5, SimTime::ZERO, SimTime::from_millis(9));
        assert_eq!(bounded.fault_horizon(), Some(SimTime::from_millis(9)));
        let unbounded = bounded.with_drop(ProcessId(0), ProcessId(2), 0.1);
        assert_eq!(unbounded.fault_horizon(), None);
        // Crashes do not bound the horizon: they are permanent by nature.
        let crash_only = FaultPlan::none().with_crash(SimTime::from_millis(50), ProcessId(0));
        assert_eq!(crash_only.fault_horizon(), Some(SimTime::ZERO));
    }

    #[test]
    fn compile_is_deterministic_and_respects_group_majorities() {
        let topo = Topology::symmetric(3, 3);
        let cfg = FaultConfig {
            max_crashes: 6,
            ..FaultConfig::default()
        };
        for seed in 0..200u64 {
            let plan = cfg.compile(&topo, seed);
            assert_eq!(plan, cfg.compile(&topo, seed), "deterministic");
            let mut per_group = [0usize; 3];
            for &(_, p) in &plan.crashes {
                per_group[topo.group_of(p).0 as usize] += 1;
            }
            for crashed in per_group {
                assert!(crashed <= 1, "3-member group tolerates 1 crash");
            }
            assert!(plan.fault_horizon().is_some(), "fuzz plans must be bounded");
        }
    }

    #[test]
    fn compile_never_crashes_in_two_member_groups() {
        // d = 2 => majority is 2 of 2: no crash is tolerable.
        let topo = Topology::symmetric(3, 2);
        let cfg = FaultConfig {
            max_crashes: 6,
            ..FaultConfig::default()
        };
        for seed in 0..100u64 {
            assert!(cfg.compile(&topo, seed).crashes.is_empty());
        }
    }

    #[test]
    fn compile_handles_degenerate_shapes_without_panicking() {
        // A single-process topology has no links; a zero fault horizon has
        // no instant for windowed rules. Both collapse to (at most
        // crash-only) plans instead of panicking in next_below.
        let solo = Topology::symmetric(1, 1);
        for seed in 0..50u64 {
            let plan = FaultConfig::default().compile(&solo, seed);
            assert!(plan.is_none(), "nothing to fault for one process");
        }
        let zero_horizon = FaultConfig {
            fault_horizon: Duration::ZERO,
            ..FaultConfig::default()
        };
        let topo = Topology::symmetric(2, 3);
        for seed in 0..50u64 {
            let plan = zero_horizon.compile(&topo, seed);
            assert!(plan.drops.is_empty() && plan.partitions.is_empty());
            assert!(plan.duplicates.is_empty() && plan.spikes.is_empty());
        }
    }

    #[test]
    fn quiet_config_compiles_empty_plans() {
        let topo = Topology::symmetric(2, 2);
        for seed in 0..20u64 {
            assert!(FaultConfig::quiet().compile(&topo, seed).is_none());
        }
    }

    #[test]
    fn group_of_sanity() {
        // Anchor for the majority math above.
        let topo = Topology::symmetric(2, 3);
        assert_eq!(topo.group_of(ProcessId(4)), GroupId(1));
        assert_eq!(topo.members(GroupId(0)).len(), 3);
    }
}
