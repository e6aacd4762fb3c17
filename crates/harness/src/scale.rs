//! Open-loop cells: every registry arm's paper-exact stack under a
//! Poisson arrival process, judged by §2.2 and reduced to tail latency and
//! message cost.
//!
//! Figure 1 compares *isolated* casts; a cell measures the regime the
//! paper argues about — many groups, skewed traffic — with Zipf-skewed
//! destination popularity ([`poisson_zipf`]), and extracts p50/p99/p999
//! delivery and commit latency into [`Histogram`]s. `CLAIMS.md`'s
//! "Validity under load", "Batching amortisation" and "Genuineness at
//! scale" sections are built from these cells.
//!
//! **Determinism contract.** Latency is *derived after the run* from the
//! timestamps the simulator already records in
//! [`RunMetrics`] — the engine schedules exactly
//! the same events whether or not anyone builds histograms, so the golden
//! fingerprint corpora of PR 4/PR 5 are untouched by observability. A
//! [`ScaleCell`] is plain data compared by value, and its histograms'
//! bucket counts are order-independent, which `tests/scale_determinism.rs`
//! pins with `==`.
//!
//! The expected headline: genuine arms (A1 and the multicast baselines)
//! address two groups per operation, so their inter-group sends per
//! operation stay flat as the group count grows; broadcast-shape arms
//! (A2, the sequencer designs) pay every group on every operation and
//! their cost — then their tail — grows with the system.

use crate::registry::{ProtocolArm, WorkloadShape};
use crate::scenario::shared_topology;
use crate::table::{percentile_cells, Table};
use crate::workload::{all_group_pairs, poisson, poisson_zipf, PlannedCast};
use std::sync::Arc;
use std::time::Duration;
use wamcast_metrics::Histogram;
use wamcast_sim::{invariants, InvariantProfile, RunError, RunMetrics, SimConfig, Simulation};
use wamcast_types::{Payload, ProcessId, Protocol, SimTime, Topology};

/// Virtual-time convergence allowance beyond the arrival horizon.
const GRACE: Duration = Duration::from_secs(600);

/// Parameters shared by a set of open-loop cells.
#[derive(Clone, Debug)]
pub struct ScaleConfig {
    /// Processes per group (`d`).
    pub per_group: usize,
    /// Offered load, casts per virtual second (open loop: arrivals never
    /// wait for completions).
    pub rate_per_sec: f64,
    /// Arrival horizon (virtual time).
    pub horizon: Duration,
    /// Zipf exponent for destination-pair popularity.
    pub theta: f64,
    /// Workload/schedule seed.
    pub seed: u64,
    /// Handler-invocation budget per cell; exhausting it marks the cell
    /// DNF instead of hanging the run.
    pub max_steps: u64,
}

/// One (arm × group-count) measurement.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScaleCell {
    /// Arm short name.
    pub arm: &'static str,
    /// Group count `k`.
    pub groups: usize,
    /// Processes per group `d`.
    pub per_group: usize,
    /// Planned casts.
    pub casts: u64,
    /// `None` = converged within budget with every §2.2 property of the
    /// arm's profile intact; `Some(why)` = a DNF or a violation, as `why`
    /// says (the metrics below still describe the run, honestly labelled).
    pub dnf: Option<String>,
    /// Cast-to-delivery latency in ns, one sample per (message,
    /// deliverer): its count is the run's deliveries.
    pub deliver: Histogram,
    /// Cast-to-last-delivery latency in ns (the group-commit point), one
    /// sample per message every addressee delivered: its count is the
    /// committed casts.
    pub commit: Histogram,
    /// Inter-group protocol message copies.
    pub inter_sends: u64,
    /// Intra-group protocol message copies.
    pub intra_sends: u64,
    /// Handler invocations.
    pub steps: u64,
    /// Processes no cast involves ([`invariants::bystanders`]).
    pub bystanders: usize,
    /// Bystanders that sent or received a protocol message — one
    /// [`invariants::check_genuineness`] violation each; genuineness wants
    /// none.
    pub bystanders_active: usize,
}

impl ScaleCell {
    /// The cell of a finished open-loop run of `casts` planned casts on
    /// the symmetric `topo` — the record-at-delivery path: every number
    /// comes from timestamps the engine recorded anyway, so building (or
    /// skipping) a cell cannot change a schedule.
    pub(crate) fn from_run(
        arm: &'static str,
        topo: &Topology,
        casts: usize,
        status: Result<(), String>,
        m: &RunMetrics,
    ) -> ScaleCell {
        let (mut deliver, mut commit) = (Histogram::new(), Histogram::new());
        // Every cast in id order, delivered or not (the contents would be
        // identical in any order: histograms are order-independent).
        for (mid, cast) in &m.casts {
            let Some(dels) = m.deliveries.get(mid) else {
                continue;
            };
            let mut last = SimTime::ZERO;
            for d in dels.values() {
                deliver.record(d.time.saturating_since(cast.time).as_nanos() as u64);
                last = last.max(d.time);
            }
            // Commit = every addressed process delivered; under a DNF only
            // the completed casts contribute, which keeps the tail honest.
            if dels.len() == topo.processes_in(cast.dest).count() {
                commit.record(last.saturating_since(cast.time).as_nanos() as u64);
            }
        }
        ScaleCell {
            arm,
            groups: topo.num_groups(),
            per_group: topo.num_processes() / topo.num_groups(),
            casts: casts as u64,
            dnf: status.err(),
            deliver,
            commit,
            inter_sends: m.inter_sends,
            intra_sends: m.intra_sends,
            steps: m.steps,
            bystanders: invariants::bystanders(topo, m).len(),
            bystanders_active: invariants::check_genuineness(topo, m).violations.len(),
        }
    }

    /// Total processes `k·d`.
    pub fn processes(&self) -> usize {
        self.groups * self.per_group
    }

    /// `"ok"`, or why not.
    pub fn status(&self) -> String {
        self.dnf.clone().unwrap_or_else(|| "ok".to_string())
    }

    /// Inter-group message copies per planned cast.
    pub fn inter_per_op(&self) -> f64 {
        self.inter_sends as f64 / (self.casts as f64).max(1.0)
    }

    /// Intra-group message copies per planned cast.
    pub fn intra_per_op(&self) -> f64 {
        self.intra_sends as f64 / (self.casts as f64).max(1.0)
    }
}

/// Hosts one protocol stack under an open-loop planned workload and
/// judges a converged run with the §2.2 checkers `profile` declares: the
/// generic driver behind
/// [`ProtocolArm::run_open_loop`](crate::registry::ProtocolArm::run_open_loop)
/// (the registry table stays the only place arm constructors are
/// enumerated) and the batching claim's A1 stacks.
pub(crate) fn drive_open_loop<P: Protocol>(
    topo: Arc<Topology>,
    plan: &[PlannedCast],
    seed: u64,
    max_steps: u64,
    deadline: SimTime,
    profile: InvariantProfile,
    factory: impl FnMut(ProcessId, &Topology) -> P,
) -> (Result<(), String>, RunMetrics) {
    let cfg = SimConfig::default()
        .with_seed(seed)
        .with_send_log(false)
        .with_max_steps(max_steps);
    let mut sim = Simulation::new_shared(topo, cfg, factory);
    for c in plan {
        sim.cast_at(c.at, c.caster, c.dest, Payload::new());
    }
    let status = match sim.try_run_until(deadline) {
        Ok(true) => {
            let correct = sim.alive_processes();
            let report =
                invariants::check_with_profile(sim.topology(), sim.metrics(), &correct, profile);
            if report.is_ok() {
                Ok(())
            } else {
                Err(format!("§2.2: {}", report.violations.join("; ")))
            }
        }
        Ok(false) => Err(format!("DNF: did not converge by {deadline}")),
        Err(RunError::StepBudgetExhausted { last_event }) => Err(format!(
            "DNF: step budget exhausted; last event: {last_event}"
        )),
        Err(e) => Err(format!("DNF: {e}")),
    };
    (status, sim.into_metrics())
}

/// The deadline of an open-loop run whose arrivals end at `horizon`.
pub(crate) fn deadline(horizon: Duration) -> SimTime {
    SimTime::from_nanos(horizon.as_nanos() as u64) + GRACE
}

/// Builds the arm's open-loop plan for `k` groups: Zipf-skewed group
/// pairs for multicast arms, the full group set for broadcast arms.
pub fn plan_for(arm: &ProtocolArm, topo: &Topology, cfg: &ScaleConfig) -> Vec<PlannedCast> {
    match arm.workload() {
        WorkloadShape::Multicast => {
            let pairs = all_group_pairs(topo);
            poisson_zipf(
                topo,
                cfg.rate_per_sec,
                cfg.horizon,
                &pairs,
                cfg.theta,
                cfg.seed,
            )
        }
        WorkloadShape::Broadcast => poisson(
            topo,
            cfg.rate_per_sec,
            cfg.horizon,
            &[topo.all_groups()],
            cfg.seed,
        ),
    }
}

/// Runs one (arm × group-count) cell.
pub fn run_cell(arm: &'static ProtocolArm, groups: usize, cfg: &ScaleConfig) -> ScaleCell {
    let topo = shared_topology(groups, cfg.per_group);
    let plan = plan_for(arm, &topo, cfg);
    let deadline = deadline(cfg.horizon);
    let (status, m) =
        arm.run_open_loop(Arc::clone(&topo), &plan, cfg.seed, cfg.max_steps, deadline);
    ScaleCell::from_run(arm.name(), &topo, plan.len(), status, &m)
}

/// The cells as a report table (latencies in milliseconds).
pub fn table(cells: &[ScaleCell]) -> Table {
    let mut t = Table::new(vec![
        "arm", "k", "n", "casts", "dlv p50", "dlv p99", "dlv p999", "cmt p50", "cmt p99",
        "cmt p999", "inter/op", "intra/op", "status",
    ]);
    for c in cells {
        let mut row = vec![
            c.arm.to_string(),
            c.groups.to_string(),
            c.processes().to_string(),
            c.casts.to_string(),
        ];
        row.extend(percentile_cells(&c.deliver));
        row.extend(percentile_cells(&c.commit));
        row.push(format!("{:.1}", c.inter_per_op()));
        row.push(format!("{:.1}", c.intra_per_op()));
        row.push(c.status());
        t.row(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::StackRegistry;

    fn tiny() -> ScaleConfig {
        ScaleConfig {
            per_group: 2,
            rate_per_sec: 40.0,
            horizon: Duration::from_millis(500),
            theta: 0.99,
            seed: 7,
            max_steps: 5_000_000,
        }
    }

    #[test]
    fn a1_cell_converges_and_is_fingerprint_stable() {
        let arm = StackRegistry::standard().by_name("a1").unwrap();
        let a = run_cell(arm, 8, &tiny());
        let b = run_cell(arm, 8, &tiny());
        assert!(a.dnf.is_none(), "{:?}", a.dnf);
        assert_eq!(a, b, "same seed, same cell");
        assert!(a.commit.count() > 0);
        // Every committed cast produced one commit sample and ≥1 delivery
        // samples; commit latency dominates per-deliverer latency.
        let (d, c) = (&a.deliver, &a.commit);
        assert!(d.count() >= c.count());
        assert!(c.max() >= d.min());
    }

    #[test]
    fn genuine_cost_stays_flat_while_broadcast_grows() {
        // The headline divergence, in miniature: A1's inter-group sends
        // per op are ~flat from 4 to 8 groups (pair destinations), while
        // A2 — which pays every group per op — grows.
        let reg = StackRegistry::standard();
        let cfg = tiny();
        let a1_4 = run_cell(reg.by_name("a1").unwrap(), 4, &cfg);
        let a1_8 = run_cell(reg.by_name("a1").unwrap(), 8, &cfg);
        let a2_4 = run_cell(reg.by_name("a2").unwrap(), 4, &cfg);
        let a2_8 = run_cell(reg.by_name("a2").unwrap(), 8, &cfg);
        let a1_growth = a1_8.inter_per_op() / a1_4.inter_per_op().max(1e-9);
        let a2_growth = a2_8.inter_per_op() / a2_4.inter_per_op().max(1e-9);
        assert!(
            a1_growth < 1.5,
            "a1 inter/op grew {a1_growth:.2}x from 4 to 8 groups"
        );
        assert!(
            a2_growth > a1_growth,
            "a2 ({a2_growth:.2}x) must outgrow a1 ({a1_growth:.2}x)"
        );
    }

    #[test]
    fn table_rounds_out() {
        let arm = StackRegistry::standard().by_name("skeen").unwrap();
        let cell = run_cell(arm, 4, &tiny());
        let text = table(std::slice::from_ref(&cell)).render();
        assert!(text.contains("skeen"));
        assert!(text.contains("dlv p999"));
    }
}
