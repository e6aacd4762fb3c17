//! E14 — open-loop scale sweeps: tail latency and message cost at
//! 8→128 groups.
//!
//! Figure 1 compares *isolated* casts; this module measures the regime the
//! paper argues about — many groups, skewed traffic — by driving every
//! registry arm's paper-exact stack under an open-loop Poisson arrival
//! process with Zipf-skewed destination popularity
//! ([`poisson_zipf`]) and extracting p50/p99/p999 delivery and commit
//! latency from a [`MetricsRegistry`].
//!
//! **Determinism contract.** Latency is *derived after the run* from the
//! timestamps the simulator already records in
//! [`RunMetrics`] — the engine schedules exactly
//! the same events whether or not anyone builds histograms, so the golden
//! fingerprint corpora of PR 4/PR 5 are untouched by observability. The
//! registry dump itself is deterministic too (bucket counts are
//! order-independent, names are sorted), which is what the CI scale-smoke
//! job pins via [`ScaleCell::fingerprint`].
//!
//! The expected headline: genuine arms (A1 and the multicast baselines)
//! address two groups per operation, so their inter-group sends per
//! operation stay flat as the group count grows; broadcast-shape arms
//! (A2, the sequencer designs) pay every group on every operation and
//! their cost — then their tail — grows with the system.

use crate::registry::{ProtocolArm, WorkloadShape};
use crate::scenario::shared_topology;
use crate::table::{fmt_ms, percentile_cells, Table};
use crate::workload::{all_group_pairs, poisson, poisson_zipf, PlannedCast};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wamcast_metrics::{Histogram, MetricsRegistry};
use wamcast_sim::{RunError, RunMetrics, SimConfig, Simulation};
use wamcast_types::{Payload, ProcessId, Protocol, SimTime, Topology};

/// Virtual-time convergence allowance beyond the arrival horizon.
const GRACE: Duration = Duration::from_secs(600);

/// Parameters of one scale sweep (shared by every cell).
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
    /// DNF instead of hanging the sweep.
    pub max_steps: u64,
}

impl Default for ScaleConfig {
    fn default() -> Self {
        ScaleConfig {
            per_group: 16,
            rate_per_sec: 100.0,
            horizon: Duration::from_secs(2),
            theta: 0.99,
            seed: 0xE14,
            max_steps: 50_000_000,
        }
    }
}

/// One (arm × group-count) measurement.
#[derive(Clone, Debug)]
pub struct ScaleCell {
    /// Arm short name.
    pub arm: &'static str,
    /// Group count `k`.
    pub groups: usize,
    /// Processes per group `d`.
    pub per_group: usize,
    /// Planned casts.
    pub casts: u64,
    /// `None` = converged within budget; `Some(why)` = DNF (the metrics
    /// below still describe the partial run, honestly labelled).
    pub dnf: Option<String>,
    /// The derived metrics registry (histograms `deliver_ns`/`commit_ns`,
    /// counters for sends/steps/deliveries).
    pub registry: MetricsRegistry,
    /// Wall-clock time of the run loop.
    pub wall: Duration,
}

impl ScaleCell {
    /// Total processes `k·d`.
    pub fn processes(&self) -> usize {
        self.groups * self.per_group
    }

    /// FNV-1a fingerprint of the derived registry — the stability token
    /// the CI scale-smoke job asserts across repeated runs.
    pub fn fingerprint(&self) -> u64 {
        self.registry.fingerprint()
    }

    /// `"ok"` or `"DNF: <why>"`.
    pub fn status(&self) -> String {
        match &self.dnf {
            None => "ok".to_string(),
            Some(why) => format!("DNF: {why}"),
        }
    }

    /// One of the cell's latency histograms (`"deliver_ns"` or
    /// `"commit_ns"`).
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a histogram of the cell's registry.
    pub fn hist(&self, name: &str) -> &Histogram {
        self.registry
            .histogram_by_name(name)
            .expect("cell registries always carry both latency histograms")
    }

    /// One of the cell's counters (`"casts"`, `"deliveries"`,
    /// `"committed_casts"`, `"inter_sends"`, `"intra_sends"`, `"steps"`);
    /// 0 for unknown names.
    pub fn counter(&self, name: &str) -> u64 {
        self.registry.counter_by_name(name).unwrap_or(0)
    }

    /// Inter-group message copies per planned cast.
    pub fn inter_per_op(&self) -> f64 {
        self.counter("inter_sends") as f64 / (self.casts as f64).max(1.0)
    }

    /// Intra-group message copies per planned cast.
    pub fn intra_per_op(&self) -> f64 {
        self.counter("intra_sends") as f64 / (self.casts as f64).max(1.0)
    }
}

/// Hosts one protocol stack under an open-loop planned workload: the
/// generic driver behind
/// [`ProtocolArm::run_open_loop`](crate::registry::ProtocolArm::run_open_loop)
/// (the registry table stays the only place constructors are enumerated).
pub(crate) fn drive_open_loop<P: Protocol>(
    topo: Arc<Topology>,
    plan: &[PlannedCast],
    seed: u64,
    max_steps: u64,
    deadline: SimTime,
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
        Ok(true) => Ok(()),
        Ok(false) => Err(format!("did not converge by {deadline}")),
        Err(RunError::StepBudgetExhausted { last_event }) => {
            Err(format!("step budget exhausted; last event: {last_event}"))
        }
        Err(e) => Err(e.to_string()),
    };
    (status, sim.into_metrics())
}

/// Derives the cell's metrics registry from a finished run — the
/// record-at-delivery path: every number below comes from timestamps the
/// engine recorded anyway, so building (or skipping) this registry cannot
/// change a schedule.
///
/// Histograms: `deliver_ns` gets one sample per (message, deliverer) —
/// cast to that delivery; `commit_ns` gets one sample per fully-delivered
/// message — cast to its *last* delivery (the group-commit point).
/// Counters: `casts`, `deliveries`, `committed_casts`, `inter_sends`,
/// `intra_sends`, `steps`.
pub fn latency_registry(topo: &Topology, m: &RunMetrics) -> MetricsRegistry {
    let mut reg = MetricsRegistry::new();
    let deliver = reg.histogram("deliver_ns");
    let commit = reg.histogram("commit_ns");
    let casts = reg.counter("casts");
    let deliveries = reg.counter("deliveries");
    let committed = reg.counter("committed_casts");
    // Every cast in id order, delivered or not (the contents would be
    // identical in any order: histograms are order-independent).
    for (mid, cast) in &m.casts {
        reg.inc(casts, 1);
        let Some(dels) = m.deliveries.get(mid) else {
            continue;
        };
        let mut last = SimTime::ZERO;
        for d in dels.values() {
            reg.record(
                deliver,
                d.time.saturating_since(cast.time).as_nanos() as u64,
            );
            last = last.max(d.time);
        }
        reg.inc(deliveries, dels.len() as u64);
        // Commit = every addressed process delivered; under a DNF only the
        // completed casts contribute, which keeps the tail honest.
        if dels.len() == topo.processes_in(cast.dest).count() {
            reg.record(commit, last.saturating_since(cast.time).as_nanos() as u64);
            reg.inc(committed, 1);
        }
    }
    let inter = reg.counter("inter_sends");
    let intra = reg.counter("intra_sends");
    let steps = reg.counter("steps");
    reg.inc(inter, m.inter_sends);
    reg.inc(intra, m.intra_sends);
    reg.inc(steps, m.steps);
    reg
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
    let deadline = SimTime::from_nanos(cfg.horizon.as_nanos() as u64) + GRACE;
    let start = Instant::now();
    let (status, m) =
        arm.run_open_loop(Arc::clone(&topo), &plan, cfg.seed, cfg.max_steps, deadline);
    let wall = start.elapsed();
    ScaleCell {
        arm: arm.name(),
        groups,
        per_group: cfg.per_group,
        casts: plan.len() as u64,
        dnf: status.err(),
        registry: latency_registry(&topo, &m),
        wall,
    }
}

/// The sweep as the E14 report table (latencies in milliseconds).
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
        row.extend(percentile_cells(c.hist("deliver_ns")));
        row.extend(percentile_cells(c.hist("commit_ns")));
        row.push(format!("{:.1}", c.inter_per_op()));
        row.push(format!("{:.1}", c.intra_per_op()));
        row.push(c.status());
        t.row(row);
    }
    t
}

/// Serializes the sweep as the `BENCH_scale.json` artifact: one flat
/// object per cell under `"cells"`, sweep parameters at the top level.
/// Dependency-free JSON, written by hand.
pub fn to_json(cfg: &ScaleConfig, cells: &[ScaleCell]) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"wamcast-scale-v1\",\n");
    out.push_str(&format!("  \"per_group\": {},\n", cfg.per_group));
    out.push_str(&format!("  \"rate_per_sec\": {:.3},\n", cfg.rate_per_sec));
    out.push_str(&format!("  \"horizon_ms\": {},\n", cfg.horizon.as_millis()));
    out.push_str(&format!("  \"theta\": {:.3},\n", cfg.theta));
    out.push_str(&format!("  \"seed\": {},\n", cfg.seed));
    out.push_str(&format!("  \"max_steps\": {},\n", cfg.max_steps));
    out.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let d = c.hist("deliver_ns");
        let k = c.hist("commit_ns");
        out.push_str(&format!(
            "    {{\"arm\": \"{}\", \"groups\": {}, \"processes\": {}, \"casts\": {}, \
             \"status\": \"{}\", \
             \"deliver_p50_ms\": {}, \"deliver_p99_ms\": {}, \"deliver_p999_ms\": {}, \
             \"commit_p50_ms\": {}, \"commit_p99_ms\": {}, \"commit_p999_ms\": {}, \
             \"committed_casts\": {}, \"inter_sends_per_op\": {:.2}, \
             \"intra_sends_per_op\": {:.2}, \"steps\": {}, \"wall_s\": {:.3}, \
             \"fingerprint\": \"{:#018x}\"}}{}\n",
            c.arm,
            c.groups,
            c.processes(),
            c.casts,
            c.status().replace('"', "'"),
            fmt_ms(d.p50()),
            fmt_ms(d.p99()),
            fmt_ms(d.p999()),
            fmt_ms(k.p50()),
            fmt_ms(k.p99()),
            fmt_ms(k.p999()),
            c.counter("committed_casts"),
            c.inter_per_op(),
            c.intra_per_op(),
            c.counter("steps"),
            c.wall.as_secs_f64(),
            c.fingerprint(),
            if i + 1 == cells.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
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
        assert_eq!(a.fingerprint(), b.fingerprint(), "same seed, same dump");
        assert_eq!(a.registry.dump(), b.registry.dump());
        assert!(a.counter("committed_casts") > 0);
        assert_eq!(a.counter("casts"), a.casts);
        // Every committed cast produced one commit sample and ≥1 delivery
        // samples; commit latency dominates per-deliverer latency.
        let d = a.hist("deliver_ns");
        let c = a.hist("commit_ns");
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
    fn table_and_json_round_out() {
        let arm = StackRegistry::standard().by_name("skeen").unwrap();
        let cell = run_cell(arm, 4, &tiny());
        let text = table(std::slice::from_ref(&cell)).render();
        assert!(text.contains("skeen"));
        assert!(text.contains("dlv p999"));
        let json = to_json(&tiny(), std::slice::from_ref(&cell));
        assert!(json.contains("\"schema\": \"wamcast-scale-v1\""));
        assert!(json.contains("\"arm\": \"skeen\""));
        assert!(json.contains("\"fingerprint\": \"0x"));
        let p50 = fmt_ms(cell.hist("deliver_ns").p50());
        assert!(json.contains(&format!("\"deliver_p50_ms\": {p50},")));
    }
}
