//! The paper's checkable claims, run and judged: the generator of the
//! root `CLAIMS.md`.
//!
//! A [`Claim`] is one statement of Schiper & Pedone, or of its cost model,
//! with the table it was judged on. [`claims`] runs them all on the
//! simulator, which is exact, so the text [`render`] lays out is
//! byte-stable. Every Figure 1 row is the registry's own probe
//! ([`ProtocolArm::probe`]), the stack `scenario_fuzz` and the benchmark
//! host; the Proposition 3.1 and Theorem 4.1/5.1 rows are read off those
//! runs. Only \[1\] has a runner of its own: it is not a registry arm,
//! because it runs in a stronger model.

use crate::measure::measure_broadcast_steady;
use crate::registry::{
    a1_stack_config, AnalyticDegree, ArmProbe, ProtocolArm, StackRegistry, WorkloadShape,
};
use crate::scale::{self, ScaleCell, ScaleConfig};
use crate::scenario::shared_topology;
use crate::table::{percentile_cells, Table};
use crate::workload::{all_group_pairs, poisson};
use std::sync::Arc;
use std::time::Duration;
use wamcast_baselines::DeterministicMerge;
use wamcast_core::{GenuineMulticast, MulticastConfig, RoundBroadcast};
use wamcast_sim::{invariants, InvariantProfile, NetConfig, SimConfig, Simulation};
use wamcast_types::{BatchConfig, GroupSet, Payload, ProcessId, Protocol, SimTime, Topology};

/// One judged claim: a row of the summary and the section behind it.
#[derive(Clone, Debug)]
pub struct Claim {
    /// The section heading; other documents link its [`anchor`].
    pub title: &'static str,
    /// Where the paper makes the claim.
    pub paper: &'static str,
    /// What was run.
    pub scope: &'static str,
    /// What was measured, in one line.
    pub measured: String,
    /// Whether the criterion held.
    pub holds: bool,
    /// The section body (Markdown): the claim, its criterion, the table.
    pub body: String,
}

/// A table whose last column says whether its row holds.
struct Judged {
    table: Table,
    rows: usize,
    held: usize,
}

impl Judged {
    /// A table with `headers`, `|`-separated, and a `holds` column.
    fn new(headers: &str) -> Self {
        let table = Table::new(headers.split('|').chain(["holds"]).collect());
        Judged {
            table,
            rows: 0,
            held: 0,
        }
    }

    /// Appends a row of `|`-separated `cells`.
    fn row(&mut self, cells: &str, holds: bool) {
        let cells = cells.split('|').map(String::from).chain([yes_no(holds)]);
        self.table.row(cells.collect());
        self.rows += 1;
        self.held += usize::from(holds);
    }

    /// `held/rows`, e.g. `5/5`.
    fn tally(&self) -> String {
        format!("{}/{}", self.held, self.rows)
    }

    /// The claim these rows judge; it holds if every row does. `meta` is
    /// its `title|paper §|scope`; `text` states it and its criterion.
    fn claim(&self, meta: &'static str, measured: String, text: &str) -> Claim {
        let mut meta = meta.split('|');
        let [title, paper, scope] = [(); 3].map(|()| meta.next().expect("title|paper §|scope"));
        let body = format!("{text}\n\n{}", self.table.markdown());
        let holds = self.held == self.rows;
        Claim {
            title,
            paper,
            scope,
            measured,
            holds,
            body,
        }
    }
}

/// The `k`×`d` shapes every Figure 1 probe runs on.
const SHAPES: [(usize, usize); 6] = [(2, 2), (2, 3), (3, 2), (4, 2), (4, 3), (8, 2)];

const HEADER: &str = "# Claims\n\nEvery checkable claim of Schiper & Pedone (PODC 2007), \
run on the deterministic simulator and judged. Generated by `cargo run --release -p \
wamcast-harness --bin paper`, which exits 1 if a claim does not hold; the tier-1 test \
`paper_claims` fails on any difference (`WAMCAST_BLESS=1` rewrites this file). Δ is the \
latency degree of §2.3; inter-group links take 100 ms and intra-group links 0.1 ms unless \
a section says otherwise. EXPERIMENTS.md (E1–E9, E13, E14, E22) discusses the results.\n\n";

/// Runs every claim, in the order `CLAIMS.md` lists them.
pub fn claims() -> Vec<Claim> {
    let rows = figure1_rows();
    vec![
        figure1(&rows, WorkloadShape::Multicast),
        figure1(&rows, WorkloadShape::Broadcast),
        theorems(&rows),
        proposition_3_1(&rows),
        quiescence(),
        frequency_regime(),
        prediction_horizon(),
        latency_shape(),
        crash_recovery(),
        validity_under_load(),
        batching_amortisation(),
        genuineness_at_scale(),
    ]
}

/// Lays the claims out as `CLAIMS.md`.
pub fn render(claims: &[Claim]) -> String {
    let mut summary = Table::new(vec!["claim", "paper §", "scope", "measured", "holds"]);
    for c in claims {
        summary.row(vec![
            format!("[{}](#{})", c.title, anchor(c.title)),
            c.paper.to_string(),
            c.scope.to_string(),
            c.measured.clone(),
            if c.holds { "yes" } else { "**no**" }.to_string(),
        ]);
    }
    let mut out = format!("{HEADER}{}", summary.markdown());
    for c in claims {
        out.push_str(&format!("\n## {}\n\n{}", c.title, c.body));
    }
    out
}

/// The GitHub anchor of a Markdown heading: lower case, spaces become
/// `-`, and every other character but letters, digits, `-` and `_` is
/// dropped.
///
/// ```
/// assert_eq!(wamcast_harness::paper::anchor("Theorem 4.1"), "theorem-41");
/// ```
pub fn anchor(heading: &str) -> String {
    let kept = |c: &char| c.is_alphanumeric() || matches!(c, ' ' | '-' | '_');
    let lower = heading.trim().to_lowercase();
    lower
        .chars()
        .filter(kept)
        .map(|c| if c == ' ' { '-' } else { c })
        .collect()
}

fn ms(d: Duration) -> String {
    format!("{:.1} ms", d.as_secs_f64() * 1e3)
}

fn yes_no(b: bool) -> String {
    if b { "yes" } else { "no" }.to_string()
}

/// One Figure 1 measurement: a registry arm (`None`: \[1\]) probed on `k`×`d`.
struct Probed {
    k: usize,
    d: usize,
    arm: Option<&'static ProtocolArm>,
    probe: ArmProbe,
}

impl Probed {
    fn name(&self) -> &'static str {
        self.arm.map_or("detmerge", |a| a.name())
    }
}

/// Every registry arm's probe on every shape, and \[1\]'s.
fn figure1_rows() -> Vec<Probed> {
    let mut rows = Vec::new();
    for (k, d) in SHAPES {
        for arm in StackRegistry::standard().arms().map(Some).chain([None]) {
            let probe = arm.map_or_else(
                || streams_probe(k, d),
                |a| a.probe(k, d, NetConfig::default()),
            );
            rows.push(Probed { k, d, arm, probe });
        }
    }
    rows
}

/// \[1\]'s probe in its streams model: standing 1 s heartbeats, with the
/// caster's phase 500 ms ahead so that its cast at 1.95 s goes out just
/// before the other publishers' next heartbeats. The message count is the
/// cast's *marginal* inter-group traffic: the same run without the cast
/// is subtracted.
fn streams_probe(k: usize, d: usize) -> ArmProbe {
    let caster = ProcessId(((k - 1) * d) as u32);
    let run = |cast: bool| {
        let cfg = SimConfig::default().with_seed(0xF1C);
        let mut sim = Simulation::new_shared(shared_topology(k, d), cfg, |p, _| {
            let phase = Duration::from_millis(if p == caster { 500 } else { 1_000 });
            DeterministicMerge::with_phase(p, Duration::from_secs(1), phase)
        });
        let at = SimTime::from_millis(1_950);
        let id = cast.then(|| sim.cast_at(at, caster, GroupSet::first_n(k), Payload::new()));
        sim.run_until(SimTime::from_millis(5_000));
        (id, sim)
    };
    let (id, sim) = run(true);
    let (id, m) = (id.expect("cast"), sim.metrics());
    invariants::check_all(sim.topology(), m, &sim.alive_processes()).assert_ok();
    ArmProbe {
        degree: m.latency_degree(id).expect("delivered"),
        inter_msgs: m.inter_sends - run(false).1.metrics().inter_sends,
        wall: m.delivery_latency(id).expect("delivered"),
    }
}

/// Figure 1(a) (`Multicast`) or 1(b) (`Broadcast`): the registry arms of
/// that shape, plus \[1\], whose cast to all groups is both.
fn figure1(rows: &[Probed], shape: WorkloadShape) -> Claim {
    let broadcast = shape == WorkloadShape::Broadcast;
    let mut j = Judged::new("k×d|arm|algorithm|Δ (paper)|Δ|class|msgs|wall");
    let in_shape = |r: &&Probed| r.arm.map_or(true, |a| a.workload() == shape);
    for r in rows.iter().filter(in_shape) {
        let analytic = r
            .arm
            .map_or(AnalyticDegree::Const(1), |a| a.analytic_degree());
        let want = analytic.eval(r.k);
        let paper = match analytic {
            AnalyticDegree::Const(_) => want.to_string(),
            d => format!("{d} = {want}"),
        };
        let streams = (
            "[1] Aguilera & Strom (streams)",
            if broadcast { "O(n)" } else { "O(kd)" },
        );
        let (algorithm, class) = r.arm.map_or(streams, |a| (a.algorithm(), a.paper_msgs()));
        let (k, d, name, p, wall) = (r.k, r.d, r.name(), r.probe, ms(r.probe.wall));
        let (degree, msgs) = (p.degree, p.inter_msgs);
        let cells = format!("{k}×{d}|{name}|{algorithm}|{paper}|{degree}|{class}|{msgs}|{wall}");
        j.row(&cells, degree == want);
    }
    let measured = format!("{} Δ as in the paper", j.tally());
    if broadcast {
        return j.claim(
            "Figure 1(b)|Fig. 1(b)|4 algorithms × 6 shapes",
            measured,
            "Each atomic broadcast algorithm has the latency degree Figure 1(b) gives it. \
Eight broadcasts 50 ms apart from group 0, then one probe from the last group; `msgs` \
counts the copies sent between the probe's cast and its last delivery. **Holds when** \
every Δ equals the paper's.",
        );
    }
    let msgs = |k, d, arm| {
        let r = rows.iter().find(|r| (r.k, r.d, r.name()) == (k, d, arm));
        r.expect("every arm is probed on every shape")
            .probe
            .inter_msgs
    };
    let ordered = SHAPES.iter().filter(|&&(k, _)| k >= 3).all(|&(k, d)| {
        msgs(k, d, "detmerge") < msgs(k, d, "ring") && msgs(k, d, "ring") < msgs(k, d, "a1")
    });
    let mut c = j.claim(
        "Figure 1(a)|Fig. 1(a)|7 algorithms × 6 shapes",
        format!(
            "{measured}; msgs [1] < [4] < A1 at k ≥ 3: {}",
            yes_no(ordered)
        ),
        "Each atomic multicast algorithm has the latency degree Figure 1(a) gives it, and \
its messages order as the classes. One multicast to all k groups from the first process \
of the last group, run to quiescence; `msgs` counts every inter-group copy ([1]: the \
cast's marginal traffic over its heartbeats). **Holds when** every Δ equals the paper's, \
and at every k ≥ 3 the counts order as [1] O(kd) < [4] O(kd²) < A1 O(k²d²).",
    );
    c.holds &= ordered;
    c
}

fn theorems(rows: &[Probed]) -> Claim {
    let probes = |arm, want| {
        let rows = rows.iter().filter(move |r| r.name() == arm);
        rows.map(move |r| (r.k, r.d, want, r.probe.degree, r.probe.wall))
    };
    let cold = SHAPES.map(|(k, d)| {
        let gap = Duration::from_millis(50);
        let r = measure_broadcast_steady(k, d, RoundBroadcast::new, 0, gap, NetConfig::default());
        (k, d, 2, r.probe_degree, r.probe_wall)
    });
    let runs = [
        (
            "4.1: A1 to 2 groups",
            probes("a1", 2).filter(|r| r.0 == 2).collect(),
        ),
        ("5.1: A2 in a stream", probes("a2", 1).collect()),
        ("5.2: A2 after quiescence", cold.to_vec()),
    ];
    let mut j = Judged::new("theorem|k×d|Δ (paper)|Δ|wall");
    for (theorem, runs) in runs {
        for (k, d, want, degree, wall) in runs {
            let cells = format!("{theorem}|{k}×{d}|{want}|{degree}|{}", ms(wall));
            j.row(&cells, degree == want);
        }
    }
    j.claim(
        "Theorems 4.1, 5.1 and 5.2|§4–§5|A1, A2; 2–6 shapes each",
        format!("{} runs at the stated Δ", j.tally()),
        "A1 multicasts to two groups with Δ = 2, the optimum (4.1); A2 broadcasts with \
Δ = 1 while its rounds are active (5.1) and with Δ = 2 once it has gone quiescent (5.2). \
4.1 and 5.1 are the `a1` (k = 2) and `a2` rows of [Figure 1(a)](#figure-1a) and \
[Figure 1(b)](#figure-1b); 5.2 casts one broadcast from the last group into an idle \
system with the paper's unpaced A2. **Holds when** every run has the stated Δ.",
    )
}

fn proposition_3_1(rows: &[Probed]) -> Claim {
    let mut j = Judged::new("arm|algorithm|min Δ|max Δ");
    let genuine = StackRegistry::standard()
        .arms()
        .filter(|a| a.profile().genuine);
    for arm in genuine {
        let runs = rows.iter().filter(|r| r.name() == arm.name());
        let degrees = runs.map(|r| r.probe.degree);
        let (lo, hi) = degrees.fold((u64::MAX, 0), |(lo, hi), g| (lo.min(g), hi.max(g)));
        j.row(
            &format!("{}|{}|{lo}|{hi}", arm.name(), arm.algorithm()),
            lo >= 2,
        );
    }
    j.claim(
        "Proposition 3.1|§3, Prop 3.1|every genuine arm × 6 shapes",
        format!("Δ ≥ 2 for {} arms", j.tally()),
        "No genuine atomic multicast delivers a message addressed to several groups with \
Δ < 2. The rows are each genuine arm's runs of [Figure 1(a)](#figure-1a). **Holds \
when** no run has Δ < 2.",
    )
}

/// Messages sent in all, in 1.5–5 s and in 5–10 s on 2×2 after a burst of
/// ten broadcasts over 0.5 s (no casts at all for `burst = false`).
fn quiet<P: Protocol>(factory: impl FnMut(ProcessId, &Topology) -> P, burst: bool) -> [usize; 3] {
    let cfg = SimConfig::default().with_seed(0xE10);
    let mut sim = Simulation::new(Topology::symmetric(2, 2), cfg, factory);
    let dest = sim.topology().all_groups();
    for i in (0..10u64).filter(|_| burst) {
        let caster = ProcessId((i % 4) as u32);
        sim.cast_at(SimTime::from_millis(i * 50), caster, dest, Payload::new());
    }
    sim.run_until(SimTime::from_millis(10_000));
    let sends = &sim.metrics().send_log;
    let count = |lo, hi| sends.iter().filter(|s| s.time > lo && s.time <= hi).count();
    let at = SimTime::from_millis;
    [
        sends.len(),
        count(at(1_500), at(5_000)),
        count(at(5_000), at(10_000)),
    ]
}

fn quiescence() -> Claim {
    let a1 = |p, t: &Topology| GenuineMulticast::new(p, t, MulticastConfig::default());
    let heartbeats = |p, _: &Topology| DeterministicMerge::new(p, Duration::from_millis(100));
    let (a1, a2) = (quiet(a1, false), quiet(RoundBroadcast::new, true));
    let merge = quiet(heartbeats, true);
    let mut j = Judged::new("protocol|msgs|msgs 1.5–5 s|msgs 5–10 s");
    let cells = |name: &str, [all, mid, late]: [usize; 3]| format!("{name}|{all}|{mid}|{late}");
    j.row(&cells("A1, no casts", a1), a1[0] == 0);
    j.row(&cells("A2", a2), a2[1] + a2[2] == 0);
    j.row(&cells("[1] (streams)", merge), merge[1] + merge[2] > 0);
    j.claim(
        "Quiescence|§3, §5.2|2×2, 10 broadcasts in 0.5 s",
        format!("{} protocols as stated", j.tally()),
        "A genuine algorithm is silent when nothing is cast (the premise of Prop 3.2); A2 \
stops sending after finitely many casts (Prop A.9, the premise of Prop 3.3); [1] buys \
Δ = 1 by never stopping. Ten broadcasts 50 ms apart (none for A1), then silence until \
10 s; [1] heartbeats every 100 ms. **Holds when** A1 sends nothing at all, A2 nothing \
after 1.5 s, and [1] still sends then.",
    )
}

/// How long E7 streams broadcasts before its probe: a fixed virtual span,
/// so that every rate reaches its steady state. (A fixed count of casts
/// left the fast streams' measured half shorter than one round.)
const STREAM_SPAN: Duration = Duration::from_secs(20);

fn frequency_regime() -> Claim {
    let mut j = Judged::new("L|1 msg/s|2|5|10|20|50|100 msg/s");
    for lat in [25u64, 50, 100, 200] {
        let (mut row, mut holds) = (format!("{lat} ms"), true);
        for rate in [1u64, 2, 5, 10, 20, 50, 100] {
            let gap = Duration::from_nanos(1_000_000_000 / rate);
            let warm = (STREAM_SPAN.as_nanos() / gap.as_nanos()) as u64;
            let pacing = gap.min(Duration::from_millis(25));
            let paced = |p, t: &Topology| RoundBroadcast::with_pacing(p, t, pacing);
            let net = NetConfig::wan(Duration::from_millis(lat));
            let r = measure_broadcast_steady(2, 2, paced, warm, gap, net);
            // The first half of the stream is the synchronisation prefix.
            let tail = &r.stream_degrees[warm as usize / 2..];
            let ones = tail.iter().filter(|&&deg| deg == 1).count() as f64 / tail.len() as f64;
            holds &= lat != 100 || rate < 10 || r.probe_degree == 1;
            holds &= rate != 1 || r.probe_degree == 2;
            row += &format!("|{} ({:.0} %)", r.probe_degree, 100.0 * ones);
        }
        j.row(&row, holds);
    }
    j.claim(
        "Frequency regime|§5.3|A2 2×2, L = 25–200 ms, 1–100 msg/s",
        format!("{} latencies in the §5.3 regime", j.tally()),
        "At 100 ms inter-group latency, 10 broadcasts per second keep A2 from becoming \
reactive. Each cell streams broadcasts from group 0 for 20 s of virtual time (pacing \
min(gap, 25 ms)), then probes from the last group: `probe Δ (share of the stream's \
second half with Δ = 1)`; the share is descriptive. **Holds when** the probe has Δ = 1 \
at L = 100 ms from 10 msg/s up, and Δ = 2 at 1 msg/s, a gap longer than any round.",
    )
}

/// With `probe_gap`, the Δ of a probe cast that long after a burst of 8
/// broadcasts (25 ms pacing); without, the idle messages one unpaced
/// broadcast costs after its last delivery. A2 on 2×3, `h` idle rounds.
fn horizon_run(h: u64, probe_gap: Option<u64>) -> u64 {
    let pacing = Duration::from_millis(if probe_gap.is_some() { 25 } else { 0 });
    let cfg = SimConfig::default().with_seed(0xE11);
    let mut sim = Simulation::new(Topology::symmetric(2, 3), cfg, move |p, t| {
        RoundBroadcast::with_pacing(p, t, pacing).with_idle_rounds(h)
    });
    let dest = sim.topology().all_groups();
    for i in (0..8u64).filter(|_| probe_gap.is_some()) {
        let caster = ProcessId((i % 3) as u32);
        sim.cast_at(SimTime::from_millis(i * 50), caster, dest, Payload::new());
    }
    let at = SimTime::from_millis(probe_gap.map_or(0, |g| 400 + g));
    let probe = sim.cast_at(at, ProcessId(0), dest, Payload::new());
    sim.run_to_quiescence();
    let m = sim.metrics();
    let delivered = m.deliveries.get(&probe).expect("probe delivered");
    let delivered = delivered.values().map(|d| d.time).max();
    match probe_gap {
        Some(_) => m.latency_degree(probe).unwrap_or(99),
        None => m.sends_after(delivered.expect("delivered")),
    }
}

fn prediction_horizon() -> Claim {
    let mut j = Judged::new("idle rounds h|Δ = 1 window after the burst|idle msgs");
    let mut last = (0, 0);
    for h in [1u64, 2, 4, 8, 16] {
        let gaps = (0..4000u64).step_by(100);
        let window = gaps.filter(|&g| horizon_run(h, Some(g)) == 1).max();
        let (window, idle) = (window.unwrap_or(0), horizon_run(h, None));
        j.row(
            &format!("{h}|~{window} ms|{idle}"),
            window > last.0 && idle > last.1,
        );
        last = (window, idle);
    }
    j.claim(
        "Prediction horizon|§5.3|A2 2×3, h = 1–16",
        format!("both grow at {} steps", j.tally()),
        "Running more empty rounds before quiescing keeps Δ = 1 longer after traffic \
stops, for more idle messages. `RoundBroadcast::with_idle_rounds(h)` runs up to h empty \
rounds after the last useful one; h = 1 is Algorithm A2. The window is the longest gap \
(100 ms steps) after 8 broadcasts at which a probe still has Δ = 1; `idle msgs` is what \
one broadcast costs after its last delivery. **Holds when** both grow with every h.",
    )
}

fn latency_shape() -> Claim {
    let mut j = Judged::new("k|arm|Δ|wall/L at L = 10 ms|50 ms|100 ms|250 ms|500 ms|tight");
    for k in [2usize, 4] {
        for name in ["a1", "skeen", "fritzke", "ring", "rodrigues"] {
            let arm = StackRegistry::standard().by_name(name).expect("an arm");
            let lats = [10u64, 50, 100, 250, 500].map(Duration::from_millis);
            let probes = lats.map(|l| (l, arm.probe(k, 2, NetConfig::wan(l))));
            let bound = |l: Duration, p: ArmProbe| l * p.degree as u32 + Duration::from_millis(1);
            let within = |&(l, p): &(Duration, ArmProbe)| 2 * l <= p.wall && p.wall <= bound(l, p);
            let ratios = probes.map(|(l, p)| p.wall.as_secs_f64() / l.as_secs_f64());
            let degree = probes[0].1.degree;
            let tight = ratios.iter().all(|r| r.round() as u64 == degree);
            let mut row = format!("{k}|{name}|{degree}");
            for r in ratios {
                row += &format!("|{r:.2}");
            }
            j.row(
                &format!("{row}|{}", yes_no(tight)),
                probes.iter().all(within),
            );
        }
    }
    j.claim(
        "Latency shape|§2.3|5 multicast arms, k ∈ {2, 4}, d = 2",
        format!("{} rows within bounds", j.tally()),
        "With inter-group delay L, Δ·L bounds a failure-free multicast's wall-clock \
latency. The [Figure 1(a)](#figure-1a) probes with every inter-group link at L. §2.3's \
clock ticks at every inter-group send on the causal path to the last delivery, so \
wall ≤ Δ·L plus 0.1 ms per intra-group hop; Prop 3.1 puts wall ≥ 2L. **Holds when** \
2L ≤ wall ≤ Δ·L + 1 ms at every L. `tight`: wall/L rounds to Δ at every L. It does not \
for Rodrigues at k = 2 (3L for Δ = 4): its consensus coordinator sends its own \
proposal and, 0.1 ms later, its `Accept`, both inter-group, so its clock ticks twice \
within one hop (EXPERIMENTS.md E8).",
    )
}

fn crash_recovery() -> Claim {
    let a1 = |p, t: &Topology| GenuineMulticast::new(p, t, MulticastConfig::default());
    let a2 = RoundBroadcast::new;
    let (us, at, zero) = (SimTime::from_micros, SimTime::from_millis, SimTime::ZERO);
    let cases = [
        ("A1, caster", crash(a1, &[(us(150), 0)], zero, true)),
        ("A1, coordinator", crash(a1, &[(at(50), 3)], at(60), false)),
        (
            "A1, one per group",
            crash(a1, &[(at(10), 1), (at(20), 5)], at(30), false),
        ),
        ("A2, caster", crash(a2, &[(us(200), 0)], zero, true)),
        ("A2, coordinator", crash(a2, &[(at(100), 3)], zero, false)),
    ];
    let mut j = Judged::new("protocol, crashed|delivered|§2.2 invariants|wall");
    for (scenario, (delivered, ok, wall)) in cases {
        let cells = format!("{scenario}|{}|{}|{wall}", yes_no(delivered), yes_no(ok));
        j.row(&cells, delivered && ok);
    }
    j.claim(
        "Crash recovery|§2.1, §4–§5|A1 and A2, 2×3, 5 crash scenarios",
        format!("{} deliver, properties intact", j.tally()),
        "A1 and A2 deliver, with every §2.2 property intact, through caster and \
coordinator crashes of a minority of each group. One message from process 0 to both \
groups of 2×3; the failure detector reports a crash after 300 ms. **Holds when** every \
scenario delivers and every §2.2 property holds.",
    )
}

/// One crash scenario on 2×3: delivered, invariants hold, wall.
fn crash<P: Protocol>(
    factory: impl FnMut(ProcessId, &Topology) -> P,
    crashes: &[(SimTime, u32)],
    cast_at: SimTime,
    settle: bool,
) -> (bool, bool, String) {
    let cfg = SimConfig::default().with_seed(0xE9);
    let mut sim = Simulation::new(Topology::symmetric(2, 3), cfg, factory);
    for &(t, p) in crashes {
        sim.crash_at(t, ProcessId(p));
    }
    let id = sim.cast_at(cast_at, ProcessId(0), GroupSet::first_n(2), Payload::new());
    let delivered = sim.run_until_delivered(&[id], SimTime::from_millis(600_000));
    if settle {
        sim.run_until(sim.now() + Duration::from_secs(60));
    }
    let m = sim.metrics();
    let ok = invariants::check_all(sim.topology(), m, &sim.alive_processes()).is_ok();
    (delivered, ok, m.delivery_latency(id).map_or("-".into(), ms))
}

/// The open-loop load of the loaded claims: 50 casts/s for 0.5 s on k×2,
/// Zipf 0.99 over group pairs (all groups for broadcast arms).
fn light_load(seed: u64) -> ScaleConfig {
    ScaleConfig {
        per_group: 2,
        rate_per_sec: 50.0,
        horizon: Duration::from_millis(500),
        theta: 0.99,
        seed,
        max_steps: 20_000_000,
    }
}

fn validity_under_load() -> Claim {
    let cfg = light_load(0xE13);
    let arms = StackRegistry::standard().arms();
    let cells: Vec<_> = arms.map(|arm| scale::run_cell(arm, 3, &cfg)).collect();
    let committed = |c: &&scale::ScaleCell| c.commit.count() == c.casts;
    let ok = cells.iter().filter(|c| c.dnf.is_none()).filter(committed);
    let ok = ok.count();
    Claim {
        title: "Validity under load",
        paper: "§2.2",
        scope: "every registry arm, 3×2, 50 casts/s for 0.5 s",
        measured: format!("{ok}/{} arms commit every cast", cells.len()),
        holds: ok == cells.len(),
        body: format!(
            "Every arm delivers every cast at every addressee when casts overlap. Each \
arm's probe stack runs an open-loop Poisson stream (Zipf 0.99 over group pairs, or all \
groups for broadcast arms; seed 0xE13); latencies in ms. **Holds when** every arm \
converges and commits every cast at every addressee.\n\n{}",
            scale::table(&cells).markdown()
        ),
    }
}

/// E9's offered load: Poisson casts per virtual second.
const BATCH_RATE: f64 = 2_000.0;

/// How many times fewer copies per message batch 64 must send than the
/// eager schedule.
const MIN_BATCH64_GAIN: f64 = 5.0;

/// The batch window for a batch of `size` at `rate_per_sec`: 1.5× the
/// expected fill time, clamped to `[1, 200]` ms, so the size trigger (not
/// the timer) closes most batches while a low backlog still flushes
/// quickly.
fn batch_window(size: usize, rate_per_sec: f64) -> Duration {
    let fill = size as f64 / rate_per_sec * 1.5;
    Duration::from_secs_f64(fill.clamp(0.001, 0.2))
}

/// E9's run at batch `size` (1: the eager schedule): A1 on 3×2 under one
/// Poisson plan, 2 s of casts uniform over group pairs, judged by §2.2
/// and genuineness.
fn batching_cell(size: usize) -> ScaleCell {
    let (topo, horizon, seed) = (shared_topology(3, 2), Duration::from_secs(2), 0xE9);
    let plan = poisson(&topo, BATCH_RATE, horizon, &all_group_pairs(&topo), seed);
    let batch = match size {
        1 => BatchConfig::disabled(),
        _ => BatchConfig::new(size).with_max_delay(batch_window(size, BATCH_RATE)),
    };
    let cfg = a1_stack_config(Some(batch), None);
    let (status, m) = scale::drive_open_loop(
        Arc::clone(&topo),
        &plan,
        seed,
        20_000_000,
        scale::deadline(horizon),
        InvariantProfile::GENUINE_UNIFORM,
        |p, t| GenuineMulticast::new(p, t, cfg),
    );
    ScaleCell::from_run("a1", &topo, plan.len(), status, &m)
}

/// Protocol copies, intra- and inter-group, per planned cast.
fn sends(c: &ScaleCell) -> f64 {
    (c.inter_sends + c.intra_sends) as f64 / c.casts as f64
}

/// Handler invocations per planned cast.
fn steps(c: &ScaleCell) -> f64 {
    c.steps as f64 / c.casts as f64
}

fn batching_amortisation() -> Claim {
    let cells = [1, 4, 16, 64, 256].map(|size| (size, batching_cell(size)));
    let eager = sends(&cells[0].1);
    let mut j =
        Judged::new("batch|sends/msg|steps/msg|gain over eager|lat p50|lat p99|lat p999|status");
    let mut gain64 = 0.0;
    for (size, c) in &cells {
        let gain = eager / sends(c);
        let batch = match size {
            1 => "off".to_string(),
            _ => size.to_string(),
        };
        let lat = percentile_cells(&c.commit).join("|");
        let row = format!(
            "{batch}|{:.1}|{:.1}|{gain:.1}×|{lat}|{}",
            sends(c),
            steps(c),
            c.status()
        );
        if *size == 64 {
            gain64 = gain;
        }
        j.row(
            &row,
            c.dnf.is_none() && (*size != 64 || gain >= MIN_BATCH64_GAIN),
        );
    }
    j.claim(
        "Batching amortisation|§4 (A1), E9|A1 3×2, 2 000 casts/s for 2 s, batch off–256",
        format!("batch 64 sends {gain64:.1}× fewer copies per message than eager"),
        "Pooling fresh messages into one consensus proposal (`BatchConfig`) amortises \
A1's per-message cost. One open-loop Poisson plan on 3×2, 2 000 casts/s for 2 s, \
destinations uniform over group pairs (seed 0xE9), run with batching off and at four \
batch sizes; a batch closes at its size or after 1.5× its expected fill time (1–200 ms). \
`sends/msg` counts every protocol copy, intra- and inter-group, per cast; `steps/msg` \
counts handler invocations; latencies (cast to last delivery) in ms. **Holds when** \
every run converges with every §2.2 property and genuineness intact, and batch 64 sends \
at least 5× fewer copies per message than the eager schedule.",
    )
}

/// How much a genuine arm's inter-group copies per cast may grow from
/// 16 groups to its largest group count.
const MAX_GENUINE_GROWTH: f64 = 1.5;

fn genuineness_at_scale() -> Claim {
    let cfg = light_load(0xE14);
    let mut j = Judged::new("arm|k|n|casts|bystanders|silent|inter/op|vs k = 16|status");
    let mut worst = 0f64;
    for arm in StackRegistry::standard().arms() {
        let genuine = arm.profile().genuine;
        let ks: &[usize] = if genuine { &[16, 32, 128] } else { &[16, 32] };
        let cells: Vec<_> = ks.iter().map(|&k| scale::run_cell(arm, k, &cfg)).collect();
        let base = cells[0].inter_per_op();
        for (i, c) in cells.iter().enumerate() {
            let (growth, largest) = (c.inter_per_op() / base, i + 1 == cells.len());
            let silent = match c.bystanders {
                0 => "-",
                _ if c.bystanders_active == 0 => "yes",
                _ => "no",
            };
            let holds = if genuine {
                let quiet = c.bystanders > 0 && c.bystanders_active == 0;
                quiet && (!largest || growth <= MAX_GENUINE_GROWTH)
            } else {
                !largest || growth > 1.0
            };
            if genuine && largest {
                worst = worst.max(growth);
            }
            let row = format!(
                "{}|{}|{}|{}|{}|{silent}|{:.1}|{growth:.2}×|{}",
                c.arm,
                c.groups,
                c.processes(),
                c.casts,
                c.bystanders,
                c.inter_per_op(),
                c.status()
            );
            j.row(&row, c.dnf.is_none() && holds);
        }
    }
    j.claim(
        "Genuineness at scale|§2.2, Fig. 1(a)|every registry arm, k = 16 and 32 (genuine: 128), d = 2",
        format!(
            "{} rows as stated; genuine inter/op ≤ {worst:.2}× its k = 16 value",
            j.tally()
        ),
        "A genuine multicast involves only a message's caster and addressees (§2.2), so its \
cost follows |dest|, not the number of groups k; a broadcast arm pays every group. Each \
arm's probe stack runs an open-loop Poisson stream, 50 casts/s for 0.5 s, Zipf 0.99 over \
group pairs, or all groups for broadcast arms (seed 0xE14), on k×2; genuine arms also run \
at k = 128, whose group ids fill both words of a `GroupSet`. `bystanders` are the \
processes no cast involves, and `silent` says none of them sent or received a message; \
`inter/op` counts inter-group copies per cast, `vs k = 16` its ratio to the arm's k = 16 \
row. **Holds when** every run converges with the arm's §2.2 properties intact, every \
genuine row has a bystander and every bystander stays silent, each genuine arm's \
inter/op at its largest k is at most 1.5× its k = 16 value, and each broadcast arm's \
grows from k = 16 to k = 32.",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_64_amortizes_at_least_5x() {
        let (eager, batched) = (batching_cell(1), batching_cell(64));
        assert_eq!((eager.dnf.clone(), batched.dnf.clone()), (None, None));
        assert_eq!(eager.casts, batched.casts, "same offered load");
        let gain = sends(&eager) / sends(&batched);
        assert!(gain >= MIN_BATCH64_GAIN, "batch 64 amortizes {gain:.2}x");
        assert!(
            steps(&batched) * 5.0 < steps(&eager),
            "batch 64 should cut steps/msg by >5x: {:.1} vs {:.1}",
            steps(&batched),
            steps(&eager)
        );
        // The batch window bounds the latency cost: two windows (s0 + s2)
        // of ~48 ms each on top of the ~300 ms WAN baseline.
        let (e, b) = (&eager.commit, &batched.commit);
        assert!(b.mean() < e.mean() + 120_000_000);
        // Every cast is one latency sample, and the percentiles are ordered.
        assert_eq!(e.count(), eager.casts);
        assert!(e.p999() >= e.p99() && e.p99() >= e.p50());
    }

    #[test]
    fn window_scales_with_size_and_rate() {
        assert_eq!(batch_window(64, 1000.0), Duration::from_micros(96_000));
        assert_eq!(
            batch_window(1, 1_000_000.0),
            Duration::from_millis(1),
            "floor"
        );
        assert_eq!(
            batch_window(10_000, 10.0),
            Duration::from_millis(200),
            "ceiling"
        );
    }

    #[test]
    fn a_streams_cast_costs_one_copy_per_process_outside_its_group() {
        for (k, d) in [(2, 2), (3, 2), (4, 3)] {
            let p = streams_probe(k, d);
            assert_eq!(
                (p.degree, p.inter_msgs),
                (1, ((k - 1) * d) as u64),
                "{k}×{d}"
            );
        }
    }
}
