//! Differential test of the §2.2 checker: [`check_with_profile`] against
//! an oracle — the earlier checker, which kept a `BTreeSet` per process
//! and a copy of every delivery sequence — on real A1 and A2 records and
//! on seeded mutations of them. The two must report the same violations,
//! element by element: same text, same order.
//!
//! Run: `cargo test -p wamcast-harness --test checker_oracle`.

use std::sync::Arc;
use std::time::Duration;
use wamcast_core::{GenuineMulticast, RoundBroadcast};
use wamcast_harness::registry::a1_stack_config;
use wamcast_harness::scenario::RETRY_INTERVAL;
use wamcast_harness::workload::{all_group_pairs, poisson, poisson_zipf, PlannedCast};
use wamcast_sim::invariants::check_with_profile;
use wamcast_sim::{
    DeliveryRecord, DeliveryTable, InvariantProfile, RunMetrics, SimConfig, Simulation,
};
use wamcast_types::{MessageId, Payload, ProcessId, Protocol, SimTime, SplitMix64, Topology};

/// The checker as it was before it worked on cast rows, kept verbatim.
#[cfg(test)]
mod oracle {
    use wamcast_sim::{InvariantProfile, InvariantReport, RunMetrics};
    use wamcast_types::{MessageId, ProcessId, Topology};

    /// Runs the checker set a stack's [`InvariantProfile`] declares: the
    /// uniform or non-uniform §2.2 suite, plus genuineness when claimed. This
    /// is the single entry point the harness calls for every registry arm.
    pub fn check_with_profile(
        topo: &Topology,
        m: &RunMetrics,
        correct: &[ProcessId],
        profile: InvariantProfile,
    ) -> InvariantReport {
        let base = if profile.uniform {
            check_all(topo, m, correct)
        } else {
            check_all_nonuniform(topo, m, correct)
        };
        if profile.genuine {
            base.merge(check_genuineness(topo, m))
        } else {
            base
        }
    }

    /// Runs every applicable checker for the *uniform* variants: uniform
    /// integrity, uniform agreement, validity, and uniform prefix order —
    /// agreement and validity quantified over `correct`, integrity and prefix
    /// order over *all* processes (uniformity: even a process that later
    /// crashed must have behaved, up to its crash, like everyone else).
    /// (Genuineness and quiescence are workload-specific; call
    /// [`check_genuineness`] / [`check_quiescence`] explicitly.)
    ///
    /// `correct` is the set of processes that never crashed in the run. For
    /// protocols that only promise the *non-uniform* properties, use
    /// [`check_all_nonuniform`].
    pub fn check_all(topo: &Topology, m: &RunMetrics, correct: &[ProcessId]) -> InvariantReport {
        check_uniform_integrity(topo, m)
            .merge(check_uniform_agreement(topo, m, correct))
            .merge(check_validity(topo, m, correct))
            .merge(check_uniform_prefix_order(topo, m))
    }

    /// The crash-aware checker set for *non-uniform* protocol variants:
    /// integrity still binds everyone, but agreement and prefix order are
    /// quantified over the correct processes only — a process that crashed may
    /// have delivered a message nobody else ever sees, or in an order of its
    /// own, without violating the (weaker) specification.
    pub fn check_all_nonuniform(
        topo: &Topology,
        m: &RunMetrics,
        correct: &[ProcessId],
    ) -> InvariantReport {
        check_uniform_integrity(topo, m)
            .merge(check_agreement(topo, m, correct))
            .merge(check_validity(topo, m, correct))
            .merge(check_prefix_order_among(topo, m, correct))
    }

    /// Uniform integrity (§2.2): every process delivers a message at most once,
    /// and only if it is addressed (`p ∈ m.dest`) and the message was cast.
    pub fn check_uniform_integrity(topo: &Topology, m: &RunMetrics) -> InvariantReport {
        let mut r = InvariantReport::default();
        for (p_idx, seq) in m.delivered_seq.iter().enumerate() {
            let p = ProcessId(p_idx as u32);
            let mut seen = std::collections::BTreeSet::new();
            for &mid in seq {
                if !seen.insert(mid) {
                    r.violations
                        .push(format!("integrity: {p} delivered {mid} more than once"));
                }
                match m.casts.get(&mid) {
                    None => r.violations.push(format!(
                        "integrity: {p} delivered {mid} which was never cast"
                    )),
                    Some(c) => {
                        if !topo.addresses(c.dest, p) {
                            r.violations.push(format!(
                                "integrity: {p} delivered {mid} but is not addressed by {:?}",
                                c.dest
                            ));
                        }
                    }
                }
            }
        }
        r
    }

    /// Membership bit-vector for a process subset: turns the per-message
    /// "is q correct?" test into an array index, so the agreement/validity
    /// checkers can quantify over `processes_in(m.dest)` (the addressed
    /// processes — O(|m.dest|·d) per message) instead of scanning every
    /// correct process per message. That is what keeps the 128-group scale
    /// runs subquadratic: a pair-addressed cast touches 2d processes, not n.
    fn membership(topo: &Topology, procs: &[ProcessId]) -> Vec<bool> {
        let mut in_set = vec![false; topo.num_processes()];
        for p in procs {
            in_set[p.index()] = true;
        }
        in_set
    }

    /// Uniform agreement (§2.2): if *any* process (even one that later crashed)
    /// delivers `m`, then every correct addressed process delivers `m`.
    pub fn check_uniform_agreement(
        topo: &Topology,
        m: &RunMetrics,
        correct: &[ProcessId],
    ) -> InvariantReport {
        let mut r = InvariantReport::default();
        let is_correct = membership(topo, correct);
        for (&mid, dels) in m.deliveries.iter() {
            if dels.is_empty() {
                continue;
            }
            let Some(c) = m.casts.get(&mid) else { continue };
            for q in topo.processes_in(c.dest) {
                if is_correct[q.index()] && !dels.contains_key(&q) {
                    r.violations.push(format!(
                        "uniform agreement: {mid} was delivered by {:?} but correct addressed \
                         process {q} never delivered it",
                        dels.keys().next().unwrap()
                    ));
                }
            }
        }
        r
    }

    /// (Non-uniform) agreement: if a *correct* process delivers `m`, every
    /// correct addressed process delivers `m`. Deliveries by processes that
    /// later crashed impose nothing — the weaker guarantee the paper's
    /// non-uniform reliable multicast is allowed to give.
    pub fn check_agreement(
        topo: &Topology,
        m: &RunMetrics,
        correct: &[ProcessId],
    ) -> InvariantReport {
        let mut r = InvariantReport::default();
        let is_correct = membership(topo, correct);
        for (&mid, dels) in m.deliveries.iter() {
            // Deliverers are in process order, so this witness — the smallest-id
            // correct deliverer — matches the old correct-set scan exactly.
            let Some(witness) = dels.keys().find(|p| is_correct[p.index()]) else {
                continue; // only crashed processes delivered: vacuous
            };
            let Some(c) = m.casts.get(&mid) else { continue };
            for q in topo.processes_in(c.dest) {
                if is_correct[q.index()] && !dels.contains_key(&q) {
                    r.violations.push(format!(
                        "agreement: {mid} was delivered by correct {witness} but correct addressed \
                         process {q} never delivered it"
                    ));
                }
            }
        }
        r
    }

    /// Validity (§2.2): if a correct process casts `m`, every correct addressed
    /// process eventually delivers `m`.
    pub fn check_validity(
        topo: &Topology,
        m: &RunMetrics,
        correct: &[ProcessId],
    ) -> InvariantReport {
        let mut r = InvariantReport::default();
        let is_correct = membership(topo, correct);
        for (&mid, c) in &m.casts {
            if !is_correct[c.caster.index()] {
                continue;
            }
            for q in topo.processes_in(c.dest) {
                if is_correct[q.index()] && !m.has_delivered(q, mid) {
                    r.violations.push(format!(
                        "validity: {mid} cast by correct {} but correct addressed {q} never \
                         delivered it",
                        c.caster
                    ));
                }
            }
        }
        r
    }

    /// Uniform prefix order (§2.2): for any processes p, q — *including* ones
    /// that later crashed — the projections of their delivery sequences onto
    /// messages addressed to both are prefix-comparable. Because sequences are
    /// append-only, checking the final sequences is equivalent to checking at
    /// every instant t.
    pub fn check_uniform_prefix_order(topo: &Topology, m: &RunMetrics) -> InvariantReport {
        let all: Vec<ProcessId> = topo.processes().collect();
        check_prefix_order_among(topo, m, &all)
    }

    /// Prefix order quantified over a subset of processes — for the
    /// non-uniform variants, pass the correct set so that a crashed process's
    /// divergent tail does not count against the (weaker) specification.
    pub fn check_prefix_order_among(
        topo: &Topology,
        m: &RunMetrics,
        procs: &[ProcessId],
    ) -> InvariantReport {
        let mut r = InvariantReport::default();
        // Annotate every process's delivery sequence with its messages'
        // destination sets once — O(deliveries) map lookups total — so the
        // projections below cost two bit tests per element instead of
        // re-querying the cast table.
        let annotated: Vec<Vec<(MessageId, wamcast_types::GroupSet)>> = procs
            .iter()
            .map(|p| {
                m.delivered_seq[p.index()]
                    .iter()
                    .filter_map(|mid| m.casts.get(mid).map(|c| (*mid, c.dest)))
                    .collect()
            })
            .collect();
        let project = |rows: &[(MessageId, wamcast_types::GroupSet)],
                       ga: wamcast_types::GroupId,
                       gb: wamcast_types::GroupId|
         -> Vec<MessageId> {
            rows.iter()
                .filter(|(_, dest)| dest.contains(ga) && dest.contains(gb))
                .map(|&(mid, _)| mid)
                .collect()
        };
        // Group-pair decomposition instead of the former O(|procs|²) pair
        // scan. For a pair of groups {gA, gB}, every process of gA ∪ gB is
        // projected by the *same* filter (dest ⊇ {gA, gB}), so pairwise
        // prefix-comparability of those projections is equivalent to "each is
        // a prefix of the longest" (two prefixes of one sequence are always
        // mutually prefix-comparable, and any non-prefix is itself a violating
        // pair with the longest). That turns n² sequence comparisons into
        // G²·(d_A+d_B) transient projections — the checker-side half of
        // keeping 128-group, 1000+-process scale runs tractable.
        let mut by_group: Vec<Vec<usize>> = vec![Vec::new(); topo.num_groups()];
        for (i, &p) in procs.iter().enumerate() {
            by_group[topo.group_of(p).index()].push(i);
        }
        let present: Vec<usize> = (0..topo.num_groups())
            .filter(|&g| !by_group[g].is_empty())
            .collect();
        for (ai, &ga) in present.iter().enumerate() {
            for &gb in &present[ai..] {
                let members: Vec<usize> = if ga == gb {
                    by_group[ga].clone()
                } else {
                    // Ascending overall: process ids are dense per group and
                    // ga < gb, so the concatenation preserves procs order.
                    by_group[ga].iter().chain(&by_group[gb]).copied().collect()
                };
                if members.len() < 2 {
                    continue;
                }
                let (g_a, g_b) = (
                    wamcast_types::GroupId(ga as u16),
                    wamcast_types::GroupId(gb as u16),
                );
                let projections: Vec<Vec<MessageId>> = members
                    .iter()
                    .map(|&i| project(&annotated[i], g_a, g_b))
                    .collect();
                // First longest projection (ties break to the earlier
                // process, keeping reports deterministic).
                let li = projections
                    .iter()
                    .enumerate()
                    .max_by(|(i, a), (j, b)| a.len().cmp(&b.len()).then(j.cmp(i)))
                    .map(|(i, _)| i)
                    .unwrap();
                let longest = &projections[li];
                for (i, sp) in projections.iter().enumerate() {
                    if i == li || sp[..] == longest[..sp.len()] {
                        continue;
                    }
                    let at = (0..sp.len()).find(|&j| sp[j] != longest[j]).unwrap();
                    // Name the smaller-indexed process first, its element
                    // first — the same orientation the pairwise scan printed.
                    let (p, q, vp, vq) = if members[i] < members[li] {
                        (procs[members[i]], procs[members[li]], sp[at], longest[at])
                    } else {
                        (procs[members[li]], procs[members[i]], longest[at], sp[at])
                    };
                    r.violations.push(format!(
                        "prefix order: {p} and {q} diverge at position {at}: {vp} vs {vq}"
                    ));
                }
            }
        }
        r
    }

    /// The processes no cast of the run involves: neither the caster of any
    /// message nor a member of any addressed group. Genuineness (§2.2) says
    /// exactly these stay silent, so a run without any judges it vacuously.
    pub fn bystanders(topo: &Topology, m: &RunMetrics) -> Vec<ProcessId> {
        // One pass over the casts up front (instead of one pass per process):
        // a process is involved iff it cast something or its group is in some
        // destination set — both are O(1) lookups after this fold.
        let mut cast_something = vec![false; topo.num_processes()];
        let mut addressed_groups = wamcast_types::GroupSet::new();
        for c in m.casts.values() {
            cast_something[c.caster.index()] = true;
            addressed_groups |= c.dest;
        }
        let involved =
            |p: ProcessId| cast_something[p.index()] || addressed_groups.contains(topo.group_of(p));
        topo.processes().filter(|&p| !involved(p)).collect()
    }

    /// Genuineness (§2.2, from [Guerraoui & Schiper 2001]): a process sends or
    /// receives protocol messages only if some cast message involves it (it is
    /// the caster or is addressed). Checked against the run's workload: every
    /// one of its [`bystanders`] must have sent and received nothing.
    pub fn check_genuineness(topo: &Topology, m: &RunMetrics) -> InvariantReport {
        let mut r = InvariantReport::default();
        for p in bystanders(topo, m) {
            if m.sent_any[p.index()] || m.received_any[p.index()] {
                let what = if m.sent_any[p.index()] {
                    "sent"
                } else {
                    "received"
                };
                r.violations.push(format!(
                    "genuineness: {p} {what} protocol messages but no cast message involves it"
                ));
            }
        }
        r
    }
}

/// A finished run: its topology, record and the processes that never
/// crashed.
struct Record {
    name: String,
    topo: Topology,
    m: RunMetrics,
    alive: Vec<ProcessId>,
}

/// Runs `plan`'s casts on the stack `factory` builds, crashing `crash` (if
/// any) at 60 ms, to quiescence.
fn record<P: Protocol>(
    name: String,
    topo: Topology,
    seed: u64,
    plan: &[PlannedCast],
    crash: Option<ProcessId>,
    factory: impl FnMut(ProcessId, &Topology) -> P,
) -> Record {
    let cfg = SimConfig::default().with_seed(seed).with_send_log(false);
    let mut sim = Simulation::new_shared(Arc::new(topo), cfg, factory);
    for c in plan {
        sim.cast_at(c.at, c.caster, c.dest, Payload::new());
    }
    if let Some(p) = crash {
        sim.crash_at(SimTime::from_millis(60), p);
    }
    sim.run_to_quiescence();
    Record {
        name,
        topo: sim.topology().clone(),
        alive: sim.alive_processes(),
        m: sim.into_metrics(),
    }
}

/// Arrival horizon of the records' plans: a few hundred casts on 3×3.
const HORIZON: Duration = Duration::from_millis(150);

fn a1(p: ProcessId, t: &Topology) -> GenuineMulticast {
    GenuineMulticast::new(p, t, a1_stack_config(None, Some(RETRY_INTERVAL)))
}

fn a2(p: ProcessId, t: &Topology) -> RoundBroadcast {
    RoundBroadcast::with_pacing(p, t, Duration::from_millis(10)).with_retry(RETRY_INTERVAL)
}

/// Real 3×3 A1 and A2 records over several seeds — A1 to every pair of
/// groups and to all, A2 to all, some with a process crashed mid-run —
/// and one record shaped like the scale runs: 16 groups of 2, A1 to
/// Zipf-skewed group pairs.
fn records() -> Vec<Record> {
    let mut out = Vec::new();
    for seed in 1..=3u64 {
        let topo = Topology::symmetric(3, 3);
        let crash = (seed == 3).then_some(ProcessId(4));
        let mut dests = all_group_pairs(&topo);
        dests.push(topo.all_groups());
        let plan = poisson(&topo, 2000.0, HORIZON, &dests, seed);
        out.push(record(
            format!("a1 seed {seed}"),
            topo.clone(),
            seed,
            &plan,
            crash,
            a1,
        ));
        let plan = poisson(&topo, 2000.0, HORIZON, &[topo.all_groups()], seed);
        out.push(record(
            format!("a2 seed {seed}"),
            topo,
            seed,
            &plan,
            crash,
            a2,
        ));
    }
    let topo = Topology::symmetric(16, 2);
    let plan = poisson_zipf(&topo, 2000.0, HORIZON, &all_group_pairs(&topo), 0.99, 5);
    out.push(record("a1 16x2".into(), topo, 5, &plan, None, a1));
    out
}

/// One way to corrupt a record's delivery sequences.
#[derive(Clone, Copy, Debug)]
enum Mutation {
    None,
    /// Swap two deliveries at one process.
    Swap,
    /// Deliver one message a second time, later.
    Duplicate,
    /// Drop one delivery.
    Drop,
    /// Deliver an id that was never cast, twice.
    UncastTwice,
    /// Deliver a message at a process it does not address.
    Unaddressed,
    /// Cut a process's sequence short.
    Truncate,
}

const MUTATIONS: [Mutation; 7] = [
    Mutation::None,
    Mutation::Swap,
    Mutation::Duplicate,
    Mutation::Drop,
    Mutation::UncastTwice,
    Mutation::Unaddressed,
    Mutation::Truncate,
];

/// `m` with `mutation` applied at a process and positions `rng` picks.
fn mutate(topo: &Topology, m: &RunMetrics, mutation: Mutation, rng: &mut SplitMix64) -> RunMetrics {
    let mut m = m.clone();
    let n = topo.num_processes();
    let p = ProcessId(rng.next_below(n as u64) as u32);
    let seq = &mut m.delivered_seq[p.index()];
    let pick = |rng: &mut SplitMix64, len: usize| rng.next_below(len.max(1) as u64) as usize;
    match mutation {
        Mutation::None => {}
        Mutation::Swap if seq.len() >= 2 => {
            let (i, j) = (pick(rng, seq.len()), pick(rng, seq.len()));
            seq.swap(i, j);
        }
        Mutation::Duplicate if !seq.is_empty() => {
            let i = pick(rng, seq.len());
            let j = i + 1 + pick(rng, seq.len() - i);
            let id = seq[i];
            seq.insert(j, id);
        }
        Mutation::Drop if !seq.is_empty() => {
            let i = pick(rng, seq.len());
            seq.remove(i);
        }
        Mutation::UncastTwice => {
            let origin = ProcessId(rng.next_below(n as u64 + 2) as u32);
            let id = MessageId::new(origin, 1 << 40 | rng.next_below(8));
            seq.push(id);
            let i = pick(rng, seq.len());
            seq.insert(i, id);
        }
        Mutation::Unaddressed => {
            let g = topo.group_of(p);
            let start = pick(rng, m.casts.len());
            let mut stray = m.casts.iter().cycle().skip(start).take(m.casts.len());
            if let Some((&id, _)) = stray.find(|(_, c)| !c.dest.contains(g)) {
                let seq = &mut m.delivered_seq[p.index()];
                let i = pick(rng, seq.len() + 1);
                seq.insert(i, id);
            }
        }
        Mutation::Truncate => {
            let keep = pick(rng, seq.len());
            seq.truncate(keep);
        }
        _ => {}
    }
    m
}

/// `m` with its delivery table rebuilt from its (mutated) sequences, so
/// agreement and validity see the mutation too. A delivery the run
/// recorded keeps its record.
fn with_deliveries_from_sequences(topo: &Topology, mut m: RunMetrics) -> RunMetrics {
    let mut table = DeliveryTable::default();
    for (p, seq) in topo.processes().zip(&m.delivered_seq) {
        for id in seq {
            let rec = m
                .deliveries
                .get(id)
                .and_then(|d| d.get(&p).copied())
                .unwrap_or(DeliveryRecord {
                    time: m.end_time,
                    stamp: 0,
                });
            let room = || {
                m.casts
                    .get(id)
                    .map_or(1, |c| topo.processes_in(c.dest).count())
            };
            table.insert(*id, p, rec, room);
        }
    }
    m.deliveries = table;
    m
}

const PROFILES: [InvariantProfile; 4] = [
    InvariantProfile::GENUINE_UNIFORM,
    InvariantProfile::GENUINE_NONUNIFORM,
    InvariantProfile::BROADCAST_UNIFORM,
    InvariantProfile::BROADCAST_NONUNIFORM,
];

/// Every record, under every mutation (four seeded draws each, with and
/// without the delivery table following the sequences), judged under
/// every profile with the processes that never crashed as the correct
/// set and, for the non-uniform profiles, with two more of them counted
/// as crashed: both checkers report exactly the same violations. The
/// corpus must reach every kind of violation the uniform and non-uniform
/// suites name.
#[test]
fn checker_reports_what_the_oracle_reports() {
    let mut kinds = std::collections::BTreeSet::new();
    let mut judged = 0;
    for rec in records() {
        let topo = &rec.topo;
        let mut rng = SplitMix64::new(rec.m.steps);
        for mutation in MUTATIONS {
            for draw in 0..4 {
                let mutated = mutate(topo, &rec.m, mutation, &mut rng);
                let mutated = if draw % 2 == 1 {
                    with_deliveries_from_sequences(topo, mutated)
                } else {
                    mutated
                };
                let mut fewer = rec.alive.clone();
                for _ in 0..2 {
                    fewer.remove(rng.next_below(fewer.len() as u64) as usize);
                }
                for profile in PROFILES {
                    let sets: &[&[ProcessId]] = if profile.uniform {
                        &[&rec.alive]
                    } else {
                        &[&rec.alive, &fewer]
                    };
                    for &correct in sets {
                        let want = oracle::check_with_profile(topo, &mutated, correct, profile);
                        let got = check_with_profile(topo, &mutated, correct, profile);
                        assert_eq!(
                            got.violations, want.violations,
                            "{}, {mutation:?} draw {draw}, {profile:?}, correct {correct:?}",
                            rec.name
                        );
                        for v in &want.violations {
                            let kind = ["more than once", "never cast", "not addressed"]
                                .into_iter()
                                .find(|k| v.contains(k))
                                .unwrap_or_else(|| v.split(':').next().unwrap_or_default());
                            kinds.insert(kind.to_string());
                        }
                        judged += 1;
                    }
                }
            }
        }
    }
    let want = [
        "agreement",
        "more than once",
        "never cast",
        "not addressed",
        "prefix order",
        "uniform agreement",
        "validity",
    ];
    for kind in want {
        assert!(
            kinds.contains(kind),
            "no {kind} violation in the corpus: {kinds:?}"
        );
    }
    assert!(judged > 1_000, "{judged} judgements");
}
