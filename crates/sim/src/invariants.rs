//! Checkers for the agreement properties of §2.2 and the genuineness and
//! quiescence definitions of §2.2/§3.
//!
//! Each checker inspects a finished run's [`RunMetrics`] and returns the list
//! of violations it found (empty = the property held). Tests and the
//! experiment harness call [`check_all`] on every run so that a protocol
//! regression surfaces as a named property violation, not a mystery diff.

use crate::RunMetrics;
use wamcast_types::{MessageId, ProcessId, SimTime, Topology};

/// Which specification variant a protocol stack *declares* — the checker
/// selection knob the stack registry (`wamcast-harness`) attaches to every
/// hosted arm.
///
/// The §2.2 suite is not one-size-fits-all: a broadcast-only baseline that
/// sends every message to every process satisfies genuineness vacuously
/// (checking it would prove nothing), and a non-uniform algorithm is
/// *allowed* to let a crashed process's delivery prefix diverge. A run is
/// therefore judged against what its protocol promises —
/// [`check_with_profile`] — rather than against the strongest property set
/// only the paper's algorithms claim.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InvariantProfile {
    /// `true`: the §2.2 *uniform* suite (agreement and prefix order bind
    /// even processes that later crashed). `false`: the non-uniform suite
    /// ([`check_all_nonuniform`]) — agreement/prefix order quantified over
    /// correct processes only.
    pub uniform: bool,
    /// `true`: the stack claims genuineness (§2.2) and
    /// [`check_genuineness`] runs against the workload. `false` for
    /// broadcast-only algorithms, where every process is involved in every
    /// message by construction.
    pub genuine: bool,
}

impl InvariantProfile {
    /// Genuine multicast with uniform §2.2 properties (A1, Skeen, ring…).
    pub const GENUINE_UNIFORM: InvariantProfile = InvariantProfile {
        uniform: true,
        genuine: true,
    };
    /// Genuine multicast with non-uniform agreement/order.
    pub const GENUINE_NONUNIFORM: InvariantProfile = InvariantProfile {
        uniform: false,
        genuine: true,
    };
    /// Broadcast-only, uniform (A2, uniform sequencers).
    pub const BROADCAST_UNIFORM: InvariantProfile = InvariantProfile {
        uniform: true,
        genuine: false,
    };
    /// Broadcast-only, non-uniform (optimistic sequencers).
    pub const BROADCAST_NONUNIFORM: InvariantProfile = InvariantProfile {
        uniform: false,
        genuine: false,
    };
}

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

/// Outcome of checking one run against the specification.
#[derive(Clone, Debug, Default)]
pub struct InvariantReport {
    /// Human-readable violations; empty means all checked properties held.
    pub violations: Vec<String>,
}

impl InvariantReport {
    /// Whether the run satisfied every checked property.
    pub fn is_ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Panics with the violation list unless the report is clean. Intended
    /// for tests.
    ///
    /// # Panics
    ///
    /// Panics if any violation was recorded.
    pub fn assert_ok(&self) {
        assert!(
            self.is_ok(),
            "invariant violations:\n  {}",
            self.violations.join("\n  ")
        );
    }

    /// Concatenates two reports (checker composition).
    pub fn merge(mut self, other: InvariantReport) -> InvariantReport {
        self.violations.extend(other.violations);
        self
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
pub fn check_agreement(topo: &Topology, m: &RunMetrics, correct: &[ProcessId]) -> InvariantReport {
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
pub fn check_validity(topo: &Topology, m: &RunMetrics, correct: &[ProcessId]) -> InvariantReport {
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

/// Genuineness (§2.2, from [Guerraoui & Schiper 2001]): a process sends or
/// receives protocol messages only if some cast message involves it (it is
/// the caster or is addressed). Checked against the run's workload.
pub fn check_genuineness(topo: &Topology, m: &RunMetrics) -> InvariantReport {
    let mut r = InvariantReport::default();
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
    for p in topo.processes() {
        if (m.sent_any[p.index()] || m.received_any[p.index()]) && !involved(p) {
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

/// Quiescence (§5, Proposition A.9): after `t`, no messages are sent. `t` is
/// typically "the time by which every cast message was delivered everywhere,
/// plus a grace period".
///
/// Judged by [`RunMetrics::last_send_time`], which the engine sets on every
/// send; the count of late sends is reported only when the send log was
/// kept.
pub fn check_quiescence(m: &RunMetrics, after: SimTime) -> InvariantReport {
    let mut r = InvariantReport::default();
    if m.last_send_time > after {
        let what = match m.sends_after(after) {
            0 => "messages (send log off: count unknown)".to_string(),
            n => format!("{n} messages"),
        };
        r.violations.push(format!(
            "quiescence: {what} sent after {after} (last at {})",
            m.last_send_time
        ));
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{CastRecord, DeliveryRecord, DeliveryTable};
    use wamcast_types::{GroupId, GroupSet};

    fn mid(o: u32, s: u64) -> MessageId {
        MessageId::new(ProcessId(o), s)
    }

    /// Two groups of one process; m0 addressed to both, delivered by both.
    fn good_run() -> (Topology, RunMetrics) {
        run_delivered_by(&[ProcessId(0), ProcessId(1)])
    }

    /// Two groups of one process; m0 addressed to both, delivered by
    /// `deliverers`.
    fn run_delivered_by(deliverers: &[ProcessId]) -> (Topology, RunMetrics) {
        let topo = Topology::symmetric(2, 1);
        let mut m = RunMetrics::new(2);
        m.casts.insert(
            mid(0, 0),
            CastRecord {
                caster: ProcessId(0),
                dest: GroupSet::first_n(2),
                time: SimTime::ZERO,
                stamp: 0,
            },
        );
        for &p in deliverers {
            let rec = DeliveryRecord {
                time: SimTime::from_millis(1),
                stamp: 1,
            };
            m.deliveries.insert(mid(0, 0), p, rec, || 2);
            m.delivered_seq[p.index()].push(mid(0, 0));
        }
        (topo, m)
    }

    #[test]
    fn clean_run_passes_everything() {
        let (topo, m) = good_run();
        let correct = vec![ProcessId(0), ProcessId(1)];
        check_all(&topo, &m, &correct).assert_ok();
        check_genuineness(&topo, &m).assert_ok();
        check_quiescence(&m, SimTime::ZERO).assert_ok();
    }

    #[test]
    fn duplicate_delivery_is_flagged() {
        let (topo, mut m) = good_run();
        m.delivered_seq[0].push(mid(0, 0));
        let r = check_uniform_integrity(&topo, &m);
        assert!(!r.is_ok());
        assert!(r.violations[0].contains("more than once"));
    }

    #[test]
    fn delivery_without_cast_is_flagged() {
        let (topo, mut m) = good_run();
        m.delivered_seq[0].push(mid(5, 5));
        let r = check_uniform_integrity(&topo, &m);
        assert!(r.violations.iter().any(|v| v.contains("never cast")));
    }

    #[test]
    fn delivery_outside_dest_is_flagged() {
        let topo = Topology::symmetric(2, 1);
        let mut m = RunMetrics::new(2);
        m.casts.insert(
            mid(0, 0),
            CastRecord {
                caster: ProcessId(0),
                dest: GroupSet::singleton(GroupId(0)),
                time: SimTime::ZERO,
                stamp: 0,
            },
        );
        m.delivered_seq[1].push(mid(0, 0)); // p1 ∉ m.dest
        let r = check_uniform_integrity(&topo, &m);
        assert!(r.violations.iter().any(|v| v.contains("not addressed")));
    }

    #[test]
    fn missing_delivery_violates_agreement() {
        let (topo, m) = run_delivered_by(&[ProcessId(0)]);
        let r = check_uniform_agreement(&topo, &m, &[ProcessId(0), ProcessId(1)]);
        assert!(!r.is_ok());
        // But if p1 crashed, agreement holds vacuously.
        let r2 = check_uniform_agreement(&topo, &m, &[ProcessId(0)]);
        assert!(r2.is_ok());
    }

    #[test]
    fn undelivered_cast_violates_validity() {
        let (topo, mut m) = good_run();
        m.deliveries = DeliveryTable::default();
        m.delivered_seq.iter_mut().for_each(Vec::clear);
        let r = check_validity(&topo, &m, &[ProcessId(0), ProcessId(1)]);
        assert_eq!(r.violations.len(), 2, "neither correct process delivered");
        // A faulty caster's message may be lost without violating validity.
        let r2 = check_validity(&topo, &m, &[ProcessId(1)]);
        assert!(r2.is_ok());
    }

    #[test]
    fn divergent_orders_violate_prefix_order() {
        let topo = Topology::symmetric(2, 1);
        let mut m = RunMetrics::new(2);
        for s in 0..2 {
            m.casts.insert(
                mid(0, s),
                CastRecord {
                    caster: ProcessId(0),
                    dest: GroupSet::first_n(2),
                    time: SimTime::ZERO,
                    stamp: 0,
                },
            );
        }
        m.delivered_seq[0] = vec![mid(0, 0), mid(0, 1)];
        m.delivered_seq[1] = vec![mid(0, 1), mid(0, 0)];
        let r = check_uniform_prefix_order(&topo, &m);
        assert!(!r.is_ok());
        assert!(r.violations[0].contains("diverge at position 0"));
    }

    #[test]
    fn prefix_order_ignores_disjoint_messages() {
        // p delivers a message addressed only to its own group; q never sees
        // it. Projections must filter it out.
        let topo = Topology::symmetric(2, 1);
        let mut m = RunMetrics::new(2);
        m.casts.insert(
            mid(0, 0),
            CastRecord {
                caster: ProcessId(0),
                dest: GroupSet::singleton(GroupId(0)),
                time: SimTime::ZERO,
                stamp: 0,
            },
        );
        m.casts.insert(
            mid(0, 1),
            CastRecord {
                caster: ProcessId(0),
                dest: GroupSet::first_n(2),
                time: SimTime::ZERO,
                stamp: 0,
            },
        );
        m.delivered_seq[0] = vec![mid(0, 0), mid(0, 1)];
        m.delivered_seq[1] = vec![mid(0, 1)];
        check_uniform_prefix_order(&topo, &m).assert_ok();
    }

    #[test]
    fn bystander_traffic_violates_genuineness() {
        let (topo, mut m) = good_run();
        // Rebuild with 3 groups: g2's process p2 is a bystander.
        let topo3 = Topology::symmetric(3, 1);
        let mut m3 = RunMetrics::new(3);
        m3.casts = m.casts.clone();
        m3.delivered_seq[0] = m.delivered_seq.remove(0);
        m3.delivered_seq[1] = m.delivered_seq.remove(0);
        m3.sent_any[2] = true; // p2 sent something despite not being involved
        let r = check_genuineness(&topo3, &m3);
        assert!(!r.is_ok());
        assert!(r.violations[0].contains("genuineness"));
        let _ = topo;
    }

    #[test]
    fn nonuniform_agreement_ignores_crashed_deliverers() {
        // Only p0 delivered, then crashed. Uniform agreement is violated;
        // non-uniform agreement holds vacuously.
        let (topo, m) = run_delivered_by(&[ProcessId(0)]);
        let correct = vec![ProcessId(1)]; // p0 crashed
        assert!(!check_uniform_agreement(&topo, &m, &correct).is_ok());
        check_agreement(&topo, &m, &correct).assert_ok();
        // But a delivery by a *correct* process still binds.
        let correct_both = vec![ProcessId(0), ProcessId(1)];
        let r = check_agreement(&topo, &m, &correct_both);
        assert!(!r.is_ok());
        assert!(r.violations[0].contains("agreement"));
    }

    #[test]
    fn prefix_order_among_excludes_crashed_divergence() {
        let topo = Topology::symmetric(2, 1);
        let mut m = RunMetrics::new(2);
        for s in 0..2 {
            m.casts.insert(
                mid(0, s),
                CastRecord {
                    caster: ProcessId(0),
                    dest: GroupSet::first_n(2),
                    time: SimTime::ZERO,
                    stamp: 0,
                },
            );
        }
        m.delivered_seq[0] = vec![mid(0, 0), mid(0, 1)];
        m.delivered_seq[1] = vec![mid(0, 1), mid(0, 0)]; // p1 diverged, then crashed
        assert!(!check_uniform_prefix_order(&topo, &m).is_ok());
        check_prefix_order_among(&topo, &m, &[ProcessId(0)]).assert_ok();
        assert!(!check_prefix_order_among(&topo, &m, &[ProcessId(0), ProcessId(1)]).is_ok());
    }

    #[test]
    fn nonuniform_suite_accepts_weaker_runs() {
        // p1 delivered out of order and missed nothing else, then crashed:
        // the uniform suite flags it, the non-uniform suite (quantified
        // over correct = {p0}) accepts it.
        let (topo, mut m) = good_run();
        m.casts.insert(
            mid(1, 0),
            CastRecord {
                caster: ProcessId(1),
                dest: GroupSet::first_n(2),
                time: SimTime::ZERO,
                stamp: 0,
            },
        );
        let rec = DeliveryRecord {
            time: SimTime::from_millis(2),
            stamp: 1,
        };
        m.deliveries.insert(mid(1, 0), ProcessId(1), rec, || 2);
        m.delivered_seq[1].insert(0, mid(1, 0)); // p1 delivered its own m first
        let correct = vec![ProcessId(0)];
        assert!(
            !check_all(&topo, &m, &correct).is_ok(),
            "uniform suite flags it"
        );
        check_all_nonuniform(&topo, &m, &correct).assert_ok();
    }

    #[test]
    fn profile_selects_checker_strength() {
        // A run where only the later-crashed p0 delivered, with bystander
        // traffic from a third process: the genuine-uniform profile flags
        // both uniform agreement and genuineness, the broadcast-nonuniform
        // profile flags neither.
        let topo = Topology::symmetric(3, 1);
        let mut m = RunMetrics::new(3);
        m.casts.insert(
            mid(0, 0),
            CastRecord {
                caster: ProcessId(0),
                dest: GroupSet::first_n(2),
                time: SimTime::ZERO,
                stamp: 0,
            },
        );
        let rec = DeliveryRecord {
            time: SimTime::from_millis(1),
            stamp: 1,
        };
        m.deliveries.insert(mid(0, 0), ProcessId(0), rec, || 2);
        m.delivered_seq[0].push(mid(0, 0));
        m.sent_any[2] = true; // p2 is a bystander yet sent something
        let correct = vec![ProcessId(1)]; // p0 crashed after delivering
        let strict = check_with_profile(&topo, &m, &correct, InvariantProfile::GENUINE_UNIFORM);
        assert!(strict
            .violations
            .iter()
            .any(|v| v.contains("uniform agreement")));
        assert!(strict.violations.iter().any(|v| v.contains("genuineness")));
        let weak = check_with_profile(&topo, &m, &correct, InvariantProfile::BROADCAST_NONUNIFORM);
        weak.assert_ok();
        // The two middle profiles each flag exactly one of the two.
        assert_eq!(
            check_with_profile(&topo, &m, &correct, InvariantProfile::BROADCAST_UNIFORM)
                .violations
                .len(),
            1
        );
        assert_eq!(
            check_with_profile(&topo, &m, &correct, InvariantProfile::GENUINE_NONUNIFORM)
                .violations
                .len(),
            1
        );
    }

    #[test]
    fn late_sends_violate_quiescence() {
        let (_, mut m) = good_run();
        m.send_log.push(crate::metrics::SendRecord {
            time: SimTime::from_millis(500),
            from: ProcessId(0),
            to: ProcessId(1),
            inter_group: true,
        });
        m.last_send_time = SimTime::from_millis(500);
        let r = check_quiescence(&m, SimTime::from_millis(100));
        assert!(!r.is_ok());
        check_quiescence(&m, SimTime::from_millis(500)).assert_ok();
    }

    #[test]
    fn quiescence_without_the_send_log_judges_by_the_last_send() {
        let (_, mut m) = good_run();
        m.last_send_time = SimTime::from_millis(500);
        let r = check_quiescence(&m, SimTime::from_millis(100));
        assert!(r.violations[0].contains("count unknown"), "{r:?}");
        check_quiescence(&m, SimTime::from_millis(500)).assert_ok();
    }
}
