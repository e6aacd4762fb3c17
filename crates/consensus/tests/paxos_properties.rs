//! Randomized tests of the Paxos engine: random delivery orders, random
//! crash subsets (minority), random suspicion timing. The engine is driven
//! directly (no simulator) so the schedule space is explored at the message
//! level.
//!
//! The workspace builds offline without a property-testing dependency, so
//! these tests draw their inputs from the simulator's deterministic
//! [`SplitMix64`] generator: every case is reproducible from its printed
//! seed, and the loop covers the same input space a `proptest` strategy
//! would.
//!
//! Every engine forgets: the [`Fuzzer`] drains each engine's decisions as
//! they arrive and reports its floor, as A1 and A2 do, so agreement is
//! judged on the decisions recorded when drained (a forgotten instance's
//! `decision` is `None`).

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use wamcast_consensus::{ConsensusMsg, GroupConsensus, MsgSink};
use wamcast_sim::SplitMix64;
use wamcast_types::ProcessId;

/// A deterministic scheduler over engine messages: `picks` selects, at each
/// step, which pending message to deliver next (mod queue length).
struct Fuzzer {
    engines: Vec<GroupConsensus<u32>>,
    queue: VecDeque<(ProcessId, ProcessId, ConsensusMsg<u32>)>,
    crashed: Vec<bool>,
    /// Every instance proposed so far, by anyone.
    proposed: BTreeSet<u64>,
    /// Per engine, each decision in the order `take_decisions` emitted it.
    drained: Vec<BTreeMap<u64, u32>>,
}

impl Fuzzer {
    fn new(n: usize) -> Self {
        let members: Vec<_> = (0..n as u32).map(ProcessId).collect();
        Fuzzer {
            engines: members
                .iter()
                .map(|&m| GroupConsensus::new(m, members.clone()))
                .collect(),
            queue: VecDeque::new(),
            crashed: vec![false; n],
            proposed: BTreeSet::new(),
            drained: vec![BTreeMap::new(); n],
        }
    }

    fn absorb(&mut self, from: ProcessId, sink: MsgSink<u32>) {
        for (to, m) in sink.msgs {
            self.queue.push_back((from, to, m));
        }
    }

    /// Records `p`'s fresh decisions (each exactly once) and reports its
    /// floor: the lowest proposed instance it has not drained. Only `run`
    /// drains, and every proposal precedes the first `run`, so below that
    /// floor `p` never proposes or needs anything again.
    fn drain(&mut self, p: ProcessId) {
        let i = p.index();
        for (k, v) in self.engines[i].take_decisions() {
            assert!(
                self.drained[i].insert(k, v).is_none(),
                "{p}: instance {k} emitted twice"
            );
        }
        let floor = self
            .proposed
            .iter()
            .find(|k| !self.drained[i].contains_key(k))
            .copied()
            .unwrap_or_else(|| self.proposed.last().map_or(0, |k| k + 1));
        self.engines[i].advance_floor(floor);
        let e = &self.engines[i];
        for &k in self.proposed.range(..e.group_floor()) {
            assert_eq!(e.decision(k), None, "{p} holds {k} below its group floor");
        }
    }

    fn propose(&mut self, p: ProcessId, instance: u64, v: u32) {
        self.proposed.insert(instance);
        if self.crashed[p.index()] {
            return;
        }
        let mut sink = MsgSink::new();
        self.engines[p.index()].propose(instance, v, &mut sink);
        self.absorb(p, sink);
    }

    fn crash(&mut self, p: ProcessId) {
        if self.crashed[p.index()] {
            return;
        }
        self.crashed[p.index()] = true;
        // Suspicion reaches all survivors.
        for i in 0..self.engines.len() {
            if !self.crashed[i] {
                let mut sink = MsgSink::new();
                self.engines[i].on_suspect(p, &mut sink);
                self.absorb(ProcessId(i as u32), sink);
            }
        }
    }

    /// Delivers queued messages; `picks` permutes the order. Returns the
    /// number of steps executed.
    fn run(&mut self, picks: &[u8]) -> usize {
        let mut steps = 0;
        let mut pick_i = 0;
        while let Some(pos) = (!self.queue.is_empty()).then(|| {
            let raw = picks.get(pick_i).copied().unwrap_or(0) as usize;
            pick_i += 1;
            raw % self.queue.len()
        }) {
            steps += 1;
            assert!(steps < 200_000, "fuzzer did not terminate");
            let (from, to, m) = self.queue.remove(pos).expect("in range");
            if self.crashed[to.index()] || self.crashed[from.index()] {
                continue;
            }
            let mut sink = MsgSink::new();
            self.engines[to.index()].on_message(from, m, &mut sink);
            self.absorb(to, sink);
            self.drain(to);
        }
        steps
    }

    /// What each engine drained for `instance`; `None` for a crashed one.
    fn decisions(&self, instance: u64) -> Vec<Option<u32>> {
        self.drained
            .iter()
            .zip(&self.crashed)
            .map(|(d, &crashed)| {
                if crashed {
                    None
                } else {
                    d.get(&instance).copied()
                }
            })
            .collect()
    }

    /// Every correct engine drained every proposed instance.
    fn assert_all_drained(&self, case: u64) {
        for (i, d) in self.drained.iter().enumerate() {
            if !self.crashed[i] {
                let missing: Vec<_> = self
                    .proposed
                    .iter()
                    .filter(|k| !d.contains_key(k))
                    .collect();
                assert!(
                    missing.is_empty(),
                    "case {case}: p{i} never drained {missing:?}"
                );
            }
        }
    }
}

fn picks(rng: &mut SplitMix64, max_len: u64) -> Vec<u8> {
    let len = rng.next_below(max_len + 1) as usize;
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

/// Uniform agreement + integrity under arbitrary message interleavings:
/// all correct members decide the same proposed value.
#[test]
fn agreement_under_random_interleavings() {
    for case in 0..64u64 {
        let mut rng = SplitMix64::new(0xA11CE ^ case);
        let n = rng.next_range(1, 5) as usize;
        let num_proposals = rng.next_range(1, 9);
        let mut fz = Fuzzer::new(n);
        let mut proposed: std::collections::BTreeMap<u64, Vec<u32>> = Default::default();
        for _ in 0..num_proposals {
            let inst = rng.next_below(4);
            let p = rng.next_below(8) as usize;
            let v = rng.next_range(1, 99) as u32;
            fz.propose(ProcessId((p % n) as u32), inst, v);
            proposed.entry(inst).or_default().push(v);
        }
        let picks = picks(&mut rng, 4096);
        fz.run(&picks);
        fz.assert_all_drained(case);
        for (&inst, values) in &proposed {
            let ds = fz.decisions(inst);
            let decided: Vec<u32> = ds.iter().flatten().copied().collect();
            // Termination: every member decided (no crashes here).
            assert_eq!(
                decided.len(),
                n,
                "case {case}: instance {inst} not decided everywhere"
            );
            // Uniform agreement.
            assert!(
                decided.windows(2).all(|w| w[0] == w[1]),
                "case {case}: disagreement: {ds:?}"
            );
            // Uniform integrity: the decision was proposed.
            assert!(
                values.contains(&decided[0]),
                "case {case}: {} not in {values:?}",
                decided[0]
            );
        }
    }
}

/// Crashing a minority (including coordinators) never blocks decisions
/// or breaks agreement.
#[test]
fn minority_crash_liveness() {
    for case in 0..64u64 {
        let mut rng = SplitMix64::new(0xC4A54 ^ case);
        let n = 5; // majority 3; crash exactly one
        let crash_pick = rng.next_below(5) as usize;
        let crash_when = rng.next_below(3);
        let num_proposals = rng.next_range(1, 5);
        let proposals: Vec<(usize, u32)> = (0..num_proposals)
            .map(|_| (rng.next_below(8) as usize, rng.next_range(1, 99) as u32))
            .collect();
        let picks = picks(&mut rng, 2048);

        let mut fz = Fuzzer::new(n);
        let victim = ProcessId((crash_pick % n) as u32);
        if crash_when == 0 {
            fz.crash(victim);
        }
        for (i, &(p, v)) in proposals.iter().enumerate() {
            let mut proposer = ProcessId((p % n) as u32);
            if proposer == victim {
                proposer = ProcessId((proposer.0 + 1) % n as u32);
            }
            fz.propose(proposer, 0, v + i as u32);
        }
        if crash_when == 1 {
            fz.crash(victim);
        }
        // Let some traffic flow, crash mid-flight, then drain.
        if crash_when == 2 {
            let half: Vec<u8> = picks.iter().take(picks.len() / 2).copied().collect();
            fz.run(&half);
            fz.crash(victim);
        }
        fz.run(&picks);
        fz.assert_all_drained(case);
        let ds = fz.decisions(0);
        let decided: Vec<u32> = ds.iter().flatten().copied().collect();
        assert_eq!(
            decided.len(),
            n - 1,
            "case {case}: survivors must decide: {ds:?}"
        );
        assert!(
            decided.windows(2).all(|w| w[0] == w[1]),
            "case {case}: disagreement: {ds:?}"
        );
    }
}

/// Decisions are emitted exactly once per instance by take_decisions
/// (the [`Fuzzer`] asserts it on every drain), over instances several
/// floors apart.
#[test]
fn decisions_emitted_once() {
    for case in 0..64u64 {
        let mut rng = SplitMix64::new(0xD0_5E ^ case);
        let n = rng.next_range(1, 4) as usize;
        let num_instances = rng.next_range(1, 7);
        let instances: Vec<u64> = (0..num_instances).map(|_| rng.next_below(6)).collect();
        let picks = picks(&mut rng, 2048);

        let mut fz = Fuzzer::new(n);
        for (i, &inst) in instances.iter().enumerate() {
            fz.propose(ProcessId((i % n) as u32), inst, inst as u32 + 1);
        }
        fz.run(&picks);
        fz.assert_all_drained(case);
        for e in &mut fz.engines {
            assert!(
                e.take_decisions().is_empty(),
                "case {case}: second drain must be empty"
            );
        }
    }
}
