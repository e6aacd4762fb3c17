//! Randomized tests of the reliable multicast engine under random
//! delivery interleavings, duplications-by-relay and origin crashes.
//!
//! Inputs come from the simulator's deterministic [`SplitMix64`] generator
//! (the workspace builds offline without a property-testing dependency);
//! every case is reproducible from its loop index.

use std::collections::VecDeque;
use wamcast_rmcast::{RmcastEngine, RmcastMsg, RmcastOut};
use wamcast_sim::SplitMix64;
use wamcast_types::{AppMessage, GroupId, GroupSet, MessageId, Payload, ProcessId, Topology};

fn msg(origin: u32, seq: u64, dest_bits: u8, k: usize) -> AppMessage {
    let mut dest = GroupSet::new();
    for g in 0..k {
        if dest_bits & (1 << g) != 0 {
            dest.insert(GroupId(g as u16));
        }
    }
    if dest.is_empty() {
        dest.insert(GroupId(0));
    }
    AppMessage::new(MessageId::new(ProcessId(origin), seq), dest, Payload::new())
}

fn picks(rng: &mut SplitMix64, max_len: u64) -> Vec<u8> {
    let len = rng.next_below(max_len + 1) as usize;
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

/// Records what `p` R-Delivered: its id in `delivered`, and the message
/// itself in `held` — the test embedder's relay set, which it never
/// releases.
fn record(
    p: usize,
    out: &RmcastOut,
    delivered: &mut [Vec<MessageId>],
    held: &mut [Vec<AppMessage>],
) {
    delivered[p].extend(out.delivered.iter().map(|d| d.id));
    held[p].extend(out.delivered.iter().cloned());
}

/// Drives non-uniform engines with a permuted schedule; `crash_origin`
/// optionally kills the origin right after its initial sends and fans out
/// the crash notification.
fn run_nonuniform(
    topo: &Topology,
    messages: &[AppMessage],
    picks: &[u8],
    crash_origin: bool,
) -> Vec<Vec<MessageId>> {
    let n = topo.num_processes();
    let mut engines: Vec<_> = (0..n as u32)
        .map(|i| RmcastEngine::new(ProcessId(i)))
        .collect();
    let mut delivered = vec![Vec::new(); n];
    let mut held: Vec<Vec<AppMessage>> = vec![Vec::new(); n];
    let mut queue: VecDeque<(ProcessId, ProcessId, RmcastMsg)> = VecDeque::new();
    let mut crashed = vec![false; n];

    for m in messages {
        let origin = m.id.origin;
        if crashed[origin.index()] {
            continue;
        }
        let mut out = RmcastOut::new();
        engines[origin.index()].rmcast(m.clone(), topo, &mut out);
        record(origin.index(), &out, &mut delivered, &mut held);
        for (to, w) in out.sends {
            queue.push_back((origin, to, w));
        }
        if crash_origin && !crashed[origin.index()] {
            crashed[origin.index()] = true;
            for q in 0..n {
                if q != origin.index() && !crashed[q] {
                    let mut relay = RmcastOut::new();
                    let from_origin = held[q].iter().filter(|m| m.id.origin == origin);
                    engines[q].on_crash_notification(origin, from_origin, topo, &mut relay);
                    record(q, &relay, &mut delivered, &mut held);
                    for (to, w) in relay.sends {
                        queue.push_back((ProcessId(q as u32), to, w));
                    }
                }
            }
        }
    }

    let mut pick_i = 0;
    let mut steps = 0;
    while !queue.is_empty() {
        steps += 1;
        assert!(steps < 100_000);
        let raw = picks.get(pick_i).copied().unwrap_or(0) as usize;
        pick_i += 1;
        let pos = raw % queue.len();
        let (from, to, w) = queue.remove(pos).expect("in range");
        if crashed[to.index()] {
            continue;
        }
        let mut out = RmcastOut::new();
        engines[to.index()].on_message(from, w, topo, &mut out);
        record(to.index(), &out, &mut delivered, &mut held);
        for (t, w2) in out.sends {
            queue.push_back((to, t, w2));
        }
    }
    delivered
}

/// Non-uniform engine: integrity (once, addressed only) and validity
/// (correct origin => all addressed deliver) under any interleaving.
#[test]
fn nonuniform_integrity_and_validity() {
    for case in 0..48u64 {
        let mut rng = SplitMix64::new(0x4A11D ^ case);
        let k = rng.next_range(1, 3) as usize;
        let d = rng.next_range(1, 3) as usize;
        let topo = Topology::symmetric(k, d);
        let n = topo.num_processes();
        let num_msgs = rng.next_range(1, 7);
        let messages: Vec<AppMessage> = (0..num_msgs)
            .map(|i| {
                let origin = rng.next_below(16) as usize;
                let bits = rng.next_below(8) as u8;
                msg((origin % n) as u32, i, bits, k)
            })
            .collect();
        let picks = picks(&mut rng, 1024);
        let delivered = run_nonuniform(&topo, &messages, &picks, false);
        for (p_idx, seq) in delivered.iter().enumerate() {
            let p = ProcessId(p_idx as u32);
            // At most once.
            let mut sorted = seq.clone();
            sorted.sort();
            sorted.dedup();
            assert_eq!(
                sorted.len(),
                seq.len(),
                "case {case}: {p} delivered duplicates"
            );
            // Addressed only.
            for id in seq {
                let m = messages.iter().find(|m| m.id == *id).unwrap();
                assert!(topo.addresses(m.dest, p), "case {case}");
            }
        }
        // Validity: every addressed process delivered every message.
        for m in &messages {
            for q in topo.processes_in(m.dest) {
                assert!(
                    delivered[q.index()].contains(&m.id),
                    "case {case}: {} missing at {q}",
                    m.id
                );
            }
        }
    }
}

/// Non-uniform engine with a crashing origin: the crash-relay keeps
/// agreement among the survivors.
#[test]
fn nonuniform_agreement_despite_origin_crash() {
    for case in 0..48u64 {
        let mut rng = SplitMix64::new(0xC4A5 ^ case);
        let topo = Topology::symmetric(2, 2);
        let messages = vec![msg(0, 0, 0b11, 2)];
        let picks = picks(&mut rng, 1024);
        let delivered = run_nonuniform(&topo, &messages, &picks, true);
        // All survivors (p1, p2, p3) deliver.
        for (q, seq) in delivered.iter().enumerate().skip(1) {
            assert!(
                seq.contains(&messages[0].id),
                "case {case}: missing at p{q}"
            );
        }
    }
}
