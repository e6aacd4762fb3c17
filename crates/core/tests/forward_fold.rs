//! The consensus engine's folded forwards, against the list they replaced,
//! and the merge contract the fold relies on.
//!
//! A group member that is not the coordinator forwards its proposal to
//! the coordinator, which merges every forwarded batch into the value it
//! proposes. The engine used to keep the distinct forwarded values in a
//! list (telling them apart with `==`) and merge the list into its own
//! proposal when it proposed; it now folds each `Forward` into one held
//! value as it arrives. `ListModel` keeps the list computation as it was
//! and is the oracle: seeded sequences of forwards, re-forwards, equal
//! copies and the coordinator's own proposal drive a real engine under
//! `merge_msg_sets`, `merge_bundles` and no merge, on the ballot-0 fast
//! path and in a recovery `Prepare`/`Promise` round, and every `Accept`
//! the engine sends must carry the oracle's value, in content and order.
//! A member that is not the coordinator routes each forward on to the one
//! it trusts; it now routes its fold of every forward so far, where the
//! list routed the first, and a recovery it then leads proposes that fold.
//!
//! The second half checks, for both merge functions, the three properties
//! `MergeFn`'s rustdoc says folding relies on: associativity, the
//! accumulator's copy winning a shared id, and a no-op (the same `Arc`)
//! when every id of the incoming batch is already held.

use std::sync::Arc;
use wamcast_consensus::{Ballot, ConsensusMsg, GroupConsensus, MergeFn, MsgSink, Value};
use wamcast_core::{merge_bundles, merge_msg_sets, MsgBatch, MsgEntry, RoundBundle, Stage};
use wamcast_types::{AppMessage, GroupId, GroupSet, MessageId, Payload, ProcessId, SplitMix64};

/// Distinct message ids a scenario draws from: few, so batches overlap.
const IDS: u64 = 10;

fn msg_id(n: u64) -> MessageId {
    MessageId::new(ProcessId((n % 3) as u32), n)
}

/// `k` distinct ids out of `IDS`, in random order.
fn pick_ids(rng: &mut SplitMix64, k: usize) -> Vec<u64> {
    let mut all: Vec<u64> = (0..IDS).collect();
    for i in (1..all.len()).rev() {
        all.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
    all.truncate(k);
    all
}

/// An A1 `msgSet` batch in arbitrary order. Entries that share an id
/// across batches may differ in `ts` and `stage`, as they do when members
/// see a cast at different points of its life.
fn msg_set(rng: &mut SplitMix64) -> MsgBatch {
    let k = 1 + rng.next_below(5) as usize;
    let entries = pick_ids(rng, k)
        .into_iter()
        .map(|n| MsgEntry {
            msg: AppMessage::new(
                msg_id(n),
                GroupSet::singleton(GroupId(0)),
                Payload::from(vec![n as u8]),
            ),
            ts: rng.next_below(3),
            stage: if rng.next_below(2) == 0 {
                Stage::S0
            } else {
                Stage::S1
            },
        })
        .collect();
    Arc::new(entries)
}

/// An A2 round bundle: normal (strictly ascending by id), as every bundle
/// a member builds is. Messages sharing an id across bundles may differ
/// in payload, so the copy a merge keeps is visible.
fn bundle(rng: &mut SplitMix64) -> RoundBundle {
    let k = 1 + rng.next_below(5) as usize;
    let mut ids = pick_ids(rng, k);
    ids.sort_unstable_by_key(|&n| msg_id(n));
    let msgs = ids
        .into_iter()
        .map(|n| {
            AppMessage::new(
                msg_id(n),
                GroupSet::singleton(GroupId(0)),
                Payload::from(vec![n as u8, rng.next_below(3) as u8]),
            )
        })
        .collect();
    Arc::new(msgs)
}

/// The engine's candidate computation before the fold: the member's own
/// proposal, else the first distinct forward, with every later distinct
/// forward merged in arrival order.
struct ListModel<V> {
    my_value: Option<V>,
    forwarded: Vec<V>,
}

impl<V: Value + PartialEq> ListModel<V> {
    fn forward(&mut self, value: V) {
        if !self.forwarded.contains(&value) {
            self.forwarded.push(value);
        }
    }

    fn propose(&mut self, value: V) {
        if self.my_value.is_none() {
            self.my_value = Some(value);
        }
    }

    /// The forwards alone, folded as the list would: what a member that
    /// is not the coordinator now routes on.
    fn forwarded_fold(&self, merge: Option<MergeFn<V>>) -> Option<V> {
        let forwards = ListModel {
            my_value: None,
            forwarded: self.forwarded.clone(),
        };
        forwards.merged_candidate(merge)
    }

    fn merged_candidate(&self, merge: Option<MergeFn<V>>) -> Option<V> {
        let mut rest = self.forwarded.iter();
        let mut base = match &self.my_value {
            Some(v) => v.clone(),
            None => rest.next()?.clone(),
        };
        if let Some(merge) = merge {
            for v in rest {
                merge(&mut base, v.clone());
            }
        }
        Some(base)
    }
}

/// The values of the `Accept`s in `sink`, drained.
fn accepts<V>(sink: &mut MsgSink<V>) -> Vec<(Ballot, V)> {
    sink.msgs
        .drain(..)
        .filter_map(|(_, m)| match m {
            ConsensusMsg::Accept { ballot, value, .. } => Some((ballot, value)),
            _ => None,
        })
        .collect()
}

/// What the scenarios of one merge setting covered.
#[derive(Default)]
struct Coverage {
    accepts: usize,
    recoveries: usize,
    multi_forward_accepts: usize,
    duplicates: usize,
    late_forwards: usize,
}

/// One seeded scenario on a three-member group. In fast mode `p0`
/// coordinates at ballot 0; in recovery mode `p0` is suspected and `p1`
/// runs a `Prepare`/`Promise` round, answered by itself and `p2` with
/// nothing accepted. Forwards from the other members (new batches,
/// re-forwards of the same `Arc`, equal copies) and the coordinator's own
/// proposal arrive in a random order; every `Accept` must carry the
/// oracle's value at the moment it is sent.
fn scenario<V: Value + PartialEq>(
    seed: u64,
    merge: Option<MergeFn<V>>,
    gen: fn(&mut SplitMix64) -> V,
    cov: &mut Coverage,
) {
    let mut rng = SplitMix64::new(seed);
    let members: Vec<ProcessId> = (0..3).map(ProcessId).collect();
    let recovery = rng.next_below(3) == 0;
    let me = ProcessId(u32::from(recovery));
    let mut engine = GroupConsensus::new(me, members.clone());
    if let Some(m) = merge {
        engine = engine.with_merge(m);
    }
    let mut model = ListModel {
        my_value: None,
        forwarded: Vec::new(),
    };
    let mut sink = MsgSink::new();
    if recovery {
        engine.on_suspect(ProcessId(0), &mut sink);
        sink.msgs.clear();
        cov.recoveries += 1;
    }
    // Forwards come from the members that are neither the coordinator
    // nor suspected.
    let others: Vec<ProcessId> = members
        .iter()
        .copied()
        .filter(|&p| p != me && !(recovery && p == ProcessId(0)))
        .collect();
    let instance = 1;
    let steps = 1 + rng.next_below(8);
    // At `steps` the coordinator never proposes.
    let propose_at = rng.next_below(steps + 1);
    // The seed each forwarded batch was built from: building it again
    // gives an equal batch in a separate allocation.
    let mut sent: Vec<(u64, V)> = Vec::new();
    let mut prepare: Option<Ballot> = None;
    let mut promised = false;
    let mut accepted: Option<(Ballot, V)> = None;
    let mut forwards_held = 0;

    let check = |sink: &mut MsgSink<V>,
                 model: &ListModel<V>,
                 accepted: &mut Option<(Ballot, V)>,
                 forwards_held: usize,
                 cov: &mut Coverage| {
        for (ballot, value) in accepts(sink) {
            match accepted {
                Some((b, v)) => {
                    assert_eq!(*b, ballot, "seed {seed}: one ballot");
                    assert!(*v == value, "seed {seed}: one ballot, one value");
                }
                None => {
                    let want = model.merged_candidate(merge).expect("a value was given");
                    assert!(
                        value == want,
                        "seed {seed}: Accept carries {value:?}, the forward list gives {want:?}"
                    );
                    cov.accepts += 1;
                    if forwards_held > 1 && merge.is_some() {
                        cov.multi_forward_accepts += 1;
                    }
                    *accepted = Some((ballot, value));
                }
            }
        }
    };

    for step in 0..=steps {
        if step == propose_at {
            let v = gen(&mut rng);
            model.propose(v.clone());
            engine.propose(instance, v, &mut sink);
            check(&mut sink, &model, &mut accepted, forwards_held, cov);
        }
        if step == steps {
            break;
        }
        let from = others[rng.next_below(others.len() as u64) as usize];
        let fresh = sent.len();
        let value = next_forward(&mut rng, gen, &mut sent);
        if sent.len() == fresh {
            cov.duplicates += 1;
        }
        if accepted.is_some() {
            cov.late_forwards += 1;
        }
        if !model.forwarded.contains(&value) {
            forwards_held += 1;
        }
        model.forward(value.clone());
        engine.on_message(from, ConsensusMsg::Forward { instance, value }, &mut sink);
        if recovery {
            // The round's `Prepare` goes to every member; answer once,
            // after a random number of further forwards.
            for (_, m) in &sink.msgs {
                if let ConsensusMsg::Prepare { ballot, .. } = m {
                    prepare.get_or_insert(*ballot);
                }
            }
            sink.msgs
                .retain(|(_, m)| !matches!(m, ConsensusMsg::Prepare { .. }));
            if let Some(ballot) = prepare.filter(|_| !promised && rng.next_below(3) == 0) {
                promised = true;
                for p in [ProcessId(1), ProcessId(2)] {
                    let promise = ConsensusMsg::Promise {
                        instance,
                        ballot,
                        accepted: None,
                    };
                    engine.on_message(p, promise, &mut sink);
                }
            }
        }
        check(&mut sink, &model, &mut accepted, forwards_held, cov);
    }
    // A retransmission re-sends the ballot's one value.
    if let Some((ballot, value)) = &accepted {
        engine.tick(&mut sink);
        let again = accepts(&mut sink);
        assert!(!again.is_empty(), "seed {seed}: tick re-sends the Accept");
        for (b, v) in again {
            assert!(
                b == *ballot && v == *value,
                "seed {seed}: tick changed the value"
            );
        }
    }
}

fn run_scenarios<V: Value + PartialEq>(
    label: &str,
    merge: Option<MergeFn<V>>,
    gen: fn(&mut SplitMix64) -> V,
) {
    let mut cov = Coverage::default();
    for seed in 0..600 {
        scenario(seed, merge, gen, &mut cov);
    }
    assert!(
        cov.accepts > 300,
        "{label}: {} Accepts checked",
        cov.accepts
    );
    assert!(
        cov.recoveries > 100,
        "{label}: {} recoveries",
        cov.recoveries
    );
    assert!(
        cov.duplicates > 300,
        "{label}: {} re-forwards",
        cov.duplicates
    );
    assert!(
        cov.late_forwards > 100,
        "{label}: {} late forwards",
        cov.late_forwards
    );
    if merge.is_some() {
        assert!(
            cov.multi_forward_accepts > 100,
            "{label}: {} Accepts folded two or more forwards",
            cov.multi_forward_accepts
        );
    }
}

#[test]
fn forward_fold_matches_the_forward_list() {
    run_scenarios::<MsgBatch>("merge_msg_sets", Some(merge_msg_sets), msg_set);
    run_scenarios::<RoundBundle>("merge_bundles", Some(merge_bundles), bundle);
    run_scenarios::<MsgBatch>("no merge (msg sets)", None, msg_set);
    run_scenarios::<RoundBundle>("no merge (bundles)", None, bundle);
}

/// A forward for a scenario: a new batch (remembered in `sent` with the
/// seed it was built from), or one sent before — the same `Arc` or an
/// equal copy built again from its seed.
fn next_forward<V: Value>(
    rng: &mut SplitMix64,
    gen: fn(&mut SplitMix64) -> V,
    sent: &mut Vec<(u64, V)>,
) -> V {
    match rng.next_below(8) {
        0..=2 if !sent.is_empty() => {
            let (seed, v) = &sent[rng.next_below(sent.len() as u64) as usize];
            if rng.next_below(2) == 0 {
                v.clone()
            } else {
                gen(&mut SplitMix64::new(*seed))
            }
        }
        _ => {
            let seed = rng.next_u64();
            let v = gen(&mut SplitMix64::new(seed));
            sent.push((seed, v.clone()));
            v
        }
    }
}

/// One seeded scenario on a member that is not the coordinator. `p1`
/// trusts `p0`; `p2` suspects `p0`, takes `p1` for coordinator and
/// forwards its batches there. `p1` routes each on to `p0`, and the routed
/// `Forward` must carry the list's fold of every forward so far (the
/// first one alone without a merge). `p1` may propose too, which it
/// forwards to `p0` itself. Then `p1` suspects `p0`, takes over with a
/// `Prepare`/`Promise` round, and its `Accept` must carry its own
/// proposal with that fold merged in. Returns how many routed values
/// held more than the first forward.
fn routed_scenario<V: Value + PartialEq>(
    seed: u64,
    merge: Option<MergeFn<V>>,
    gen: fn(&mut SplitMix64) -> V,
) -> usize {
    let mut rng = SplitMix64::new(seed);
    let members: Vec<ProcessId> = (0..3).map(ProcessId).collect();
    let (p0, p1, p2) = (members[0], members[1], members[2]);
    let mut engine = GroupConsensus::new(p1, members);
    if let Some(m) = merge {
        engine = engine.with_merge(m);
    }
    let mut model = ListModel {
        my_value: None,
        forwarded: Vec::new(),
    };
    let mut sink = MsgSink::new();
    let instance = 1;
    let steps = 1 + rng.next_below(8);
    // At `steps` the member never proposes.
    let propose_at = rng.next_below(steps + 1);
    let mut sent: Vec<(u64, V)> = Vec::new();
    let mut past_first = 0;
    for step in 0..steps {
        if step == propose_at {
            let v = gen(&mut rng);
            model.propose(v.clone());
            engine.propose(instance, v, &mut sink);
            sink.msgs.clear();
        }
        let value = next_forward(&mut rng, gen, &mut sent);
        model.forward(value.clone());
        engine.on_message(p2, ConsensusMsg::Forward { instance, value }, &mut sink);
        let routed: Vec<_> = sink.msgs.drain(..).collect();
        assert_eq!(routed.len(), 1, "seed {seed}: one routed message");
        let (to, ConsensusMsg::Forward { value, .. }) = &routed[0] else {
            panic!("seed {seed}: routed {:?}", routed[0].1);
        };
        assert_eq!(*to, p0, "seed {seed}: routed to the trusted coordinator");
        let want = model.forwarded_fold(merge).expect("a forward is held");
        assert!(
            *value == want,
            "seed {seed}: routed {value:?}, the fold of the forwards is {want:?}"
        );
        if *value != model.forwarded[0] {
            past_first += 1;
        }
    }
    // Takeover: `p1` suspects `p0` and leads a recovery round, promised
    // by itself and `p2` with nothing accepted.
    engine.on_suspect(p0, &mut sink);
    let ballot = sink
        .msgs
        .drain(..)
        .find_map(|(_, m)| match m {
            ConsensusMsg::Prepare { ballot, .. } => Some(ballot),
            _ => None,
        })
        .expect("the takeover prepares");
    for p in [p1, p2] {
        let promise = ConsensusMsg::Promise {
            instance,
            ballot,
            accepted: None,
        };
        engine.on_message(p, promise, &mut sink);
    }
    let sent_accepts = accepts(&mut sink);
    assert!(
        !sent_accepts.is_empty(),
        "seed {seed}: the takeover accepts"
    );
    let want = model.merged_candidate(merge).expect("a value was given");
    for (b, value) in sent_accepts {
        assert_eq!(b, ballot, "seed {seed}: the promised ballot");
        assert!(
            value == want,
            "seed {seed}: takeover Accept carries {value:?}, the forward list gives {want:?}"
        );
    }
    past_first
}

fn run_routed<V: Value + PartialEq>(
    label: &str,
    merge: Option<MergeFn<V>>,
    gen: fn(&mut SplitMix64) -> V,
) {
    let past_first: usize = (0..600).map(|seed| routed_scenario(seed, merge, gen)).sum();
    if merge.is_some() {
        assert!(
            past_first > 300,
            "{label}: {past_first} routed values held more than the first forward"
        );
    } else {
        assert_eq!(
            past_first, 0,
            "{label}: without a merge the first is routed"
        );
    }
}

#[test]
fn routed_forwards_carry_the_fold() {
    run_routed::<MsgBatch>("merge_msg_sets", Some(merge_msg_sets), msg_set);
    run_routed::<RoundBundle>("merge_bundles", Some(merge_bundles), bundle);
    run_routed::<MsgBatch>("no merge (msg sets)", None, msg_set);
    run_routed::<RoundBundle>("no merge (bundles)", None, bundle);
}

/// A batch as both combiners take it.
type Batch<T> = Arc<Vec<T>>;

/// `merge` applied to a copy of `acc`.
fn merged<V: Clone>(merge: MergeFn<V>, acc: &V, more: &V) -> V {
    let mut out = acc.clone();
    merge(&mut out, more.clone());
    out
}

/// Checks the fold contract on `rounds` seeded triples. `id_of` names an
/// element's message id; `contained` builds a batch whose ids all lie in
/// its argument's (with other contents).
fn check_contract<T: Clone + PartialEq + std::fmt::Debug>(
    label: &str,
    merge: MergeFn<Batch<T>>,
    gen: fn(&mut SplitMix64) -> Batch<T>,
    id_of: fn(&T) -> MessageId,
    contained: fn(&mut SplitMix64, &Batch<T>) -> Batch<T>,
) {
    let mut rng = SplitMix64::new(0xF01D);
    for round in 0..2_000 {
        let (a, b, c) = (gen(&mut rng), gen(&mut rng), gen(&mut rng));

        // Associative, in content and order.
        let left = merged(merge, &merged(merge, &a, &b), &c);
        let right = merged(merge, &a, &merged(merge, &b, &c));
        assert_eq!(left, right, "{label} #{round}: not associative");

        // The union, the accumulator's copy winning a shared id.
        let ab = merged(merge, &a, &b);
        let mut ids: Vec<MessageId> = ab.iter().map(id_of).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), ab.len(), "{label} #{round}: an id twice");
        for e in a.iter().chain(b.iter()) {
            let kept = ab.iter().find(|x| id_of(x) == id_of(e));
            assert!(kept.is_some(), "{label} #{round}: {e:?} lost");
        }
        for e in a.iter() {
            let kept = ab.iter().find(|x| id_of(x) == id_of(e));
            assert_eq!(kept, Some(e), "{label} #{round}: acc's copy lost");
        }

        // Nothing new: `acc` keeps its allocation and its content.
        let more = contained(&mut rng, &a);
        let mut acc = Arc::clone(&a);
        merge(&mut acc, more);
        assert!(Arc::ptr_eq(&acc, &a), "{label} #{round}: a no-op copied");
        let mut acc = Arc::clone(&ab);
        merge(&mut acc, Arc::clone(&b));
        assert!(
            Arc::ptr_eq(&acc, &ab),
            "{label} #{round}: a re-forward copied"
        );
    }
}

#[test]
fn merges_keep_the_fold_contract() {
    check_contract(
        "merge_msg_sets",
        merge_msg_sets,
        msg_set,
        |e: &MsgEntry| e.msg.id,
        |rng, a| {
            // A subset of `a`'s ids, shuffled, at other timestamps.
            let mut sub: Vec<MsgEntry> = a
                .iter()
                .filter(|_| rng.next_below(2) == 0)
                .map(|e| MsgEntry {
                    ts: e.ts + 1,
                    ..e.clone()
                })
                .collect();
            sub.reverse();
            Arc::new(sub)
        },
    );
    check_contract(
        "merge_bundles",
        merge_bundles,
        bundle,
        |m: &AppMessage| m.id,
        |rng, a| {
            // A subset of `a`'s ids, still normal, with other payloads.
            let sub = a
                .iter()
                .filter(|_| rng.next_below(2) == 0)
                .map(|m| AppMessage::new(m.id, m.dest, Payload::from(vec![0xFF])))
                .collect();
            Arc::new(sub)
        },
    );
}
