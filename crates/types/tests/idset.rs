//! `IdSet` against the literal set it replaces, and against growth.
//!
//! The differential half feeds seeded id sequences of every shape the
//! protocols and the socket runtime produce to an `IdSet` and to a
//! `BTreeSet<MessageId>` and demands the same `insert` results and the same
//! membership answers. The plateau half pins what the representation is
//! for: in-order traffic costs one range per origin however long it runs,
//! and bounded reordering costs a bounded number of ranges. CI's
//! `perf-smoke` job runs the plateau tests by name.

use std::collections::BTreeSet;
use wamcast_types::{IdSet, MessageId, ProcessId, SplitMix64};

const ORIGINS: u32 = 3;

fn id(origin: u32, seq: u64) -> MessageId {
    MessageId::new(ProcessId(origin), seq)
}

/// Inserts `ids` into both sets, comparing every return value; then asks
/// both about every id inserted, its two neighbours, and `probes`.
fn check(label: &str, ids: &[MessageId], probes: &[MessageId]) {
    let mut ours = IdSet::new();
    let mut reference = BTreeSet::new();
    for (n, &m) in ids.iter().enumerate() {
        assert_eq!(
            ours.insert(m),
            reference.insert(m),
            "{label}: insert #{n} of {m}"
        );
    }
    let around = ids.iter().flat_map(|m| {
        [
            MessageId::new(m.origin, m.seq.wrapping_sub(1)),
            *m,
            MessageId::new(m.origin, m.seq.wrapping_add(1)),
        ]
    });
    for m in around.chain(probes.iter().copied()) {
        assert_eq!(
            ours.contains(m),
            reference.contains(&m),
            "{label}: contains {m}"
        );
    }
    assert!(
        ours.ranges() <= reference.len(),
        "{label}: never more ranges than ids"
    );
}

/// `n` ids per origin, every origin's `seq`s in the order `seqs` gives.
fn per_origin(seqs: impl Iterator<Item = u64> + Clone) -> Vec<MessageId> {
    (0..ORIGINS)
        .flat_map(|o| seqs.clone().map(move |s| id(o, s)))
        .collect()
}

/// `0..n` where each element has moved at most `w` places: a shuffle of
/// consecutive blocks of `w + 1`.
fn windowed(n: u64, w: u64, rng: &mut SplitMix64) -> Vec<u64> {
    let mut seqs: Vec<u64> = (0..n).collect();
    for block in seqs.chunks_mut(w as usize + 1) {
        for i in (1..block.len()).rev() {
            block.swap(i, rng.next_below(i as u64 + 1) as usize);
        }
    }
    seqs
}

#[test]
fn differential_against_btreeset() {
    let mut rng = SplitMix64::new(0x1D5E7);
    let far = [id(0, 1 << 40), id(9, 0), id(u32::MAX, u64::MAX)];

    check("ascending", &per_origin(0..500), &far);
    check("descending", &per_origin((0..500).rev()), &far);
    // Every id twice: the second pass is all late duplicates.
    check("replayed", &per_origin((0..300).chain(0..300)), &far);

    for seed in 0..20 {
        let mut r = SplitMix64::new(seed);
        // Dense enough that ranges keep merging, with duplicates.
        let random: Vec<MessageId> = (0..2_000)
            .map(|_| id(r.next_below(ORIGINS as u64) as u32, r.next_below(600)))
            .collect();
        check("random", &random, &far);
    }

    for w in [1, 2, 7, 64] {
        let seqs = windowed(1_000, w, &mut rng);
        check("windowed", &per_origin(seqs.iter().copied()), &far);
    }

    // `tcp_host::client_seq`: several clients cast through one origin,
    // each numbering `client << 32 | round` — several dense runs far
    // apart, advancing in turn.
    let clients: Vec<MessageId> = (0..400u64)
        .flat_map(|round| (0..4u64).map(move |client| id(1, client << 32 | round)))
        .collect();
    check("client_seq", &clients, &far);
    let mut interleaved = clients.clone();
    for i in (1..interleaved.len()).rev() {
        interleaved.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
    check("client_seq shuffled", &interleaved, &far);

    // Nobody numbered these densely: evens only, then the odds fill in
    // from the top, merging two ranges at every step.
    let evens = (0..400u64).map(|s| s * 2);
    let odds = (0..400u64).rev().map(|s| s * 2 + 1);
    check("alternating sparse", &per_origin(evens.chain(odds)), &far);

    // The ends of the sequence space, approached from both sides.
    let top = [
        u64::MAX,
        u64::MAX - 2,
        u64::MAX - 1,
        0,
        2,
        1,
        u64::MAX,
        u64::MAX - 3,
    ];
    check("u64::MAX", &per_origin(top.iter().copied()), &far);
}

#[test]
fn idset_plateau_in_order_inserts_end_as_one_range_per_origin() {
    let mut s = IdSet::new();
    for seq in 0..1_000_000u64 {
        for o in 0..ORIGINS {
            assert!(s.insert(id(o, seq)));
        }
    }
    assert_eq!(s.ranges(), ORIGINS as usize);
    assert!(s.contains(id(0, 0)) && s.contains(id(2, 999_999)));
    assert!(!s.contains(id(0, 1_000_000)) && !s.insert(id(1, 123_456)));
}

#[test]
fn idset_plateau_reorder_window_bounds_the_ranges() {
    let mut rng = SplitMix64::new(24);
    for w in [1u64, 8, 32, 256] {
        let mut s = IdSet::new();
        let mut most = 0;
        for seq in windowed(200_000, w, &mut rng) {
            assert!(s.insert(id(0, seq)));
            most = most.max(s.ranges());
        }
        assert!(
            most <= w as usize + 1,
            "window {w}: held {most} ranges at once"
        );
        assert_eq!(s.ranges(), 1, "window {w}: everything arrived");
    }
}
