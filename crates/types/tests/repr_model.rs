//! `GroupSet` and `Payload` against the plain representations they wrap.
//!
//! `GroupSet` is a `u128` mask stored 8-aligned; every public operation
//! must answer exactly what the same computation on a bare `u128` does,
//! including its order, its hash and its wire bytes. `Payload` has one
//! representation with no buffer for the empty body; every way of making
//! an empty payload must be the same value, and a copied literal the same
//! as a copied slice.

use std::hash::{BuildHasher, Hash};
use wamcast_types::wire::{BodyCache, Wire};
use wamcast_types::{FxBuildHasher, GroupId, GroupSet, MessageId, Payload, ProcessId, SplitMix64};

/// A mask of one of the shapes destination sets take, and the edges.
fn mask(rng: &mut SplitMix64) -> u128 {
    match rng.next_below(7) {
        0 => 0,
        1 => u128::MAX,
        2 => 1 << rng.next_below(128),
        3 => 1 << 127 | u128::from(rng.next_below(4)),
        4 => u128::from(rng.next_u64()) << 64 | u128::from(rng.next_u64()),
        5 => u128::from(rng.next_u64()),
        _ => (0..rng.next_below(4)).fold(0, |m, _| m | 1 << rng.next_below(128)),
    }
}

/// The members of `m` in increasing order, bit by bit.
fn members(m: u128) -> Vec<GroupId> {
    (0..128u16)
        .filter(|&i| m >> i & 1 == 1)
        .map(GroupId)
        .collect()
}

fn hash_of(v: impl Hash) -> u64 {
    FxBuildHasher::default().hash_one(v)
}

#[test]
fn group_set_answers_as_its_u128_mask_does() {
    let mut rng = SplitMix64::new(0x6505);
    for case in 0..10_000 {
        let (x, y) = (mask(&mut rng), mask(&mut rng));
        let (a, b) = (GroupSet::from_bits(x), GroupSet::from_bits(y));
        let ctx = format!("case {case}: {x:#x} vs {y:#x}");

        assert_eq!(a.bits(), x, "{ctx}");
        assert_eq!(a.len(), x.count_ones() as usize, "{ctx}");
        assert_eq!(a.is_empty(), x == 0, "{ctx}");
        assert_eq!(a.is_subset(b), x & !y == 0, "{ctx}");
        assert_eq!(a.intersects(b), x & y != 0, "{ctx}");
        let min = (x != 0).then(|| GroupId(x.trailing_zeros() as u16));
        assert_eq!(a.min(), min, "{ctx}");
        assert_eq!(a.iter().collect::<Vec<_>>(), members(x), "{ctx}");
        assert_eq!(a.iter().len(), x.count_ones() as usize, "{ctx}");
        assert_eq!((a | b).bits(), x | y, "{ctx}");
        assert_eq!((a & b).bits(), x & y, "{ctx}");
        assert_eq!((a - b).bits(), x & !y, "{ctx}");
        let mut c = a;
        c |= b;
        assert_eq!(c.bits(), x | y, "{ctx}");
        assert_eq!(a.cmp(&b), x.cmp(&y), "{ctx}");
        assert_eq!(a.partial_cmp(&b), Some(x.cmp(&y)), "{ctx}");
        assert_eq!(a == b, x == y, "{ctx}");

        // Equal sets hash equal — and exactly as the mask itself does, so
        // every hashed container keyed by a set keeps its iteration order.
        let rebuilt: GroupSet = members(x).into_iter().collect();
        assert_eq!(rebuilt, a, "{ctx}");
        assert_eq!(hash_of(rebuilt), hash_of(a), "{ctx}");
        assert_eq!(hash_of(a), hash_of(x), "{ctx}");

        // Membership, insert and remove of one group, in range or not.
        let g = GroupId(rng.next_below(130) as u16);
        let bit = 1u128.checked_shl(u32::from(g.0)).unwrap_or(0);
        assert_eq!(a.contains(g), x & bit != 0, "{ctx}, {g}");
        let mut r = a;
        assert_eq!(r.remove(g), x & bit != 0, "{ctx}, {g}");
        assert_eq!(r.bits(), x & !bit, "{ctx}, {g}");
        if bit != 0 {
            let mut i = a;
            assert_eq!(i.insert(g), x & bit == 0, "{ctx}, {g}");
            assert_eq!(i.bits(), x | bit, "{ctx}, {g}");
        }

        // The wire carries the low 64 bits of a mask that fits in them.
        let low = x as u64;
        let wire = GroupSet::from_bits(u128::from(low)).to_wire();
        assert_eq!(wire, low.to_le_bytes(), "{ctx}");
        assert_eq!(
            GroupSet::from_wire(&wire),
            Ok(GroupSet::from_bits(u128::from(low)))
        );
    }
}

#[test]
fn every_empty_payload_is_the_same_value() {
    let empties = [
        Payload::new(),
        Payload::default(),
        Payload::from(Vec::new()),
        Payload::copy_from_slice(&[]),
        Payload::from_static(b""),
    ];
    for (n, p) in empties.iter().enumerate() {
        assert!(p.is_empty(), "#{n}");
        assert_eq!(p.len(), 0, "#{n}");
        assert_eq!(p, &empties[0], "#{n}");
        assert_eq!(hash_of(p), hash_of(&empties[0]), "#{n}");
        assert_eq!(p.to_wire(), empties[0].to_wire(), "#{n}");
        assert_eq!(Payload::from_wire(&p.to_wire()), Ok(Payload::new()), "#{n}");
    }
    assert_eq!(Payload::new().to_wire(), 0u32.to_le_bytes());
}

#[test]
fn a_copied_literal_is_a_copied_slice() {
    let literals: [&'static [u8]; 4] = [b"x", b"x=1", b"update", &[0, 255, 0, 7]];
    for b in literals {
        let (lit, copied) = (Payload::from_static(b), Payload::copy_from_slice(b));
        assert_eq!(lit, copied);
        assert_eq!(lit, Payload::from(b.to_vec()));
        assert_eq!(&lit[..], b);
        assert_eq!((lit.len(), lit.is_empty()), (b.len(), false));
        assert_eq!(hash_of(&lit), hash_of(&copied));
        assert_eq!(lit.to_wire(), copied.to_wire());
        assert_ne!(lit, Payload::new());
    }
}

#[test]
fn the_body_cache_ignores_an_empty_body() {
    let id = MessageId::new(ProcessId(1), 9);
    let body = Payload::from_static(b"body");
    let mut cache = BodyCache::new();
    cache.prime(id, &body);
    // An empty body under the same id takes no slot: the primed one stays.
    cache.prime(id, &Payload::new());
    let shared = cache.share(id, b"body");
    assert_eq!((cache.hits(), cache.misses()), (1, 0));
    assert_eq!(
        shared.as_ptr(),
        body.as_ptr(),
        "the primed buffer is shared"
    );
    // Sharing an empty body neither hits nor misses, and owns nothing.
    assert_eq!(cache.share(id, b""), Payload::new());
    assert_eq!((cache.hits(), cache.misses()), (1, 0));
    assert_eq!(cache.share(id, b"body").as_ptr(), body.as_ptr());
    assert_eq!(cache.hits(), 2);
}
