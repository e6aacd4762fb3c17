//! Differential test of the run record: one random sequence of cast
//! inserts and deliveries is applied to a [`RunMetrics`] and to ordered
//! maps, and every read the record's consumers make — iteration order,
//! `get`, `len`, `contains_key`, `keys`, `values`, the per-message
//! deliverer views — must agree. The sequences mix the simulator's dense
//! `(caster, 0, 1, 2, …)` ids with out-of-order, sparse and huge sequence
//! numbers, duplicate deliveries, deliverers outside the destination,
//! deliveries of ids never cast, and more deliverers than a run has slots.

use std::collections::BTreeMap;
use wamcast_sim::{CastRecord, DeliveryRecord, RunMetrics};
use wamcast_types::{GroupSet, MessageId, ProcessId, SimTime, SplitMix64};

type Casts = BTreeMap<MessageId, CastRecord>;
type Deliveries = BTreeMap<MessageId, BTreeMap<ProcessId, DeliveryRecord>>;

const CASES: u64 = 1_500;

/// A pool of ids for one case, drawn by one of four shapes.
fn id_pool(rng: &mut SplitMix64, origins: &[ProcessId]) -> Vec<MessageId> {
    let per_origin = rng.next_range(1, 12);
    let mut ids = Vec::new();
    for &o in origins {
        for k in 0..per_origin {
            let seq = match rng.next_below(4) {
                // Dense, as the simulator mints them.
                0 | 1 => k,
                // Sparse.
                2 => k * rng.next_range(2, 1_000),
                // Very large.
                _ => u64::MAX - rng.next_below(1 << 20),
            };
            ids.push(MessageId::new(o, seq));
        }
    }
    // Half the cases insert in id order, half shuffled.
    if rng.next_below(2) == 0 {
        shuffle(rng, &mut ids);
    }
    ids
}

fn shuffle<T>(rng: &mut SplitMix64, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
}

fn cast_record(rng: &mut SplitMix64, caster: ProcessId) -> CastRecord {
    CastRecord {
        caster,
        dest: GroupSet::from_bits(rng.next_range(1, 15) as u128),
        time: SimTime::from_nanos(rng.next_below(1 << 40)),
        stamp: rng.next_below(100),
    }
}

fn delivery_record(rng: &mut SplitMix64) -> DeliveryRecord {
    DeliveryRecord {
        time: SimTime::from_nanos(rng.next_below(1 << 40)),
        stamp: rng.next_below(100),
    }
}

/// Every read the record offers agrees with the reference maps.
fn assert_agrees(
    m: &RunMetrics,
    casts: &Casts,
    dels: &Deliveries,
    probes: &[MessageId],
    case: u64,
) {
    let ctx = || format!("case {case}");
    assert_eq!(m.casts.len(), casts.len(), "{}", ctx());
    assert_eq!(m.casts.is_empty(), casts.is_empty(), "{}", ctx());
    let got: Vec<_> = m.casts.iter().map(|(id, c)| (*id, c.clone())).collect();
    let want: Vec<_> = casts.iter().map(|(id, c)| (*id, c.clone())).collect();
    assert_eq!(got, want, "cast iteration, {}", ctx());
    let via_ref: Vec<_> = (&m.casts).into_iter().map(|(id, _)| *id).collect();
    assert!(via_ref.iter().eq(casts.keys()), "{}", ctx());
    assert!(m.casts.keys().eq(casts.keys()), "{}", ctx());
    assert!(m.casts.values().eq(casts.values()), "{}", ctx());

    assert_eq!(m.deliveries.len(), dels.len(), "{}", ctx());
    assert_eq!(m.deliveries.is_empty(), dels.is_empty(), "{}", ctx());
    assert!(m.deliveries.keys().eq(dels.keys()), "{}", ctx());
    let got: Vec<_> = m
        .deliveries
        .iter()
        .map(|(id, by)| (*id, by.iter().map(|(p, d)| (*p, *d)).collect::<Vec<_>>()))
        .collect();
    let want: Vec<_> = dels
        .iter()
        .map(|(id, by)| (*id, by.iter().map(|(p, d)| (*p, *d)).collect::<Vec<_>>()))
        .collect();
    assert_eq!(got, want, "delivery iteration, {}", ctx());

    for id in probes {
        assert_eq!(m.casts.get(id), casts.get(id), "{id:?}, {}", ctx());
        assert_eq!(
            m.casts.contains_key(id),
            casts.contains_key(id),
            "{}",
            ctx()
        );
        if let Some(c) = casts.get(id) {
            assert_eq!(&m.casts[id], c, "{}", ctx());
        }
        assert_eq!(
            m.deliveries.contains_key(id),
            dels.contains_key(id),
            "{}",
            ctx()
        );
        let (Some(by), Some(want)) = (m.deliveries.get(id), dels.get(id)) else {
            assert!(
                m.deliveries.get(id).is_none() && dels.get(id).is_none(),
                "{}",
                ctx()
            );
            continue;
        };
        assert_eq!(by.len(), want.len(), "{}", ctx());
        assert_eq!(by.is_empty(), want.is_empty(), "{}", ctx());
        assert!(by.keys().eq(want.keys()), "{}", ctx());
        assert!(by.values().eq(want.values()), "{}", ctx());
        assert!(by.iter().eq(want.iter()), "{}", ctx());
        for p in (0..20).map(ProcessId) {
            assert_eq!(by.get(&p), want.get(&p), "{}", ctx());
            assert_eq!(by.contains_key(&p), want.contains_key(&p), "{}", ctx());
        }
    }
}

#[test]
fn record_reads_like_ordered_maps() {
    let mut rng = SplitMix64::new(0x5EC0_4D00);
    for case in 0..CASES {
        // Dense process ids, or a few scattered ones (a hand-built record).
        let origins: Vec<ProcessId> = if rng.next_below(3) > 0 {
            (0..rng.next_range(1, 9) as u32).map(ProcessId).collect()
        } else {
            let mut o: Vec<_> = (0..rng.next_range(1, 4))
                .map(|_| ProcessId(rng.next_below(u32::MAX as u64) as u32))
                .collect();
            shuffle(&mut rng, &mut o);
            o
        };
        let pool = id_pool(&mut rng, &origins);
        let mut m = RunMetrics::default();
        let mut casts = Casts::new();
        let mut dels = Deliveries::new();
        let ops = rng.next_range(0, 3 * pool.len() as u64);
        for _ in 0..ops {
            let id = pool[rng.next_below(pool.len() as u64) as usize];
            if rng.next_below(3) == 0 {
                // A cast (a repeat of an id replaces its record).
                let c = cast_record(&mut rng, id.origin);
                assert_eq!(
                    m.casts.insert(id, c.clone()),
                    casts.insert(id, c),
                    "case {case}"
                );
            } else {
                // A delivery: possibly of an id never cast, possibly a
                // repeat, by any of 12 processes into a run sized for 0–4.
                let p = ProcessId(rng.next_below(12) as u32);
                let d = delivery_record(&mut rng);
                let room = rng.next_below(5) as usize;
                let old = m.deliveries.insert(id, p, d, || room);
                assert_eq!(old, dels.entry(id).or_default().insert(p, d), "case {case}");
            }
        }
        let mut probes = pool.clone();
        probes.extend(origins.iter().map(|&o| MessageId::new(o, 1 << 50)));
        probes.push(MessageId::new(ProcessId(u32::MAX), 0));
        assert_agrees(&m, &casts, &dels, &probes, case);

        // The same content, filled in another order with other room
        // hints, is the same record; one changed stamp is not.
        let mut again = RunMetrics::default();
        let mut cast_rows: Vec<_> = casts.iter().collect();
        shuffle(&mut rng, &mut cast_rows);
        for (&id, c) in cast_rows {
            again.casts.insert(id, c.clone());
        }
        let mut del_rows: Vec<_> = dels
            .iter()
            .flat_map(|(&id, by)| by.iter().map(move |(&p, &d)| (id, p, d)))
            .collect();
        shuffle(&mut rng, &mut del_rows);
        for (id, p, d) in del_rows {
            let room = rng.next_below(12) as usize;
            again.deliveries.insert(id, p, d, || room);
        }
        assert_eq!(again, m, "case {case}");
        if let Some((&id, by)) = dels.iter().next() {
            let (&p, &d) = by.iter().next().expect("a run has a deliverer");
            let changed = DeliveryRecord {
                stamp: d.stamp + 1,
                ..d
            };
            again.deliveries.insert(id, p, changed, || 1);
            assert_ne!(again, m, "case {case}");
        }
    }
}
