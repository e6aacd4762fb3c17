//! The two-level calendar/bucket event queue, and the lane of planned
//! casts beside it.
//!
//! Discrete-event workloads here are extremely *time-collided* — a
//! consensus round schedules dozens of arrivals at the identical instant
//! (constant link models), and they all pop together — so a flat
//! `BinaryHeap` of events pays an `O(log n)` sift of whole event structs
//! for what is mostly appending to a list. [`BucketQueue`] exploits the
//! collisions: level one is a time-ordered index over level-two *buckets*,
//! one `Vec` of events per distinct instant.
//!
//! The buckets of future instants live in a slab (`slots`, with a free
//! list). The index over them is a min-heap of the queued instants
//! (`order`: which bucket is next) and a hash map from instant to slab
//! slot (`slot_of`: where an instant's bucket is; looked up by key only,
//! never iterated). Filing a new instant costs `O(log n)` in the number of
//! queued instants *wherever it falls* — `O(1)` after every queued instant
//! (instants pushed in ascending order), a sift before all of them or in
//! between — and refilling the front is one
//! heap pop; neither allocates per instant. Until PR 22 the index was a
//! `Vec` sorted by instant descending, so that the refill was a `pop()`;
//! a plan loaded in ascending order then inserted every new instant at
//! position 0 and moved every bucket already queued, `Θ(n²)` for n casts
//! — 0.5 s for 40 000, more than the run they preceded. Two caches keep
//! the index off the hot path: the earliest bucket lives outside it
//! entirely (`cur`), and the last-touched future bucket is remembered as
//! `(instant, slot)` (`hint`). The hint pays off because schedule bursts
//! collide: a fan-out of d copies over one link class lands on one future
//! instant, so one map lookup covers d pushes. Measured on the `3x3
//! a1-batched` probe, ~80% of pushes append to an existing bucket.
//!
//! A bucket's allocation leaves its slot when the bucket becomes the
//! front, and drained fronts are recycled through two pools (`Spares`).
//! Fronts of at most `SPARE_SLOTS` events' room go to a pool of at most
//! `SPARE_CAP`: a plan of n instants holds n small buckets while it is
//! queued, not n grown ones forever after. A new instant takes a small
//! spare first; with none left it gets room for exactly one event, not
//! the four `Vec`'s first growth reserves. Fronts that grew larger (up to
//! `LARGE_SPARE_SLOTS`) go to a second pool of at most `LARGE_SPARE_CAP`,
//! and a large spare is handed only to a bucket that is full and about to
//! grow: the bucket's events move into it, and its own allocation goes
//! back to the pools. So an instant of a few dozen events grows once, not
//! once per doubling, and no instant holds more room than the events it
//! gathered asked for. Handing a large spare to every new or re-filed
//! instant, however few events it holds, made the queue's room grow far
//! past the events it held under re-file churn (772 slots for 3 events in
//! the churn test below).
//!
//! Casts a driver plans ahead of the run in time-ascending order skip the
//! queue altogether: they wait in a `PlanLane`, a run of compact rows
//! the engine merges with this queue by the same order.
//!
//! # Determinism
//!
//! Pop order is total and identical to a heap ordered by `(at asc, seq
//! desc)`: earliest `at` first, ties broken **LIFO** (largest insertion
//! `seq` first). The bucket gets LIFO structurally — events of one instant
//! are appended in ascending `seq` order (the engine's `seq` counter is
//! monotone) and popped from the back. An event scheduled *at the current
//! instant while it is being drained* is pushed onto the live bucket's
//! back and pops next, exactly as a fresh heap maximum would. Queued
//! instants are distinct, so `order` has no ties to break, and nothing
//! depends on slot numbers or on the map's internal order. The engine-swap
//! regression corpus (`wamcast-harness/tests/engine_determinism.rs`) pins
//! this bit-for-bit against golden fingerprints, and the property tests
//! below check the order against a model on random interleavings.

use std::cmp::Reverse;
use std::collections::hash_map::{Entry, HashMap};
use std::collections::{BinaryHeap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use wamcast_types::SimTime;

/// Max small spare bucket allocations kept for reuse. Buckets churn once
/// per distinct timestamp; a small pool makes steady-state pushes
/// allocation-free without hoarding memory after a burst.
const SPARE_CAP: usize = 32;

/// Largest bucket capacity, in events, the small pool keeps. A small
/// spare goes to whatever instant is filed next, most of which hold one
/// event.
const SPARE_SLOTS: usize = 16;

/// Max large spare bucket allocations kept for reuse: one per instant of
/// a burst that may be queued at once.
const LARGE_SPARE_CAP: usize = 8;

/// Largest bucket capacity, in events, the large pool keeps: a drained
/// front with more room is freed, so a rare huge burst is not held for
/// the rest of the run.
const LARGE_SPARE_SLOTS: usize = 64;

/// The events of one instant, ascending `seq`; popped from the back.
type Bucket<T> = Vec<(u64, T)>;

/// Emptied bucket allocations kept for reuse, in two pools (see the
/// [module docs](self)): small ones for new instants, large ones for
/// buckets about to outgrow their room.
#[derive(Debug)]
struct Spares<T> {
    small: Vec<Bucket<T>>,
    large: Vec<Bucket<T>>,
}

impl<T> Spares<T> {
    /// An empty bucket for a new instant: a small spare if there is one,
    /// else room for exactly one event. Most instants of a loaded plan
    /// hold a single cast, and `Vec`'s first growth would size them for
    /// four; a bucket that gains a second event grows on demand.
    fn fresh(&mut self) -> Bucket<T> {
        self.small.pop().unwrap_or_else(|| Vec::with_capacity(1))
    }

    /// Keeps the empty `bucket` in the pool its room fits, or frees it.
    fn recycle(&mut self, bucket: Bucket<T>) {
        debug_assert!(bucket.is_empty());
        let room = bucket.capacity();
        if room <= SPARE_SLOTS {
            if self.small.len() < SPARE_CAP {
                self.small.push(bucket);
            }
        } else if room <= LARGE_SPARE_SLOTS && self.large.len() < LARGE_SPARE_CAP {
            self.large.push(bucket);
        }
    }

    /// Appends an event to `bucket`. A full bucket first moves its events
    /// into the newest large spare, if that has more room, and its own
    /// allocation is recycled: the bucket grows without a reallocation.
    fn append(&mut self, bucket: &mut Bucket<T>, event: (u64, T)) {
        if bucket.len() == bucket.capacity()
            && self
                .large
                .last()
                .is_some_and(|b| b.capacity() > bucket.len())
        {
            let mut large = self.large.pop().expect("checked above");
            large.append(bucket);
            let emptied = std::mem::replace(bucket, large);
            self.recycle(emptied);
        }
        bucket.push(event);
    }
}

/// Hasher for `slot_of`'s keys: nanosecond counts chosen by the run, not
/// by an outside party, so one multiply replaces SipHash on a path taken
/// once per distinct instant. Instants are mostly multiples of a link
/// delay — their low bits are equal — and a product's low bits depend on
/// the factor's low bits only, so `finish` folds the high half down: the
/// table takes its bucket from the low bits.
#[derive(Default)]
struct InstantHasher(u64);

impl Hasher for InstantHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

/// A monotone-time priority queue of `(SimTime, seq, T)` entries; see the
/// [module docs](self) for the structure and the ordering contract.
///
/// `seq` values must be unique and assigned in increasing order by the
/// caller (the engine's global event counter); `push` accepts any `at`,
/// including instants earlier than the cached front bucket (an external
/// `cast_at` between run calls). A push to an instant not yet queued
/// costs `O(log n)` in the number of queued instants, whatever the order
/// instants arrive in; a push to the front or the last-touched instant is
/// `O(1)`.
#[derive(Debug)]
pub struct BucketQueue<T> {
    /// Instant of the cached earliest bucket. Meaningful iff `cur` is
    /// non-empty or the queue is empty (invariant: `cur` is non-empty
    /// whenever `order` is).
    cur_at: SimTime,
    /// The earliest bucket.
    cur: Bucket<T>,
    /// Every instant strictly after `cur_at` that has events, earliest on
    /// top. Holds exactly the keys of `slot_of`.
    order: BinaryHeap<Reverse<SimTime>>,
    /// The slot of `slots` holding each instant of `order`.
    slot_of: HashMap<SimTime, usize, BuildHasherDefault<InstantHasher>>,
    /// Bucket storage. A slot named by `slot_of` holds that instant's
    /// (non-empty) bucket; a slot listed in `free` holds an unallocated
    /// empty one.
    slots: Vec<Bucket<T>>,
    /// Slots of `slots` not named by `slot_of`.
    free: Vec<usize>,
    /// The last-touched entry of `slot_of`, cleared when that entry is
    /// removed — so a hint that matches by instant names the right slot.
    hint: Option<(SimTime, usize)>,
    /// Emptied bucket allocations kept for reuse.
    spare: Spares<T>,
    len: usize,
}

impl<T> Default for BucketQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> BucketQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        BucketQueue {
            cur_at: SimTime::ZERO,
            cur: Vec::new(),
            order: BinaryHeap::new(),
            slot_of: HashMap::default(),
            slots: Vec::new(),
            free: Vec::new(),
            hint: None,
            spare: Spares {
                small: Vec::new(),
                large: Vec::new(),
            },
            len: 0,
        }
    }

    /// Number of queued events.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are queued.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Puts `bucket` into a free slot of `slots`, returning the slot.
    /// Takes the two fields rather than `&mut self` so that it can run
    /// while a `slot_of` entry is borrowed.
    fn store(slots: &mut Vec<Bucket<T>>, free: &mut Vec<usize>, bucket: Bucket<T>) -> usize {
        match free.pop() {
            Some(slot) => {
                slots[slot] = bucket;
                slot
            }
            None => {
                slots.push(bucket);
                slots.len() - 1
            }
        }
    }

    /// Enqueues `item` at instant `at` with insertion number `seq`.
    pub fn push(&mut self, at: SimTime, seq: u64, item: T) {
        self.len += 1;
        if self.cur.is_empty() {
            // Queue was empty (the cur-nonempty invariant says `order` is
            // too): start the front bucket here.
            debug_assert!(self.order.is_empty());
            self.cur_at = at;
            self.cur.push((seq, item));
        } else if at == self.cur_at {
            debug_assert!(self.cur.last().is_some_and(|&(s, _)| s < seq));
            self.spare.append(&mut self.cur, (seq, item));
        } else if at > self.cur_at {
            self.push_later(at, seq, item);
        } else {
            // `at < cur_at`: an external push (cast_at / crash_at between
            // run calls) before the cached front. Re-file the front bucket
            // under its instant and start a fresh front here.
            let old = std::mem::replace(&mut self.cur, self.spare.fresh());
            let slot = Self::store(&mut self.slots, &mut self.free, old);
            self.slot_of.insert(self.cur_at, slot);
            self.order.push(Reverse(self.cur_at));
            self.cur_at = at;
            self.cur.push((seq, item));
        }
    }

    /// Push into a future bucket: hint first, then the index, filing a new
    /// bucket on miss.
    fn push_later(&mut self, at: SimTime, seq: u64, item: T) {
        let slot = match self.hint {
            Some((t, slot)) if t == at => slot,
            _ => {
                let slot = match self.slot_of.entry(at) {
                    Entry::Occupied(e) => *e.get(),
                    Entry::Vacant(e) => {
                        self.order.push(Reverse(at));
                        let fresh = self.spare.fresh();
                        *e.insert(Self::store(&mut self.slots, &mut self.free, fresh))
                    }
                };
                self.hint = Some((at, slot));
                slot
            }
        };
        let bucket = &mut self.slots[slot];
        debug_assert!(bucket.last().map_or(true, |&(s, _)| s < seq));
        self.spare.append(bucket, (seq, item));
    }

    /// The next event to pop: `(at, seq, &item)`.
    #[inline]
    pub fn peek(&self) -> Option<(SimTime, u64, &T)> {
        self.cur.last().map(|(seq, item)| (self.cur_at, *seq, item))
    }

    /// Removes and returns the next event: minimum `at`, ties LIFO
    /// (maximum `seq`).
    pub fn pop(&mut self) -> Option<(SimTime, u64, T)> {
        let (seq, item) = self.cur.pop()?;
        let at = self.cur_at;
        self.len -= 1;
        if self.cur.is_empty() {
            if let Some(Reverse(t)) = self.order.pop() {
                let slot = self.slot_of.remove(&t).expect("order and slot_of agree");
                // The bucket takes its allocation with it: the freed slot
                // keeps none.
                let bucket = std::mem::take(&mut self.slots[slot]);
                self.free.push(slot);
                if self.hint.is_some_and(|(h, _)| h == t) {
                    self.hint = None;
                }
                let drained = std::mem::replace(&mut self.cur, bucket);
                self.spare.recycle(drained);
                self.cur_at = t;
            }
        }
        Some((at, seq, item))
    }

    /// Event slots allocated in every bucket the queue holds, the pool's
    /// included.
    #[cfg(test)]
    fn room(&self) -> usize {
        let slots: usize = self.slots.iter().map(Vec::capacity).sum();
        let spares = self.spare.small.iter().chain(&self.spare.large);
        let spare: usize = spares.map(Vec::capacity).sum();
        self.cur.capacity() + slots + spare
    }
}

/// Rows per [`PlanLane`] chunk: a plan costs one allocation per this many
/// items, and a consumed chunk is freed whole.
const LANE_CHUNK: usize = 512;

/// Items planned ahead of the run at strictly ascending instants, each
/// with its insertion number: a first-in first-out run of `(at, seq,
/// item)` rows, kept in chunks of 512 that are freed as they are
/// consumed.
///
/// The engine loads a driver's time-ascending `cast_at` calls here: a row
/// costs its own bytes and nothing else — no bucket allocation, no index
/// entry, no heap sift — and a plan of n casts takes n / 512
/// allocations. An item at or before the lane's last instant is handed
/// back to the caller, who queues it in the [`BucketQueue`] instead:
/// rows of one instant would pop first-in first-out, where the engine's
/// order wants the last-in first. The engine merges the two by
/// [`pops_before`], so the schedule is the one the queue alone gives.
#[derive(Debug)]
pub(crate) struct PlanLane<T> {
    /// Never holds an empty chunk.
    chunks: VecDeque<VecDeque<(SimTime, u64, T)>>,
}

impl<T> Default for PlanLane<T> {
    fn default() -> Self {
        PlanLane {
            chunks: VecDeque::new(),
        }
    }
}

impl<T> PlanLane<T> {
    /// Appends `item` at `at` with insertion number `seq` if `at` is after
    /// every instant the lane holds, else hands it back as the error.
    pub fn push(&mut self, at: SimTime, seq: u64, item: T) -> Result<(), T> {
        if let Some(&(last, last_seq, _)) = self.chunks.back().and_then(VecDeque::back) {
            if at <= last {
                return Err(item);
            }
            debug_assert!(last_seq < seq);
        }
        let row = (at, seq, item);
        match self.chunks.back_mut().filter(|c| c.len() < LANE_CHUNK) {
            Some(chunk) => chunk.push_back(row),
            None => {
                let mut chunk = VecDeque::with_capacity(LANE_CHUNK);
                chunk.push_back(row);
                self.chunks.push_back(chunk);
            }
        }
        Ok(())
    }

    /// The earliest row: `(at, seq, &item)`.
    #[inline]
    pub fn peek(&self) -> Option<(SimTime, u64, &T)> {
        let (at, seq, item) = self.chunks.front()?.front()?;
        Some((*at, *seq, item))
    }

    /// Removes and returns the earliest row.
    pub fn pop(&mut self) -> Option<(SimTime, u64, T)> {
        let chunk = self.chunks.front_mut()?;
        let row = chunk.pop_front();
        if chunk.is_empty() {
            self.chunks.pop_front();
        }
        row
    }

    /// Whether the lane is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }
}

/// Whether an event keyed `(at, seq)` pops before one keyed `other`: the
/// earlier instant first, ties to the larger insertion number — the order
/// of [`BucketQueue`].
#[inline]
pub(crate) fn pops_before((at, seq): (SimTime, u64), other: (SimTime, u64)) -> bool {
    at < other.0 || (at == other.0 && seq > other.1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{shuffle, SplitMix64};

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    #[test]
    fn pops_by_time_then_lifo() {
        let mut q = BucketQueue::new();
        q.push(ms(5), 0, "a5");
        q.push(ms(1), 1, "a1");
        q.push(ms(5), 2, "b5");
        q.push(ms(1), 3, "b1");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, _, v)| v).collect();
        // Time ascending; within an instant the *later* push pops first.
        assert_eq!(order, ["b1", "a1", "b5", "a5"]);
        assert!(q.is_empty());
    }

    #[test]
    fn push_at_current_instant_pops_next() {
        // The engine's hottest shape: a handler at time t schedules more
        // work at time t (zero-delay timers, same-instant arrivals).
        let mut q = BucketQueue::new();
        q.push(ms(2), 0, 'x');
        q.push(ms(2), 1, 'y');
        assert_eq!(q.pop().unwrap().2, 'y');
        q.push(ms(2), 2, 'z'); // scheduled while the bucket is live
        assert_eq!(q.pop().unwrap().2, 'z');
        assert_eq!(q.pop().unwrap().2, 'x');
        assert!(q.pop().is_none());
    }

    #[test]
    fn push_before_cached_front_is_honored() {
        let mut q = BucketQueue::new();
        q.push(ms(10), 0, "late");
        q.push(ms(10), 1, "late2");
        // External cast lands before the cached front bucket.
        q.push(ms(3), 2, "early");
        assert_eq!(q.peek().unwrap().0, ms(3));
        assert_eq!(q.pop().unwrap().2, "early");
        assert_eq!(q.pop().unwrap().2, "late2");
        assert_eq!(q.pop().unwrap().2, "late");
    }

    #[test]
    fn interleaved_refill_keeps_bucket_order() {
        let mut q = BucketQueue::new();
        q.push(ms(10), 0, 0u32);
        q.push(ms(5), 1, 1); // evicts the t=10 bucket into the index
        q.push(ms(10), 2, 2); // appends to the evicted bucket
        assert_eq!(q.pop().unwrap().2, 1);
        // Refilled t=10 bucket must still pop LIFO: 2 then 0.
        assert_eq!(q.pop().unwrap().2, 2);
        assert_eq!(q.pop().unwrap().2, 0);
    }

    #[test]
    fn hint_never_misfiles_across_removals_and_inserts() {
        // Exercise hint staleness: interleave bucket creation, draining
        // (index shrink) and re-creation, checking every pop's instant.
        let mut q = BucketQueue::new();
        for wave in 0..5u64 {
            for i in 0..6u64 {
                q.push(ms(10 + (i % 3) * 10), wave * 100 + i, (wave, i));
            }
            // Drain two events; refills shift the index under the hint.
            q.pop();
            q.pop();
        }
        let mut last = SimTime::ZERO;
        while let Some((at, _, _)) = q.pop() {
            assert!(at >= last, "time went backwards");
            last = at;
        }
    }

    /// Model check against an ordered set of `(at, Reverse(seq))` on a
    /// random interleaving of pushes and pops, after `preload` far-future
    /// instants (shuffled) were queued. Pushes never precede the last
    /// popped instant (the engine never schedules in the past) but do land
    /// before the cached front, between queued instants and on them.
    fn check_against_model(seed: u64, preload: u64, ops: usize) {
        use std::cmp::Reverse;
        use std::collections::BTreeSet;
        let mut rng = SplitMix64::new(seed);
        let mut q = BucketQueue::new();
        let mut model: BTreeSet<(SimTime, Reverse<u64>)> = BTreeSet::new();
        let mut seq = 0u64;
        let mut push = |q: &mut BucketQueue<u64>, model: &mut BTreeSet<_>, at: SimTime| {
            q.push(at, seq, seq);
            model.insert((at, Reverse(seq)));
            seq += 1;
        };
        // The plan: one instant per 3 ms from 50 ms on, in random order.
        let mut plan: Vec<u64> = (0..preload).map(|i| 50 + 3 * i).collect();
        shuffle(&mut plan, &mut rng);
        for t in plan {
            push(&mut q, &mut model, ms(t));
        }
        let mut horizon = SimTime::ZERO; // pops only move time forward
        for _ in 0..ops {
            if rng.next_below(3) < 2 || model.is_empty() {
                // Mostly within 4 ms of the last pop (the engine's shape);
                // with a plan queued, sometimes anywhere inside it.
                let ahead = if preload > 0 && rng.next_below(4) == 0 {
                    rng.next_below(3 * preload)
                } else {
                    rng.next_below(5)
                };
                let at = SimTime::from_nanos(horizon.as_nanos() + ahead * 1_000_000);
                push(&mut q, &mut model, at);
            } else {
                let (at, Reverse(s)) = model.pop_first().expect("non-empty");
                assert_eq!(q.peek(), Some((at, s, &s)), "seed {seed}");
                assert_eq!(q.pop(), Some((at, s, s)), "seed {seed}");
                horizon = at;
            }
            assert_eq!(q.len(), model.len());
        }
        while let Some((at, Reverse(s))) = model.pop_first() {
            assert_eq!(q.pop(), Some((at, s, s)), "seed {seed}");
        }
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn matches_reference_model_on_random_schedules() {
        for seed in 0..50 {
            check_against_model(seed, 0, 400);
        }
    }

    /// The same check with a plan queued first: thousands of buckets in the
    /// index, so filing, the hint and the refill are exercised away from
    /// the near-empty index the engine's own pushes keep.
    #[test]
    fn matches_reference_model_with_a_preloaded_plan() {
        for seed in 0..10 {
            check_against_model(seed, 3_000, 6_000);
        }
    }

    /// Loading a plan of `N` distinct instants and draining it is
    /// `O(N log N)` whatever order the instants are pushed in. The bound is
    /// for a debug build on a busy shared box; an index that shifts its
    /// entries on insert (the descending `Vec` this queue had until PR 22)
    /// needs tens of seconds in release for the ascending load alone.
    #[test]
    fn plan_length_is_not_quadratic_in_any_push_order() {
        const N: u64 = 200_000;
        let ascending: Vec<u64> = (0..N).collect();
        let descending: Vec<u64> = (0..N).rev().collect();
        let mut shuffled = ascending.clone();
        shuffle(&mut shuffled, &mut SplitMix64::new(22));
        for (order, plan) in [
            ("ascending", ascending),
            ("descending", descending),
            ("shuffled", shuffled),
        ] {
            let t0 = std::time::Instant::now();
            let mut q = BucketQueue::new();
            for (seq, &t) in plan.iter().enumerate() {
                q.push(ms(t), seq as u64, t);
            }
            assert_eq!(q.len() as u64, N);
            for t in 0..N {
                assert_eq!(q.pop().map(|(at, _, v)| (at, v)), Some((ms(t), t)));
            }
            assert!(q.is_empty());
            let took = t0.elapsed();
            assert!(
                took < std::time::Duration::from_secs(5),
                "{order}: {N} instants took {took:?}"
            );
        }
    }

    /// Re-file churn: each round files a new far instant, then bursts 256
    /// events at an instant before the front (re-filing it) and drains
    /// them. A pool that kept the drained 256-slot front handed it to the
    /// next round's far instant, which holds one event: the room grew by
    /// 256 slots per round for one queued event. Only small fronts are
    /// pooled, so the room stays within a constant factor of the events.
    #[test]
    fn room_stays_proportional_to_queued_events_under_refile_churn() {
        let mut q = BucketQueue::new();
        let mut seq = 0u64;
        let mut push = |q: &mut BucketQueue<u64>, at: u64| {
            q.push(ms(at), seq, seq);
            seq += 1;
        };
        for round in 0..100u64 {
            push(&mut q, 1_000_000 + round);
            for _ in 0..256 {
                push(&mut q, 10 * round + 1);
            }
            for _ in 0..256 {
                assert_eq!(q.pop().map(|(at, ..)| at), Some(ms(10 * round + 1)));
            }
            assert_eq!(q.len() as u64, round + 1);
            assert!(
                q.room() <= SPARE_SLOTS * (q.len() + SPARE_CAP),
                "round {round}: {} slots for {} events",
                q.room(),
                q.len()
            );
        }
    }

    /// A drained front of a few dozen events is kept and handed only to a
    /// bucket that is full: a new instant still starts in one slot, and an
    /// instant that gathers as many events again moves into the kept
    /// allocation once instead of doubling its way up.
    #[test]
    fn large_spares_go_only_to_buckets_about_to_grow() {
        let mut q = BucketQueue::new();
        let mut seq = 0u64;
        let mut push = |q: &mut BucketQueue<u64>, at: u64| {
            q.push(ms(at), seq, seq);
            seq += 1;
        };
        for _ in 0..40 {
            push(&mut q, 1);
        }
        push(&mut q, 5);
        for _ in 0..40 {
            assert_eq!(q.pop().map(|(at, ..)| at), Some(ms(1)));
        }
        assert_eq!(q.spare.large.len(), 1, "the 40-event front is kept");
        let kept = q.spare.large[0].capacity();
        assert!(kept > SPARE_SLOTS);
        push(&mut q, 9);
        let room_at = |q: &BucketQueue<u64>, at| q.slots[q.slot_of[&ms(at)]].capacity();
        assert_eq!(room_at(&q, 9), 1, "a new instant starts in one slot");
        assert_eq!(q.spare.large.len(), 1);
        push(&mut q, 9);
        assert!(q.spare.large.is_empty(), "a full bucket takes the spare");
        assert_eq!(room_at(&q, 9), kept);
        for _ in 2..kept {
            push(&mut q, 9);
        }
        assert_eq!(room_at(&q, 9), kept, "no growth up to the spare's room");
        assert_eq!(q.spare.small.len(), 1, "the one-slot bucket is pooled");
    }

    /// The engine's merge of a [`PlanLane`] with the queue, checked against
    /// the `(at asc, seq desc)` model: a plan loaded mostly ascending, with
    /// repeated instants and steps back (both handed to the queue), then
    /// run-time pushes at or after the last pop — on planned instants too —
    /// and now and then another planned row, interleaved with pops.
    #[test]
    fn lane_and_queue_merge_in_model_order() {
        use std::cmp::Reverse;
        use std::collections::BTreeSet;
        fn pop(q: &mut BucketQueue<u64>, lane: &mut PlanLane<u64>) -> Option<(SimTime, u64, u64)> {
            let from_lane = match (lane.peek(), q.peek()) {
                (Some((at, seq, _)), Some((q_at, q_seq, _))) => {
                    pops_before((at, seq), (q_at, q_seq))
                }
                (lane, _) => lane.is_some(),
            };
            if from_lane {
                lane.pop()
            } else {
                q.pop()
            }
        }
        for seed in 0..50 {
            let mut rng = SplitMix64::new(seed);
            let (mut q, mut lane) = (BucketQueue::new(), PlanLane::default());
            let mut model: BTreeSet<(SimTime, Reverse<u64>)> = BTreeSet::new();
            let mut seq = 0u64;
            // A planned row tries the lane first; a run-time event is queued.
            let mut push = |q: &mut BucketQueue<u64>, lane: &mut PlanLane<u64>, at, planned| {
                let s = seq;
                seq += 1;
                let queued = if planned {
                    lane.push(ms(at), s, s).err()
                } else {
                    Some(s)
                };
                if let Some(item) = queued {
                    q.push(ms(at), s, item);
                }
                (ms(at), Reverse(s))
            };
            let mut t = 0u64;
            for _ in 0..2_000 {
                t = match rng.next_below(8) {
                    0 => t,
                    1 => t.saturating_sub(rng.next_below(20)),
                    _ => t + 1 + rng.next_below(4),
                };
                model.insert(push(&mut q, &mut lane, t, true));
            }
            let mut horizon = 0u64;
            while !model.is_empty() {
                match rng.next_below(8) {
                    0 => {
                        let at = horizon + rng.next_below(5);
                        model.insert(push(&mut q, &mut lane, at, true));
                    }
                    1 | 2 => {
                        let at = horizon + rng.next_below(5);
                        model.insert(push(&mut q, &mut lane, at, false));
                    }
                    _ => {
                        let (at, Reverse(s)) = model.pop_first().expect("non-empty");
                        assert_eq!(pop(&mut q, &mut lane), Some((at, s, s)), "seed {seed}");
                        horizon = at.as_nanos() / 1_000_000;
                    }
                }
            }
            assert_eq!(pop(&mut q, &mut lane), None);
            assert!(lane.is_empty() && q.is_empty());
        }
    }

    #[test]
    fn lane_refuses_rows_at_or_before_its_tail_and_frees_chunks() {
        let mut lane = PlanLane::default();
        for i in 0..3 * LANE_CHUNK as u64 {
            assert_eq!(lane.push(ms(i + 1), i, i), Ok(()));
        }
        let n = 3 * LANE_CHUNK as u64;
        assert_eq!(lane.push(ms(n), n, 0), Err(0), "same instant as the tail");
        assert_eq!(lane.push(ms(1), n, 1), Err(1), "before the tail");
        assert_eq!(lane.chunks.len(), 3);
        for i in 0..=LANE_CHUNK as u64 {
            assert_eq!(lane.pop(), Some((ms(i + 1), i, i)));
        }
        assert_eq!(lane.chunks.len(), 2, "a consumed chunk is freed");
        while lane.pop().is_some() {}
        assert!(lane.is_empty());
        assert_eq!(
            lane.push(ms(1), n, 7),
            Ok(()),
            "an empty lane takes any instant"
        );
    }

    #[test]
    fn len_tracks_through_eviction_and_refill() {
        let mut q = BucketQueue::new();
        for i in 0..10 {
            q.push(ms(i % 3), i, i);
        }
        assert_eq!(q.len(), 10);
        for left in (0..10).rev() {
            q.pop().unwrap();
            assert_eq!(q.len(), left);
        }
        assert!(q.is_empty());
        // Reusable after draining.
        q.push(ms(1), 100, 0);
        assert_eq!(q.len(), 1);
    }
}
