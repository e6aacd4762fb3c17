//! An exact, compact set of [`MessageId`]s for the sets that only grow.
//!
//! The paper's pseudo-code tests `m ∉ ADELIVERED` and R-MCast integrity
//! against sets that gain one id per cast and never lose one. Stored
//! literally (a hash or tree set of 16-byte ids) they are the largest thing
//! a long-running process keeps besides the bodies themselves. An origin
//! numbers its casts densely, so almost every id a process records extends
//! a run it already holds: [`IdSet`] keeps, per origin, a sorted list of
//! disjoint inclusive `seq` ranges, and a run of any length costs 16 bytes.
//!
//! It is *exact*, not a watermark: an id from arbitrarily far back is
//! still recognised (a duplicate that a lossy link replays late must not be
//! delivered twice), an origin may hold several dense runs at once (client
//! sequence spaces such as `client << 32 | round`), and ids nobody numbered
//! densely degrade to one range per id — never to an allocation sized by a
//! `seq` or an origin value, both of which may come off a socket.

use crate::{MessageId, ProcessId};

/// One origin's recorded sequence numbers: disjoint, non-adjacent,
/// inclusive `(lo, hi)` ranges in ascending order. Inclusive bounds keep
/// `u64::MAX` representable.
type Ranges = Vec<(u64, u64)>;

/// A grow-only set of message ids, stored as per-origin `seq` ranges.
///
/// `insert` and `contains` are O(1) when `id` continues or falls in its
/// origin's newest run (the in-order case) and a binary search over that
/// origin's ranges otherwise; origins are found by binary search too.
/// There is no removal and no iteration — what the protocols need of
/// `ADELIVERED`-style sets is exactly "add" and "is it in?".
///
/// # Example
///
/// ```
/// use wamcast_types::{IdSet, MessageId, ProcessId};
///
/// let id = |seq| MessageId::new(ProcessId(2), seq);
/// let mut set = IdSet::new();
/// assert!(set.insert(id(0)));
/// assert!(set.insert(id(1)));
/// assert!(set.insert(id(3)));   // out of order: a second range
/// assert_eq!(set.ranges(), 2);
/// assert!(set.insert(id(2)));   // the gap closes, the ranges merge
/// assert_eq!(set.ranges(), 1);
/// assert!(!set.insert(id(1)), "a late duplicate is still recognised");
/// assert!(set.contains(id(3)) && !set.contains(id(4)));
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IdSet {
    /// Sorted by origin. A process hears of few origins (the casters), so
    /// a sorted vector beats a map; an origin is never used as an index.
    origins: Vec<(ProcessId, Ranges)>,
}

impl IdSet {
    /// An empty set.
    pub fn new() -> Self {
        IdSet::default()
    }

    /// Adds `id`; `true` if it was not in the set before.
    pub fn insert(&mut self, id: MessageId) -> bool {
        let slot = match self.origins.binary_search_by_key(&id.origin, |o| o.0) {
            Ok(i) => i,
            Err(i) => {
                self.origins.insert(i, (id.origin, Ranges::new()));
                i
            }
        };
        insert_seq(&mut self.origins[slot].1, id.seq)
    }

    /// Whether `id` is in the set.
    pub fn contains(&self, id: MessageId) -> bool {
        self.origins
            .binary_search_by_key(&id.origin, |o| o.0)
            .is_ok_and(|slot| locate(&self.origins[slot].1, id.seq).1)
    }

    /// Number of ranges held, over all origins — what the set costs in
    /// memory (16 bytes each), as opposed to how many ids it holds.
    pub fn ranges(&self) -> usize {
        self.origins.iter().map(|o| o.1.len()).sum()
    }
}

/// The index of the first range ending at or after `seq` (where `seq` is,
/// or would go), and whether that range holds `seq`.
fn locate(ranges: &Ranges, seq: u64) -> (usize, bool) {
    let i = match ranges.last() {
        // The in-order tail, without a search: in the newest run or past it.
        Some(last) if last.0 <= seq => ranges.len() - usize::from(seq <= last.1),
        _ => ranges.partition_point(|r| r.1 < seq),
    };
    (i, ranges.get(i).is_some_and(|r| r.0 <= seq))
}

/// Adds `seq` to one origin's ranges; `true` if it was absent.
fn insert_seq(ranges: &mut Ranges, seq: u64) -> bool {
    let (i, held) = locate(ranges, seq);
    if held {
        return false;
    }
    // `seq` lies in the gap before range `i` (after every range, if there
    // is none). No overflow below: the range before the gap ends under
    // `seq`, the one after it starts above.
    let joins_prev = i > 0 && ranges[i - 1].1 + 1 == seq;
    let joins_next = ranges.get(i).is_some_and(|r| r.0 == seq + 1);
    match (joins_prev, joins_next) {
        (true, true) => {
            ranges[i - 1].1 = ranges[i].1;
            ranges.remove(i);
        }
        (true, false) => ranges[i - 1].1 = seq,
        (false, true) => ranges[i].0 = seq,
        (false, false) => ranges.insert(i, (seq, seq)),
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(origin: u32, seq: u64) -> MessageId {
        MessageId::new(ProcessId(origin), seq)
    }

    #[test]
    fn merges_on_both_sides_and_keeps_origins_apart() {
        let mut s = IdSet::new();
        for seq in [5, 7, 9] {
            assert!(s.insert(id(1, seq)));
        }
        assert_eq!(s.ranges(), 3);
        assert!(s.insert(id(1, 6)), "joins 5 and 7");
        assert!(s.insert(id(1, 10)), "extends the tail");
        assert!(s.insert(id(1, 4)), "extends a head");
        assert_eq!(s.ranges(), 2, "4..=7 and 9..=10");
        assert!(!s.contains(id(1, 8)) && !s.contains(id(1, 3)) && !s.contains(id(1, 11)));
        assert!(!s.contains(id(0, 5)), "another origin's ids are not ours");
        assert!(s.insert(id(0, 5)));
        assert!(s.insert(id(7, 5)));
        assert_eq!(s.ranges(), 4);
        for seq in 4..=7 {
            assert!(!s.insert(id(1, seq)), "{seq} is a duplicate");
        }
    }

    #[test]
    fn the_ends_of_the_seq_space() {
        let mut s = IdSet::new();
        assert!(s.insert(id(0, u64::MAX)));
        assert!(!s.insert(id(0, u64::MAX)));
        assert!(s.insert(id(0, 0)));
        assert!(s.insert(id(0, u64::MAX - 1)), "joins the range above it");
        assert_eq!(s.ranges(), 2);
        assert!(s.contains(id(0, u64::MAX)) && s.contains(id(0, 0)));
        assert!(!s.contains(id(0, 1)) && !s.contains(id(0, u64::MAX - 2)));
        // A hostile origin value is a key like any other, never an index.
        assert!(s.insert(id(u32::MAX, u64::MAX)));
        assert!(s.contains(id(u32::MAX, u64::MAX)));
    }
}
