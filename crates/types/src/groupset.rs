//! Compact destination sets over groups.

use crate::GroupId;
use std::fmt;
use std::ops::{BitAnd, BitOr, BitOrAssign, Sub};

/// A set of groups, `m.dest ⊆ Γ`, stored as a 128-bit mask.
///
/// The mask is 8-aligned (`packed(8)`), not 16 as a bare `u128` is on
/// x86-64: every copy of a cast a process keeps or queues embeds one, and
/// 16-byte alignment would pad [`AppMessage`](crate::AppMessage) from 48
/// to 64 bytes. The field is only ever read and written by value, so the
/// packing needs no `unsafe`.
///
/// Atomic multicast addresses messages to arbitrary subsets of the system's
/// groups (§2.2). Destination sets are consulted on every protocol step, so
/// they must be tiny and `Copy`; a bitmask over at most
/// [`MAX_GROUPS`](Self::MAX_GROUPS) groups suffices for any realistic WAN
/// deployment (the paper's experiments consider a handful of sites).
///
/// # Example
///
/// ```
/// use wamcast_types::{GroupSet, GroupId};
///
/// let a = GroupSet::from_iter([GroupId(0), GroupId(1)]);
/// let b = GroupSet::singleton(GroupId(1));
/// assert_eq!((a & b).len(), 1);
/// assert_eq!((a - b), GroupSet::singleton(GroupId(0)));
/// assert!(a.contains(GroupId(0)));
/// assert_eq!(a.iter().collect::<Vec<_>>(), vec![GroupId(0), GroupId(1)]);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[repr(Rust, packed(8))]
pub struct GroupSet(u128);

impl GroupSet {
    /// Maximum number of distinct groups representable (bit width of the mask).
    pub const MAX_GROUPS: usize = 128;

    /// The empty set.
    pub const EMPTY: GroupSet = GroupSet(0);

    /// Creates an empty set.
    ///
    /// # Example
    ///
    /// ```
    /// # use wamcast_types::GroupSet;
    /// assert!(GroupSet::new().is_empty());
    /// ```
    #[inline]
    pub fn new() -> Self {
        Self::EMPTY
    }

    /// The set containing exactly one group.
    ///
    /// # Panics
    ///
    /// Panics if `g.index() >= MAX_GROUPS`.
    #[inline]
    pub fn singleton(g: GroupId) -> Self {
        assert!(
            g.index() < Self::MAX_GROUPS,
            "group id {g} out of range for GroupSet"
        );
        GroupSet(1u128 << g.index())
    }

    /// The set {g₀, …, g_{k−1}} of the first `k` groups.
    ///
    /// Convenient for building broadcast destinations (`m.dest = Γ`).
    ///
    /// # Panics
    ///
    /// Panics if `k > MAX_GROUPS`.
    #[inline]
    pub fn first_n(k: usize) -> Self {
        assert!(k <= Self::MAX_GROUPS, "too many groups: {k}");
        if k == Self::MAX_GROUPS {
            GroupSet(u128::MAX)
        } else {
            GroupSet((1u128 << k) - 1)
        }
    }

    /// Inserts a group; returns `true` if it was newly added.
    ///
    /// # Panics
    ///
    /// Panics if `g.index() >= MAX_GROUPS`.
    #[inline]
    pub fn insert(&mut self, g: GroupId) -> bool {
        let single = Self::singleton(g);
        let fresh = self.0 & single.0 == 0;
        self.0 |= single.0;
        fresh
    }

    /// Removes a group; returns `true` if it was present.
    #[inline]
    pub fn remove(&mut self, g: GroupId) -> bool {
        if g.index() >= Self::MAX_GROUPS {
            return false;
        }
        let bit = 1u128 << g.index();
        let had = self.0 & bit != 0;
        self.0 &= !bit;
        had
    }

    /// Whether `g` is a member.
    #[inline]
    pub fn contains(self, g: GroupId) -> bool {
        g.index() < Self::MAX_GROUPS && self.0 & (1u128 << g.index()) != 0
    }

    /// Number of groups in the set (|m.dest|; the paper's stage-skipping
    /// test is `|m.dest| > 1`).
    #[inline]
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Whether `self ⊆ other`.
    #[inline]
    pub fn is_subset(self, other: GroupSet) -> bool {
        self.0 & !other.0 == 0
    }

    /// Whether the two sets share at least one group.
    #[inline]
    pub fn intersects(self, other: GroupSet) -> bool {
        self.0 & other.0 != 0
    }

    /// Iterates over members in increasing [`GroupId`] order.
    #[inline]
    pub fn iter(self) -> Iter {
        Iter(self.0)
    }

    /// The smallest group id in the set, if any. Used by ring-based
    /// baselines that traverse destination groups in id order.
    #[inline]
    pub fn min(self) -> Option<GroupId> {
        if self.0 == 0 {
            None
        } else {
            Some(GroupId(self.0.trailing_zeros() as u16))
        }
    }

    /// The raw bitmask. Exposed for hashing/serialization in traces.
    ///
    /// Note the wire format still carries destination sets as a `u64`
    /// (wire v1 predated the 128-group mask and v2 kept it); see the
    /// `Wire` impl for the ≤64-group encoding guard.
    #[inline]
    pub fn bits(self) -> u128 {
        self.0
    }

    /// Rebuilds a set from a raw bitmask produced by [`bits`](Self::bits).
    #[inline]
    pub fn from_bits(bits: u128) -> Self {
        GroupSet(bits)
    }
}

/// Iterator over the members of a [`GroupSet`] in increasing id order.
#[derive(Clone, Debug)]
pub struct Iter(u128);

impl Iterator for Iter {
    type Item = GroupId;

    fn next(&mut self) -> Option<GroupId> {
        if self.0 == 0 {
            None
        } else {
            let idx = self.0.trailing_zeros();
            self.0 &= self.0 - 1;
            Some(GroupId(idx as u16))
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.0.count_ones() as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for Iter {}

impl FromIterator<GroupId> for GroupSet {
    fn from_iter<T: IntoIterator<Item = GroupId>>(iter: T) -> Self {
        let mut s = GroupSet::new();
        for g in iter {
            s.insert(g);
        }
        s
    }
}

impl Extend<GroupId> for GroupSet {
    fn extend<T: IntoIterator<Item = GroupId>>(&mut self, iter: T) {
        for g in iter {
            self.insert(g);
        }
    }
}

impl IntoIterator for GroupSet {
    type Item = GroupId;
    type IntoIter = Iter;
    fn into_iter(self) -> Iter {
        self.iter()
    }
}

impl From<GroupId> for GroupSet {
    fn from(g: GroupId) -> Self {
        GroupSet::singleton(g)
    }
}

impl BitOr for GroupSet {
    type Output = GroupSet;
    fn bitor(self, rhs: GroupSet) -> GroupSet {
        GroupSet(self.0 | rhs.0)
    }
}

impl BitOrAssign for GroupSet {
    fn bitor_assign(&mut self, rhs: GroupSet) {
        self.0 |= rhs.0;
    }
}

impl BitAnd for GroupSet {
    type Output = GroupSet;
    fn bitand(self, rhs: GroupSet) -> GroupSet {
        GroupSet(self.0 & rhs.0)
    }
}

impl Sub for GroupSet {
    type Output = GroupSet;
    fn sub(self, rhs: GroupSet) -> GroupSet {
        GroupSet(self.0 & !rhs.0)
    }
}

impl fmt::Debug for GroupSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("{")?;
        let mut first = true;
        for g in self.iter() {
            if !first {
                f.write_str(",")?;
            }
            write!(f, "{g}")?;
            first = false;
        }
        f.write_str("}")
    }
}

impl fmt::Display for GroupSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SplitMix64;

    #[test]
    fn empty_set() {
        let s = GroupSet::new();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.iter().count(), 0);
        assert_eq!(s.min(), None);
        assert_eq!(format!("{s:?}"), "{}");
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = GroupSet::new();
        assert!(s.insert(GroupId(3)));
        assert!(!s.insert(GroupId(3)));
        assert!(s.contains(GroupId(3)));
        assert!(!s.contains(GroupId(2)));
        assert!(s.remove(GroupId(3)));
        assert!(!s.remove(GroupId(3)));
        assert!(s.is_empty());
    }

    #[test]
    fn first_n_matches_manual() {
        let s = GroupSet::first_n(3);
        assert_eq!(s.len(), 3);
        for i in 0..3 {
            assert!(s.contains(GroupId(i)));
        }
        assert!(!s.contains(GroupId(3)));
        assert_eq!(GroupSet::first_n(0), GroupSet::EMPTY);
        assert_eq!(GroupSet::first_n(64).len(), 64);
        assert!(GroupSet::first_n(64).contains(GroupId(63)));
        assert_eq!(GroupSet::first_n(128).len(), 128);
        assert!(GroupSet::first_n(128).contains(GroupId(127)));
    }

    #[test]
    fn set_algebra() {
        let a = GroupSet::from_iter([GroupId(0), GroupId(1), GroupId(2)]);
        let b = GroupSet::from_iter([GroupId(1), GroupId(5)]);
        assert_eq!((a | b).len(), 4);
        assert_eq!((a & b), GroupSet::singleton(GroupId(1)));
        assert_eq!((a - b), GroupSet::from_iter([GroupId(0), GroupId(2)]));
        assert!(b.intersects(a));
        assert!((a & b).is_subset(a));
        assert!(!a.is_subset(b));
    }

    #[test]
    fn iteration_order_is_ascending() {
        let s = GroupSet::from_iter([GroupId(9), GroupId(1), GroupId(4)]);
        let v: Vec<_> = s.iter().collect();
        assert_eq!(v, vec![GroupId(1), GroupId(4), GroupId(9)]);
        assert_eq!(s.min(), Some(GroupId(1)));
        assert_eq!(s.iter().len(), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oversized_group_panics() {
        GroupSet::singleton(GroupId(128));
    }

    #[test]
    fn bits_roundtrip() {
        let s = GroupSet::from_iter([GroupId(0), GroupId(63), GroupId(127)]);
        assert_eq!(GroupSet::from_bits(s.bits()), s);
    }

    #[test]
    fn debug_lists_members() {
        let s = GroupSet::from_iter([GroupId(2), GroupId(0)]);
        assert_eq!(format!("{s:?}"), "{g0,g2}");
        assert_eq!(format!("{s}"), "{g0,g2}");
    }

    #[test]
    fn insert_then_contains() {
        let mut rng = SplitMix64::new(0x6517);
        for case in 0..256 {
            let ids: Vec<u16> = (0..rng.next_below(20))
                .map(|_| rng.next_below(128) as u16)
                .collect();
            let mut s = GroupSet::new();
            for &i in &ids {
                s.insert(GroupId(i));
            }
            for &i in &ids {
                assert!(s.contains(GroupId(i)), "case {case}");
            }
            let unique: std::collections::BTreeSet<_> = ids.iter().copied().collect();
            assert_eq!(s.len(), unique.len(), "case {case}");
        }
    }

    #[test]
    fn union_is_commutative() {
        let mut rng = SplitMix64::new(0xC0117);
        for case in 0..256 {
            let (x, y) = (
                GroupSet::from_bits((rng.next_u64() as u128) << 64 | rng.next_u64() as u128),
                GroupSet::from_bits((rng.next_u64() as u128) << 64 | rng.next_u64() as u128),
            );
            assert_eq!(x | y, y | x, "case {case}");
            assert_eq!(x & y, y & x, "case {case}");
        }
    }

    #[test]
    fn difference_disjoint_from_subtrahend() {
        let mut rng = SplitMix64::new(0xD1FF);
        for case in 0..256 {
            let (x, y) = (
                GroupSet::from_bits((rng.next_u64() as u128) << 64 | rng.next_u64() as u128),
                GroupSet::from_bits((rng.next_u64() as u128) << 64 | rng.next_u64() as u128),
            );
            assert!(!(x - y).intersects(y), "case {case}");
            assert!((x - y).is_subset(x), "case {case}");
        }
    }
}
