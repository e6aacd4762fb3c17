//! Static group membership.

use crate::{GroupId, GroupSet, ProcessId, TopologyError};
use std::sync::Arc;

/// The static system layout: disjoint, non-empty groups covering Π (§2.1).
///
/// Processes are numbered densely and contiguously inside each group, in
/// group declaration order, so `group_of` and `members` are O(1) lookups.
/// A `Topology` is immutable after construction — the paper's model has no
/// reconfiguration — and cheap to clone (it is shared by every simulated
/// process). Each group's member list is stored once, shared: a fan-out to
/// a whole group ([`shared_members`](Self::shared_members)) hands out a
/// refcount, not a copy.
///
/// # Example
///
/// ```
/// use wamcast_types::{Topology, GroupId, ProcessId};
///
/// let topo = Topology::builder().group(2).group(3).build()?;
/// assert_eq!(topo.num_groups(), 2);
/// assert_eq!(topo.num_processes(), 5);
/// assert_eq!(topo.group_of(ProcessId(3)), GroupId(1));
/// assert_eq!(topo.members(GroupId(0)), &[ProcessId(0), ProcessId(1)]);
/// # Ok::<(), wamcast_types::TopologyError>(())
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Topology {
    /// `members[g]` = processes of group g, ascending.
    members: Vec<Arc<[ProcessId]>>,
    /// `group_of[p]` = group of process p.
    group_of: Vec<GroupId>,
}

impl Topology {
    /// Starts building a topology group by group.
    pub fn builder() -> TopologyBuilder {
        TopologyBuilder { sizes: Vec::new() }
    }

    /// A symmetric topology of `k` groups with `d` processes each — the
    /// configuration used throughout the paper's Figure 1 comparison.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`, `d == 0`, or `k > GroupSet::MAX_GROUPS`; use
    /// [`builder`](Self::builder) for fallible construction.
    pub fn symmetric(k: usize, d: usize) -> Self {
        let mut b = Self::builder();
        for _ in 0..k {
            b = b.group(d);
        }
        b.build()
            .expect("symmetric topology arguments must be valid")
    }

    /// Number of groups |Γ|.
    #[inline]
    pub fn num_groups(&self) -> usize {
        self.members.len()
    }

    /// Number of processes |Π|.
    #[inline]
    pub fn num_processes(&self) -> usize {
        self.group_of.len()
    }

    /// The group a process belongs to (`group(p)`; total function by §2.1).
    ///
    /// # Panics
    ///
    /// Panics if `p` is not a process of this topology.
    #[inline]
    pub fn group_of(&self, p: ProcessId) -> GroupId {
        self.group_of[p.index()]
    }

    /// Members of a group, in ascending process-id order.
    ///
    /// # Panics
    ///
    /// Panics if `g` is not a group of this topology.
    #[inline]
    pub fn members(&self, g: GroupId) -> &[ProcessId] {
        &self.members[g.index()]
    }

    /// [`members`](Self::members) as a shared list, for
    /// [`Outbox::send_many`](crate::Outbox::send_many): a fan-out to the
    /// whole group costs one refcount.
    ///
    /// # Panics
    ///
    /// Panics if `g` is not a group of this topology.
    #[inline]
    pub fn shared_members(&self, g: GroupId) -> Arc<[ProcessId]> {
        Arc::clone(&self.members[g.index()])
    }

    /// Whether `p` and `q` are in the same group (their link is "cheap").
    #[inline]
    pub fn same_group(&self, p: ProcessId, q: ProcessId) -> bool {
        self.group_of(p) == self.group_of(q)
    }

    /// All process ids, ascending.
    pub fn processes(&self) -> impl Iterator<Item = ProcessId> + Clone + '_ {
        (0..self.num_processes() as u32).map(ProcessId)
    }

    /// All group ids, ascending.
    pub fn groups(&self) -> impl Iterator<Item = GroupId> + '_ {
        (0..self.num_groups() as u16).map(GroupId)
    }

    /// The full destination set Γ, for broadcasts (`m.dest = Γ`; §2.2).
    #[inline]
    pub fn all_groups(&self) -> GroupSet {
        GroupSet::first_n(self.num_groups())
    }

    /// Processes addressed by a destination set: `{p | group(p) ∈ dest}`.
    /// The paper writes `p ∈ m.dest` for this (§2.2).
    pub fn processes_in(&self, dest: GroupSet) -> impl Iterator<Item = ProcessId> + Clone + '_ {
        dest.iter()
            .flat_map(move |g| self.members(g).iter().copied())
    }

    /// Whether `p ∈ m.dest` in the paper's abuse of notation.
    #[inline]
    pub fn addresses(&self, dest: GroupSet, p: ProcessId) -> bool {
        dest.contains(self.group_of(p))
    }

    /// Size of the majority quorum of group `g` (⌊d/2⌋+1); intra-group
    /// consensus requires a majority of each group to be correct.
    #[inline]
    pub fn group_majority(&self, g: GroupId) -> usize {
        self.members(g).len() / 2 + 1
    }
}

/// Incremental builder for [`Topology`].
///
/// # Example
///
/// ```
/// use wamcast_types::Topology;
/// let topo = Topology::builder().group(1).group(4).group(2).build()?;
/// assert_eq!(topo.num_processes(), 7);
/// # Ok::<(), wamcast_types::TopologyError>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct TopologyBuilder {
    sizes: Vec<usize>,
}

impl TopologyBuilder {
    /// Appends a group with `size` processes.
    #[must_use]
    pub fn group(mut self, size: usize) -> Self {
        self.sizes.push(size);
        self
    }

    /// Finalizes the topology.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError`] if no groups were declared, any group is
    /// empty, or more than [`GroupSet::MAX_GROUPS`] groups were declared.
    pub fn build(self) -> Result<Topology, TopologyError> {
        if self.sizes.is_empty() {
            return Err(TopologyError::NoGroups);
        }
        if self.sizes.len() > GroupSet::MAX_GROUPS {
            return Err(TopologyError::TooManyGroups {
                requested: self.sizes.len(),
            });
        }
        if let Some(g) = self.sizes.iter().position(|&s| s == 0) {
            return Err(TopologyError::EmptyGroup { group: g });
        }
        let mut members = Vec::with_capacity(self.sizes.len());
        let mut group_of = Vec::new();
        let mut next = 0u32;
        for (gi, &size) in self.sizes.iter().enumerate() {
            let end = next + size as u32;
            members.push((next..end).map(ProcessId).collect());
            group_of.extend(std::iter::repeat(GroupId(gi as u16)).take(size));
            next = end;
        }
        Ok(Topology { members, group_of })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SplitMix64;

    #[test]
    fn symmetric_layout() {
        let t = Topology::symmetric(3, 2);
        assert_eq!(t.num_groups(), 3);
        assert_eq!(t.num_processes(), 6);
        assert_eq!(t.members(GroupId(1)), &[ProcessId(2), ProcessId(3)]);
        assert_eq!(t.group_of(ProcessId(5)), GroupId(2));
        assert!(t.same_group(ProcessId(0), ProcessId(1)));
        assert!(!t.same_group(ProcessId(1), ProcessId(2)));
    }

    #[test]
    fn asymmetric_layout() {
        let t = Topology::builder().group(1).group(3).build().unwrap();
        assert_eq!(t.members(GroupId(0)), &[ProcessId(0)]);
        assert_eq!(
            t.members(GroupId(1)),
            &[ProcessId(1), ProcessId(2), ProcessId(3)]
        );
    }

    #[test]
    fn builder_errors() {
        assert_eq!(
            Topology::builder().build().unwrap_err(),
            TopologyError::NoGroups
        );
        assert_eq!(
            Topology::builder().group(2).group(0).build().unwrap_err(),
            TopologyError::EmptyGroup { group: 1 }
        );
        let mut b = Topology::builder();
        for _ in 0..129 {
            b = b.group(1);
        }
        assert_eq!(
            b.build().unwrap_err(),
            TopologyError::TooManyGroups { requested: 129 }
        );
        // 128 groups (the full mask) is now constructible.
        assert_eq!(Topology::symmetric(128, 1).num_groups(), 128);
    }

    #[test]
    fn destination_queries() {
        let t = Topology::symmetric(3, 2);
        let dest = GroupSet::from_iter([GroupId(0), GroupId(2)]);
        let procs: Vec<_> = t.processes_in(dest).collect();
        assert_eq!(
            procs,
            vec![ProcessId(0), ProcessId(1), ProcessId(4), ProcessId(5)]
        );
        assert!(t.addresses(dest, ProcessId(0)));
        assert!(!t.addresses(dest, ProcessId(2)));
        assert_eq!(t.all_groups().len(), 3);
    }

    #[test]
    fn majorities() {
        let t = Topology::builder()
            .group(1)
            .group(2)
            .group(5)
            .build()
            .unwrap();
        assert_eq!(t.group_majority(GroupId(0)), 1);
        assert_eq!(t.group_majority(GroupId(1)), 2);
        assert_eq!(t.group_majority(GroupId(2)), 3);
    }

    #[test]
    fn iterators_cover_everything() {
        let t = Topology::symmetric(2, 3);
        assert_eq!(t.processes().count(), 6);
        assert_eq!(t.groups().count(), 2);
        assert_eq!(t.processes().last(), Some(ProcessId(5)));
    }

    #[test]
    fn groups_partition_processes() {
        let mut rng = SplitMix64::new(0x70B0);
        for case in 0..256 {
            let sizes: Vec<usize> = (0..1 + rng.next_below(9))
                .map(|_| 1 + rng.next_below(4) as usize)
                .collect();
            let mut b = Topology::builder();
            for &s in &sizes {
                b = b.group(s);
            }
            let t = b.build().unwrap();
            // Disjoint + covering: each process appears in exactly the group
            // that group_of reports, and nowhere else.
            let mut seen = vec![0usize; t.num_processes()];
            for g in t.groups() {
                for &p in t.members(g) {
                    assert_eq!(t.group_of(p), g, "case {case}");
                    seen[p.index()] += 1;
                }
            }
            assert!(seen.iter().all(|&c| c == 1), "case {case}");
        }
    }
}
