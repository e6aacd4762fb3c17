//! Run metrics: everything needed to evaluate a run against the paper.
//!
//! The simulator records casts, deliveries (with their §2.3 logical stamps),
//! and a send log classified intra/inter-group. From these the harness
//! derives every number in Figure 1 (latency degree, inter-group message
//! counts) and the quiescence measurements of §5.
//!
//! Casts and deliveries live in flat tables ([`IdTable`],
//! [`DeliveryTable`]): rows appended in dispatch order, read in id order
//! through a per-origin index, so every reader — the checkers, the
//! fingerprints, `CLAIMS.md` — sees the order an ordered map would give
//! without one node allocation per entry.

use std::fmt;
use std::ops::Index;
use wamcast_types::{GroupSet, LatencyDegree, MessageId, ProcessId, SimTime};

/// Record of one `A-XCast` event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CastRecord {
    /// The casting process.
    pub caster: ProcessId,
    /// Destination groups.
    pub dest: GroupSet,
    /// Virtual time of the cast.
    pub time: SimTime,
    /// Logical stamp of the cast event (`ts(A-XCast(m)ₚ)`).
    pub stamp: u64,
}

/// Record of one `A-Deliver` event at one process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeliveryRecord {
    /// Virtual time of the delivery.
    pub time: SimTime,
    /// Logical stamp of the delivery event (`ts(A-Deliver(m)_q)`).
    pub stamp: u64,
}

/// One entry of the send log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SendRecord {
    /// When the send event happened.
    pub time: SimTime,
    /// Sender.
    pub from: ProcessId,
    /// Receiver.
    pub to: ProcessId,
    /// Whether the copy crossed a group boundary.
    pub inter_group: bool,
}

/// Rows keyed by [`MessageId`]: appended in insertion order, read in id
/// order `(origin, seq)` — the order a `BTreeMap<MessageId, T>` gives —
/// through a per-origin index of row numbers ascending by sequence number.
///
/// A lookup finds the origin's lane (by position when the origins are the
/// dense process ids the simulator's casters are, else by binary search),
/// then the row: O(1) when the lane holds the dense `0, 1, 2, …` sequence
/// numbers the simulator mints, a binary search otherwise. Two tables with
/// the same entries are equal whatever order they were filled in.
#[derive(Clone)]
pub struct IdTable<T> {
    rows: Vec<(MessageId, T)>,
    /// Per origin, ascending by origin: the row numbers of its ids,
    /// ascending by `seq`.
    lanes: Vec<(ProcessId, Vec<u32>)>,
}

impl<T> Default for IdTable<T> {
    fn default() -> Self {
        IdTable {
            rows: Vec::new(),
            lanes: Vec::new(),
        }
    }
}

/// A row number as the index stores it.
fn row_number(n: usize) -> u32 {
    u32::try_from(n).expect("a run record holds fewer than 2^32 rows")
}

impl<T> IdTable<T> {
    /// Number of entries.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The value recorded for `id`.
    pub fn get(&self, id: &MessageId) -> Option<&T> {
        self.row_of(id).map(|r| &self.rows[r].1)
    }

    /// Whether `id` has an entry.
    pub fn contains_key(&self, id: &MessageId) -> bool {
        self.row_of(id).is_some()
    }

    /// Records `value` for `id`, returning the value it replaces, as a
    /// map's `insert` does.
    pub fn insert(&mut self, id: MessageId, value: T) -> Option<T> {
        let lane = self.open_lane(id.origin);
        match self.slot_in(&self.lanes[lane].1, id.seq) {
            Ok(i) => {
                let row = self.lanes[lane].1[i] as usize;
                Some(std::mem::replace(&mut self.rows[row].1, value))
            }
            Err(i) => {
                let row = row_number(self.rows.len());
                self.rows.push((id, value));
                self.lanes[lane].1.insert(i, row);
                None
            }
        }
    }

    /// Entries in id order.
    pub fn iter(&self) -> IdIter<'_, T> {
        IdIter {
            rows: &self.rows,
            lanes: self.lanes.iter(),
            lane: [].iter(),
        }
    }

    /// Ids in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = &MessageId> + '_ {
        self.iter().map(|(id, _)| id)
    }

    /// Values in id order.
    pub fn values(&self) -> impl Iterator<Item = &T> + '_ {
        self.iter().map(|(_, v)| v)
    }

    /// Reserves room for exactly `ids` more entries, `per_origin[p]` of
    /// them by process `p`.
    fn reserve_exact(&mut self, ids: usize, per_origin: &[u64]) {
        self.rows.reserve_exact(ids);
        for (p, &n) in per_origin.iter().enumerate() {
            let lane = self.open_lane(ProcessId(p as u32));
            self.lanes[lane].1.reserve_exact(n as usize);
        }
    }

    /// The lane of `origin`, opened if it has none.
    fn open_lane(&mut self, origin: ProcessId) -> usize {
        self.lane_of(origin).unwrap_or_else(|at| {
            self.lanes.insert(at, (origin, Vec::new()));
            at
        })
    }

    /// The lane of `origin` (`Err`: where it would be inserted).
    fn lane_of(&self, origin: ProcessId) -> Result<usize, usize> {
        match self.lanes.get(origin.index()) {
            Some(&(o, _)) if o == origin => Ok(origin.index()),
            _ => self.lanes.binary_search_by_key(&origin, |&(o, _)| o),
        }
    }

    /// The position of `seq` in `lane` (`Err`: where it would be inserted).
    fn slot_in(&self, lane: &[u32], seq: u64) -> Result<usize, usize> {
        let seq_at = |r: u32| self.rows[r as usize].0.seq;
        match usize::try_from(seq) {
            Ok(i) if i < lane.len() && seq_at(lane[i]) == seq => Ok(i),
            _ => lane.binary_search_by_key(&seq, |&r| seq_at(r)),
        }
    }

    /// The row of `id`.
    fn row_of(&self, id: &MessageId) -> Option<usize> {
        let lane = &self.lanes[self.lane_of(id.origin).ok()?].1;
        let i = self.slot_in(lane, id.seq).ok()?;
        Some(lane[i] as usize)
    }
}

impl<T> Index<&MessageId> for IdTable<T> {
    type Output = T;

    fn index(&self, id: &MessageId) -> &T {
        self.get(id).expect("no entry for this id")
    }
}

impl<T: PartialEq> PartialEq for IdTable<T> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl<T: fmt::Debug> fmt::Debug for IdTable<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<'a, T> IntoIterator for &'a IdTable<T> {
    type Item = (&'a MessageId, &'a T);
    type IntoIter = IdIter<'a, T>;

    fn into_iter(self) -> IdIter<'a, T> {
        self.iter()
    }
}

/// The entries of an [`IdTable`] in id order.
#[derive(Clone)]
pub struct IdIter<'a, T> {
    rows: &'a [(MessageId, T)],
    lanes: std::slice::Iter<'a, (ProcessId, Vec<u32>)>,
    lane: std::slice::Iter<'a, u32>,
}

impl<'a, T> Iterator for IdIter<'a, T> {
    type Item = (&'a MessageId, &'a T);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(&r) = self.lane.next() {
                let (id, v) = &self.rows[r as usize];
                return Some((id, v));
            }
            self.lane = self.lanes.next()?.1.iter();
        }
    }
}

/// Who delivered each message, and when.
///
/// Each message's deliveries are one contiguous run of slots, kept in
/// process order and sized when its first delivery is recorded — by the
/// caller, to the processes the destination addresses, so a correct
/// protocol fills its runs exactly. A delivery that does not fit (only a
/// faulty protocol delivers to more processes than it addresses) moves
/// the run to the end with twice the room. Runs are found through an
/// [`IdTable`], so iteration is in id order.
#[derive(Clone, Default)]
pub struct DeliveryTable {
    runs: IdTable<Run>,
    who: Vec<ProcessId>,
    at: Vec<DeliveryRecord>,
}

/// One message's slots in [`DeliveryTable`]: `len` of `cap` used.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Run {
    start: u32,
    len: u32,
    cap: u32,
}

/// What an unused slot holds.
const NO_ONE: ProcessId = ProcessId(u32::MAX);
const NO_DELIVERY: DeliveryRecord = DeliveryRecord {
    time: SimTime::ZERO,
    stamp: 0,
};

impl DeliveryTable {
    /// Number of messages delivered by at least one process.
    pub fn len(&self) -> usize {
        self.runs.len()
    }

    /// Whether nothing was delivered.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// The deliveries of `id`, if any process delivered it.
    pub fn get(&self, id: &MessageId) -> Option<ByProcess<'_>> {
        self.runs.get(id).map(|run| self.view(run))
    }

    /// Whether some process delivered `id`.
    pub fn contains_key(&self, id: &MessageId) -> bool {
        self.runs.contains_key(id)
    }

    /// Delivered ids in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = &MessageId> + '_ {
        self.runs.keys()
    }

    /// Each delivered id with its deliveries, in id order.
    pub fn iter(&self) -> impl Iterator<Item = (&MessageId, ByProcess<'_>)> + '_ {
        self.runs.iter().map(|(id, run)| (id, self.view(run)))
    }

    /// Records that `p` delivered `id`, returning the record it replaces
    /// if `p` had delivered `id` before, as a map's `insert` does. `room`
    /// is asked only on `id`'s first delivery: the slots to set aside for
    /// its deliverers (at least one is).
    pub fn insert(
        &mut self,
        id: MessageId,
        p: ProcessId,
        rec: DeliveryRecord,
        room: impl FnOnce() -> usize,
    ) -> Option<DeliveryRecord> {
        let row = match self.runs.row_of(&id) {
            Some(row) => row,
            None => {
                let cap = room().max(1);
                let start = self.who.len();
                self.who.resize(start + cap, NO_ONE);
                self.at.resize(start + cap, NO_DELIVERY);
                let run = Run {
                    start: row_number(start),
                    len: 0,
                    cap: row_number(cap),
                };
                self.runs.insert(id, run);
                self.runs.len() - 1
            }
        };
        let run = &mut self.runs.rows[row].1;
        let (mut start, len) = (run.start as usize, run.len as usize);
        let i = match self.who[start..start + len].binary_search(&p) {
            Ok(i) => return Some(std::mem::replace(&mut self.at[start + i], rec)),
            Err(i) => i,
        };
        if run.len == run.cap {
            let cap = 2 * run.cap as usize;
            let moved = self.who.len();
            self.who.extend_from_within(start..start + len);
            self.who.resize(moved + cap, NO_ONE);
            self.at.extend_from_within(start..start + len);
            self.at.resize(moved + cap, NO_DELIVERY);
            run.start = row_number(moved);
            run.cap = row_number(cap);
            start = moved;
        }
        self.who.copy_within(start + i..start + len, start + i + 1);
        self.at.copy_within(start + i..start + len, start + i + 1);
        self.who[start + i] = p;
        self.at[start + i] = rec;
        run.len += 1;
        None
    }

    /// Reserves room for exactly `ids` more delivered messages,
    /// `per_origin[p]` of them cast by process `p`, and `slots` more
    /// deliveries.
    fn reserve_exact(&mut self, ids: usize, per_origin: &[u64], slots: usize) {
        self.runs.reserve_exact(ids, per_origin);
        self.who.reserve_exact(slots);
        self.at.reserve_exact(slots);
    }

    fn view(&self, run: &Run) -> ByProcess<'_> {
        let used = run.start as usize..(run.start + run.len) as usize;
        ByProcess {
            who: &self.who[used.clone()],
            at: &self.at[used],
        }
    }
}

impl PartialEq for DeliveryTable {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl fmt::Debug for DeliveryTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// One message's deliveries, by process in ascending order.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct ByProcess<'a> {
    who: &'a [ProcessId],
    at: &'a [DeliveryRecord],
}

impl<'a> ByProcess<'a> {
    /// Number of processes that delivered the message.
    pub fn len(self) -> usize {
        self.who.len()
    }

    /// Whether no process delivered it.
    pub fn is_empty(self) -> bool {
        self.who.is_empty()
    }

    /// The delivery at `p`.
    pub fn get(self, p: &ProcessId) -> Option<&'a DeliveryRecord> {
        let i = self.who.binary_search(p).ok()?;
        Some(&self.at[i])
    }

    /// Whether `p` delivered the message.
    pub fn contains_key(self, p: &ProcessId) -> bool {
        self.who.binary_search(p).is_ok()
    }

    /// The deliverers, ascending.
    pub fn keys(self) -> std::slice::Iter<'a, ProcessId> {
        self.who.iter()
    }

    /// The deliveries, in deliverer order.
    pub fn values(self) -> std::slice::Iter<'a, DeliveryRecord> {
        self.at.iter()
    }

    /// Each deliverer with its delivery, ascending by process.
    pub fn iter(self) -> impl Iterator<Item = (&'a ProcessId, &'a DeliveryRecord)> {
        self.who.iter().zip(self.at)
    }
}

impl fmt::Debug for ByProcess<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// Aggregated observations of one simulation run.
///
/// `PartialEq` compares every recorded observable — two equal values mean
/// the runs were observationally identical, which is how the zero-fault
/// fast-path property test asserts that installing
/// [`FaultPlan::none`](wamcast_types::FaultPlan::none) changes nothing.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunMetrics {
    /// Casts by message id, iterated in id order.
    pub casts: IdTable<CastRecord>,
    /// Deliveries: message → process → record, iterated in id order, each
    /// message's deliverers in process order (`delivered_seq` carries every
    /// per-process order).
    pub deliveries: DeliveryTable,
    /// Per-process delivery sequence `Sₚ` (order of `A-Deliver` events).
    pub delivered_seq: Vec<Vec<MessageId>>,
    /// Total message copies sent on intra-group links.
    pub intra_sends: u64,
    /// Total message copies sent on inter-group links.
    pub inter_sends: u64,
    /// Full send log (kept only when
    /// [`record_send_log`](crate::SimConfig::record_send_log) is on).
    pub send_log: Vec<SendRecord>,
    /// Per process: did it ever send a protocol message?
    pub sent_any: Vec<bool>,
    /// Per process: did it ever receive a protocol message?
    pub received_any: Vec<bool>,
    /// Time of the last send event in the run (kept whether or not the
    /// send log is).
    pub last_send_time: SimTime,
    /// Virtual time at which the run stopped.
    pub end_time: SimTime,
    /// Number of handler invocations executed.
    pub steps: u64,
    /// Message copies eaten by the fault adversary (still counted in the
    /// send totals and the send log: they were sent, the network lost them).
    pub dropped_sends: u64,
    /// Extra copies injected by the fault adversary's duplication rules
    /// (not counted in the send totals: the protocol sent one copy).
    pub duplicated_sends: u64,
}

impl RunMetrics {
    pub(crate) fn new(num_processes: usize) -> Self {
        RunMetrics {
            delivered_seq: vec![Vec::new(); num_processes],
            sent_any: vec![false; num_processes],
            received_any: vec![false; num_processes],
            ..RunMetrics::default()
        }
    }

    /// Reserves exactly the room a run takes if each of its casts is
    /// delivered once by every process it addresses: `casts_by[p]` casts
    /// by `p` and `deliveries_at[p]` deliveries at `p`.
    pub(crate) fn reserve_exact(&mut self, casts_by: &[u64], deliveries_at: &[usize]) {
        let casts = casts_by.iter().sum::<u64>() as usize;
        self.casts.reserve_exact(casts, casts_by);
        self.deliveries
            .reserve_exact(casts, casts_by, deliveries_at.iter().sum());
        for (seq, &n) in self.delivered_seq.iter_mut().zip(deliveries_at) {
            seq.reserve_exact(n);
        }
    }

    /// The latency degree `Δ(m, R)` of §2.3: the maximum, over processes
    /// that delivered `m`, of the delivery stamp minus the cast stamp.
    /// `None` if `m` was never cast or never delivered.
    pub fn latency_degree(&self, m: MessageId) -> Option<LatencyDegree> {
        let cast = self.casts.get(&m)?;
        let dels = self.deliveries.get(&m)?;
        dels.values()
            .map(|d| d.stamp.saturating_sub(cast.stamp))
            .max()
    }

    /// The latency degree restricted to a subset of processes (e.g. only
    /// those still correct at the end of the run).
    pub fn latency_degree_among(&self, m: MessageId, procs: &[ProcessId]) -> Option<LatencyDegree> {
        let cast = self.casts.get(&m)?;
        let dels = self.deliveries.get(&m)?;
        procs
            .iter()
            .filter_map(|p| dels.get(p))
            .map(|d| d.stamp.saturating_sub(cast.stamp))
            .max()
    }

    /// Wall-clock (virtual) delivery latency of `m`: cast to last delivery.
    pub fn delivery_latency(&self, m: MessageId) -> Option<std::time::Duration> {
        let cast = self.casts.get(&m)?;
        let dels = self.deliveries.get(&m)?;
        let last = dels.values().map(|d| d.time).max()?;
        Some(last.saturating_since(cast.time))
    }

    /// Processes that delivered `m`.
    pub fn delivered_by(&self, m: MessageId) -> Vec<ProcessId> {
        self.deliveries
            .get(&m)
            .map(|d| d.keys().copied().collect())
            .unwrap_or_default()
    }

    /// Whether process `p` delivered `m`.
    pub fn has_delivered(&self, p: ProcessId, m: MessageId) -> bool {
        self.deliveries.get(&m).is_some_and(|d| d.contains_key(&p))
    }

    /// Inter-group sends within a virtual-time window (inclusive bounds),
    /// counted in the send log: zero when the log was not kept. Used to
    /// attribute message cost to a single cast when reproducing Figure 1.
    pub fn inter_sends_in_window(&self, from: SimTime, to: SimTime) -> u64 {
        self.send_log
            .iter()
            .filter(|s| s.inter_group && s.time >= from && s.time <= to)
            .count() as u64
    }

    /// Sends (any class) strictly after `t`, counted in the send log: zero
    /// when the log was not kept, so only with the log on does zero mean
    /// the run was quiescent from `t` on (Proposition A.9 / §5.2
    /// quiescence). [`check_quiescence`](crate::invariants::check_quiescence)
    /// judges by [`last_send_time`](Self::last_send_time), which every
    /// run keeps.
    pub fn sends_after(&self, t: SimTime) -> u64 {
        self.send_log.iter().filter(|s| s.time > t).count() as u64
    }

    /// Projection `P_{p,q}(Sₚ)` of §2.2: p's delivery sequence restricted to
    /// messages addressed to both p and q's groups.
    pub fn projected_sequence(
        &self,
        p: ProcessId,
        p_group_dest: impl Fn(MessageId) -> Option<GroupSet>,
        both: impl Fn(GroupSet) -> bool,
    ) -> Vec<MessageId> {
        self.delivered_seq[p.index()]
            .iter()
            .copied()
            .filter(|&m| p_group_dest(m).is_some_and(&both))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wamcast_types::GroupId;

    fn mid(o: u32, s: u64) -> MessageId {
        MessageId::new(ProcessId(o), s)
    }

    fn sample_metrics() -> RunMetrics {
        let mut m = RunMetrics::new(2);
        m.casts.insert(
            mid(0, 0),
            CastRecord {
                caster: ProcessId(0),
                dest: GroupSet::first_n(2),
                time: SimTime::from_millis(10),
                stamp: 3,
            },
        );
        for (p, ms, stamp) in [(1, 210, 5), (0, 110, 4)] {
            let rec = DeliveryRecord {
                time: SimTime::from_millis(ms),
                stamp,
            };
            m.deliveries.insert(mid(0, 0), ProcessId(p), rec, || 2);
        }
        m
    }

    #[test]
    fn latency_degree_is_max_over_deliverers() {
        let m = sample_metrics();
        assert_eq!(m.latency_degree(mid(0, 0)), Some(2));
        assert_eq!(m.latency_degree_among(mid(0, 0), &[ProcessId(0)]), Some(1));
        assert_eq!(m.latency_degree(mid(9, 9)), None);
    }

    #[test]
    fn delivery_latency_spans_to_last() {
        let m = sample_metrics();
        assert_eq!(
            m.delivery_latency(mid(0, 0)),
            Some(std::time::Duration::from_millis(200))
        );
    }

    #[test]
    fn delivered_by_and_has_delivered() {
        let m = sample_metrics();
        assert_eq!(m.delivered_by(mid(0, 0)), vec![ProcessId(0), ProcessId(1)]);
        assert!(m.has_delivered(ProcessId(1), mid(0, 0)));
        assert!(!m.has_delivered(ProcessId(1), mid(1, 0)));
        assert!(m.delivered_by(mid(1, 0)).is_empty());
    }

    #[test]
    fn send_window_queries() {
        let mut m = RunMetrics::new(1);
        for (ms, inter) in [(1u64, true), (5, false), (9, true), (20, true)] {
            m.send_log.push(SendRecord {
                time: SimTime::from_millis(ms),
                from: ProcessId(0),
                to: ProcessId(0),
                inter_group: inter,
            });
        }
        assert_eq!(
            m.inter_sends_in_window(SimTime::from_millis(1), SimTime::from_millis(10)),
            2
        );
        assert_eq!(m.sends_after(SimTime::from_millis(9)), 1);
        assert_eq!(m.sends_after(SimTime::from_millis(20)), 0);
    }

    #[test]
    fn projection_filters_by_destination() {
        let mut m = RunMetrics::new(1);
        let g01 = GroupSet::from_iter([GroupId(0), GroupId(1)]);
        let g0 = GroupSet::singleton(GroupId(0));
        m.casts.insert(
            mid(0, 0),
            CastRecord {
                caster: ProcessId(0),
                dest: g01,
                time: SimTime::ZERO,
                stamp: 0,
            },
        );
        m.casts.insert(
            mid(0, 1),
            CastRecord {
                caster: ProcessId(0),
                dest: g0,
                time: SimTime::ZERO,
                stamp: 0,
            },
        );
        m.delivered_seq[0] = vec![mid(0, 0), mid(0, 1)];
        let casts = m.casts.clone();
        let proj = m.projected_sequence(
            ProcessId(0),
            |id| casts.get(&id).map(|c| c.dest),
            |dest| dest.contains(GroupId(0)) && dest.contains(GroupId(1)),
        );
        assert_eq!(proj, vec![mid(0, 0)]);
    }
}
