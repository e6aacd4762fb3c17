//! Uniform reliable multicast: deliver once a majority holds the message.

use crate::{RmcastMsg, RmcastOut};
use std::collections::{BTreeMap, BTreeSet};
use wamcast_types::{AppMessage, IdSet, MessageId, ProcessId, Topology};

/// Uniform reliable multicast engine.
///
/// Strengthens the agreement property of [`RmcastEngine`](crate::RmcastEngine)
/// to *uniform* agreement: if **any** process (even one that crashes right
/// after) R-Delivers `m`, all correct addressed processes R-Deliver `m`.
///
/// Mechanism: every addressed process relays `m` on first receipt; a process
/// R-Delivers only after it knows a majority of the addressed processes hold
/// `m` (counting itself and the origin). With a majority of the addressed
/// processes correct, a delivered message is held by at least one correct
/// process, whose relay reaches everyone.
///
/// Cost: latency degree 2 (origin's send, then one relay wave), versus 1 for
/// the non-uniform engine — precisely the trade the paper exploits by
/// choosing the non-uniform primitive in A1 (§4.1: "instead of using a
/// uniform reliable multicast primitive, we use a non-uniform version …
/// while still ensuring properties as strong as in \[5\]").
///
/// # Example
///
/// ```
/// use wamcast_rmcast::{UniformRmcastEngine, RmcastOut};
/// use wamcast_types::{AppMessage, GroupSet, GroupId, MessageId, ProcessId, Topology};
///
/// // One group of three; origin p0.
/// let topo = Topology::symmetric(1, 3);
/// let m = AppMessage::new(
///     MessageId::new(ProcessId(0), 0),
///     GroupSet::singleton(GroupId(0)),
///     wamcast_types::Payload::new(),
/// );
/// let mut p0 = UniformRmcastEngine::new(ProcessId(0));
/// let mut out = RmcastOut::new();
/// p0.rmcast(m, &topo, &mut out);
/// // Not deliverable yet: only p0 holds it (1 of 3 < majority 2).
/// assert!(out.delivered.is_empty());
/// assert_eq!(out.sends.len(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct UniformRmcastEngine {
    me: ProcessId,
    /// Messages already relayed by this process.
    relayed: IdSet,
    delivered: IdSet,
    /// Known holders per message (origin + relayers + self).
    holders: BTreeMap<MessageId, BTreeSet<ProcessId>>,
    payloads: BTreeMap<MessageId, AppMessage>,
}

impl UniformRmcastEngine {
    /// Creates the engine for process `me`.
    pub fn new(me: ProcessId) -> Self {
        UniformRmcastEngine {
            me,
            relayed: IdSet::new(),
            delivered: IdSet::new(),
            holders: BTreeMap::new(),
            payloads: BTreeMap::new(),
        }
    }

    /// Whether `m` was already R-Delivered here.
    pub fn has_delivered(&self, m: MessageId) -> bool {
        self.delivered.contains(m)
    }

    /// R-MCasts `m` (origin side): sends to every addressed process and
    /// counts the origin as a holder.
    pub fn rmcast(&mut self, m: AppMessage, topo: &Topology, out: &mut RmcastOut) {
        if !self.relayed.insert(m.id) {
            return;
        }
        self.holders.entry(m.id).or_default().insert(self.me);
        self.payloads.insert(m.id, m.clone());
        for q in topo.processes_in(m.dest) {
            if q != self.me {
                out.sends.push((q, RmcastMsg::Data(m.clone())));
            }
        }
        self.try_deliver(m.id, topo, out);
    }

    /// Handles an incoming copy (initial or relay).
    pub fn on_message(
        &mut self,
        from: ProcessId,
        msg: RmcastMsg,
        topo: &Topology,
        out: &mut RmcastOut,
    ) {
        let RmcastMsg::Data(m) = msg else {
            return; // acks concern only the non-uniform engine's ack mode
        };
        let id = m.id;
        let holders = self.holders.entry(id).or_default();
        holders.insert(from);
        holders.insert(m.id.origin);
        if !topo.addresses(m.dest, self.me) {
            return;
        }
        holders.insert(self.me);
        self.payloads.entry(id).or_insert_with(|| m.clone());
        if self.relayed.insert(id) {
            // First receipt: relay to all addressed processes.
            for q in topo.processes_in(m.dest) {
                if q != self.me {
                    out.sends.push((q, RmcastMsg::Data(m.clone())));
                }
            }
        }
        self.try_deliver(id, topo, out);
    }

    fn try_deliver(&mut self, id: MessageId, topo: &Topology, out: &mut RmcastOut) {
        if self.delivered.contains(id) {
            return;
        }
        let Some(m) = self.payloads.get(&id) else {
            return;
        };
        if !topo.addresses(m.dest, self.me) {
            return;
        }
        let total = topo.processes_in(m.dest).count();
        let majority = total / 2 + 1;
        let held = self.holders.get(&id).map_or(0, BTreeSet::len);
        if held >= majority {
            self.delivered.insert(id);
            out.delivered.push(m.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wamcast_types::{GroupId, GroupSet, Payload};

    fn msg(origin: u32, seq: u64, dest: &[u16]) -> AppMessage {
        AppMessage::new(
            MessageId::new(ProcessId(origin), seq),
            dest.iter().map(|&g| GroupId(g)).collect::<GroupSet>(),
            Payload::new(),
        )
    }

    /// Fully connect `n` engines in one group and run to quiescence.
    fn run_full(n: u32, m: AppMessage) -> Vec<Vec<MessageId>> {
        let topo = Topology::symmetric(1, n as usize);
        let mut engines: Vec<_> = (0..n)
            .map(|i| UniformRmcastEngine::new(ProcessId(i)))
            .collect();
        let mut delivered = vec![Vec::new(); n as usize];
        let mut queue = std::collections::VecDeque::new();
        let mut out = RmcastOut::new();
        engines[0].rmcast(m, &topo, &mut out);
        delivered[0].extend(out.delivered.iter().map(|d| d.id));
        for (to, w) in out.sends {
            queue.push_back((ProcessId(0), to, w));
        }
        let mut guard = 0;
        while let Some((from, to, w)) = queue.pop_front() {
            guard += 1;
            assert!(guard < 10_000);
            let mut out = RmcastOut::new();
            engines[to.index()].on_message(from, w, &topo, &mut out);
            delivered[to.index()].extend(out.delivered.iter().map(|d| d.id));
            for (t, w2) in out.sends {
                queue.push_back((to, t, w2));
            }
        }
        delivered
    }

    #[test]
    fn everyone_delivers_exactly_once() {
        let m = msg(0, 0, &[0]);
        let delivered = run_full(3, m.clone());
        for d in &delivered {
            assert_eq!(d, &vec![m.id]);
        }
    }

    #[test]
    fn single_process_group_delivers_immediately() {
        let topo = Topology::symmetric(1, 1);
        let mut e = UniformRmcastEngine::new(ProcessId(0));
        let mut out = RmcastOut::new();
        e.rmcast(msg(0, 0, &[0]), &topo, &mut out);
        assert_eq!(out.delivered.len(), 1, "majority of 1 is 1");
        assert!(e.has_delivered(MessageId::new(ProcessId(0), 0)));
    }

    #[test]
    fn delivery_requires_majority_holders() {
        let topo = Topology::symmetric(1, 5); // majority = 3
        let m = msg(0, 0, &[0]);
        let mut e = UniformRmcastEngine::new(ProcessId(1));
        let mut out = RmcastOut::new();
        // Copy from origin: holders = {p0, p1} = 2 < 3.
        e.on_message(ProcessId(0), RmcastMsg::Data(m.clone()), &topo, &mut out);
        assert!(out.delivered.is_empty());
        // Relay from p2: holders = {p0, p1, p2} = 3 => deliver.
        let mut out2 = RmcastOut::new();
        e.on_message(ProcessId(2), RmcastMsg::Data(m.clone()), &topo, &mut out2);
        assert_eq!(out2.delivered.len(), 1);
        // Further copies do nothing.
        let mut out3 = RmcastOut::new();
        e.on_message(ProcessId(3), RmcastMsg::Data(m), &topo, &mut out3);
        assert!(out3.delivered.is_empty());
    }

    #[test]
    fn relays_happen_once() {
        let topo = Topology::symmetric(1, 3);
        let m = msg(0, 0, &[0]);
        let mut e = UniformRmcastEngine::new(ProcessId(1));
        let mut out = RmcastOut::new();
        e.on_message(ProcessId(0), RmcastMsg::Data(m.clone()), &topo, &mut out);
        assert_eq!(out.sends.len(), 2, "relay to p0 and p2");
        let mut out2 = RmcastOut::new();
        e.on_message(ProcessId(2), RmcastMsg::Data(m), &topo, &mut out2);
        assert!(out2.sends.is_empty(), "no re-relay");
    }

    #[test]
    fn unaddressed_process_relays_nothing_and_counts_holders() {
        let topo = Topology::symmetric(2, 1);
        let m = msg(0, 0, &[0]); // only g0
        let mut e = UniformRmcastEngine::new(ProcessId(1)); // g1: not addressed
        let mut out = RmcastOut::new();
        e.on_message(ProcessId(0), RmcastMsg::Data(m.clone()), &topo, &mut out);
        assert!(out.sends.is_empty());
        assert!(out.delivered.is_empty());
        assert!(!e.has_delivered(m.id));
    }

    #[test]
    fn multi_group_destination() {
        // 2 groups × 2 processes, addressed to both groups: majority = 3.
        let topo = Topology::symmetric(2, 2);
        let m = msg(0, 0, &[0, 1]);
        let mut e = UniformRmcastEngine::new(ProcessId(3));
        let mut out = RmcastOut::new();
        e.on_message(ProcessId(0), RmcastMsg::Data(m.clone()), &topo, &mut out);
        assert!(out.delivered.is_empty(), "2 holders < 3");
        let mut out2 = RmcastOut::new();
        e.on_message(ProcessId(1), RmcastMsg::Data(m), &topo, &mut out2);
        assert_eq!(out2.delivered.len(), 1, "3 holders = majority");
    }
}
