//! Non-uniform reliable multicast: deliver on first receipt.

use crate::{RmcastMsg, RmcastOut};
use std::collections::BTreeSet;
use wamcast_types::{AppMessage, FxHashMap, FxHashSet, IdSet, MessageId, ProcessId, Topology};

/// Non-uniform reliable multicast engine (§2.2).
///
/// Properties (over crash-stop processes and quasi-reliable links):
///
/// * **uniform integrity** — R-Deliver at most once, only if addressed and
///   previously R-MCast;
/// * **validity** — a *correct* R-MCaster's message is R-Delivered by all
///   correct addressed processes (immediate: the initial send reaches them);
/// * **agreement** (non-uniform) — if a *correct* process R-Delivers `m`,
///   all correct addressed processes eventually R-Deliver `m`. While the
///   origin is alive its own sends suffice; once it is reported crashed,
///   [`on_crash_notification`](Self::on_crash_notification) relays the
///   messages the *embedder* still holds from it. The engine keeps no copy
///   of its own, so agreement holds for what the embedder passes in: a
///   message it has released must already be known to reach every correct
///   addressee another way (A1 and A2 release a cast once they have
///   A-Delivered it and their group's consensus has forgotten the
///   decision that carried it, which happens only after every member of
///   the group has learned that decision).
///
/// Latency degree 1: delivery happens on the first received copy.
///
/// # Example
///
/// ```
/// use wamcast_rmcast::{RmcastEngine, RmcastOut};
/// use wamcast_types::{AppMessage, GroupSet, GroupId, MessageId, ProcessId, Topology};
///
/// let topo = Topology::symmetric(2, 1);
/// let mut sender = RmcastEngine::new(ProcessId(0));
/// let mut receiver = RmcastEngine::new(ProcessId(1));
/// let m = AppMessage::new(
///     MessageId::new(ProcessId(0), 0),
///     GroupSet::from_iter([GroupId(0), GroupId(1)]),
///     wamcast_types::Payload::new(),
/// );
///
/// let mut out = RmcastOut::new();
/// sender.rmcast(m.clone(), &topo, &mut out);
/// assert_eq!(out.delivered.len(), 1, "origin is addressed: local delivery");
/// let (to, wire) = out.sends.pop().unwrap();
/// assert_eq!(to, ProcessId(1));
///
/// let mut out2 = RmcastOut::new();
/// receiver.on_message(ProcessId(0), wire, &topo, &mut out2);
/// assert_eq!(out2.delivered.len(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct RmcastEngine {
    me: ProcessId,
    /// R-MCast integrity's dedup set (the hot path): grows by one id per
    /// cast heard of, forever, so it is stored as ranges.
    seen: IdSet,
    /// Ids already relayed after their origin's crash: a second
    /// notification of the same crash relays nothing twice.
    relayed: IdSet,
    /// Retransmission mode (see [`with_acks`](Self::with_acks)).
    ack_mode: bool,
    /// Per message: the copy plus the recipients that have not acked yet.
    /// Only populated in ack mode, by this process's own sends (origin
    /// casts and crash relays). Hash-keyed with a small inner `Vec` — the
    /// per-ack bookkeeping is the hot path; the only *ordered* consumer is
    /// the (rare, timer-driven) [`tick`](Self::tick), which sorts its own
    /// snapshot instead.
    outstanding: FxHashMap<MessageId, (AppMessage, Vec<ProcessId>)>,
    /// Per-process secondary index over `outstanding`: debtor → messages
    /// it still owes an ack for. A crash notification used to `retain`
    /// over *every* outstanding entry; with the index it touches exactly
    /// the crashed process's debts. Unordered: its walk only *removes*
    /// state, never emits. A debtor's set stays when it empties (one per
    /// process this one sends to, each sized by its in-flight casts), so
    /// the next cast does not build it again.
    debtors: FxHashMap<ProcessId, FxHashSet<MessageId>>,
    /// Processes reported crashed: never tracked as ack debtors (a send to
    /// one *after* its crash notification must not wait forever).
    crashed: BTreeSet<ProcessId>,
    /// Reusable scratch for fan-out recipient lists: taken, filled,
    /// cleared and put back per cast, so steady-state casts allocate
    /// nothing for the recipient walk.
    recips_buf: Vec<ProcessId>,
}

impl RmcastEngine {
    /// Creates the engine for process `me`.
    pub fn new(me: ProcessId) -> Self {
        RmcastEngine {
            me,
            seen: IdSet::new(),
            relayed: IdSet::new(),
            ack_mode: false,
            outstanding: FxHashMap::default(),
            debtors: FxHashMap::default(),
            crashed: BTreeSet::new(),
            recips_buf: Vec::new(),
        }
    }

    /// Enables positive-acknowledgement retransmission (see the crate docs
    /// on lossy links). All engines of a deployment must agree on the mode.
    #[must_use]
    pub fn with_acks(mut self) -> Self {
        self.ack_mode = true;
        self
    }

    /// Whether `m` was already R-Delivered (or sent) here.
    pub fn has_seen(&self, m: MessageId) -> bool {
        self.seen.contains(m)
    }

    /// Whether any of this process's sends still await acknowledgement
    /// (always `false` outside ack mode) — the signal the embedding
    /// protocol uses to keep its retransmission timer armed.
    pub fn has_outstanding(&self) -> bool {
        !self.outstanding.is_empty()
    }

    /// Re-sends every unacked copy. Call from the embedding protocol's
    /// retransmission timer; a no-op outside ack mode.
    pub fn tick(&mut self, out: &mut RmcastOut) {
        // The tracking maps are unordered; the re-send schedule must not
        // be. Sort a snapshot into the order the ordered maps used to give:
        // ascending message id, then ascending recipient.
        let mut ids: Vec<MessageId> = self.outstanding.keys().copied().collect();
        ids.sort_unstable();
        let mut rs = std::mem::take(&mut self.recips_buf);
        for id in ids {
            let (m, waiting) = &self.outstanding[&id];
            rs.extend_from_slice(waiting);
            rs.sort_unstable();
            for q in rs.drain(..) {
                out.sends.push((q, RmcastMsg::Data(m.clone())));
            }
        }
        self.recips_buf = rs;
    }

    /// Removes `crashed` from every unacked recipient set — and from all
    /// future tracking: a crashed process will never ack, and
    /// retransmitting to it would keep the timer armed forever (breaking
    /// quiescence). Costs O(the crashed process's debts) via the debtor
    /// index, not a scan of every outstanding message.
    pub fn prune_crashed(&mut self, crashed: ProcessId) {
        self.crashed.insert(crashed);
        let Some(owed) = self.debtors.remove(&crashed) else {
            return;
        };
        for id in owed {
            if let Some((_, waiting)) = self.outstanding.get_mut(&id) {
                if let Some(i) = waiting.iter().position(|&q| q == crashed) {
                    waiting.swap_remove(i);
                }
                if waiting.is_empty() {
                    self.outstanding.remove(&id);
                }
            }
        }
    }

    fn track(&mut self, m: &AppMessage, recipients: &[ProcessId]) {
        if !self.ack_mode {
            return;
        }
        let entry = self
            .outstanding
            .entry(m.id)
            .or_insert_with(|| (m.clone(), Vec::with_capacity(recipients.len())));
        for &q in recipients {
            if !self.crashed.contains(&q) && !entry.1.contains(&q) {
                entry.1.push(q);
                self.debtors.entry(q).or_default().insert(m.id);
            }
        }
        if entry.1.is_empty() {
            self.outstanding.remove(&m.id);
        }
    }

    /// R-MCasts `m` to the processes of `m.dest` (origin side). If the
    /// origin itself is addressed, `m` is R-Delivered locally in the same
    /// call.
    pub fn rmcast(&mut self, m: AppMessage, topo: &Topology, out: &mut RmcastOut) {
        if !self.seen.insert(m.id) {
            return; // duplicate R-MCast of the same id
        }
        let mut recipients = std::mem::take(&mut self.recips_buf);
        recipients.extend(topo.processes_in(m.dest).filter(|&q| q != self.me));
        for &q in &recipients {
            out.sends.push((q, RmcastMsg::Data(m.clone())));
        }
        self.track(&m, &recipients);
        recipients.clear();
        self.recips_buf = recipients;
        if topo.addresses(m.dest, self.me) {
            out.delivered.push(m);
        }
    }

    /// Handles an incoming engine message.
    pub fn on_message(
        &mut self,
        from: ProcessId,
        msg: RmcastMsg,
        topo: &Topology,
        out: &mut RmcastOut,
    ) {
        match msg {
            RmcastMsg::Data(m) => {
                if self.ack_mode {
                    // Ack every copy, including duplicates: the sender may
                    // have missed an earlier ack.
                    out.sends.push((from, RmcastMsg::Ack(m.id)));
                }
                self.accept(m, topo, out);
            }
            RmcastMsg::Ack(id) => {
                if let Some((_, waiting)) = self.outstanding.get_mut(&id) {
                    if let Some(i) = waiting.iter().position(|&q| q == from) {
                        waiting.swap_remove(i);
                        if let Some(owed) = self.debtors.get_mut(&from) {
                            owed.remove(&id);
                        }
                    }
                    if waiting.is_empty() {
                        self.outstanding.remove(&id);
                    }
                }
            }
        }
    }

    /// Injects a message learned through a side channel (A1 treats a
    /// received `(TS, m)` as an implicit R-Deliver of `m`, line 10).
    pub fn accept(&mut self, m: AppMessage, topo: &Topology, out: &mut RmcastOut) {
        if !topo.addresses(m.dest, self.me) || !self.seen.insert(m.id) {
            return;
        }
        out.delivered.push(m);
    }

    /// [`accept`](Self::accept) minus the output: records `m` as seen
    /// without emitting the R-Deliver. For callers that learned `m` through
    /// a channel that already delivered it (A1's decision values) and only
    /// need the duplicate-suppression state.
    pub fn mark_seen(&mut self, m: &AppMessage, topo: &Topology) {
        if topo.addresses(m.dest, self.me) {
            self.seen.insert(m.id);
        }
    }

    /// Failure-detector notification: `crashed` is reported crashed. Each
    /// message of `held` — the messages from `crashed` that the embedder
    /// still holds, in the order to relay them — goes once to the remaining
    /// addressed processes (agreement despite an origin that crashed
    /// mid-send; see the type docs for what the embedder must hold).
    pub fn on_crash_notification<'a>(
        &mut self,
        crashed: ProcessId,
        held: impl IntoIterator<Item = &'a AppMessage>,
        topo: &Topology,
        out: &mut RmcastOut,
    ) {
        // A crashed process never acks: stop retransmitting to it whether
        // or not it originated anything.
        self.prune_crashed(crashed);
        let mut recipients = std::mem::take(&mut self.recips_buf);
        for m in held {
            debug_assert_eq!(m.id.origin, crashed, "held message from another origin");
            if !self.relayed.insert(m.id) {
                continue;
            }
            recipients.extend(
                topo.processes_in(m.dest)
                    .filter(|&q| q != self.me && q != crashed),
            );
            for &q in &recipients {
                out.sends.push((q, RmcastMsg::Data(m.clone())));
            }
            // Relays are retransmitted too: under loss, the relayer is the
            // only remaining source of a crashed origin's message.
            self.track(m, &recipients);
            recipients.clear();
        }
        self.recips_buf = recipients;
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

    /// An embedder that holds every message its engine R-Delivers and
    /// never releases one.
    struct Holder {
        engine: RmcastEngine,
        held: Vec<AppMessage>,
    }

    impl Holder {
        fn new(engine: RmcastEngine) -> Self {
            Holder {
                engine,
                held: Vec::new(),
            }
        }

        fn on_message(
            &mut self,
            from: ProcessId,
            msg: RmcastMsg,
            topo: &Topology,
            out: &mut RmcastOut,
        ) {
            let before = out.delivered.len();
            self.engine.on_message(from, msg, topo, out);
            self.held.extend_from_slice(&out.delivered[before..]);
        }

        fn on_crash_notification(
            &mut self,
            crashed: ProcessId,
            topo: &Topology,
            out: &mut RmcastOut,
        ) {
            let held = self.held.iter().filter(|m| m.id.origin == crashed);
            self.engine.on_crash_notification(crashed, held, topo, out);
        }
    }

    #[test]
    fn origin_outside_dest_does_not_self_deliver() {
        let topo = Topology::symmetric(2, 1);
        let mut e = RmcastEngine::new(ProcessId(0));
        let m = msg(0, 0, &[1]); // addressed to g1 only; origin is in g0
        let mut out = RmcastOut::new();
        e.rmcast(m, &topo, &mut out);
        assert!(out.delivered.is_empty());
        assert_eq!(out.sends.len(), 1);
        assert_eq!(out.sends[0].0, ProcessId(1));
    }

    #[test]
    fn duplicate_copies_deliver_once() {
        let topo = Topology::symmetric(2, 2);
        let mut e = RmcastEngine::new(ProcessId(2));
        let m = msg(0, 0, &[0, 1]);
        let mut out = RmcastOut::new();
        e.on_message(ProcessId(0), RmcastMsg::Data(m.clone()), &topo, &mut out);
        e.on_message(ProcessId(1), RmcastMsg::Data(m.clone()), &topo, &mut out);
        assert_eq!(out.delivered.len(), 1);
        assert!(e.has_seen(m.id));
    }

    #[test]
    fn unaddressed_receiver_ignores() {
        let topo = Topology::symmetric(2, 1);
        let mut e = RmcastEngine::new(ProcessId(1)); // in g1
        let m = msg(0, 0, &[0]); // addressed to g0 only
        let mut out = RmcastOut::new();
        e.on_message(ProcessId(0), RmcastMsg::Data(m), &topo, &mut out);
        assert!(out.delivered.is_empty());
    }

    #[test]
    fn accept_counts_as_delivery() {
        let topo = Topology::symmetric(2, 1);
        let mut e = RmcastEngine::new(ProcessId(1));
        let m = msg(0, 0, &[0, 1]);
        let mut out = RmcastOut::new();
        e.accept(m.clone(), &topo, &mut out);
        assert_eq!(out.delivered.len(), 1);
        // A later network copy is a duplicate.
        let mut out2 = RmcastOut::new();
        e.on_message(ProcessId(0), RmcastMsg::Data(m), &topo, &mut out2);
        assert!(out2.delivered.is_empty());
    }

    #[test]
    fn crash_of_origin_triggers_single_relay() {
        let topo = Topology::symmetric(2, 2);
        let mut e = Holder::new(RmcastEngine::new(ProcessId(2)));
        let m = msg(0, 0, &[0, 1]);
        let mut out = RmcastOut::new();
        e.on_message(ProcessId(0), RmcastMsg::Data(m.clone()), &topo, &mut out);
        let mut relay = RmcastOut::new();
        e.on_crash_notification(ProcessId(0), &topo, &mut relay);
        // Relayed to every addressed process except self and the crashed one.
        let tos: Vec<_> = relay.sends.iter().map(|(t, _)| *t).collect();
        assert_eq!(tos, vec![ProcessId(1), ProcessId(3)]);
        // Second notification (other FD source) does not re-relay.
        let mut relay2 = RmcastOut::new();
        e.on_crash_notification(ProcessId(0), &topo, &mut relay2);
        assert!(relay2.sends.is_empty());
    }

    #[test]
    fn ack_mode_retransmits_until_acked() {
        let topo = Topology::symmetric(2, 2);
        let mut origin = RmcastEngine::new(ProcessId(0)).with_acks();
        let m = msg(0, 0, &[0, 1]);
        let mut out = RmcastOut::new();
        origin.rmcast(m.clone(), &topo, &mut out);
        assert!(origin.has_outstanding());
        // First transmission went to p1, p2, p3; pretend every copy was lost.
        let mut tick1 = RmcastOut::new();
        origin.tick(&mut tick1);
        let tos: Vec<_> = tick1.sends.iter().map(|(t, _)| *t).collect();
        assert_eq!(tos, vec![ProcessId(1), ProcessId(2), ProcessId(3)]);
        // p2 acks; the next tick only re-sends to p1 and p3.
        let mut ack_out = RmcastOut::new();
        origin.on_message(ProcessId(2), RmcastMsg::Ack(m.id), &topo, &mut ack_out);
        let mut tick2 = RmcastOut::new();
        origin.tick(&mut tick2);
        let tos: Vec<_> = tick2.sends.iter().map(|(t, _)| *t).collect();
        assert_eq!(tos, vec![ProcessId(1), ProcessId(3)]);
        // Remaining recipients ack: retransmission stops.
        origin.on_message(ProcessId(1), RmcastMsg::Ack(m.id), &topo, &mut ack_out);
        origin.on_message(ProcessId(3), RmcastMsg::Ack(m.id), &topo, &mut ack_out);
        assert!(!origin.has_outstanding());
        let mut tick3 = RmcastOut::new();
        origin.tick(&mut tick3);
        assert!(tick3.sends.is_empty());
    }

    #[test]
    fn ack_mode_receivers_ack_every_copy() {
        let topo = Topology::symmetric(2, 2);
        let mut e = RmcastEngine::new(ProcessId(2)).with_acks();
        let m = msg(0, 0, &[0, 1]);
        let mut out = RmcastOut::new();
        e.on_message(ProcessId(0), RmcastMsg::Data(m.clone()), &topo, &mut out);
        assert_eq!(out.delivered.len(), 1);
        assert!(out
            .sends
            .iter()
            .any(|(t, w)| *t == ProcessId(0) && matches!(w, RmcastMsg::Ack(id) if *id == m.id)));
        // The duplicate is not re-delivered but is re-acked (the first ack
        // may have been lost).
        let mut out2 = RmcastOut::new();
        e.on_message(ProcessId(0), RmcastMsg::Data(m.clone()), &topo, &mut out2);
        assert!(out2.delivered.is_empty());
        assert_eq!(out2.sends.len(), 1);
    }

    #[test]
    fn crashed_recipients_are_pruned_from_retransmission() {
        let topo = Topology::symmetric(2, 2);
        let mut origin = RmcastEngine::new(ProcessId(0)).with_acks();
        let m = msg(0, 0, &[0, 1]);
        let mut out = RmcastOut::new();
        origin.rmcast(m.clone(), &topo, &mut out);
        origin.on_message(ProcessId(2), RmcastMsg::Ack(m.id), &topo, &mut out);
        origin.on_message(ProcessId(3), RmcastMsg::Ack(m.id), &topo, &mut out);
        // p1 crashed and will never ack: without pruning the timer would
        // stay armed forever.
        origin.prune_crashed(ProcessId(1));
        assert!(!origin.has_outstanding());
    }

    #[test]
    fn no_acks_or_tracking_outside_ack_mode() {
        let topo = Topology::symmetric(2, 1);
        let mut origin = RmcastEngine::new(ProcessId(0));
        let mut out = RmcastOut::new();
        origin.rmcast(msg(0, 0, &[0, 1]), &topo, &mut out);
        assert!(!origin.has_outstanding());
        let mut receiver = RmcastEngine::new(ProcessId(1));
        let mut rout = RmcastOut::new();
        let (_, wire) = out.sends.pop().unwrap();
        receiver.on_message(ProcessId(0), wire, &topo, &mut rout);
        assert_eq!(rout.delivered.len(), 1);
        assert!(rout.sends.is_empty(), "no acks in quasi-reliable mode");
    }

    #[test]
    fn crash_relay_is_tracked_in_ack_mode() {
        let topo = Topology::symmetric(2, 2);
        let mut e = Holder::new(RmcastEngine::new(ProcessId(2)).with_acks());
        let m = msg(0, 0, &[0, 1]);
        let mut out = RmcastOut::new();
        e.on_message(ProcessId(0), RmcastMsg::Data(m.clone()), &topo, &mut out);
        // Ack our own receipt side-channel: clear outstanding of the ack.
        assert!(!e.engine.has_outstanding());
        let mut relay = RmcastOut::new();
        e.on_crash_notification(ProcessId(0), &topo, &mut relay);
        assert!(e.engine.has_outstanding(), "relay copies await acks");
        let mut tick = RmcastOut::new();
        e.engine.tick(&mut tick);
        let tos: Vec<_> = tick.sends.iter().map(|(t, _)| *t).collect();
        assert_eq!(tos, vec![ProcessId(1), ProcessId(3)]);
    }

    #[test]
    fn crash_of_uninvolved_process_is_ignored() {
        let topo = Topology::symmetric(2, 2);
        let mut e = RmcastEngine::new(ProcessId(2));
        let mut out = RmcastOut::new();
        e.on_crash_notification(ProcessId(1), [], &topo, &mut out);
        assert!(out.sends.is_empty());
    }

    #[test]
    fn relay_completes_partial_dissemination() {
        // The origin reached only p2 before crashing. p2's relay must bring
        // p1 and p3 (also addressed) up to date.
        let topo = Topology::symmetric(2, 2);
        let m = msg(0, 0, &[0, 1]);
        let mut p2 = Holder::new(RmcastEngine::new(ProcessId(2)));
        let mut p1 = RmcastEngine::new(ProcessId(1));
        let mut out = RmcastOut::new();
        p2.on_message(ProcessId(0), RmcastMsg::Data(m.clone()), &topo, &mut out);
        let mut relay = RmcastOut::new();
        p2.on_crash_notification(ProcessId(0), &topo, &mut relay);
        let to_p1 = relay
            .sends
            .iter()
            .find(|(t, _)| *t == ProcessId(1))
            .cloned()
            .unwrap();
        let mut out1 = RmcastOut::new();
        p1.on_message(ProcessId(2), to_p1.1, &topo, &mut out1);
        assert_eq!(out1.delivered.len(), 1);
        assert_eq!(out1.delivered[0].id, m.id);
    }
}
