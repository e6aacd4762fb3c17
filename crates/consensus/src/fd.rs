//! Heartbeat eventually-perfect failure detector.
//!
//! **No runtime drives this detector yet**: it has no caller outside its
//! own tests. The simulator injects crash notifications directly (its ◇P
//! oracle), and a socket node (`wamcast-net`) learns of a crash only when
//! some outside party sends it a `Frame::CrashNotify` — nothing does after
//! a `kill -9`. Whether the socket runtime gets wired to this module or the
//! module is deleted is an open ROADMAP item. The detector is sans-io: a
//! host would call [`on_heartbeat`](HeartbeatFd::on_heartbeat) when a
//! heartbeat arrives and [`on_tick`](HeartbeatFd::on_tick) on its own
//! schedule, and react to the returned [`FdEvent`]s (typically by feeding
//! [`GroupConsensus::on_suspect`](crate::GroupConsensus::on_suspect)).

use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;
use wamcast_types::{ProcessId, SimTime};

/// Detector timing parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FdConfig {
    /// Period between heartbeats sent to every monitored peer.
    pub heartbeat_interval: Duration,
    /// Silence threshold after which a peer is suspected.
    pub timeout: Duration,
}

impl Default for FdConfig {
    fn default() -> Self {
        FdConfig {
            heartbeat_interval: Duration::from_millis(20),
            timeout: Duration::from_millis(100),
        }
    }
}

/// Suspicion-state transition reported by the detector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FdEvent {
    /// `p` is now suspected (silence exceeded the timeout).
    Suspect(ProcessId),
    /// A heartbeat from a suspected `p` arrived; the suspicion is revoked.
    /// (◇P accuracy: mistakes are eventually corrected.)
    Restore(ProcessId),
}

/// Heartbeat-based eventually-perfect failure detector over a fixed peer set.
///
/// # Example
///
/// ```
/// use wamcast_consensus::{HeartbeatFd, FdConfig, FdEvent};
/// use wamcast_types::{ProcessId, SimTime};
/// use std::time::Duration;
///
/// let peers = vec![ProcessId(1)];
/// let mut fd = HeartbeatFd::new(ProcessId(0), peers, FdConfig::default(), SimTime::ZERO);
/// // Silence past the timeout => suspicion.
/// let events = fd.on_tick(SimTime::ZERO + Duration::from_millis(150));
/// assert_eq!(events, vec![FdEvent::Suspect(ProcessId(1))]);
/// // A late heartbeat revokes it.
/// let back = fd.on_heartbeat(ProcessId(1), SimTime::ZERO + Duration::from_millis(160));
/// assert_eq!(back, Some(FdEvent::Restore(ProcessId(1))));
/// ```
#[derive(Clone, Debug)]
pub struct HeartbeatFd {
    me: ProcessId,
    peers: Vec<ProcessId>,
    cfg: FdConfig,
    last_heard: BTreeMap<ProcessId, SimTime>,
    suspected: BTreeSet<ProcessId>,
    last_beat_sent: Option<SimTime>,
}

impl HeartbeatFd {
    /// Creates a detector for `me` monitoring `peers` (which should exclude
    /// `me`; it is filtered out defensively).
    pub fn new(me: ProcessId, peers: Vec<ProcessId>, cfg: FdConfig, now: SimTime) -> Self {
        let peers: Vec<_> = peers.into_iter().filter(|&p| p != me).collect();
        let last_heard = peers.iter().map(|&p| (p, now)).collect();
        HeartbeatFd {
            me,
            peers,
            cfg,
            last_heard,
            suspected: BTreeSet::new(),
            last_beat_sent: None,
        }
    }

    /// The detector's owner.
    pub fn owner(&self) -> ProcessId {
        self.me
    }

    /// Currently suspected peers.
    pub fn suspected(&self) -> &BTreeSet<ProcessId> {
        &self.suspected
    }

    /// Whether `p` is currently suspected.
    pub fn is_suspected(&self, p: ProcessId) -> bool {
        self.suspected.contains(&p)
    }

    /// Records a heartbeat from `from`. Returns `Restore(from)` if that peer
    /// was suspected.
    pub fn on_heartbeat(&mut self, from: ProcessId, now: SimTime) -> Option<FdEvent> {
        if !self.last_heard.contains_key(&from) {
            return None; // unmonitored sender
        }
        self.last_heard.insert(from, now);
        if self.suspected.remove(&from) {
            Some(FdEvent::Restore(from))
        } else {
            None
        }
    }

    /// Periodic maintenance: returns freshly suspected peers and the list of
    /// peers to send heartbeats to (empty if the heartbeat interval has not
    /// elapsed since the last call that sent).
    pub fn on_tick(&mut self, now: SimTime) -> Vec<FdEvent> {
        let mut events = Vec::new();
        for &p in &self.peers {
            if self.suspected.contains(&p) {
                continue;
            }
            let heard = self.last_heard[&p];
            if now.saturating_since(heard) > self.cfg.timeout {
                self.suspected.insert(p);
                events.push(FdEvent::Suspect(p));
            }
        }
        events
    }

    /// Whether a heartbeat round is due at `now`; if so, records it as sent
    /// and returns the recipients.
    pub fn heartbeat_due(&mut self, now: SimTime) -> Option<&[ProcessId]> {
        let due = match self.last_beat_sent {
            None => true,
            Some(last) => now.saturating_since(last) >= self.cfg.heartbeat_interval,
        };
        if due {
            self.last_beat_sent = Some(now);
            Some(&self.peers)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn fd3() -> HeartbeatFd {
        HeartbeatFd::new(
            ProcessId(0),
            vec![ProcessId(0), ProcessId(1), ProcessId(2)],
            FdConfig::default(),
            SimTime::ZERO,
        )
    }

    #[test]
    fn owner_is_filtered_from_peers() {
        let mut fd = fd3();
        assert_eq!(fd.owner(), ProcessId(0));
        // Even after a long silence, the owner never suspects itself.
        let evs = fd.on_tick(t(10_000));
        assert!(!evs.contains(&FdEvent::Suspect(ProcessId(0))));
        assert_eq!(evs.len(), 2);
    }

    #[test]
    fn no_suspicion_within_timeout() {
        let mut fd = fd3();
        assert!(fd.on_tick(t(50)).is_empty());
        assert!(fd.suspected().is_empty());
    }

    #[test]
    fn silence_causes_suspicion_once() {
        let mut fd = fd3();
        let evs = fd.on_tick(t(200));
        assert_eq!(
            evs,
            vec![
                FdEvent::Suspect(ProcessId(1)),
                FdEvent::Suspect(ProcessId(2))
            ]
        );
        // Already suspected: no repeated events.
        assert!(fd.on_tick(t(300)).is_empty());
        assert!(fd.is_suspected(ProcessId(1)));
    }

    #[test]
    fn heartbeats_prevent_suspicion() {
        let mut fd = fd3();
        fd.on_heartbeat(ProcessId(1), t(90));
        let evs = fd.on_tick(t(150));
        assert_eq!(evs, vec![FdEvent::Suspect(ProcessId(2))]);
        assert!(!fd.is_suspected(ProcessId(1)));
    }

    #[test]
    fn restore_after_false_suspicion() {
        let mut fd = fd3();
        fd.on_tick(t(200));
        assert!(fd.is_suspected(ProcessId(1)));
        let ev = fd.on_heartbeat(ProcessId(1), t(210));
        assert_eq!(ev, Some(FdEvent::Restore(ProcessId(1))));
        assert!(!fd.is_suspected(ProcessId(1)));
        // And a normal heartbeat returns nothing.
        assert_eq!(fd.on_heartbeat(ProcessId(1), t(215)), None);
    }

    #[test]
    fn unmonitored_heartbeats_ignored() {
        let mut fd = fd3();
        assert_eq!(fd.on_heartbeat(ProcessId(9), t(10)), None);
    }

    #[test]
    fn heartbeat_scheduling() {
        let mut fd = fd3();
        assert!(fd.heartbeat_due(t(0)).is_some(), "first call always sends");
        assert!(fd.heartbeat_due(t(5)).is_none(), "too soon");
        let peers = fd.heartbeat_due(t(25)).unwrap();
        assert_eq!(peers, &[ProcessId(1), ProcessId(2)]);
    }
}
