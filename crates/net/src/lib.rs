//! Threaded in-process runtime for `wamcast` protocols.
//!
//! The protocols in this workspace are sans-io state machines (see
//! `wamcast_types::proto`); the deterministic simulator (`wamcast-sim`) is
//! where experiments run. This crate demonstrates that the *same* protocol
//! values are runtime-agnostic by hosting them on real OS threads connected
//! by `std::sync::mpsc` channels, with real timers (`recv_timeout`) and wall-clock
//! [`Context::now`].
//!
//! Scope: functional execution (deliveries, ordering), not measurement —
//! latency degrees are a logical-clock notion the simulator computes; a
//! threaded runtime has no honest way to observe them. Crash *injection* is
//! supported ([`Cluster::crash`]), and crash *notifications* are fanned out
//! to survivors so consensus re-coordination works; in a real deployment
//! they would come from `wamcast_consensus::HeartbeatFd`.
//!
//! [`Context::now`]: wamcast_types::Context::now
//!
//! # Example
//!
//! ```
//! use wamcast_net::Cluster;
//! use wamcast_core::RoundBroadcast;
//! use wamcast_types::Topology;
//! use std::time::Duration;
//!
//! let topo = Topology::symmetric(2, 2);
//! let cluster = Cluster::spawn(topo, |p, t| RoundBroadcast::new(p, t));
//! let dest = cluster.topology().all_groups();
//! let id = cluster.cast(wamcast_types::ProcessId(0), dest, wamcast_types::Payload::from_static(b"hi"));
//! cluster.await_delivery_everywhere(id, Duration::from_secs(5)).expect("delivered");
//! let order = cluster.delivered(wamcast_types::ProcessId(3));
//! assert_eq!(order[0].id, id);
//! cluster.shutdown();
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod faults;
#[cfg(unix)]
mod poll;
pub mod tcp;

pub use faults::WallFaults;

use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use wamcast_types::{
    Action, AppMessage, Context, FaultPlan, GroupSet, MessageId, MsgSlot, Outbox, Payload,
    ProcessId, Protocol, SimTime, Topology,
};

enum Ev<M> {
    /// A protocol message. Fan-out copies ([`Action::SendMany`]) share one
    /// `Arc`-held body across every destination's channel — the threaded
    /// runtime stores one allocation per logical send, like the simulator.
    Msg {
        from: ProcessId,
        msg: MsgSlot<M>,
    },
    Cast(AppMessage),
    CrashNotify(ProcessId),
    Shutdown,
}

struct TimerEntry {
    at: Instant,
    kind: u64,
}

impl PartialEq for TimerEntry {
    fn eq(&self, o: &Self) -> bool {
        self.at == o.at && self.kind == o.kind
    }
}
impl Eq for TimerEntry {}
impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(o))
    }
}
impl Ord for TimerEntry {
    fn cmp(&self, o: &Self) -> std::cmp::Ordering {
        // Min-heap on deadline.
        o.at.cmp(&self.at).then(o.kind.cmp(&self.kind))
    }
}

/// A cluster of protocol instances, one OS thread each.
pub struct Cluster<P: Protocol> {
    topo: Arc<Topology>,
    senders: Vec<Sender<Ev<P::Msg>>>,
    delivered: Arc<Vec<Mutex<Vec<AppMessage>>>>,
    alive: Arc<Vec<std::sync::atomic::AtomicBool>>,
    next_seq: Vec<AtomicU64>,
    handles: Vec<JoinHandle<()>>,
    /// Held open for the crash watchdog's interruptible sleep; dropped by
    /// `shutdown` so the watchdog exits immediately instead of sleeping
    /// out the remaining crash schedule.
    watchdog_stop: Option<Sender<()>>,
}

impl<P: Protocol + Send + 'static> Cluster<P> {
    /// Spawns one thread per process of `topo`, each running the protocol
    /// instance produced by `factory`.
    pub fn spawn(topo: Topology, factory: impl FnMut(ProcessId, &Topology) -> P) -> Self {
        Self::spawn_inner(topo, None, factory)
    }

    /// Spawns a cluster whose channels are wrapped in the [`FaultPlan`]
    /// adversary: sends consult the plan and may be dropped or duplicated
    /// (latency spikes are simulator-only — an mpsc channel has no delay
    /// to scale), and the plan's scheduled crashes are executed by a
    /// watchdog thread at their wall-clock offsets.
    /// `seed` feeds the plan's deterministic fate stream. Protocols hosted
    /// under a lossy plan need their retransmission mode on (e.g.
    /// `MulticastConfig::with_retry`) to stay live.
    pub fn spawn_faulty(
        topo: Topology,
        plan: FaultPlan,
        seed: u64,
        factory: impl FnMut(ProcessId, &Topology) -> P,
    ) -> Self {
        let faults = if plan.is_none() {
            None
        } else {
            Some(Arc::new(WallFaults::new(plan, seed)))
        };
        Self::spawn_inner(topo, faults, factory)
    }

    fn spawn_inner(
        topo: Topology,
        faults: Option<Arc<WallFaults>>,
        mut factory: impl FnMut(ProcessId, &Topology) -> P,
    ) -> Self {
        let topo = Arc::new(topo);
        let n = topo.num_processes();
        let mut senders = Vec::with_capacity(n);
        let mut receivers = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = channel();
            senders.push(tx);
            receivers.push(rx);
        }
        let delivered: Arc<Vec<Mutex<Vec<AppMessage>>>> =
            Arc::new((0..n).map(|_| Mutex::new(Vec::new())).collect());
        let alive: Arc<Vec<std::sync::atomic::AtomicBool>> = Arc::new(
            (0..n)
                .map(|_| std::sync::atomic::AtomicBool::new(true))
                .collect(),
        );
        let start = faults.as_ref().map_or_else(Instant::now, |f| f.start());
        let mut handles = Vec::with_capacity(n);
        for (i, rx) in receivers.into_iter().enumerate() {
            let pid = ProcessId(i as u32);
            let proto = factory(pid, &topo);
            let topo = Arc::clone(&topo);
            let senders = senders.clone();
            let delivered = Arc::clone(&delivered);
            let alive = Arc::clone(&alive);
            let faults = faults.clone();
            handles.push(std::thread::spawn(move || {
                run_process(
                    pid, proto, topo, rx, senders, delivered, alive, start, faults,
                )
            }));
        }
        // The plan's scheduled crashes run on a watchdog thread, mirroring
        // the simulator's crash events at wall-clock offsets. Its sleeps
        // are interruptible: shutdown drops `watchdog_stop`, which wakes
        // the `recv_timeout` with `Disconnected` and ends the thread.
        let mut watchdog_stop = None;
        if let Some(f) = &faults {
            let mut crashes = f.with_plan(|p| p.crashes.clone());
            if !crashes.is_empty() {
                crashes.sort_by_key(|&(at, _)| at);
                let senders = senders.clone();
                let alive = Arc::clone(&alive);
                let topo_w = Arc::clone(&topo);
                let (stop_tx, stop_rx) = channel::<()>();
                watchdog_stop = Some(stop_tx);
                handles.push(std::thread::spawn(move || {
                    for (at, p) in crashes {
                        let due = start + Duration::from_nanos(at.as_nanos());
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            if stop_rx.recv_timeout(wait) != Err(RecvTimeoutError::Timeout) {
                                return; // shutdown: abandon the schedule
                            }
                        }
                        alive[p.index()].store(false, Ordering::SeqCst);
                        for q in topo_w.processes() {
                            if q != p {
                                let _ = senders[q.index()].send(Ev::CrashNotify(p));
                            }
                        }
                    }
                }));
            }
        }
        Cluster {
            topo,
            senders,
            delivered,
            alive,
            next_seq: (0..n).map(|_| AtomicU64::new(0)).collect(),
            handles,
            watchdog_stop,
        }
    }

    /// The cluster topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// A-XCasts a fresh message from `caster` to `dest`, returning its id.
    ///
    /// # Panics
    ///
    /// Panics if `dest` is empty or `caster` is not a process.
    pub fn cast(&self, caster: ProcessId, dest: GroupSet, payload: Payload) -> MessageId {
        assert!(!dest.is_empty(), "destination must be non-empty");
        let seq = self.next_seq[caster.index()].fetch_add(1, Ordering::Relaxed);
        let id = MessageId::new(caster, seq);
        let msg = AppMessage::new(id, dest, payload);
        let _ = self.senders[caster.index()].send(Ev::Cast(msg));
        id
    }

    /// Crashes `p` (its thread stops handling events) and notifies all
    /// survivors, standing in for a failure detector.
    pub fn crash(&self, p: ProcessId) {
        self.alive[p.index()].store(false, Ordering::SeqCst);
        for q in self.topo.processes() {
            if q != p {
                let _ = self.senders[q.index()].send(Ev::CrashNotify(p));
            }
        }
    }

    /// Snapshot of the messages A-Delivered by `p`, in delivery order.
    pub fn delivered(&self, p: ProcessId) -> Vec<AppMessage> {
        self.delivered[p.index()]
            .lock()
            .expect("delivery log poisoned")
            .clone()
    }

    /// Blocks until every live process addressed by `id`'s destination has
    /// delivered it, or the timeout elapses.
    ///
    /// # Errors
    ///
    /// Returns `Err(AwaitTimeout)` if the deadline passes first.
    pub fn await_delivery_everywhere(
        &self,
        id: MessageId,
        timeout: Duration,
    ) -> Result<(), AwaitTimeout> {
        let deadline = Instant::now() + timeout;
        loop {
            let dest = {
                // Find dest from any process that has the message, else poll.
                self.topo.processes().find_map(|p| {
                    self.delivered[p.index()]
                        .lock()
                        .expect("delivery log poisoned")
                        .iter()
                        .find(|m| m.id == id)
                        .map(|m| m.dest)
                })
            };
            if let Some(dest) = dest {
                let all = self
                    .topo
                    .processes_in(dest)
                    .filter(|p| self.alive[p.index()].load(Ordering::SeqCst))
                    .all(|p| {
                        self.delivered[p.index()]
                            .lock()
                            .expect("delivery log poisoned")
                            .iter()
                            .any(|m| m.id == id)
                    });
                if all {
                    return Ok(());
                }
            }
            if Instant::now() > deadline {
                return Err(AwaitTimeout);
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Stops all threads and joins them.
    pub fn shutdown(mut self) {
        // Wake the crash watchdog first (if any) so joining it does not
        // wait out whatever remains of the crash schedule.
        drop(self.watchdog_stop.take());
        for tx in &self.senders {
            let _ = tx.send(Ev::Shutdown);
        }
        for h in self.handles {
            let _ = h.join();
        }
    }
}

/// Error: [`Cluster::await_delivery_everywhere`] timed out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AwaitTimeout;

impl std::fmt::Display for AwaitTimeout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "timed out waiting for delivery")
    }
}

impl std::error::Error for AwaitTimeout {}

/// Handler invocation passed to the per-process step executor.
type StepFn<'a, P> = &'a mut dyn FnMut(&mut P, &Context, &mut Outbox<<P as Protocol>::Msg>);

#[allow(clippy::too_many_arguments)]
fn run_process<P: Protocol + Send + 'static>(
    pid: ProcessId,
    mut proto: P,
    topo: Arc<Topology>,
    rx: Receiver<Ev<P::Msg>>,
    senders: Vec<Sender<Ev<P::Msg>>>,
    delivered: Arc<Vec<Mutex<Vec<AppMessage>>>>,
    alive: Arc<Vec<std::sync::atomic::AtomicBool>>,
    start: Instant,
    faults: Option<Arc<WallFaults>>,
) {
    let mut timers: BinaryHeap<TimerEntry> = BinaryHeap::new();
    let now = |start: Instant| SimTime::from_nanos(start.elapsed().as_nanos() as u64);

    let step = |proto: &mut P, timers: &mut BinaryHeap<TimerEntry>, f: StepFn<'_, P>| {
        let ctx = Context::new(pid, Arc::clone(&topo), now(start));
        let mut out = Outbox::new();
        f(proto, &ctx, &mut out);
        // One channel send per destination; the fault fate is drawn per
        // copy, exactly as the per-destination `Send` expansion would.
        let ship = |to: ProcessId, msg: MsgSlot<P::Msg>| {
            if !alive[to.index()].load(Ordering::SeqCst) {
                return;
            }
            if let Some(l) = &faults {
                let fate = l.fate(pid, to);
                if fate.dropped {
                    return;
                }
                if fate.duplicate.is_some() {
                    let _ = senders[to.index()].send(Ev::Msg {
                        from: pid,
                        msg: msg.clone(),
                    });
                }
            }
            let _ = senders[to.index()].send(Ev::Msg { from: pid, msg });
        };
        for action in out.drain() {
            match action {
                Action::Send { to, msg } => ship(to, MsgSlot::Owned(msg)),
                Action::SendMany { tos, msg } => {
                    for &to in &tos {
                        ship(to, MsgSlot::Shared(std::sync::Arc::clone(&msg)));
                    }
                }
                Action::Deliver(m) => delivered[pid.index()]
                    .lock()
                    .expect("delivery log poisoned")
                    .push(m),
                Action::Timer { after, kind } => timers.push(TimerEntry {
                    at: Instant::now() + after,
                    kind,
                }),
            }
        }
    };

    step(&mut proto, &mut timers, &mut |p, c, o| p.on_start(c, o));

    loop {
        if !alive[pid.index()].load(Ordering::SeqCst) {
            return; // crashed: take no further steps
        }
        // Fire due timers first.
        while timers.peek().is_some_and(|t| t.at <= Instant::now()) {
            let t = timers.pop().expect("peeked");
            step(&mut proto, &mut timers, &mut |p, c, o| {
                p.on_timer(t.kind, c, o)
            });
        }
        let wait = timers
            .peek()
            .map(|t| t.at.saturating_duration_since(Instant::now()))
            .unwrap_or(Duration::from_millis(50));
        let ev = match rx.recv_timeout(wait) {
            Ok(ev) => ev,
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => return,
        };
        match ev {
            Ev::Msg { from, msg } => {
                // `step` invokes the handler exactly once; the Option dance
                // moves the body out of the FnMut without a deep copy.
                let mut slot = Some(msg);
                step(&mut proto, &mut timers, &mut |p, c, o| {
                    let m = slot.take().expect("one invocation per step").take();
                    p.on_message(from, m, c, o)
                });
            }
            Ev::Cast(m) => {
                let mut cast = Some(m);
                step(&mut proto, &mut timers, &mut |p, c, o| {
                    p.on_cast(cast.take().expect("one invocation per step"), c, o)
                });
            }
            Ev::CrashNotify(of) => {
                step(&mut proto, &mut timers, &mut |p, c, o| {
                    p.on_crash_notification(of, c, o)
                });
            }
            Ev::Shutdown => return,
        }
    }
}
