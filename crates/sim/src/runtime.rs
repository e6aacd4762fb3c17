//! The discrete-event engine.

use crate::metrics::{CastRecord, DeliveryRecord, SendRecord};
use crate::queue::BucketQueue;
use crate::{NetConfig, RunMetrics, SplitMix64};
use std::fmt;
use std::sync::Arc;
use wamcast_trace::{Phase, TraceEvent, TraceRing};
use wamcast_types::{
    Action, AppMessage, Context, FaultInjector, FaultPlan, GroupSet, LatencyClock, MessageId,
    MsgSlot, Outbox, Payload, ProcessId, Protocol, SimTime, Topology,
};

/// Configuration of a simulation run.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Link latency models and failure-detection delay.
    pub net: NetConfig,
    /// Seed of the run's deterministic generator. Two runs with equal
    /// `(topology, config, workload)` and equal seeds are identical.
    pub seed: u64,
    /// Record every send in [`RunMetrics::send_log`] (needed by the
    /// Figure 1 message-count attribution and the quiescence experiments).
    pub record_send_log: bool,
    /// Hard cap on handler invocations; exceeding it indicates a live-lock
    /// or a non-quiescent protocol running unbounded. Reported as
    /// [`RunError::StepBudgetExhausted`] by the `try_run_*` methods.
    pub max_steps: u64,
    /// The fault-injection adversary (crash schedule, link loss,
    /// partitions, duplication, latency spikes). [`FaultPlan::none`] — the
    /// default — skips the fault layer entirely; the zero-fault path is
    /// byte-identical to a configuration without it.
    pub fault: FaultPlan,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            net: NetConfig::default(),
            seed: 0xC0FFEE,
            record_send_log: true,
            max_steps: 50_000_000,
            fault: FaultPlan::none(),
        }
    }
}

impl SimConfig {
    /// Replaces the network configuration.
    #[must_use]
    pub fn with_net(mut self, net: NetConfig) -> Self {
        self.net = net;
        self
    }

    /// Replaces the seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables or disables the send log.
    #[must_use]
    pub fn with_send_log(mut self, on: bool) -> Self {
        self.record_send_log = on;
        self
    }

    /// Replaces the step budget.
    #[must_use]
    pub fn with_max_steps(mut self, max_steps: u64) -> Self {
        self.max_steps = max_steps;
        self
    }

    /// Installs a fault plan. The plan's crashes are scheduled when the
    /// [`Simulation`] is built; its link rules are applied to every message
    /// copy at delivery-scheduling time.
    #[must_use]
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.fault = plan;
        self
    }
}

/// Description of the final event dispatched before a run aborted —
/// carried by [`RunError::StepBudgetExhausted`] so a hung run reports
/// *where* it was spinning instead of a bare panic string.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LastEvent {
    /// Virtual time of the event.
    pub at: SimTime,
    /// The process that was handling it.
    pub target: ProcessId,
    /// Event class (`"arrival"`, `"timer"`, `"cast"`, `"crash"`,
    /// `"crash-notification"`).
    pub kind: &'static str,
}

impl fmt::Display for LastEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} event at {} targeting {}",
            self.kind, self.at, self.target
        )
    }
}

/// Structured failure of a simulation run.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum RunError {
    /// [`SimConfig::max_steps`] handler invocations were executed without
    /// the run finishing — a live-locked or non-quiescent protocol. The
    /// payload distinguishes this from an ordinary long run in test output
    /// and tells the reader where the schedule was stuck.
    StepBudgetExhausted {
        /// The event about to be dispatched when the budget ran out.
        last_event: LastEvent,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::StepBudgetExhausted { last_event } => write!(
                f,
                "step budget exhausted (live-lock or non-quiescent protocol); last event: {last_event}"
            ),
        }
    }
}

impl std::error::Error for RunError {}

enum EvKind<M> {
    Arrival {
        from: ProcessId,
        stamp: u64,
        msg: MsgSlot<M>,
    },
    Timer {
        kind: u64,
    },
    Cast(AppMessage),
    Crash,
    NotifyCrash {
        of: ProcessId,
    },
}

impl<M> EvKind<M> {
    fn name(&self) -> &'static str {
        match self {
            EvKind::Arrival { .. } => "arrival",
            EvKind::Timer { .. } => "timer",
            EvKind::Cast(_) => "cast",
            EvKind::Crash => "crash",
            EvKind::NotifyCrash { .. } => "crash-notification",
        }
    }
}

/// One queued event. Time and insertion number live in the
/// [`BucketQueue`]'s keys; the queue pops earliest-`at` first with ties
/// broken LIFO (largest insertion seq first): of two messages arriving at
/// the same instant, the one that spent *less* time in flight is
/// processed first. Simultaneous events are causally independent (link
/// delays are positive), so any tie order is a legal asynchronous
/// schedule; LIFO is chosen because it realizes the canonical runs of the
/// paper's Theorems 4.1/5.1/5.2, where a group's local consensus pipeline
/// completes before simultaneously-arriving remote messages are handled.
/// Under symmetric constant latencies those two chains tie exactly, and
/// FIFO would systematically pick the schedule with inflated Lamport
/// stamps (Δ+1).
struct Ev<M> {
    target: ProcessId,
    kind: EvKind<M>,
}

/// A deterministic discrete-event simulation hosting one [`Protocol`]
/// instance per process of a [`Topology`].
///
/// The engine owns the modified Lamport clocks of §2.3 and stamps every
/// send/delivery outside protocol code, producing a [`RunMetrics`] from
/// which latency degrees and message complexities are computed exactly.
///
/// # Example
///
/// ```
/// use wamcast_sim::{Simulation, SimConfig};
/// use wamcast_types::{Protocol, Context, Outbox, AppMessage, ProcessId, Topology, SimTime};
///
/// /// Deliver-to-self "protocol" used to smoke-test the engine.
/// struct Loopback;
/// impl Protocol for Loopback {
///     type Msg = ();
///     fn on_cast(&mut self, m: AppMessage, _ctx: &Context, out: &mut Outbox<()>) {
///         out.deliver(m);
///     }
///     fn on_message(&mut self, _f: ProcessId, _m: (), _c: &Context, _o: &mut Outbox<()>) {}
/// }
///
/// let topo = Topology::symmetric(1, 1);
/// let mut sim = Simulation::new(topo, SimConfig::default(), |_, _| Loopback);
/// let dest = sim.topology().all_groups();
/// let id = sim.cast_at(SimTime::ZERO, ProcessId(0), dest, wamcast_types::Payload::new());
/// sim.run_to_quiescence();
/// assert_eq!(sim.metrics().latency_degree(id), Some(0));
/// ```
pub struct Simulation<P: Protocol> {
    topo: Arc<Topology>,
    cfg: SimConfig,
    procs: Vec<P>,
    alive: Vec<bool>,
    clocks: Vec<LatencyClock>,
    queue: BucketQueue<Ev<P::Msg>>,
    now: SimTime,
    seq: u64,
    rng: SplitMix64,
    /// The fault adversary; `None` when the plan is empty, so the
    /// zero-fault hot path takes a single branch and consumes no state.
    /// Owns the run's [`FaultPlan`] — the config's copy is moved in here
    /// at construction, never cloned.
    faults: Option<FaultInjector>,
    metrics: RunMetrics,
    next_app_seq: Vec<u64>,
    started: bool,
    /// Reused backing storage for per-step action buffers: one handler
    /// invocation swaps it into an [`Outbox`], drains it, and puts it
    /// back, so steady-state steps allocate nothing.
    scratch: Vec<Action<P::Msg>>,
    /// The flight recorder, when tracing is enabled. `None` — the default
    /// — is the zero-cost path: every record site is a single `is_some`
    /// branch. Recording draws no randomness and reads only state the
    /// engine already computed, so enabling it cannot perturb a schedule
    /// (pinned by the trace-neutrality golden tests in the harness).
    trace: Option<TraceRing>,
}

impl<P: Protocol> Simulation<P> {
    /// Builds a simulation; `factory(p, topo)` constructs the protocol
    /// instance for process `p`. Crashes scheduled by the config's
    /// [`FaultPlan`] are enqueued here.
    pub fn new(
        topo: Topology,
        cfg: SimConfig,
        factory: impl FnMut(ProcessId, &Topology) -> P,
    ) -> Self {
        Self::new_shared(Arc::new(topo), cfg, factory)
    }

    /// [`new`](Self::new) over an already-shared topology. Sweep drivers
    /// that run thousands of seeds over the same handful of shapes share
    /// one immutable [`Topology`] per shape instead of rebuilding it per
    /// run.
    pub fn new_shared(
        topo: Arc<Topology>,
        mut cfg: SimConfig,
        mut factory: impl FnMut(ProcessId, &Topology) -> P,
    ) -> Self {
        let n = topo.num_processes();
        let procs = topo
            .processes()
            .map(|p| factory(p, &topo))
            .collect::<Vec<_>>();
        let rng = SplitMix64::new(cfg.seed);
        // The plan is consumed exactly once: schedule its crashes, then
        // move it into the injector (no clone round-trip; the config slot
        // is left empty and the injector is the plan's home thereafter).
        let plan = std::mem::replace(&mut cfg.fault, FaultPlan::none());
        let mut queue = BucketQueue::new();
        let mut seq = 0u64;
        for &(at, p) in &plan.crashes {
            assert!(
                p.index() < n,
                "fault plan crashes unknown process {p} (topology has {n})"
            );
            queue.push(
                at,
                seq,
                Ev {
                    target: p,
                    kind: EvKind::Crash,
                },
            );
            seq += 1;
        }
        let faults = if plan.is_none() {
            None
        } else {
            Some(FaultInjector::new(plan, cfg.seed))
        };
        Simulation {
            procs,
            alive: vec![true; n],
            clocks: vec![LatencyClock::new(); n],
            queue,
            now: SimTime::ZERO,
            seq,
            rng,
            faults,
            metrics: RunMetrics::new(n),
            next_app_seq: vec![0; n],
            started: false,
            topo,
            cfg,
            scratch: Vec::new(),
            trace: None,
        }
    }

    /// Enables the flight recorder with the given ring capacity (events;
    /// oldest evicted first). Call before running; recording never
    /// changes the schedule, only observes it.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Some(TraceRing::new(capacity));
    }

    /// Takes the flight recorder out of the simulation, if tracing was
    /// enabled (tracing is disabled afterwards).
    pub fn take_trace(&mut self) -> Option<TraceRing> {
        self.trace.take()
    }

    /// Read access to the flight recorder, if tracing is enabled.
    pub fn trace(&self) -> Option<&TraceRing> {
        self.trace.as_ref()
    }

    /// Records one trace event at the current instant (no-op when tracing
    /// is off).
    fn record(
        &mut self,
        node: ProcessId,
        phase: Phase,
        cast: Option<MessageId>,
        peer: Option<ProcessId>,
    ) {
        if let Some(ring) = self.trace.as_mut() {
            ring.push(TraceEvent {
                at_us: self.now.as_micros(),
                node: node.0,
                phase,
                cast: cast.map(MessageId::cast_key),
                peer: peer.map(|q| q.0),
            });
        }
    }

    /// Records a wire message send/receive at `node`, classified via
    /// [`Protocol::describe_msg`]: one event per referenced cast, or one
    /// unattributed event when the protocol declines to classify.
    fn record_msg(&mut self, node: ProcessId, msg: &P::Msg, sending: bool, peer: ProcessId) {
        if self.trace.is_none() {
            return;
        }
        match P::describe_msg(msg) {
            Some(info) => {
                let phase = info.class.phase(sending);
                if info.casts.is_empty() {
                    self.record(node, phase, None, Some(peer));
                } else {
                    for id in info.casts {
                        self.record(node, phase, Some(id), Some(peer));
                    }
                }
            }
            None => {
                let phase = if sending {
                    Phase::MsgSend
                } else {
                    Phase::MsgRecv
                };
                self.record(node, phase, None, Some(peer));
            }
        }
    }

    /// The fault plan driving this run, if any (it lives in the injector;
    /// [`SimConfig::fault`] is drained at construction).
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref().map(FaultInjector::plan)
    }

    /// The simulated topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Collected metrics so far.
    pub fn metrics(&self) -> &RunMetrics {
        &self.metrics
    }

    /// Consumes the simulation, returning its metrics.
    pub fn into_metrics(mut self) -> RunMetrics {
        self.metrics.end_time = self.now;
        self.metrics
    }

    /// Read access to a process's protocol state (for tests/inspection).
    pub fn protocol(&self, p: ProcessId) -> &P {
        &self.procs[p.index()]
    }

    /// Whether `p` is still alive at the current instant.
    pub fn is_alive(&self, p: ProcessId) -> bool {
        self.alive[p.index()]
    }

    /// Processes alive at the current instant. If the run has ended this is
    /// the *correct* process set of the run.
    pub fn alive_processes(&self) -> Vec<ProcessId> {
        self.topo
            .processes()
            .filter(|p| self.alive[p.index()])
            .collect()
    }

    /// Schedules an `A-XCast` of a fresh message by `caster` at time `at`,
    /// returning its id.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past or `dest` is empty.
    pub fn cast_at(
        &mut self,
        at: SimTime,
        caster: ProcessId,
        dest: GroupSet,
        payload: Payload,
    ) -> MessageId {
        assert!(at >= self.now, "cannot schedule a cast in the past");
        assert!(!dest.is_empty(), "destination set must be non-empty");
        let seq = self.next_app_seq[caster.index()];
        self.next_app_seq[caster.index()] += 1;
        let id = MessageId::new(caster, seq);
        let msg = AppMessage::new(id, dest, payload);
        self.push(at, caster, EvKind::Cast(msg));
        id
    }

    /// Schedules a crash of `p` at time `at`. Surviving processes receive a
    /// crash notification `detection_delay` later.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn crash_at(&mut self, at: SimTime, p: ProcessId) {
        assert!(at >= self.now, "cannot schedule a crash in the past");
        self.push(at, p, EvKind::Crash);
    }

    fn push(&mut self, at: SimTime, target: ProcessId, kind: EvKind<P::Msg>) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(at, seq, Ev { target, kind });
    }

    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for p in 0..self.procs.len() {
            let pid = ProcessId(p as u32);
            self.step(pid, |proto, ctx, out| proto.on_start(ctx, out));
        }
    }

    /// Runs until the queue drains or virtual time would exceed `deadline`.
    /// Returns `true` if the queue drained (the run became quiescent).
    ///
    /// # Panics
    ///
    /// Panics if the step budget is exhausted; use
    /// [`try_run_until`](Self::try_run_until) to handle that structurally.
    pub fn run_until(&mut self, deadline: SimTime) -> bool {
        self.try_run_until(deadline)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`run_until`](Self::run_until): distinguishes a
    /// deadline stop (`Ok(false)`), quiescence (`Ok(true)`) and a blown
    /// step budget ([`RunError::StepBudgetExhausted`]).
    ///
    /// # Errors
    ///
    /// Returns [`RunError::StepBudgetExhausted`] when `max_steps` handler
    /// invocations did not finish the run.
    pub fn try_run_until(&mut self, deadline: SimTime) -> Result<bool, RunError> {
        self.run_while(deadline, |_| true)
    }

    /// Runs until the queue drains, without a time bound. Suitable only for
    /// quiescent protocols.
    ///
    /// # Panics
    ///
    /// Panics if `max_steps` handler invocations are exceeded, which
    /// indicates a non-quiescent protocol or a live-lock; use
    /// [`try_run_to_quiescence`](Self::try_run_to_quiescence) to handle
    /// that structurally.
    pub fn run_to_quiescence(&mut self) {
        self.try_run_to_quiescence()
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Fallible form of [`run_to_quiescence`](Self::run_to_quiescence).
    ///
    /// # Errors
    ///
    /// Returns [`RunError::StepBudgetExhausted`] when `max_steps` handler
    /// invocations did not drain the queue.
    pub fn try_run_to_quiescence(&mut self) -> Result<(), RunError> {
        let drained = self.try_run_until(SimTime::MAX)?;
        debug_assert!(drained);
        Ok(())
    }

    /// Runs until every message in `msgs` has been delivered by every
    /// *currently alive* process its destination addresses, the queue
    /// drains, or `deadline` passes. Returns `true` iff the delivery
    /// condition was met.
    ///
    /// The delivery condition is looked at once per 64 dispatched events
    /// rather than per event. The run may therefore overshoot the exact
    /// delivery instant by up to 63 events; callers needing exact windows
    /// use the recorded per-delivery times in [`RunMetrics`].
    ///
    /// # Panics
    ///
    /// Panics if the step budget is exhausted; use
    /// [`try_run_until_delivered`](Self::try_run_until_delivered) to handle
    /// that structurally.
    pub fn run_until_delivered(&mut self, msgs: &[MessageId], deadline: SimTime) -> bool {
        self.try_run_until_delivered(msgs, deadline)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of
    /// [`run_until_delivered`](Self::run_until_delivered).
    ///
    /// Each 64-event look resumes at a cursor — the first id of `msgs` not
    /// yet found delivered — instead of rescanning the list, so a wait on
    /// n ids costs O(n·d) over the whole run, not per look. Skipping the
    /// ids behind the cursor cannot change an answer: for one message the
    /// condition is monotone in the run (a dispatched cast stays
    /// dispatched, delivery records are only ever added, and `alive` only
    /// loses members, which only removes processes the condition waits
    /// for), so an id found delivered at one look is delivered at every
    /// later one. The looks therefore return what
    /// [`all_delivered`](Self::all_delivered) over the whole list would, at
    /// the same events, and the run stops at the same step.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::StepBudgetExhausted`] when `max_steps` handler
    /// invocations elapsed before the delivery condition was met.
    pub fn try_run_until_delivered(
        &mut self,
        msgs: &[MessageId],
        deadline: SimTime,
    ) -> Result<bool, RunError> {
        let countdown = std::cell::Cell::new(0u32);
        let cursor = std::cell::Cell::new(0usize);
        let check = |sim: &Self| {
            let c = countdown.get();
            if c > 0 {
                countdown.set(c - 1);
                return true;
            }
            countdown.set(63);
            let from = cursor.get();
            let done = msgs[from..].iter().take_while(|&&m| sim.delivered(m));
            cursor.set(from + done.count());
            cursor.get() < msgs.len()
        };
        self.run_while(deadline, check)?;
        Ok(self.all_delivered(msgs))
    }

    /// Whether every alive process addressed by each message has delivered it.
    pub fn all_delivered(&self, msgs: &[MessageId]) -> bool {
        msgs.iter().all(|&m| self.delivered(m))
    }

    /// Whether every alive process addressed by `m` has delivered it.
    fn delivered(&self, m: MessageId) -> bool {
        let Some(cast) = self.metrics.casts.get(&m) else {
            // Cast event not yet dispatched.
            return false;
        };
        self.topo
            .processes_in(cast.dest)
            .filter(|p| self.alive[p.index()])
            .all(|p| self.metrics.has_delivered(p, m))
    }

    /// Core loop: dispatch events while `keep_going(self)` holds and time is
    /// within `deadline`. Returns `Ok(true)` if the queue drained.
    fn run_while(
        &mut self,
        deadline: SimTime,
        keep_going: impl Fn(&Self) -> bool,
    ) -> Result<bool, RunError> {
        self.ensure_started();
        while keep_going(self) {
            let Some((at, _, ev)) = self.queue.peek() else {
                self.metrics.end_time = self.now;
                return Ok(true);
            };
            if at > deadline {
                self.metrics.end_time = self.now;
                return Ok(false);
            }
            // Budget check *before* popping: the offending event stays
            // queued, so the simulation is not silently perturbed (a later
            // run call would otherwise diverge from a fresh same-seed run
            // by exactly the dropped event).
            if self.metrics.steps >= self.cfg.max_steps {
                let last_event = LastEvent {
                    at,
                    target: ev.target,
                    kind: ev.kind.name(),
                };
                self.metrics.end_time = self.now;
                return Err(RunError::StepBudgetExhausted { last_event });
            }
            let (at, _, ev) = self.queue.pop().expect("peeked");
            self.now = at;
            self.dispatch(ev);
        }
        self.metrics.end_time = self.now;
        Ok(self.queue.is_empty())
    }

    fn dispatch(&mut self, ev: Ev<P::Msg>) {
        let p = ev.target;
        if !self.alive[p.index()] {
            return; // crashed processes take no steps; in-flight copies vanish
        }
        match ev.kind {
            EvKind::Crash => {
                self.alive[p.index()] = false;
                self.record(p, Phase::Crash, None, None);
                // The ◇P oracle: notify all other (currently alive) processes
                // after the detection delay.
                let at = self.now + self.cfg.net.detection_delay;
                for q in 0..self.procs.len() {
                    if q != p.index() && self.alive[q] {
                        self.push(at, ProcessId(q as u32), EvKind::NotifyCrash { of: p });
                    }
                }
            }
            EvKind::Arrival { from, stamp, msg } => {
                self.clocks[p.index()].observe_receive(stamp);
                self.metrics.received_any[p.index()] = true;
                // Fan-out copies share one body: all but the last live
                // handle unwrap by deep copy, the last by move.
                let msg = msg.take();
                self.record_msg(p, &msg, false, from);
                self.step(p, |proto, ctx, out| proto.on_message(from, msg, ctx, out));
            }
            EvKind::Timer { kind } => {
                self.step(p, |proto, ctx, out| proto.on_timer(kind, ctx, out));
            }
            EvKind::Cast(msg) => {
                let stamp = self.clocks[p.index()].value(); // local event
                self.metrics.casts.insert(
                    msg.id,
                    CastRecord {
                        caster: p,
                        dest: msg.dest,
                        time: self.now,
                        stamp,
                    },
                );
                self.record(p, Phase::Cast, Some(msg.id), None);
                self.step(p, |proto, ctx, out| proto.on_cast(msg, ctx, out));
            }
            EvKind::NotifyCrash { of } => {
                self.record(p, Phase::CrashNotice, None, Some(of));
                self.step(p, |proto, ctx, out| {
                    proto.on_crash_notification(of, ctx, out)
                });
            }
        }
    }

    /// Executes one handler invocation atomically and applies its actions:
    /// stamps sends per §2.3 (one logical send event per step), samples link
    /// latencies, records deliveries.
    fn step(&mut self, p: ProcessId, f: impl FnOnce(&mut P, &Context, &mut Outbox<P::Msg>)) {
        let ctx = Context::new(p, Arc::clone(&self.topo), self.now);
        let mut out = Outbox::with_buffer(std::mem::take(&mut self.scratch));
        f(&mut self.procs[p.index()], &ctx, &mut out);
        self.metrics.steps += 1;

        let mut actions = out.into_buffer();
        let any_inter = actions.iter().any(|a| match a {
            Action::Send { to, .. } => !self.topo.same_group(p, *to),
            Action::SendMany { tos, .. } => tos.iter().any(|&to| !self.topo.same_group(p, to)),
            _ => false,
        });
        let deliver_stamp = self.clocks[p.index()].value();
        let stamp = self.clocks[p.index()].finish_step(any_inter);

        for a in actions.drain(..) {
            match a {
                Action::Send { to, msg } => {
                    self.record_msg(p, &msg, true, to);
                    self.schedule_copy(p, to, stamp, MsgSlot::Owned(msg));
                }
                Action::SendMany { tos, msg } => {
                    // One shared body; destinations are scheduled in `tos`
                    // order, each with its own latency sample and fault
                    // fate — observationally the same per-copy sequence as
                    // the equivalent `Send` loop, minus the deep copies.
                    for &to in &tos {
                        self.record_msg(p, &msg, true, to);
                        self.schedule_copy(p, to, stamp, MsgSlot::Shared(Arc::clone(&msg)));
                    }
                }
                Action::Deliver(m) => {
                    self.record(p, Phase::Deliver, Some(m.id), None);
                    self.metrics.deliveries.entry(m.id).or_default().insert(
                        p,
                        DeliveryRecord {
                            time: self.now,
                            stamp: deliver_stamp,
                        },
                    );
                    self.metrics.delivered_seq[p.index()].push(m.id);
                }
                Action::Timer { after, kind } => {
                    let at = self.now + after;
                    self.push(at, p, EvKind::Timer { kind });
                }
            }
        }
        // Hand the (drained) buffer back for the next step.
        self.scratch = actions;
    }

    /// Schedules one message copy `p → to`: stamps it per §2.3, samples the
    /// link delay from the main stream, accounts it, subjects it to the
    /// fault adversary, and enqueues the arrival(s).
    fn schedule_copy(
        &mut self,
        p: ProcessId,
        to: ProcessId,
        stamp: wamcast_types::EventStamp,
        msg: MsgSlot<P::Msg>,
    ) {
        let inter = !self.topo.same_group(p, to);
        let s = if inter { stamp.inter } else { stamp.intra };
        let model = if inter {
            self.cfg
                .net
                .link(self.topo.group_of(p).0, self.topo.group_of(to).0)
        } else {
            &self.cfg.net.intra
        };
        let delay = model.sample(&mut self.rng);
        if inter {
            self.metrics.inter_sends += 1;
        } else {
            self.metrics.intra_sends += 1;
        }
        self.metrics.sent_any[p.index()] = true;
        self.metrics.last_send_time = self.now;
        if self.cfg.record_send_log {
            self.metrics.send_log.push(SendRecord {
                time: self.now,
                from: p,
                to,
                inter_group: inter,
            });
        }
        // The fault adversary acts here, after the send is recorded (the
        // copy *was* sent; the network ate it) and after the main stream
        // sampled the base delay (so the main stream's consumption is
        // identical whatever the plan decides). All fault randomness comes
        // from the injector's private stream.
        if let Some(inj) = self.faults.as_mut() {
            let fate = inj.on_send(p, to, self.now);
            if fate.dropped {
                self.metrics.dropped_sends += 1;
                return;
            }
            let delay = delay.mul_f64(fate.delay_factor);
            if let Some(extra) = fate.duplicate {
                self.metrics.duplicated_sends += 1;
                let dup_at = self.now + delay.mul_f64(1.0 + extra);
                self.push(
                    dup_at,
                    to,
                    EvKind::Arrival {
                        from: p,
                        stamp: s,
                        msg: msg.clone(),
                    },
                );
            }
            let at = self.now + delay;
            self.push(
                at,
                to,
                EvKind::Arrival {
                    from: p,
                    stamp: s,
                    msg,
                },
            );
            return;
        }
        let at = self.now + delay;
        self.push(
            at,
            to,
            EvKind::Arrival {
                from: p,
                stamp: s,
                msg,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use wamcast_types::GroupId;

    /// Unordered best-effort multicast: the caster sends the message to
    /// every addressed process directly; everyone delivers on receipt (the
    /// caster delivers immediately). Latency degree 1 for remote groups.
    struct Flood;

    impl Protocol for Flood {
        type Msg = AppMessage;

        fn on_cast(&mut self, m: AppMessage, ctx: &Context, out: &mut Outbox<AppMessage>) {
            let me = ctx.id();
            let tos: Vec<_> = ctx
                .topology()
                .processes_in(m.dest)
                .filter(|&q| q != me)
                .collect();
            out.send_many(tos, m.clone());
            if ctx.topology().addresses(m.dest, me) {
                out.deliver(m);
            }
        }

        fn on_message(
            &mut self,
            _from: ProcessId,
            m: AppMessage,
            _ctx: &Context,
            out: &mut Outbox<AppMessage>,
        ) {
            out.deliver(m);
        }
    }

    fn flood_sim(k: usize, d: usize) -> Simulation<Flood> {
        Simulation::new(Topology::symmetric(k, d), SimConfig::default(), |_, _| {
            Flood
        })
    }

    #[test]
    fn flood_latency_degree_is_one() {
        let mut sim = flood_sim(2, 2);
        let dest = sim.topology().all_groups();
        let id = sim.cast_at(SimTime::ZERO, ProcessId(0), dest, Payload::new());
        sim.run_to_quiescence();
        assert_eq!(sim.metrics().latency_degree(id), Some(1));
        assert_eq!(sim.metrics().delivered_by(id).len(), 4);
        // 1 intra copy (to p1), 2 inter copies (to g1).
        assert_eq!(sim.metrics().intra_sends, 1);
        assert_eq!(sim.metrics().inter_sends, 2);
    }

    #[test]
    fn single_group_cast_has_degree_zero() {
        let mut sim = flood_sim(2, 3);
        let dest = GroupSet::singleton(GroupId(0));
        let id = sim.cast_at(SimTime::ZERO, ProcessId(0), dest, Payload::new());
        sim.run_to_quiescence();
        assert_eq!(sim.metrics().latency_degree(id), Some(0));
        assert_eq!(sim.metrics().delivered_by(id).len(), 3);
        assert_eq!(sim.metrics().inter_sends, 0);
    }

    #[test]
    fn virtual_time_advances_by_link_latency() {
        let mut sim = flood_sim(2, 1);
        let dest = sim.topology().all_groups();
        let id = sim.cast_at(SimTime::ZERO, ProcessId(0), dest, Payload::new());
        sim.run_to_quiescence();
        // Default inter-group latency is 100 ms.
        let lat = sim.metrics().delivery_latency(id).unwrap();
        assert_eq!(lat, Duration::from_millis(100));
    }

    #[test]
    fn crashed_processes_receive_nothing() {
        let mut sim = flood_sim(2, 2);
        let dest = sim.topology().all_groups();
        sim.crash_at(SimTime::ZERO, ProcessId(3));
        let id = sim.cast_at(SimTime::from_millis(1), ProcessId(0), dest, Payload::new());
        sim.run_until(SimTime::from_millis(2_000));
        assert!(!sim.metrics().has_delivered(ProcessId(3), id));
        assert!(sim.metrics().has_delivered(ProcessId(2), id));
        assert!(!sim.is_alive(ProcessId(3)));
        assert_eq!(sim.alive_processes().len(), 3);
    }

    #[test]
    fn crash_notifications_reach_survivors() {
        struct CountCrash(u32);
        impl Protocol for CountCrash {
            type Msg = ();
            fn on_cast(&mut self, _m: AppMessage, _c: &Context, _o: &mut Outbox<()>) {}
            fn on_message(&mut self, _f: ProcessId, _m: (), _c: &Context, _o: &mut Outbox<()>) {}
            fn on_crash_notification(
                &mut self,
                _c: ProcessId,
                _ctx: &Context,
                _o: &mut Outbox<()>,
            ) {
                self.0 += 1;
            }
        }
        let mut sim = Simulation::new(Topology::symmetric(1, 3), SimConfig::default(), |_, _| {
            CountCrash(0)
        });
        sim.crash_at(SimTime::from_millis(1), ProcessId(0));
        sim.run_until(SimTime::from_millis(10_000));
        assert_eq!(sim.protocol(ProcessId(1)).0, 1);
        assert_eq!(sim.protocol(ProcessId(2)).0, 1);
        assert_eq!(
            sim.protocol(ProcessId(0)).0,
            0,
            "crashed process learns nothing"
        );
    }

    #[test]
    fn deterministic_replay() {
        let run = |seed: u64| {
            let cfg =
                SimConfig::default()
                    .with_seed(seed)
                    .with_net(
                        NetConfig::default().with_inter(crate::LatencyModel::Uniform {
                            min: Duration::from_millis(50),
                            max: Duration::from_millis(150),
                        }),
                    );
            let mut sim = Simulation::new(Topology::symmetric(3, 2), cfg, |_, _| Flood);
            let dest = sim.topology().all_groups();
            let mut ids = Vec::new();
            for i in 0..5 {
                ids.push(sim.cast_at(
                    SimTime::from_millis(i * 3),
                    ProcessId((i % 6) as u32),
                    dest,
                    Payload::new(),
                ));
            }
            sim.run_to_quiescence();
            (
                ids.iter()
                    .map(|&m| sim.metrics().delivery_latency(m).unwrap())
                    .collect::<Vec<_>>(),
                sim.metrics().delivered_seq.clone(),
            )
        };
        assert_eq!(run(42), run(42));
        assert_ne!(
            run(42).0,
            run(43).0,
            "different seeds give different jitter"
        );
    }

    #[test]
    fn timers_fire_in_order() {
        struct TimerChain {
            fired: Vec<u64>,
        }
        impl Protocol for TimerChain {
            type Msg = ();
            fn on_start(&mut self, _ctx: &Context, out: &mut Outbox<()>) {
                out.set_timer(Duration::from_millis(5), 1);
                out.set_timer(Duration::from_millis(2), 2);
            }
            fn on_cast(&mut self, _m: AppMessage, _c: &Context, _o: &mut Outbox<()>) {}
            fn on_message(&mut self, _f: ProcessId, _m: (), _c: &Context, _o: &mut Outbox<()>) {}
            fn on_timer(&mut self, kind: u64, _ctx: &Context, out: &mut Outbox<()>) {
                self.fired.push(kind);
                if kind == 2 {
                    out.set_timer(Duration::from_millis(1), 3);
                }
            }
        }
        let mut sim = Simulation::new(Topology::symmetric(1, 1), SimConfig::default(), |_, _| {
            TimerChain { fired: vec![] }
        });
        sim.run_to_quiescence();
        assert_eq!(sim.protocol(ProcessId(0)).fired, vec![2, 3, 1]);
    }

    #[test]
    fn run_until_delivered_stops_early() {
        let mut sim = flood_sim(2, 2);
        let dest = sim.topology().all_groups();
        let id = sim.cast_at(SimTime::ZERO, ProcessId(0), dest, Payload::new());
        let ok = sim.run_until_delivered(&[id], SimTime::from_millis(10_000));
        assert!(ok);
        assert!(sim.now() <= SimTime::from_millis(101));
    }

    /// `try_run_until_delivered` resumes its look at a cursor; the
    /// reference below rescans the whole list with `all_delivered` on the
    /// same 64-event cadence. Both must give the same answer at the same
    /// step — whatever the order of the id list, when an addressed process
    /// crashes mid-run (the condition stops waiting for it), and when the
    /// deadline cuts the run short.
    #[test]
    fn delivery_cursor_stops_where_a_full_rescan_does() {
        let build = |crash: bool| {
            let net = NetConfig::default().with_inter(crate::LatencyModel::Uniform {
                min: Duration::from_millis(50),
                max: Duration::from_millis(150),
            });
            let cfg = SimConfig::default().with_seed(7).with_net(net);
            let mut sim = Simulation::new(Topology::symmetric(3, 3), cfg, |_, _| Flood);
            let all = sim.topology().all_groups();
            let ids: Vec<MessageId> = (0..300u64)
                .map(|i| {
                    let dest = if i % 3 == 0 {
                        GroupSet::singleton(GroupId((i % 2) as u16))
                    } else {
                        all
                    };
                    let caster = ProcessId((i % 8) as u32); // never p8
                    sim.cast_at(SimTime::from_millis(i), caster, dest, Payload::new())
                })
                .collect();
            if crash {
                // Copies in flight to p8 vanish: for those casts the
                // condition is met by the crash, not by a delivery.
                sim.crash_at(SimTime::from_millis(150), ProcessId(8));
            }
            (sim, ids)
        };
        let rescan = |sim: &mut Simulation<Flood>, msgs: &[MessageId], deadline| {
            let countdown = std::cell::Cell::new(0u32);
            sim.run_while(deadline, |sim| {
                let c = countdown.get();
                if c > 0 {
                    countdown.set(c - 1);
                    return true;
                }
                countdown.set(63);
                !sim.all_delivered(msgs)
            })
            .expect("within budget");
            sim.all_delivered(msgs)
        };
        let far = SimTime::from_millis(60_000);
        let mut stops = Vec::new();
        for (crash, shuffled, deadline, want) in [
            (false, false, far, true),
            (false, true, far, true),
            (true, false, far, true),
            (true, true, far, true),
            (false, true, SimTime::from_millis(200), false),
        ] {
            let (mut a, mut ids) = build(crash);
            let (mut b, _) = build(crash);
            ids.truncate(200); // the last 100 casts are not waited for
            if shuffled {
                crate::shuffle(&mut ids, &mut SplitMix64::new(1));
            }
            let got = a.try_run_until_delivered(&ids, deadline).expect("budget");
            assert_eq!(got, rescan(&mut b, &ids, deadline));
            assert_eq!(got, want, "crash {crash} shuffled {shuffled}");
            assert_eq!(a.metrics().steps, b.metrics().steps);
            assert_eq!(a.now(), b.now());
            stops.push(a.metrics().steps);
        }
        // The wait stops before the run is over, after many looks, and the
        // order of the id list does not move the stop.
        let (mut full, _) = build(false);
        full.run_to_quiescence();
        assert!(stops[0] < full.metrics().steps);
        assert!(stops[0] > 64 * 10, "several looks happened");
        assert_eq!(stops[0], stops[1]);
        assert_eq!(stops[2], stops[3]);
    }

    #[test]
    fn cast_ids_are_sequential_per_origin() {
        let mut sim = flood_sim(1, 1);
        let dest = sim.topology().all_groups();
        let a = sim.cast_at(SimTime::ZERO, ProcessId(0), dest, Payload::new());
        let b = sim.cast_at(SimTime::ZERO, ProcessId(0), dest, Payload::new());
        assert_eq!(a.seq, 0);
        assert_eq!(b.seq, 1);
        assert!(a < b);
    }
}
