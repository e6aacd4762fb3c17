//! Deterministic causal tracing for the wamcast runtimes: per-cast
//! lifecycle events, a bounded flight recorder, and export formats.
//!
//! The repository's hard observability contract (PR 7's metrics layer set
//! it; this crate inherits it) is that **recording must never perturb a
//! schedule**: a run with tracing enabled executes the byte-identical
//! event sequence of the same run with tracing disabled. This crate holds
//! up its end by construction — nothing here reads a clock, draws
//! randomness, spawns a thread or touches I/O. An event's timestamp is
//! whatever the *host* runtime already computed for its own schedule (the
//! simulator's virtual clock, the TCP node's elapsed wall time), so
//! pushing an event is a pure data-structure append.
//!
//! # Model
//!
//! A [`TraceEvent`] names one lifecycle step of one cast message,
//! identified by its [`CastKey`] `(caster, seq)` — the same `(origin,
//! seq)` pair `wamcast_types::MessageId` is built from, kept as raw
//! integers here so this crate depends on nothing. The [`Phase`] vocabulary
//! spans the full Algorithm A1/A2 lifecycle: cast → reliable-multicast
//! send/receive → timestamp exchange → consensus propose/accept/decide →
//! deliver → SMR apply, plus crash bookkeeping and a generic protocol-send
//! fallback for arms that do not classify their wire messages.
//!
//! Events accumulate in a [`TraceRing`]: a bounded ring buffer (the
//! *flight recorder*) that evicts oldest-first, so a long-lived node holds
//! the most recent window of its own history at a fixed memory cost —
//! exactly what a post-mortem after a `kill -9` wants.
//!
//! # Export
//!
//! * [`TraceRing::dump`] / [`render_events`] — the line-oriented text
//!   format (one event per line, stable vocabulary) that travels over the
//!   control plane and is pasted into failure artifacts;
//! * [`chrome_trace`] — Chrome `trace_event` JSON (open in
//!   `chrome://tracing` or Perfetto);
//! * [`narrative`] — the violation-forensics view: one cast's events as a
//!   minimal ordered story;
//! * [`validate_json`] — a dependency-free JSON syntax checker so tests
//!   and CI can assert the Chrome export parses without a JSON library.

use std::collections::VecDeque;
use std::fmt::Write as _;

/// The cast a trace event is about: `(caster process, per-caster seq)` —
/// the raw form of `wamcast_types::MessageId`, kept dependency-free.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CastKey {
    /// Index of the process that cast the message.
    pub caster: u32,
    /// The caster's per-origin sequence number.
    pub seq: u64,
}

impl CastKey {
    /// Builds the key for the `seq`-th cast of process `caster`.
    pub fn new(caster: u32, seq: u64) -> Self {
        CastKey { caster, seq }
    }
}

impl std::fmt::Display for CastKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.caster, self.seq)
    }
}

/// One lifecycle step of a cast message. The vocabulary covers both paper
/// algorithms end to end; arms that do not classify their wire traffic
/// fall back to the generic `MsgSend`/`MsgRecv` pair, so *every* hosted
/// protocol gets cast/arrival/deliver events for free and classified arms
/// additionally get the consensus/timestamp structure.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// The application handed the message to `A-XCast` here.
    Cast,
    /// Reliable-multicast dissemination copy leaving this node.
    RmcastSend,
    /// Reliable-multicast dissemination copy arriving at this node.
    RmcastRecv,
    /// A `(TS, m)` timestamp-exchange message leaving this node.
    TsSend,
    /// A `(TS, m)` timestamp-exchange message arriving at this node.
    TsRecv,
    /// Consensus proposal traffic (forward/prepare/promise) leaving here.
    ProposeSend,
    /// Consensus proposal traffic arriving here.
    ProposeRecv,
    /// Consensus accept (phase-2a) traffic leaving here.
    AcceptSend,
    /// Consensus accept traffic arriving here.
    AcceptRecv,
    /// Decision-carrying traffic (phase-2b / learn) leaving here.
    DecideSend,
    /// Decision-carrying traffic arriving here.
    DecideRecv,
    /// Unclassified protocol message leaving this node.
    MsgSend,
    /// Unclassified protocol message arriving at this node.
    MsgRecv,
    /// The protocol A-Delivered the message at this node.
    Deliver,
    /// A hosted state machine applied the delivered message.
    SmrApply,
    /// This node crashed (simulator fault plan).
    Crash,
    /// This node was notified that some process crashed.
    CrashNotice,
}

impl Phase {
    /// Stable lowercase name (the text dump / Chrome `name` vocabulary).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Cast => "cast",
            Phase::RmcastSend => "rmcast-send",
            Phase::RmcastRecv => "rmcast-recv",
            Phase::TsSend => "ts-send",
            Phase::TsRecv => "ts-recv",
            Phase::ProposeSend => "propose-send",
            Phase::ProposeRecv => "propose-recv",
            Phase::AcceptSend => "accept-send",
            Phase::AcceptRecv => "accept-recv",
            Phase::DecideSend => "decide-send",
            Phase::DecideRecv => "decide-recv",
            Phase::MsgSend => "msg-send",
            Phase::MsgRecv => "msg-recv",
            Phase::Deliver => "deliver",
            Phase::SmrApply => "smr-apply",
            Phase::Crash => "crash",
            Phase::CrashNotice => "crash-notice",
        }
    }
}

/// One recorded event: *who* (node), *when* (the host runtime's own clock,
/// microseconds), *what* ([`Phase`]), *about which cast* (if attributable)
/// and *with whom* (the other endpoint of a send/receive, if any).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Timestamp in microseconds on the host runtime's clock (virtual
    /// time in the simulator, elapsed wall time on sockets).
    pub at_us: u64,
    /// The process this event happened at.
    pub node: u32,
    /// The lifecycle step.
    pub phase: Phase,
    /// The cast this event is attributable to, when known. Control events
    /// (crashes) and unclassifiable batches carry `None`.
    pub cast: Option<CastKey>,
    /// The other endpoint of a send (`to`) or receive (`from`), if any.
    pub peer: Option<u32>,
}

impl TraceEvent {
    /// Renders the event as one stable text line (no trailing newline):
    /// `t=<us>us n<node> <phase> [cast=<caster>:<seq>] [peer=n<p>]`.
    pub fn render(&self) -> String {
        let mut s = format!("t={}us n{} {}", self.at_us, self.node, self.phase.name());
        if let Some(c) = self.cast {
            let _ = write!(s, " cast={c}");
        }
        if let Some(p) = self.peer {
            let _ = write!(s, " peer=n{p}");
        }
        s
    }
}

/// The bounded flight recorder: a ring buffer of the most recent
/// [`TraceEvent`]s, evicting oldest-first at a fixed capacity.
///
/// Memory is bounded by construction (`capacity` events plus the deque's
/// spare), and eviction is order-preserving: after any push sequence the
/// ring holds exactly the suffix of what was pushed (property-tested
/// below). The count of evicted events is kept so a dump can say how much
/// history scrolled off.
#[derive(Clone, Debug, Default)]
pub struct TraceRing {
    cap: usize,
    buf: VecDeque<TraceEvent>,
    evicted: u64,
}

impl TraceRing {
    /// A recorder holding at most `capacity` events (0 records nothing).
    pub fn new(capacity: usize) -> Self {
        TraceRing {
            cap: capacity,
            buf: VecDeque::with_capacity(capacity.min(4096)),
            evicted: 0,
        }
    }

    /// Appends an event, evicting the oldest if the ring is full.
    pub fn push(&mut self, ev: TraceEvent) {
        if self.cap == 0 {
            self.evicted += 1;
            return;
        }
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.evicted += 1;
        }
        self.buf.push_back(ev);
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// How many events have been evicted (history that scrolled off).
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// The held events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> {
        self.buf.iter()
    }

    /// Clones the held events out, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.buf.iter().copied().collect()
    }

    /// The text dump: a header naming length/capacity/evictions, then one
    /// [`TraceEvent::render`] line per event, oldest first. This is the
    /// payload the control-plane trace pull ships and the `peer` binary
    /// prints on panic.
    pub fn dump(&self) -> String {
        let mut out = format!(
            "flight-recorder: {} event(s) held (capacity {}, {} evicted)\n",
            self.buf.len(),
            self.cap,
            self.evicted
        );
        for ev in &self.buf {
            out.push_str(&ev.render());
            out.push('\n');
        }
        out
    }
}

/// Renders a slice of events as dump-style lines (oldest-first order is
/// the caller's responsibility), one per line.
pub fn render_events(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for ev in events {
        out.push_str(&ev.render());
        out.push('\n');
    }
    out
}

/// The violation-forensics view: the ordered story of one cast, built
/// from whatever events mention it. Events are taken in slice order
/// (hosts record in schedule order) and stably partitioned by timestamp,
/// so the narrative reads start-to-finish even if several nodes' rings
/// were concatenated.
pub fn narrative(events: &[TraceEvent], key: CastKey) -> String {
    let mut mine: Vec<&TraceEvent> = events.iter().filter(|e| e.cast == Some(key)).collect();
    mine.sort_by_key(|e| e.at_us);
    if mine.is_empty() {
        return format!("causal timeline for cast {key}: no recorded events\n");
    }
    let mut out = format!(
        "causal timeline for cast {key} ({} event(s)):\n",
        mine.len()
    );
    for (i, ev) in mine.iter().enumerate() {
        let _ = writeln!(out, "  {:>3}. {}", i + 1, ev.render());
    }
    // Name where the story stops — the line a human reads first when the
    // question is "which step never happened?".
    let last = mine.last().expect("non-empty");
    let _ = writeln!(
        out,
        "  last recorded step: {} at n{} (t={}us)",
        last.phase.name(),
        last.node,
        last.at_us
    );
    out
}

/// Escapes a string for inclusion in a JSON string literal. The trace
/// vocabulary is ASCII identifiers and numbers, but the exporter escapes
/// anyway so arbitrary future detail text cannot corrupt the file.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Exports events as Chrome `trace_event` JSON (the "JSON Array Format"
/// wrapped in a `traceEvents` object), openable in `chrome://tracing` and
/// Perfetto. Each event becomes an instant event (`"ph":"i"`) with
/// `pid`/`tid` = the node id, `ts` in microseconds, the phase as `name`
/// and the cast key under `args` — so filtering by cast id in the viewer
/// shows one message's lifecycle across every node's track.
pub fn chrome_trace(events: &[TraceEvent]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, ev) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let name = match ev.cast {
            Some(c) => format!("{} {}", ev.phase.name(), c),
            None => ev.phase.name().to_string(),
        };
        let _ = write!(
            out,
            "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"i\",\"s\":\"p\",\"ts\":{},\"pid\":{},\"tid\":{},\"args\":{{",
            json_escape(&name),
            json_escape(ev.phase.name()),
            ev.at_us,
            ev.node,
            ev.node,
        );
        let mut first = true;
        if let Some(c) = ev.cast {
            let _ = write!(out, "\"cast\":\"{c}\"");
            first = false;
        }
        if let Some(p) = ev.peer {
            if !first {
                out.push(',');
            }
            let _ = write!(out, "\"peer\":{p}");
        }
        out.push_str("}}");
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

/// Validates that `text` is one syntactically well-formed JSON value
/// (plus trailing whitespace). Dependency-free on purpose: tests and CI
/// assert the [`chrome_trace`] export parses without pulling in a JSON
/// library the workspace has banned.
///
/// # Errors
///
/// Returns `"byte <offset>: <what>"` at the first syntax error.
pub fn validate_json(text: &str) -> Result<(), String> {
    let b = text.as_bytes();
    let mut at = 0usize;
    skip_ws(b, &mut at);
    value(b, &mut at)?;
    skip_ws(b, &mut at);
    if at != b.len() {
        return Err(format!("byte {at}: trailing content after JSON value"));
    }
    Ok(())
}

fn skip_ws(b: &[u8], at: &mut usize) {
    while *at < b.len() && matches!(b[*at], b' ' | b'\t' | b'\n' | b'\r') {
        *at += 1;
    }
}

fn expect(b: &[u8], at: &mut usize, lit: &str) -> Result<(), String> {
    if b[*at..].starts_with(lit.as_bytes()) {
        *at += lit.len();
        Ok(())
    } else {
        Err(format!("byte {at}: expected `{lit}`"))
    }
}

fn value(b: &[u8], at: &mut usize) -> Result<(), String> {
    skip_ws(b, at);
    match b.get(*at) {
        None => Err(format!("byte {at}: unexpected end of input")),
        Some(b'{') => {
            *at += 1;
            skip_ws(b, at);
            if b.get(*at) == Some(&b'}') {
                *at += 1;
                return Ok(());
            }
            loop {
                skip_ws(b, at);
                string(b, at)?;
                skip_ws(b, at);
                expect(b, at, ":")?;
                value(b, at)?;
                skip_ws(b, at);
                match b.get(*at) {
                    Some(b',') => *at += 1,
                    Some(b'}') => {
                        *at += 1;
                        return Ok(());
                    }
                    _ => return Err(format!("byte {at}: expected `,` or `}}` in object")),
                }
            }
        }
        Some(b'[') => {
            *at += 1;
            skip_ws(b, at);
            if b.get(*at) == Some(&b']') {
                *at += 1;
                return Ok(());
            }
            loop {
                value(b, at)?;
                skip_ws(b, at);
                match b.get(*at) {
                    Some(b',') => *at += 1,
                    Some(b']') => {
                        *at += 1;
                        return Ok(());
                    }
                    _ => return Err(format!("byte {at}: expected `,` or `]` in array")),
                }
            }
        }
        Some(b'"') => string(b, at),
        Some(b't') => expect(b, at, "true"),
        Some(b'f') => expect(b, at, "false"),
        Some(b'n') => expect(b, at, "null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => number(b, at),
        Some(c) => Err(format!("byte {at}: unexpected byte {:#04x}", c)),
    }
}

fn string(b: &[u8], at: &mut usize) -> Result<(), String> {
    expect(b, at, "\"")?;
    while let Some(&c) = b.get(*at) {
        match c {
            b'"' => {
                *at += 1;
                return Ok(());
            }
            b'\\' => {
                *at += 1;
                match b.get(*at) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *at += 1,
                    Some(b'u') => {
                        *at += 1;
                        for _ in 0..4 {
                            match b.get(*at) {
                                Some(h) if h.is_ascii_hexdigit() => *at += 1,
                                _ => return Err(format!("byte {at}: bad \\u escape")),
                            }
                        }
                    }
                    _ => return Err(format!("byte {at}: bad escape")),
                }
            }
            0x00..=0x1f => return Err(format!("byte {at}: raw control character in string")),
            _ => *at += 1,
        }
    }
    Err(format!("byte {at}: unterminated string"))
}

fn number(b: &[u8], at: &mut usize) -> Result<(), String> {
    let start = *at;
    if b.get(*at) == Some(&b'-') {
        *at += 1;
    }
    let mut digits = 0;
    while b.get(*at).is_some_and(u8::is_ascii_digit) {
        *at += 1;
        digits += 1;
    }
    if digits == 0 {
        return Err(format!("byte {start}: number has no digits"));
    }
    if b.get(*at) == Some(&b'.') {
        *at += 1;
        let mut frac = 0;
        while b.get(*at).is_some_and(u8::is_ascii_digit) {
            *at += 1;
            frac += 1;
        }
        if frac == 0 {
            return Err(format!("byte {at}: number has empty fraction"));
        }
    }
    if matches!(b.get(*at), Some(b'e' | b'E')) {
        *at += 1;
        if matches!(b.get(*at), Some(b'+' | b'-')) {
            *at += 1;
        }
        let mut exp = 0;
        while b.get(*at).is_some_and(u8::is_ascii_digit) {
            *at += 1;
            exp += 1;
        }
        if exp == 0 {
            return Err(format!("byte {at}: number has empty exponent"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at_us: u64, node: u32, phase: Phase, cast: Option<CastKey>) -> TraceEvent {
        TraceEvent {
            at_us,
            node,
            phase,
            cast,
            peer: None,
        }
    }

    #[test]
    fn ring_wraparound_is_bounded_and_oldest_first() {
        // Property: for any capacity and push count, the ring holds
        // exactly the newest `min(cap, n)` events in push order, and the
        // eviction counter accounts for the rest. A handful of (cap, n)
        // shapes — including n >> cap, n == cap, n < cap and cap == 1 —
        // covers the boundary arithmetic.
        for (cap, n) in [(4usize, 19u64), (8, 8), (8, 3), (1, 100), (16, 257)] {
            let mut ring = TraceRing::new(cap);
            for i in 0..n {
                ring.push(ev(i, 0, Phase::Cast, Some(CastKey::new(0, i))));
            }
            let held = ring.events();
            let expect_len = cap.min(n as usize);
            assert_eq!(held.len(), expect_len, "cap={cap} n={n}");
            assert_eq!(ring.len(), expect_len);
            assert_eq!(ring.evicted(), n - expect_len as u64, "cap={cap} n={n}");
            // Oldest-first: the survivors are exactly the final suffix.
            for (j, e) in held.iter().enumerate() {
                let want = n - expect_len as u64 + j as u64;
                assert_eq!(e.at_us, want, "cap={cap} n={n} slot {j}");
            }
            assert!(ring.capacity() == cap);
        }
        // Zero capacity records nothing but still counts.
        let mut z = TraceRing::new(0);
        z.push(ev(1, 0, Phase::Cast, None));
        assert!(z.is_empty());
        assert_eq!(z.evicted(), 1);
    }

    #[test]
    fn dump_and_narrative_name_the_cast() {
        let mut ring = TraceRing::new(16);
        let key = CastKey::new(1, 4);
        ring.push(ev(10, 1, Phase::Cast, Some(key)));
        ring.push(TraceEvent {
            at_us: 25,
            node: 0,
            phase: Phase::RmcastRecv,
            cast: Some(key),
            peer: Some(1),
        });
        ring.push(ev(40, 0, Phase::Deliver, Some(key)));
        ring.push(ev(41, 5, Phase::Deliver, Some(CastKey::new(2, 0))));
        let dump = ring.dump();
        assert!(dump.starts_with("flight-recorder: 4 event(s)"));
        assert!(dump.contains("t=25us n0 rmcast-recv cast=1:4 peer=n1"));

        let story = narrative(&ring.events(), key);
        assert!(story.contains("causal timeline for cast 1:4 (3 event(s))"));
        assert!(story.contains("1. t=10us n1 cast cast=1:4"));
        assert!(story.contains("last recorded step: deliver at n0 (t=40us)"));
        assert!(narrative(&ring.events(), CastKey::new(9, 9)).contains("no recorded events"));
    }

    #[test]
    fn chrome_export_is_valid_json() {
        let mut events = Vec::new();
        for i in 0..50u64 {
            events.push(TraceEvent {
                at_us: i * 7,
                node: (i % 6) as u32,
                phase: if i % 2 == 0 {
                    Phase::TsSend
                } else {
                    Phase::Deliver
                },
                cast: (i % 3 != 0).then(|| CastKey::new((i % 4) as u32, i)),
                peer: (i % 5 == 0).then(|| ((i + 1) % 6) as u32),
            });
        }
        let json = chrome_trace(&events);
        validate_json(&json).expect("chrome export must parse");
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\":\"i\""));
        // The empty export is valid too.
        validate_json(&chrome_trace(&[])).expect("empty export");
    }

    #[test]
    fn json_validator_accepts_and_rejects() {
        for good in [
            "null",
            " true ",
            "-0.5e+10",
            "[1, 2, [], {\"a\": \"b\\n\"}]",
            "{\"x\": [false, null], \"y\": {}}",
            "\"\\u00e9\"",
        ] {
            validate_json(good).unwrap_or_else(|e| panic!("{good:?}: {e}"));
        }
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "{\"a\": 1,}",
            "01x",
            "\"unterminated",
            "nul",
            "[1] extra",
            "1.",
            "1e",
            "\"bad \\q escape\"",
        ] {
            assert!(validate_json(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn phase_names_are_distinct() {
        let all = [
            Phase::Cast,
            Phase::RmcastSend,
            Phase::RmcastRecv,
            Phase::TsSend,
            Phase::TsRecv,
            Phase::ProposeSend,
            Phase::ProposeRecv,
            Phase::AcceptSend,
            Phase::AcceptRecv,
            Phase::DecideSend,
            Phase::DecideRecv,
            Phase::MsgSend,
            Phase::MsgRecv,
            Phase::Deliver,
            Phase::SmrApply,
            Phase::Crash,
            Phase::CrashNotice,
        ];
        let names: std::collections::BTreeSet<_> = all.iter().map(|p| p.name()).collect();
        assert_eq!(names.len(), all.len());
    }
}
