//! What the traced runs read out of the public flight recorder: per-cast
//! stage times, and the trace file.

use crate::stats;
use crate::timed::Span;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use wamcast_trace::{chrome_trace, CastKey, Phase, TraceEvent};

/// Flight-recorder capacity of the traced runs (events).
pub const RING_CAP: usize = 1 << 20;

/// Recorder events written to the trace file (the most recent ones; a
/// full ring would be a few hundred MB of JSON).
const FILE_EVENTS: usize = 50_000;

/// Median stage times of the casts whose whole life is in `events`, in
/// the recorder's milliseconds: cast → first `(TS, m)` send anywhere, that
/// → last decision anyone saw before the last delivery, that → last
/// delivery. Every node must stamp on one clock (the simulator does; the
/// probed socket clusters share a `WallFaults` epoch for this).
///
/// A cast with no timestamp exchange (A1's single-group fast path) has a
/// zero first stage, and its second stage runs from the cast.
pub fn stage_medians_ms(events: &[TraceEvent]) -> [f64; 3] {
    #[derive(Default)]
    struct Marks {
        cast: Option<u64>,
        first_ts: Option<u64>,
        deliver: Option<u64>,
        decide: Option<u64>,
    }
    let mut marks: HashMap<CastKey, Marks> = HashMap::new();
    for ev in events {
        let Some(key) = ev.cast else {
            continue;
        };
        let m = marks.entry(key).or_default();
        match ev.phase {
            Phase::Cast => m.cast = Some(ev.at_us),
            Phase::TsSend => m.first_ts = Some(m.first_ts.map_or(ev.at_us, |t| t.min(ev.at_us))),
            Phase::Deliver => m.deliver = Some(m.deliver.map_or(ev.at_us, |t| t.max(ev.at_us))),
            _ => {}
        }
    }
    for ev in events {
        if !matches!(ev.phase, Phase::DecideRecv | Phase::DecideSend) {
            continue;
        }
        if let Some(m) = ev.cast.and_then(|key| marks.get_mut(&key)) {
            if m.deliver.is_some_and(|d| ev.at_us <= d) {
                m.decide = Some(m.decide.map_or(ev.at_us, |t| t.max(ev.at_us)));
            }
        }
    }
    let mut stages: [Vec<f64>; 3] = Default::default();
    for m in marks.values() {
        let (Some(cast), Some(decide), Some(deliver)) = (m.cast, m.decide, m.deliver) else {
            continue; // partly evicted, or still in flight
        };
        let ts = m.first_ts.unwrap_or(cast).clamp(cast, decide);
        for (stage, (from, to)) in
            stages
                .iter_mut()
                .zip([(cast, ts), (ts, decide), (decide, deliver)])
        {
            stage.push(to.saturating_sub(from) as f64 / 1e3);
        }
    }
    stages.map(stats::median)
}

/// Renders the trace file: Chrome `trace_event` JSON holding the
/// benchmark's handler spans (complete events, one track per node) and the
/// tail of the recorder's per-cast lifecycle events (instant events
/// carrying the cast key that ties one operation together).
pub fn render_trace_file(events: &[TraceEvent], spans: &[Span]) -> String {
    let tail = &events[events.len().saturating_sub(FILE_EVENTS)..];
    let exported = chrome_trace(tail);
    let head = "{\"traceEvents\":[";
    let rest = exported
        .strip_prefix(head)
        .expect("chrome_trace's documented envelope");
    let mut out = String::from(head);
    for (i, s) in spans.iter().enumerate() {
        let _ = write!(
            out,
            "{}\n{{\"name\":\"{}\",\"cat\":\"handler\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":{}}}",
            if i > 0 { "," } else { "" },
            s.what,
            s.start_us,
            s.dur_ns as f64 / 1e3,
            s.node,
            s.node,
        );
    }
    if !spans.is_empty() && !tail.is_empty() {
        out.push(',');
    }
    out.push_str(rest);
    out
}

/// Writes [`render_trace_file`] to `DIR/<workload>.trace.json`.
///
/// # Errors
///
/// Any error creating the directory or writing the file.
pub fn write_trace_file(
    dir: &Path,
    workload: &str,
    events: &[TraceEvent],
    spans: &[Span],
) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(
        dir.join(format!("{workload}.trace.json")),
        render_trace_file(events, spans),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at_us: u64, node: u32, phase: Phase, seq: u64) -> TraceEvent {
        TraceEvent {
            at_us,
            node,
            phase,
            cast: Some(CastKey::new(0, seq)),
            peer: None,
        }
    }

    #[test]
    fn stages_split_a_cast_at_first_ts_and_last_decide() {
        let events = [
            ev(1_000, 0, Phase::Cast, 7),
            ev(2_000, 0, Phase::DecideRecv, 7),
            ev(3_000, 0, Phase::TsSend, 7),
            ev(3_500, 1, Phase::TsSend, 7),
            ev(6_000, 1, Phase::DecideRecv, 7),
            ev(7_000, 0, Phase::Deliver, 7),
            ev(8_000, 1, Phase::Deliver, 7),
            ev(9_000, 1, Phase::DecideRecv, 7), // after delivery: ignored
            ev(500, 0, Phase::Deliver, 8),      // cast evicted: skipped
        ];
        assert_eq!(stage_medians_ms(&events), [2.0, 3.0, 2.0]);
    }

    #[test]
    fn fast_path_cast_has_no_ts_stage() {
        let events = [
            ev(100, 0, Phase::Cast, 1),
            ev(400, 0, Phase::DecideRecv, 1),
            ev(500, 0, Phase::Deliver, 1),
        ];
        assert_eq!(stage_medians_ms(&events), [0.0, 0.3, 0.1]);
    }

    #[test]
    fn trace_file_is_valid_json_in_every_shape() {
        let span = Span {
            node: 2,
            start_us: 10,
            dur_ns: 1500,
            what: "cast",
        };
        let events = [ev(1, 0, Phase::Cast, 1)];
        for (evs, spans) in [
            (&events[..], &[span, span][..]),
            (&events[..], &[][..]),
            (&[][..], &[span][..]),
            (&[][..], &[][..]),
        ] {
            let text = render_trace_file(evs, spans);
            wamcast_trace::validate_json(&text).unwrap_or_else(|e| panic!("{e}: {text}"));
        }
    }
}
