//! Metric names, the result line, and the JSON this package reads back.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the single list of what a run
//! reports; `tests/contract.rs` pins them against `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The four workloads, in the order `all` runs them.
pub const WORKLOADS: [&str; 4] = ["tcp_global", "tcp_kv", "sim_a1", "sim_a2"];

/// End-to-end metrics `(name, unit)`, reported by every untraced run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("lat_p50_ms", "ms"),
    ("cpu_us_per_op", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, reported by every traced run. A layer
/// a workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 53] = [
    ("layers.cpu_us_per_op", "us"),
    ("layers.unattributed_us_per_op", "us"),
    ("net.frames_per_op", "count"),
    ("net.bytes_per_op", "B"),
    ("net.hop_rtt_us", "us"),
    ("net.ctx_switches_per_op", "count"),
    ("net.sys_cpu_share", "ratio"),
    ("net.threads", "count"),
    ("wire.seal_ns_per_msg", "ns"),
    ("wire.open_ns_per_msg", "ns"),
    ("wire.bytes_per_msg", "B"),
    ("wire.codec_us_per_op", "us"),
    ("amcast.cast_ns", "ns"),
    ("amcast.ts_ns_per_msg", "ns"),
    ("amcast.timer_ns_per_op", "ns"),
    ("amcast.casts_per_batch", "count"),
    ("amcast.inter_msgs_per_op", "count"),
    ("amcast.intra_msgs_per_op", "count"),
    ("amcast.stage_ms.cast_to_ts", "ms"),
    ("amcast.stage_ms.ts_to_decide", "ms"),
    ("amcast.stage_ms.decide_to_deliver", "ms"),
    ("abcast.handler_ns_per_msg", "ns"),
    ("abcast.casts_per_bundle", "count"),
    ("abcast.inter_msgs_per_op", "count"),
    ("abcast.intra_msgs_per_op", "count"),
    ("consensus.ns_per_msg", "ns"),
    ("consensus.msgs_per_op", "count"),
    ("consensus.casts_per_instance", "count"),
    ("rmcast.ns_per_msg", "ns"),
    ("rmcast.msgs_per_op", "count"),
    ("rmcast.resends_per_op", "count"),
    ("sim.events_per_s", "1/s"),
    ("sim.steps_per_op", "count"),
    ("sim.engine_ns_per_step", "ns"),
    ("sim.queue_ns_per_event", "ns"),
    ("smr.apply_ns_per_op", "ns"),
    ("smr.encode_ns", "ns"),
    ("smr.decode_ns", "ns"),
    ("smr.payload_bytes", "B"),
    ("alloc.allocs_per_op", "count"),
    ("alloc.bytes_per_op", "B"),
    ("trace.overhead_pct", "%"),
    ("trace.push_ns", "ns"),
    ("trace.events_per_op", "count"),
    ("metrics.record_ns", "ns"),
    ("gen.late_p99_us", "us"),
    ("client.lat_p90_ms", "ms"),
    ("client.lat_p99_ms", "ms"),
    ("client.lat_p999_ms", "ms"),
    ("client.lat_max_ms", "ms"),
    ("client.ops_per_s", "1/s"),
    ("client.failed_ops", "count"),
    ("client.samples", "count"),
];

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Failed correctness or self-consistency checks (empty = correct).
    pub violations: Vec<String>,
    /// Operations attempted in the measured interval.
    pub attempted: u64,
    /// Of those, not committed (timed out, or undelivered at quiescence).
    pub failed: u64,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Free-form text for the human reader (the budget table).
    pub notes: String,
}

impl Outcome {
    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Requires `cond`, recording `what` as a violation otherwise.
    pub fn require(&mut self, cond: bool, what: impl FnOnce() -> String) {
        if !cond {
            self.violations.push(what());
        }
    }

    /// The check that would have caught a rate and a cost measured over
    /// different intervals: together they cannot use more processors than
    /// the box has.
    pub fn require_cpu_identity(&mut self, ops_per_s: f64, cpu_us_per_op: f64) {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
        self.require(ops_per_s * cpu_us_per_op <= nproc * 1.02e6, || {
            format!("{ops_per_s} ops/s x {cpu_us_per_op} us/op exceeds {nproc} processors")
        });
    }

    /// Reports 0 for every per-layer metric under one of `prefixes` that
    /// has no value yet: the layers this workload never enters.
    pub fn zero_unset(&mut self, prefixes: &[&str]) {
        for (name, _) in PER_LAYER {
            if prefixes.iter().any(|p| name.starts_with(p)) {
                self.values.entry(name).or_insert(0.0);
            }
        }
    }

    /// The metric list a run in this mode must report.
    pub fn spec(trace: bool) -> &'static [(&'static str, &'static str)] {
        if trace {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    /// The values in `spec` order; a missing or non-finite value is a
    /// violation (and prints as 0 so the line stays valid JSON).
    fn listed(&mut self, trace: bool) -> Vec<(&'static str, f64, &'static str)> {
        let mut out = Vec::new();
        for &(name, unit) in Self::spec(trace) {
            let v = match self.values.get(name) {
                Some(v) if v.is_finite() => *v,
                other => {
                    self.violations.push(format!(
                        "metric {name} not reported as a finite number ({other:?})"
                    ));
                    0.0
                }
            };
            out.push((name, v, unit));
        }
        out
    }

    /// Renders the human-readable block and the final JSON result line.
    pub fn render(&mut self, workload: &str, trace: bool) -> (String, String) {
        let listed = self.listed(trace);
        let mut text = format!(
            "workload {workload} ({}): attempted {} failed {}\n",
            if trace {
                "traced, per-layer"
            } else {
                "untraced, end-to-end"
            },
            self.attempted,
            self.failed
        );
        for (name, v, unit) in &listed {
            let _ = writeln!(text, "  {name:<36} {v:>16.4} {unit}");
        }
        text.push_str(&self.notes);
        for v in &self.violations {
            let _ = writeln!(text, "  VIOLATION: {v}");
        }
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.violations.is_empty(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, v, unit)) in listed.iter().enumerate() {
            if i > 0 {
                json.push_str(", ");
            }
            let _ = write!(json, "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
        }
        json.push_str("}}");
        (text, json)
    }
}

/// A parsed JSON value — just enough to read `BENCHMARK.json` and the
/// result lines this package writes.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON document.
    ///
    /// # Errors
    ///
    /// A description of the first syntax error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i != p.s.len() {
            return Err(format!("trailing data at byte {}", p.i));
        }
        Ok(v)
    }

    /// Member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements of an array (empty for anything else).
    pub fn items(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            _ => &[],
        }
    }

    /// The number, if this is one.
    pub fn num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        if self.s[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        let Some(&c) = self.s.get(self.i) else {
            return Err("unexpected end".into());
        };
        match c {
            b'n' if self.eat("null") => Ok(Json::Null),
            b't' if self.eat("true") => Ok(Json::Bool(true)),
            b'f' if self.eat("false") => Ok(Json::Bool(false)),
            b'"' => self.string().map(Json::Str),
            b'[' => {
                self.i += 1;
                let mut items = Vec::new();
                loop {
                    self.ws();
                    if self.eat("]") {
                        return Ok(Json::Arr(items));
                    }
                    if !items.is_empty() && !self.eat(",") {
                        return Err(format!("expected , or ] at byte {}", self.i));
                    }
                    items.push(self.value()?);
                }
            }
            b'{' => {
                self.i += 1;
                let mut members = Vec::new();
                loop {
                    self.ws();
                    if self.eat("}") {
                        return Ok(Json::Obj(members));
                    }
                    if !members.is_empty() {
                        if !self.eat(",") {
                            return Err(format!("expected , or }} at byte {}", self.i));
                        }
                        self.ws();
                    }
                    let key = self.string()?;
                    self.ws();
                    if !self.eat(":") {
                        return Err(format!("expected : at byte {}", self.i));
                    }
                    members.push((key, self.value()?));
                }
            }
            _ => {
                let start = self.i;
                while self
                    .s
                    .get(self.i)
                    .is_some_and(|c| matches!(c, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
                {
                    self.i += 1;
                }
                std::str::from_utf8(&self.s[start..self.i])
                    .ok()
                    .and_then(|t| t.parse().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad token at byte {start}"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(format!("expected string at byte {}", self.i));
        }
        let mut out = Vec::new();
        loop {
            let Some(&c) = self.s.get(self.i) else {
                return Err("unterminated string".into());
            };
            self.i += 1;
            match c {
                b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                b'\\' => {
                    let Some(&e) = self.s.get(self.i) else {
                        return Err("unterminated escape".into());
                    };
                    self.i += 1;
                    match e {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'u' => {
                            let hex = self
                                .s
                                .get(self.i..self.i + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or("bad \\u escape")?;
                            self.i += 4;
                            out.extend_from_slice(hex.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        other => out.push(other), // \" \\ \/
                    }
                }
                c => out.push(c),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips_through_the_parser() {
        let mut o = Outcome {
            attempted: 10,
            failed: 1,
            ..Outcome::default()
        };
        for (name, _) in END_TO_END {
            o.set(name, 1.25);
        }
        let (text, line) = o.render("w", false);
        assert!(text.contains("lat_p50_ms"));
        let v = Json::parse(&line).expect("valid JSON");
        assert_eq!(v.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(v.get("failed").and_then(Json::num), Some(1.0));
        let m = v.get("metrics").expect("metrics");
        let lat = m.get("lat_p50_ms").expect("listed");
        assert_eq!(lat.get("value").and_then(Json::num), Some(1.25));
        assert_eq!(lat.get("unit").and_then(Json::str), Some("ms"));
    }

    #[test]
    fn missing_metric_is_a_violation() {
        let mut o = Outcome::default();
        let (_, line) = o.render("w", false);
        assert!(!o.violations.is_empty());
        let v = Json::parse(&line).expect("still valid JSON");
        assert_eq!(v.get("correct"), Some(&Json::Bool(false)));
    }

    #[test]
    fn parser_handles_nesting_and_rejects_garbage() {
        let v = Json::parse(r#"{"a": [1, 2.5, {"b": "x\"y"}], "c": null}"#).expect("parses");
        assert_eq!(v.get("a").map(|a| a.items().len()), Some(3));
        assert_eq!(
            v.get("a")
                .and_then(|a| a.items()[2].get("b"))
                .and_then(Json::str),
            Some("x\"y")
        );
        assert!(Json::parse("{\"a\": }").is_err());
        assert!(Json::parse("[1, 2").is_err());
        assert!(Json::parse("{} x").is_err());
    }
}
