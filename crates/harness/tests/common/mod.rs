//! Shared fingerprinting for the determinism test suites
//! (`engine_determinism.rs`, `trace_neutrality.rs`): an FNV-1a hash over
//! every recorded observable of a run's [`RunMetrics`].

#![allow(dead_code)] // each test binary uses its own subset

use wamcast_sim::RunMetrics;

/// Incremental FNV-1a over little-endian `u64`s.
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// Hashes every observable field of the metrics, in a fixed order: casts
/// (caster, destinations, time, stamp), deliveries (process, time,
/// stamp), per-process delivery sequences, send counters, sent/received
/// flags, adversary counters and end/last-send times.
pub fn fingerprint(m: &RunMetrics) -> u64 {
    let mut h = Fnv::new();
    h.u64(m.steps);
    h.u64(m.intra_sends);
    h.u64(m.inter_sends);
    h.u64(m.dropped_sends);
    h.u64(m.duplicated_sends);
    h.u64(m.end_time.as_nanos());
    h.u64(m.last_send_time.as_nanos());
    for (id, c) in &m.casts {
        h.u64(id.origin.index() as u64);
        h.u64(id.seq);
        h.u64(c.caster.index() as u64);
        for g in c.dest.iter() {
            h.u64(g.0 as u64);
        }
        h.u64(c.time.as_nanos());
        h.u64(c.stamp);
    }
    for (id, per_proc) in m.deliveries.iter() {
        h.u64(id.origin.index() as u64);
        h.u64(id.seq);
        for (p, d) in per_proc.iter() {
            h.u64(p.index() as u64);
            h.u64(d.time.as_nanos());
            h.u64(d.stamp);
        }
    }
    for seq in &m.delivered_seq {
        h.u64(seq.len() as u64);
        for id in seq {
            h.u64(id.origin.index() as u64);
            h.u64(id.seq);
        }
    }
    for &b in &m.sent_any {
        h.u64(b as u64);
    }
    for &b in &m.received_any {
        h.u64(b as u64);
    }
    h.0
}
