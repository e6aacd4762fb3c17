//! From probe tallies to per-layer metrics and the CPU budget table.

use crate::report::Outcome;
use crate::timed::{class_index, ClassTally, Tallies};
use std::fmt::Write as _;
use wamcast_types::MsgClass;

/// Which ordering algorithm a workload hosts (decides whether the handler
/// numbers are reported under `amcast.*` or `abcast.*`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algo {
    /// Algorithm A1, genuine atomic multicast.
    A1,
    /// Algorithm A2, round-based atomic broadcast.
    A2,
}

/// `a / b`, or 0 when nothing was counted.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

fn class(t: &Tallies, c: MsgClass) -> &ClassTally {
    &t.class[class_index(c)]
}

/// Remote copies (the ones that cross a link) of a class.
fn remote(c: &ClassTally) -> f64 {
    (c.intra_copies + c.inter_copies) as f64
}

/// One row of the budget table: microseconds of CPU per committed op.
pub type Row = (&'static str, f64);

/// Sets every `amcast.*` / `abcast.*` / `consensus.*` / `rmcast.*` metric
/// from the merged tallies of a traced interval in which `ops` operations
/// committed, and returns the handler rows of the budget table.
///
/// Message *counts* per op are left to the caller (the simulator has exact
/// ones; sockets use [`copies_per_op`]).
pub fn protocol_layers(out: &mut Outcome, t: &Tallies, ops: f64, algo: Algo) -> Vec<Row> {
    let ts = class(t, MsgClass::Ts);
    let rm = class(t, MsgClass::Rmcast);
    let accept = class(t, MsgClass::Accept);
    let cons = [MsgClass::Propose, MsgClass::Accept, MsgClass::Decide].map(|c| class(t, c));
    let cons_recv = cons
        .iter()
        .fold(Default::default(), |a: crate::timed::Calls, c| {
            a.plus(c.recv)
        });
    let cons_copies: f64 = cons.iter().map(|c| remote(c)).sum();
    let all = t.messages();
    let a1 = algo == Algo::A1;
    let on = |yes: bool, v: f64| if yes { v } else { 0.0 };

    out.set(
        "amcast.cast_ns",
        on(a1, ratio(t.cast.ns as f64, t.cast.n as f64)),
    );
    out.set(
        "amcast.ts_ns_per_msg",
        on(a1, ratio(ts.recv.ns as f64, ts.recv.n as f64)),
    );
    out.set(
        "amcast.timer_ns_per_op",
        on(a1, ratio(t.timer.ns as f64, ops)),
    );
    out.set(
        "amcast.casts_per_batch",
        on(a1, ratio(ts.action_casts as f64, ts.actions as f64)),
    );
    out.set(
        "abcast.handler_ns_per_msg",
        on(!a1, ratio(all.ns as f64, all.n as f64)),
    );
    out.set(
        "abcast.casts_per_bundle",
        on(!a1, ratio(ts.action_casts as f64, ts.actions as f64)),
    );
    out.set(
        "consensus.ns_per_msg",
        ratio(cons_recv.ns as f64, cons_recv.n as f64),
    );
    out.set("consensus.msgs_per_op", ratio(cons_copies, ops));
    out.set(
        "consensus.casts_per_instance",
        ratio(accept.action_casts as f64, accept.actions as f64),
    );
    out.set(
        "rmcast.ns_per_msg",
        ratio(rm.recv.ns as f64, rm.recv.n as f64),
    );
    out.set("rmcast.msgs_per_op", ratio(remote(rm), ops));
    out.set("rmcast.resends_per_op", ratio(rm.timer_copies as f64, ops));

    let us = |ns: u64| ratio(ns as f64 / 1e3, ops);
    let other = class(t, MsgClass::Other);
    vec![
        (
            if a1 {
                "amcast on_cast"
            } else {
                "abcast on_cast"
            },
            us(t.cast.ns),
        ),
        (
            if a1 {
                "amcast (TS,m) msgs"
            } else {
                "abcast bundle msgs"
            },
            us(ts.recv.ns),
        ),
        (
            if a1 {
                "amcast on_timer"
            } else {
                "abcast on_timer"
            },
            us(t.timer.ns),
        ),
        ("rmcast msgs", us(rm.recv.ns)),
        ("consensus msgs", us(cons_recv.ns)),
        ("unclassified msgs + start", us(other.recv.ns + t.other.ns)),
    ]
}

/// Inter- and intra-group copies per op as the probes counted them
/// (self-addressed copies excluded: they never cross a link).
pub fn copies_per_op(t: &Tallies, ops: f64) -> (f64, f64) {
    let inter: u64 = t.class.iter().map(|c| c.inter_copies).sum();
    let intra: u64 = t.class.iter().map(|c| c.intra_copies).sum();
    (ratio(inter as f64, ops), ratio(intra as f64, ops))
}

/// Reports message counts per op under the algorithm's own prefix.
pub fn set_msgs_per_op(out: &mut Outcome, algo: Algo, inter: f64, intra: f64) {
    let (a1_inter, a1_intra, a2_inter, a2_intra) = match algo {
        Algo::A1 => (inter, intra, 0.0, 0.0),
        Algo::A2 => (0.0, 0.0, inter, intra),
    };
    out.set("amcast.inter_msgs_per_op", a1_inter);
    out.set("amcast.intra_msgs_per_op", a1_intra);
    out.set("abcast.inter_msgs_per_op", a2_inter);
    out.set("abcast.intra_msgs_per_op", a2_intra);
}

/// Closes the budget: sets `layers.cpu_us_per_op` to `cpu_us_per_op` (the
/// untraced figure the rows are set against), `layers.unattributed_us_per_op`
/// to what the rows leave over, and appends the table to the notes.
pub fn budget(out: &mut Outcome, rows: &[Row], cpu_us_per_op: f64) {
    let attributed: f64 = rows.iter().map(|r| r.1).sum();
    let rest = cpu_us_per_op - attributed;
    out.set("layers.cpu_us_per_op", cpu_us_per_op);
    out.set("layers.unattributed_us_per_op", rest);
    let _ = writeln!(out.notes, "  CPU budget, us per committed op:");
    for (name, us) in rows.iter().copied().chain([("unattributed", rest)]) {
        let _ = writeln!(
            out.notes,
            "    {name:<28} {us:>10.3}  {:>5.1} %",
            ratio(100.0 * us, cpu_us_per_op)
        );
    }
    let _ = writeln!(
        out.notes,
        "    {:<28} {cpu_us_per_op:>10.3}  100.0 %  (= cpu_us_per_op of the untraced phase)",
        "total"
    );
}
