//! The history-based consistency checker.
//!
//! A run of the KV service produces three artifacts: the client-side
//! *history* (which commands were invoked when, and what they answered),
//! the per-replica *apply logs*, and the per-replica *digests*. This module
//! checks them against the service-level contract that genuine atomic
//! multicast is supposed to buy:
//!
//! 1. **Replica agreement** — within each shard, every correct replica
//!    applied the same command sequence and ends with the same digest
//!    (state-machine replication inside the shard);
//! 2. **Cross-shard atomicity** — a command addressed to several shards is
//!    applied by all of them or by none (all-or-nothing, and certainly by
//!    all once a client saw its response);
//! 3. **Per-key linearizability** — single-shard commands on one key,
//!    whose invocation/response windows do not overlap, are applied in
//!    their real-time order, and every response matches an independent
//!    sequential replay of the shard's apply log;
//! 4. **Cross-shard serializability** — the union of the per-shard apply
//!    orders is acyclic: some global sequential order explains what every
//!    shard did. (Real-time order across *different* shards is deliberately
//!    not required — genuine multicast orders only the groups a message
//!    touches, so disjoint commands may serialize against the wall clock;
//!    see DESIGN.md §7.)
//!
//! The checker is intentionally independent of the protocol stack: it
//! replays commands through a fresh [`KvStateMachine`] and compares, so a
//! bug anywhere between delivery and apply (see
//! [`ApplyBug`](crate::ApplyBug)) surfaces as a concrete violation string
//! rather than a silently wrong table.

use crate::{AppliedOp, Command, KvStateMachine, Response, ShardMap};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use wamcast_types::{GroupId, GroupSet, MessageId, ProcessId, SimTime};

/// One client-visible operation of the history.
#[derive(Clone, Debug)]
pub struct OpRecord {
    /// The multicast id the command rode on (globally unique).
    pub id: MessageId,
    /// The command.
    pub cmd: Command,
    /// Destination shards (owners of the touched keys).
    pub dest: GroupSet,
    /// Client that issued it (driver bookkeeping; not checked).
    pub client: usize,
    /// When the client invoked it.
    pub invoked_at: SimTime,
    /// When the responder shard's reply was observed; `None` if the client
    /// gave up (op may or may not have committed).
    pub responded_at: Option<SimTime>,
    /// The observed response, if any.
    pub response: Option<Response>,
}

impl OpRecord {
    /// Whether the client saw this op commit.
    pub fn committed(&self) -> bool {
        self.response.is_some()
    }
}

/// The apply log and digest one correct replica reported.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplicaLog {
    /// The replica.
    pub process: ProcessId,
    /// Its shard.
    pub group: GroupId,
    /// Its apply log, in apply order.
    pub applied: Vec<AppliedOp>,
    /// Its final digest.
    pub digest: u64,
    /// Payloads it failed to decode (0 in a healthy run).
    pub decode_errors: u64,
}

impl ReplicaLog {
    /// Snapshots a replica's observable state into a log record.
    pub fn capture(process: ProcessId, kv: &KvStateMachine) -> Self {
        ReplicaLog {
            process,
            group: kv.group(),
            applied: kv.log(),
            digest: kv.digest(),
            decode_errors: kv.decode_errors(),
        }
    }
}

/// A complete recorded run: client history plus replica observations.
#[derive(Clone, Debug)]
pub struct History {
    /// The shard map the run used.
    pub shards: ShardMap,
    /// Client-visible operations, in invocation order.
    pub ops: Vec<OpRecord>,
    /// Logs of the replicas that were correct at the end of the run
    /// (crashed replicas stopped mid-sequence and are not comparable).
    pub replicas: Vec<ReplicaLog>,
}

impl History {
    /// Number of ops the clients saw commit.
    pub fn committed(&self) -> usize {
        self.ops.iter().filter(|o| o.committed()).count()
    }
}

/// The shard that answers a command: the key's owner for single-key
/// commands, the lowest-numbered destination shard otherwise (multi-shard
/// commands are unconditional, so any addressed shard knows the answer).
pub fn responder_shard(shards: &ShardMap, cmd: &Command, dest: GroupSet) -> GroupId {
    match cmd {
        Command::Get { key } | Command::Put { key, .. } | Command::Incr { key, .. } => {
            shards.owner(*key)
        }
        Command::MultiPut { .. } | Command::Transfer { .. } => {
            dest.iter().next().expect("non-empty destination")
        }
    }
}

/// Outcome of a history check.
#[derive(Clone, Debug, Default)]
pub struct HistoryReport {
    /// Everything that failed, one line each (empty = the history is
    /// consistent).
    pub violations: Vec<String>,
    /// Ops in the client history.
    pub ops: usize,
    /// Ops the clients saw commit.
    pub committed: usize,
    /// Shards with at least one correct replica (all were checked).
    pub shards_checked: usize,
}

impl HistoryReport {
    /// Whether every check passed.
    pub fn is_ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Panics with all violations if any check failed (test ergonomics).
    ///
    /// # Panics
    ///
    /// Panics iff `!self.is_ok()`.
    pub fn assert_ok(&self) {
        assert!(
            self.is_ok(),
            "history checker found {} violation(s):\n  {}",
            self.violations.len(),
            self.violations.join("\n  ")
        );
    }
}

/// Checks a recorded history; see the [module docs](self) for the property
/// list.
pub fn check(h: &History) -> HistoryReport {
    let mut report = HistoryReport {
        ops: h.ops.len(),
        committed: h.committed(),
        ..HistoryReport::default()
    };
    let v = &mut report.violations;

    // Index the client history.
    let mut ops_by_id: BTreeMap<MessageId, &OpRecord> = BTreeMap::new();
    for op in &h.ops {
        if ops_by_id.insert(op.id, op).is_some() {
            v.push(format!("history: duplicate op id {}", op.id));
        }
    }

    // 1. Replica agreement per shard → one canonical log per shard.
    let mut by_shard: BTreeMap<GroupId, Vec<&ReplicaLog>> = BTreeMap::new();
    for r in &h.replicas {
        if r.decode_errors > 0 {
            v.push(format!(
                "replica {}: {} undecodable payload(s)",
                r.process, r.decode_errors
            ));
        }
        by_shard.entry(r.group).or_default().push(r);
    }
    report.shards_checked = by_shard.len();
    let mut canonical: BTreeMap<GroupId, &[AppliedOp]> = BTreeMap::new();
    for (g, replicas) in &by_shard {
        let first = replicas[0];
        for r in &replicas[1..] {
            let same_seq = r.applied.len() == first.applied.len()
                && r.applied
                    .iter()
                    .zip(&first.applied)
                    .all(|(a, b)| a.id == b.id && a.response == b.response);
            if !same_seq {
                v.push(format!(
                    "shard {g}: replicas {} and {} disagree on the apply sequence \
                     ({} vs {} ops{})",
                    first.process,
                    r.process,
                    first.applied.len(),
                    r.applied.len(),
                    first_divergence(&first.applied, &r.applied)
                        .map(|i| format!(", first divergence at index {i}"))
                        .unwrap_or_default(),
                ));
            } else if r.digest != first.digest {
                v.push(format!(
                    "shard {g}: replicas {} and {} applied the same sequence but report \
                     different digests ({:#018x} vs {:#018x})",
                    first.process, r.process, first.digest, r.digest
                ));
            }
        }
        canonical.insert(*g, first.applied.as_slice());
    }

    // Per-log sanity: known ops, addressed shard, no duplicate applies.
    for (g, log) in &canonical {
        let mut seen: BTreeSet<MessageId> = BTreeSet::new();
        for a in log.iter() {
            if !seen.insert(a.id) {
                v.push(format!("shard {g}: op {} applied more than once", a.id));
            }
            match ops_by_id.get(&a.id) {
                None => v.push(format!(
                    "shard {g}: applied unknown op {} (not in the client history)",
                    a.id
                )),
                Some(op) => {
                    if !op.dest.contains(*g) {
                        v.push(format!(
                            "genuineness: shard {g} applied op {} addressed to {:?}",
                            a.id, op.dest
                        ));
                    }
                }
            }
        }
    }

    // 2. Cross-shard atomicity: applied anywhere (or committed) ⇒ applied
    // by every addressed shard.
    let applied_at: BTreeMap<GroupId, BTreeSet<MessageId>> = canonical
        .iter()
        .map(|(g, log)| (*g, log.iter().map(|a| a.id).collect()))
        .collect();
    for op in &h.ops {
        let shards_applying: Vec<GroupId> = op
            .dest
            .iter()
            .filter(|g| applied_at.get(g).is_some_and(|s| s.contains(&op.id)))
            .collect();
        let addressed_with_replicas: Vec<GroupId> = op
            .dest
            .iter()
            .filter(|g| canonical.contains_key(g))
            .collect();
        if op.committed() && shards_applying.len() < addressed_with_replicas.len() {
            v.push(format!(
                "atomicity: committed op {} ({}) applied by {:?} but addressed to {:?}",
                op.id,
                op.cmd.name(),
                shards_applying,
                addressed_with_replicas
            ));
        } else if !op.committed()
            && !shards_applying.is_empty()
            && shards_applying.len() < addressed_with_replicas.len()
        {
            v.push(format!(
                "atomicity: unacknowledged op {} ({}) applied by only {:?} of {:?}",
                op.id,
                op.cmd.name(),
                shards_applying,
                addressed_with_replicas
            ));
        }
    }

    // 3a. Sequential replay per shard: recorded responses and digests must
    // match a fresh machine fed the canonical log.
    for (g, log) in &canonical {
        let mut replay = KvStateMachine::new(*g, h.shards);
        for a in log.iter() {
            let Some(op) = ops_by_id.get(&a.id) else {
                continue; // already reported as unknown
            };
            let r = replay.apply_command(a.id, a.dest, &op.cmd);
            if r != a.response {
                v.push(format!(
                    "replay: shard {g} recorded {} for op {} ({}) but sequential replay \
                     of its own log yields {}",
                    a.response,
                    a.id,
                    op.cmd.name(),
                    r
                ));
            }
        }
        let reported = by_shard[g][0].digest;
        if replay.digest() != reported {
            v.push(format!(
                "replay: shard {g} digest {reported:#018x} does not match replay \
                 digest {:#018x}",
                replay.digest()
            ));
        }
    }

    // 3b. Client responses must equal the responder shard's recorded ones.
    for op in &h.ops {
        let Some(resp) = op.response else { continue };
        let responder = responder_shard(&h.shards, &op.cmd, op.dest);
        let Some(log) = canonical.get(&responder) else {
            continue;
        };
        match log.iter().find(|a| a.id == op.id) {
            Some(a) if a.response != resp => v.push(format!(
                "response: client observed {} for op {} ({}) but shard {responder} \
                 recorded {}",
                resp,
                op.id,
                op.cmd.name(),
                a.response
            )),
            // `None` is already an atomicity violation (committed but not
            // applied at an addressed shard).
            _ => {}
        }
    }

    // 3c. Per-key real-time order of single-shard ops.
    check_per_key_realtime(h, &canonical, v);

    // 4. Cross-shard serializability: the union of per-shard apply orders
    // must admit a topological order.
    check_serializability(&canonical, v);

    report
}

/// Index of the first position where two apply logs differ.
fn first_divergence(a: &[AppliedOp], b: &[AppliedOp]) -> Option<usize> {
    a.iter()
        .zip(b)
        .position(|(x, y)| x.id != y.id || x.response != y.response)
        .or_else(|| (a.len() != b.len()).then(|| a.len().min(b.len())))
}

fn check_per_key_realtime(
    h: &History,
    canonical: &BTreeMap<GroupId, &[AppliedOp]>,
    v: &mut Vec<String>,
) {
    // Collect single-shard ops per key with (apply position, times).
    struct Entry<'a> {
        op: &'a OpRecord,
        pos: usize,
    }
    let mut per_key: BTreeMap<u64, Vec<Entry<'_>>> = BTreeMap::new();
    for op in &h.ops {
        let key = match op.cmd {
            Command::Get { key } | Command::Put { key, .. } | Command::Incr { key, .. } => key,
            _ => continue,
        };
        let owner = h.shards.owner(key);
        let Some(log) = canonical.get(&owner) else {
            continue;
        };
        if let Some(pos) = log.iter().position(|a| a.id == op.id) {
            per_key.entry(key).or_default().push(Entry { op, pos });
        }
    }
    for (key, entries) in &per_key {
        for a in entries {
            let Some(resp_at) = a.op.responded_at else {
                continue;
            };
            for b in entries {
                if resp_at < b.op.invoked_at && a.pos > b.pos {
                    v.push(format!(
                        "linearizability: key {key}: op {} responded at {} before op {} \
                         was invoked at {}, yet applied after it",
                        a.op.id, resp_at, b.op.id, b.op.invoked_at
                    ));
                }
            }
        }
    }
}

fn check_serializability(canonical: &BTreeMap<GroupId, &[AppliedOp]>, v: &mut Vec<String>) {
    // Precedence graph: a → b for consecutive entries of each shard log
    // (transitivity makes adjacency edges sufficient for a total order).
    let mut succ: BTreeMap<MessageId, BTreeSet<MessageId>> = BTreeMap::new();
    let mut indeg: BTreeMap<MessageId, usize> = BTreeMap::new();
    for log in canonical.values() {
        for a in log.iter() {
            succ.entry(a.id).or_default();
            indeg.entry(a.id).or_default();
        }
        for w in log.windows(2) {
            if succ
                .get_mut(&w[0].id)
                .expect("inserted above")
                .insert(w[1].id)
            {
                *indeg.get_mut(&w[1].id).expect("inserted above") += 1;
            }
        }
    }
    // Kahn's algorithm; leftovers are on (or downstream of) a cycle.
    let mut queue: VecDeque<MessageId> = indeg
        .iter()
        .filter(|&(_, &d)| d == 0)
        .map(|(&id, _)| id)
        .collect();
    let mut ordered = 0usize;
    while let Some(id) = queue.pop_front() {
        ordered += 1;
        for next in &succ[&id] {
            let d = indeg.get_mut(next).expect("all nodes present");
            *d -= 1;
            if *d == 0 {
                queue.push_back(*next);
            }
        }
    }
    if ordered < indeg.len() {
        let stuck: Vec<String> = indeg
            .iter()
            .filter(|&(_, &d)| d > 0)
            .take(6)
            .map(|(id, _)| id.to_string())
            .collect();
        v.push(format!(
            "serializability: per-shard apply orders contain a cycle ({} op(s) \
             unorderable, e.g. {})",
            indeg.len() - ordered,
            stuck.join(", ")
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wamcast_types::ProcessId;

    fn mid(origin: u32, seq: u64) -> MessageId {
        MessageId::new(ProcessId(origin), seq)
    }

    /// Builds a tiny 2-shard history by actually applying commands to
    /// replica machines, then lets tests corrupt pieces of it.
    fn two_shard_history() -> History {
        let shards = ShardMap::new(2);
        let g0 = GroupId(0);
        let g1 = GroupId(1);
        let k0 = shards.key_owned_by(g0, 0);
        let k1 = shards.key_owned_by(g1, 100);
        let cmds = [
            Command::Put { key: k0, value: 10 },
            Command::Put { key: k1, value: 20 },
            Command::Transfer {
                from: k0,
                to: k1,
                amount: 3,
            },
            Command::Get { key: k0 },
            Command::Transfer {
                from: k1,
                to: k0,
                amount: 1,
            },
        ];
        // Two replicas per shard, all applying in the same global order.
        let mut machines: Vec<(ProcessId, KvStateMachine)> = vec![
            (ProcessId(0), KvStateMachine::new(g0, shards)),
            (ProcessId(1), KvStateMachine::new(g0, shards)),
            (ProcessId(2), KvStateMachine::new(g1, shards)),
            (ProcessId(3), KvStateMachine::new(g1, shards)),
        ];
        let mut ops = Vec::new();
        for (seq, cmd) in cmds.iter().enumerate() {
            let id = mid(0, seq as u64);
            let dest = shards.dest_of(cmd);
            let mut response = None;
            let responder = responder_shard(&shards, cmd, dest);
            for (_, m) in machines
                .iter_mut()
                .filter(|(_, m)| dest.contains(m.group()))
            {
                let r = m.apply_command(id, dest, cmd);
                if m.group() == responder && response.is_none() {
                    response = Some(r);
                }
            }
            ops.push(OpRecord {
                id,
                cmd: cmd.clone(),
                dest,
                client: 0,
                invoked_at: SimTime::from_millis(10 * seq as u64),
                responded_at: Some(SimTime::from_millis(10 * seq as u64 + 5)),
                response,
            });
        }
        History {
            shards,
            ops,
            replicas: machines
                .iter()
                .map(|(p, m)| ReplicaLog::capture(*p, m))
                .collect(),
        }
    }

    #[test]
    fn clean_history_passes() {
        let h = two_shard_history();
        let r = check(&h);
        r.assert_ok();
        assert_eq!(r.ops, 5);
        assert_eq!(r.committed, 5);
        assert_eq!(r.shards_checked, 2);
        // Sanity of the fixture itself: the transfers committed on both sides.
        assert_eq!(h.replicas[0].applied.len(), 4);
        assert_eq!(h.replicas[2].applied.len(), 3);
    }

    #[test]
    fn lost_apply_is_rejected() {
        let mut h = two_shard_history();
        // Replica p1 loses its last apply (log + digest now stale).
        h.replicas[1].applied.pop();
        let r = check(&h);
        assert!(!r.is_ok());
        assert!(
            r.violations.iter().any(|s| s.contains("disagree")),
            "{:?}",
            r.violations
        );
    }

    #[test]
    fn digest_mismatch_is_rejected() {
        let mut h = two_shard_history();
        h.replicas[3].digest ^= 1;
        let r = check(&h);
        assert!(
            r.violations.iter().any(|s| s.contains("different digests")),
            "{:?}",
            r.violations
        );
    }

    #[test]
    fn reordered_cross_shard_apply_is_a_cycle() {
        let mut h = two_shard_history();
        // Both transfers (ops 2 and 4) are addressed to both shards; g0
        // applies 2 before 4, so making *every* g1 replica apply 4 before 2
        // keeps the shard internally consistent (agreement and digests
        // pass) — only the serializability pass can object, via the cycle
        // op2 → op4 (g0) and op4 → op2 (g1).
        let shards = h.shards;
        let g1 = GroupId(1);
        let order: Vec<usize> = vec![1, 4, 2];
        for r in h.replicas.iter_mut().filter(|r| r.group == g1) {
            let mut m = KvStateMachine::new(g1, shards);
            for &i in &order {
                let op = &h.ops[i];
                m.apply_command(op.id, op.dest, &op.cmd);
            }
            r.applied = m.log();
            r.digest = m.digest();
        }
        let r = check(&h);
        assert!(
            r.violations.iter().any(|s| s.contains("serializability")),
            "{:?}",
            r.violations
        );
    }

    #[test]
    fn wrong_response_is_rejected() {
        let mut h = two_shard_history();
        // The client "observed" a stale read.
        let get = &mut h.ops[3];
        assert!(matches!(get.cmd, Command::Get { .. }));
        get.response = Some(Response::Value(Some(999)));
        let r = check(&h);
        assert!(
            r.violations.iter().any(|s| s.contains("response:")),
            "{:?}",
            r.violations
        );
    }

    #[test]
    fn committed_but_unapplied_is_an_atomicity_violation() {
        let mut h = two_shard_history();
        // Strip the transfer from shard g1's logs (and keep them mutually
        // consistent so only atomicity can catch it).
        let g1 = GroupId(1);
        let transfer_id = h.ops[2].id;
        for r in h.replicas.iter_mut().filter(|r| r.group == g1) {
            let mut m = KvStateMachine::new(g1, h.shards);
            for op in h.ops.iter().filter(|o| o.id != transfer_id) {
                if op.dest.contains(g1) {
                    m.apply_command(op.id, op.dest, &op.cmd);
                }
            }
            r.applied = m.log();
            r.digest = m.digest();
        }
        let r = check(&h);
        assert!(
            r.violations.iter().any(|s| s.contains("atomicity")),
            "{:?}",
            r.violations
        );
    }

    #[test]
    fn realtime_inversion_on_a_key_is_rejected() {
        let mut h = two_shard_history();
        // Ops 0 (put k0, responds at t=5) and 3 (get k0, invoked at t=30)
        // do not overlap in real time, so the put must be applied first.
        // Rebuild both g0 replicas with the get applied before the put —
        // agreement holds and the per-shard orders stay acyclic, so only
        // the per-key real-time check can fire.
        let g0 = GroupId(0);
        for r in h.replicas.iter_mut().filter(|r| r.group == g0) {
            let mut m = KvStateMachine::new(g0, h.shards);
            for &i in &[3usize, 0, 2, 4] {
                let op = &h.ops[i];
                m.apply_command(op.id, op.dest, &op.cmd);
            }
            r.applied = m.log();
            r.digest = m.digest();
        }
        // Keep client responses consistent with the reordered replay so
        // only the real-time check can fire.
        h.ops[3].response = Some(Response::Value(None));
        h.ops[0].response = Some(Response::Prev(None));
        let r = check(&h);
        assert!(
            r.violations.iter().any(|s| s.contains("linearizability")),
            "{:?}",
            r.violations
        );
    }

    #[test]
    fn unknown_and_duplicate_applies_are_rejected() {
        let mut h = two_shard_history();
        let ghost = AppliedOp {
            id: mid(9, 9),
            dest: GroupSet::singleton(GroupId(0)),
            response: Response::Done,
        };
        for r in h.replicas.iter_mut().filter(|r| r.group == GroupId(0)) {
            r.applied.push(ghost.clone());
            let dup = r.applied[0].clone();
            r.applied.push(dup);
        }
        let r = check(&h);
        assert!(r.violations.iter().any(|s| s.contains("unknown op")));
        assert!(r.violations.iter().any(|s| s.contains("more than once")));
    }
}
