//! The deterministic per-shard KV state machine.

use crate::{Command, Response, ShardMap};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use wamcast_types::{AppMessage, FxHashMap, GroupId, GroupSet, MessageId, ProcessId, StateMachine};

/// One command as applied by a replica: what the apply log records.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AppliedOp {
    /// The multicast message id — the history's op identifier.
    pub id: MessageId,
    /// The destination shards of the command.
    pub dest: GroupSet,
    /// The response this shard's apply produced.
    pub response: Response,
}

/// One apply-log entry: an [`AppliedOp`] in 24 bytes instead of 56. The
/// destination is an index into the replica's distinct destination sets
/// and the response is a tag and its value.
#[derive(Clone, Copy, Debug)]
struct Entry {
    seq: u64,
    value: i64,
    origin: u32,
    /// Index into `KvStateMachine::dests`, or [`SPILLED`].
    dest: u16,
    /// [`Response`]'s variant, with `None` and `Some` told apart.
    tag: u8,
}

const _: () = assert!(std::mem::size_of::<Entry>() == 24);

/// The `dest` of an entry whose set is in `KvStateMachine::spilled`: a
/// replica that has seen `u16::MAX` distinct destination sets keeps each
/// further new one beside its entry.
const SPILLED: u16 = u16::MAX;

impl Entry {
    fn new(id: MessageId, dest: u16, response: Response) -> Self {
        let (tag, value) = match response {
            Response::Value(None) => (0, 0),
            Response::Value(Some(v)) => (1, v),
            Response::Prev(None) => (2, 0),
            Response::Prev(Some(v)) => (3, v),
            Response::NewValue(v) => (4, v),
            Response::Done => (5, 0),
        };
        Entry {
            seq: id.seq,
            value,
            origin: id.origin.0,
            dest,
            tag,
        }
    }

    fn id(&self) -> MessageId {
        MessageId::new(ProcessId(self.origin), self.seq)
    }

    fn response(&self) -> Response {
        match self.tag {
            0 => Response::Value(None),
            1 => Response::Value(Some(self.value)),
            2 => Response::Prev(None),
            3 => Response::Prev(Some(self.value)),
            4 => Response::NewValue(self.value),
            _ => Response::Done,
        }
    }
}

/// A replica of one shard of the partitioned store.
///
/// Applies every delivered [`Command`] to a `BTreeMap` of balances,
/// restricted to the keys its group owns, and records an *apply log* (op
/// id, destination, response) plus a running digest over everything the
/// apply sequence did: op ids, responses, and each `(key, value)` write.
/// Two replicas of the same shard fed the same delivery sequence are
/// byte-identical — equal logs and equal digests — which is exactly what
/// the history checker's replica-agreement pass compares (and what the
/// [`ApplyBug`] hooks break on purpose, to prove it looks). The log is
/// kept for the replica's life, in 24 bytes per applied op, and
/// [`log`](Self::log) rebuilds its [`AppliedOp`]s.
///
/// # Example
///
/// ```
/// use wamcast_smr::{Command, KvStateMachine, Response, ShardMap};
/// use wamcast_types::{GroupSet, MessageId, ProcessId};
///
/// let shards = ShardMap::new(1);
/// let mut kv = KvStateMachine::new(shards.owner(7), shards);
/// let put = Command::Put { key: 7, value: 3 };
/// let r = kv.apply_command(
///     MessageId::new(ProcessId(0), 0),
///     shards.dest_of(&put),
///     &put,
/// );
/// assert_eq!(r, Response::Prev(None));
/// assert_eq!(kv.value(7), Some(3));
/// ```
#[derive(Clone, Debug)]
pub struct KvStateMachine {
    group: GroupId,
    shards: ShardMap,
    state: BTreeMap<u64, i64>,
    log: Vec<Entry>,
    /// The distinct destination sets of the log, in first-apply order.
    dests: Vec<GroupSet>,
    dest_index: FxHashMap<GroupSet, u16>,
    /// Destination sets of the entries marked [`SPILLED`], by log position.
    spilled: BTreeMap<usize, GroupSet>,
    /// Per origin, the highest `seq` of an op it cast that the log holds.
    newest: FxHashMap<ProcessId, u64>,
    digest: u64,
    decode_errors: u64,
}

impl KvStateMachine {
    /// A fresh, empty replica of group `group`'s shard.
    pub fn new(group: GroupId, shards: ShardMap) -> Self {
        KvStateMachine {
            group,
            shards,
            state: BTreeMap::new(),
            log: Vec::new(),
            dests: Vec::new(),
            dest_index: FxHashMap::default(),
            spilled: BTreeMap::new(),
            newest: FxHashMap::default(),
            digest: FNV_OFFSET,
            decode_errors: 0,
        }
    }

    /// The shard (group) this replica serves.
    pub fn group(&self) -> GroupId {
        self.group
    }

    /// The shard map the replica routes by.
    pub fn shards(&self) -> ShardMap {
        self.shards
    }

    /// Current value of `key` at this replica (`None` if unset or not owned
    /// here).
    pub fn value(&self, key: u64) -> Option<i64> {
        self.state.get(&key).copied()
    }

    /// The apply log, in apply order, rebuilt from its compact entries.
    pub fn log(&self) -> Vec<AppliedOp> {
        (0..self.log.len()).map(|i| self.applied_at(i)).collect()
    }

    /// The recorded response for op `id`, if this replica applied it. An
    /// op above the highest `seq` applied from its origin (one not applied
    /// yet, as a client polls for until it commits) is answered `None` in
    /// O(1); otherwise the log is searched from its newest entry back, so
    /// a poll for an op applied just now costs O(1), not O(log length).
    /// (An id applied twice — which the history checker convicts — answers
    /// its last apply.)
    pub fn response_of(&self, id: MessageId) -> Option<AppliedOp> {
        if id.seq > *self.newest.get(&id.origin)? {
            return None;
        }
        let i = self.log.iter().rposition(|e| e.id() == id)?;
        Some(self.applied_at(i))
    }

    fn applied_at(&self, i: usize) -> AppliedOp {
        let e = &self.log[i];
        let dest = match e.dest {
            SPILLED => self.spilled[&i],
            d => self.dests[usize::from(d)],
        };
        AppliedOp {
            id: e.id(),
            dest,
            response: e.response(),
        }
    }

    /// Appends op `id` to the log, interning its destination set.
    fn record(&mut self, id: MessageId, dest: GroupSet, response: Response) {
        let index = match self.dest_index.get(&dest) {
            Some(&d) => d,
            None if self.dests.len() < usize::from(SPILLED) => {
                let d = self.dests.len() as u16;
                self.dests.push(dest);
                self.dest_index.insert(dest, d);
                d
            }
            None => {
                self.spilled.insert(self.log.len(), dest);
                SPILLED
            }
        };
        self.log.push(Entry::new(id, index, response));
        self.newest
            .entry(id.origin)
            .and_modify(|seq| *seq = id.seq.max(*seq))
            .or_insert(id.seq);
    }

    /// Running digest over the whole apply history (op ids, responses, and
    /// every write's `(key, value)`). Order-sensitive by construction.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Payloads that failed to decode as commands (always 0 in a healthy
    /// deployment; counted instead of panicking so a checker, not an
    /// `unwrap`, reports the corruption).
    pub fn decode_errors(&self) -> u64 {
        self.decode_errors
    }

    /// Sum of all balances held by this shard (conservation checks).
    pub fn shard_sum(&self) -> i64 {
        self.state.values().sum()
    }

    fn mix(&mut self, word: u64) {
        // FNV-1a over 64-bit words: cheap, order-sensitive, dependency-free.
        self.digest ^= word;
        self.digest = self.digest.wrapping_mul(FNV_PRIME);
    }

    fn write(&mut self, key: u64, value: i64) {
        self.state.insert(key, value);
        self.mix(key.rotate_left(17));
        self.mix(value as u64);
    }

    /// Applies one command, returning the response this shard produces.
    /// Only the keys owned by this replica's group are touched; the
    /// response of a single-key command is meaningful only at the owner
    /// shard (hosts never route one elsewhere).
    pub fn apply_command(&mut self, id: MessageId, dest: GroupSet, cmd: &Command) -> Response {
        let response = match cmd {
            Command::Get { key } => {
                debug_assert!(self.shards.owns(self.group, *key), "get routed off-shard");
                Response::Value(self.value(*key))
            }
            Command::Put { key, value } => {
                debug_assert!(self.shards.owns(self.group, *key), "put routed off-shard");
                let prev = self.value(*key);
                self.write(*key, *value);
                Response::Prev(prev)
            }
            Command::Incr { key, delta } => {
                debug_assert!(self.shards.owns(self.group, *key), "incr routed off-shard");
                let new = self.value(*key).unwrap_or(0) + delta;
                self.write(*key, new);
                Response::NewValue(new)
            }
            Command::MultiPut { entries } => {
                for &(k, v) in entries {
                    if self.shards.owns(self.group, k) {
                        self.write(k, v);
                    }
                }
                Response::Done
            }
            Command::Transfer { from, to, amount } => {
                if self.shards.owns(self.group, *from) {
                    let v = self.value(*from).unwrap_or(0) - amount;
                    self.write(*from, v);
                }
                if self.shards.owns(self.group, *to) {
                    let v = self.value(*to).unwrap_or(0) + amount;
                    self.write(*to, v);
                }
                Response::Done
            }
        };
        self.mix(u64::from(id.origin.0).rotate_left(32) ^ id.seq);
        self.mix(response.digest_word());
        self.record(id, dest, response);
        response
    }
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

impl StateMachine for KvStateMachine {
    fn apply(&mut self, msg: &AppMessage) {
        match Command::decode(&msg.payload) {
            Ok(cmd) => {
                self.apply_command(msg.id, msg.dest, &cmd);
            }
            Err(_) => self.decode_errors += 1,
        }
    }
}

/// A shareable replica handle: what a harness passes to
/// `wamcast_core::WithApply` while keeping a clone to read logs and digests
/// back out after the run (the only way with the threaded runtime, whose
/// protocol values live on their own threads).
pub type SharedKv = Arc<Mutex<KvStateMachine>>;

/// Builds a [`SharedKv`] replica.
pub fn shared_replica(group: GroupId, shards: ShardMap) -> SharedKv {
    Arc::new(Mutex::new(KvStateMachine::new(group, shards)))
}

/// A deliberately planted apply-path defect, used to prove the history
/// checker rejects bad histories (nothing in the production path constructs
/// one).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ApplyBug {
    /// Silently skip every `n`-th apply at the afflicted replica — a lost
    /// update. Caught by the checker's replica-agreement pass (the victim's
    /// log and digest diverge from its shard peers').
    LoseEvery(
        /// Skip period (2 = every second apply).
        u64,
    ),
    /// Hold the first multi-shard command and apply it *after* the next
    /// command — a reordered cross-shard apply. Installed on every replica
    /// of one group, the shard stays internally consistent (agreement
    /// passes!) but its apply order now contradicts the other shards',
    /// which only the cross-shard serializability pass can see.
    ///
    /// Edge: if no further command is ever delivered to the afflicted
    /// replica, the held command is never applied — the defect degrades
    /// into a lost apply, which the checker still convicts, but as an
    /// atomicity violation rather than a serializability cycle. Tests
    /// asserting the cycle specifically must use a workload with at least
    /// one command after the first cross-shard one (the pinned ones do).
    SwapCrossShard,
}

/// A [`StateMachine`] wrapper executing an optional [`ApplyBug`] in front
/// of an inner replica. With `bug == None` it is byte-for-byte transparent,
/// so drivers can use it unconditionally.
#[derive(Debug)]
pub struct BuggyKv {
    inner: SharedKv,
    bug: Option<ApplyBug>,
    applies: u64,
    held: Option<AppMessage>,
    swapped: bool,
}

impl BuggyKv {
    /// Wraps `inner`, executing `bug` (if any) on the apply path.
    pub fn new(inner: SharedKv, bug: Option<ApplyBug>) -> Self {
        BuggyKv {
            inner,
            bug,
            applies: 0,
            held: None,
            swapped: false,
        }
    }
}

impl StateMachine for BuggyKv {
    fn apply(&mut self, msg: &AppMessage) {
        self.applies += 1;
        match self.bug {
            Some(ApplyBug::LoseEvery(n)) if n > 0 && self.applies % n == 0 => {
                // The planted bug: this replica silently loses the update.
            }
            Some(ApplyBug::SwapCrossShard) if !self.swapped => {
                if let Some(held) = self.held.take() {
                    // Second command: apply it first, then the held one —
                    // the pair is now applied in the opposite order.
                    self.inner.apply(msg);
                    self.inner.apply(&held);
                    self.swapped = true;
                } else if msg.dest.len() > 1 {
                    self.held = Some(msg.clone());
                } else {
                    self.inner.apply(msg);
                }
            }
            _ => self.inner.apply(msg),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use wamcast_types::{Payload, SplitMix64};

    fn mid(seq: u64) -> MessageId {
        MessageId::new(ProcessId(0), seq)
    }

    fn single_shard() -> (ShardMap, KvStateMachine) {
        let shards = ShardMap::new(1);
        (shards, KvStateMachine::new(GroupId(0), shards))
    }

    #[test]
    fn apply_semantics() {
        let (shards, mut kv) = single_shard();
        let all = GroupSet::first_n(1);
        assert_eq!(
            kv.apply_command(mid(0), all, &Command::Get { key: 1 }),
            Response::Value(None)
        );
        assert_eq!(
            kv.apply_command(mid(1), all, &Command::Put { key: 1, value: 5 }),
            Response::Prev(None)
        );
        assert_eq!(
            kv.apply_command(mid(2), all, &Command::Incr { key: 1, delta: -2 }),
            Response::NewValue(3)
        );
        assert_eq!(
            kv.apply_command(
                mid(3),
                all,
                &Command::Transfer {
                    from: 1,
                    to: 2,
                    amount: 10
                }
            ),
            Response::Done
        );
        assert_eq!(kv.value(1), Some(-7));
        assert_eq!(kv.value(2), Some(10));
        assert_eq!(kv.shard_sum(), 3, "transfer conserves the sum");
        assert_eq!(kv.log().len(), 4);
        assert_eq!(
            kv.response_of(mid(2)).unwrap().response,
            Response::NewValue(3)
        );
        assert_eq!(kv.response_of(mid(4)), None, "never applied");
        let _ = shards;
    }

    /// The compact log against a plain `Vec<AppliedOp>` kept beside it: a
    /// seeded stream over ten shards, covering every response and more
    /// than 300 distinct destination sets, rebuilds to exactly the
    /// reference, and `response_of` answers each id as the reference's
    /// first match does.
    #[test]
    fn compact_log_equals_a_plain_record_of_every_apply() {
        let shards = ShardMap::new(10);
        let g = GroupId(0);
        let mut kv = KvStateMachine::new(g, shards);
        let mut reference: Vec<AppliedOp> = Vec::new();
        let mut rng = SplitMix64::new(41);
        // A key space of 40 owned keys, so reads and writes find both set
        // and unset keys.
        let owned = |rng: &mut SplitMix64| shards.key_owned_by(g, rng.next_below(40) * 97);
        let value = |rng: &mut SplitMix64| rng.next_below(2_000_000) as i64 - 1_000_000;
        for n in 0..3_000u64 {
            let cmd = match rng.next_below(6) {
                0 => Command::Get {
                    key: owned(&mut rng),
                },
                1 => Command::Put {
                    key: owned(&mut rng),
                    value: value(&mut rng),
                },
                2 => Command::Incr {
                    key: owned(&mut rng),
                    delta: value(&mut rng),
                },
                3 => Command::Transfer {
                    from: owned(&mut rng),
                    to: rng.next_u64(),
                    amount: value(&mut rng),
                },
                _ => Command::MultiPut {
                    entries: (0..1 + rng.next_below(8))
                        .map(|_| (rng.next_u64(), value(&mut rng)))
                        .collect(),
                },
            };
            // Ids from eight origins, some with high sequence bits set.
            let origin = ProcessId(rng.next_below(8) as u32);
            let id = MessageId::new(origin, rng.next_below(4) << 40 | n);
            let dest = shards.dest_of(&cmd);
            let response = kv.apply_command(id, dest, &cmd);
            reference.push(AppliedOp { id, dest, response });
        }
        let distinct: BTreeSet<GroupSet> = reference.iter().map(|a| a.dest).collect();
        assert!(distinct.len() >= 300, "{} distinct sets", distinct.len());
        let responses: BTreeSet<u8> = reference
            .iter()
            .map(|a| Entry::new(a.id, 0, a.response).tag)
            .collect();
        assert_eq!(responses.len(), 6, "every response variant applied");

        assert_eq!(kv.log(), reference);
        for a in &reference {
            assert_eq!(
                kv.response_of(a.id),
                reference.iter().find(|r| r.id == a.id).cloned()
            );
        }
        assert_eq!(kv.response_of(MessageId::new(ProcessId(8), 0)), None);
        assert_eq!(kv.response_of(MessageId::new(ProcessId(0), 3_000)), None);
    }

    /// `response_of` around each origin's highest applied `seq`: above it,
    /// and for an origin never seen, the answer is `None` without a log
    /// search; at and below it the log answers, `None` for a `seq` the
    /// origin skipped.
    #[test]
    fn response_of_answers_around_each_origins_newest_seq() {
        let (_, mut kv) = single_shard();
        let all = GroupSet::first_n(1);
        let get = Command::Get { key: 1 };
        let at = |origin, seq| MessageId::new(ProcessId(origin), seq);
        // Origin 0 applies 0, 3, then 1 (2 never); origin 1 applies 5.
        for id in [at(0, 0), at(0, 3), at(0, 1), at(1, 5)] {
            kv.apply_command(id, all, &get);
        }
        assert_eq!(
            kv.newest[&ProcessId(0)],
            3,
            "a late lower seq keeps the max"
        );
        for id in [at(0, 3), at(0, 1), at(0, 0), at(1, 5)] {
            assert_eq!(kv.response_of(id).map(|a| a.id), Some(id), "{id}");
        }
        for id in [at(0, 4), at(0, u64::MAX), at(1, 6)] {
            assert_eq!(kv.response_of(id), None, "{id} is above its origin's mark");
        }
        assert_eq!(kv.response_of(at(0, 2)), None, "skipped below the mark");
        assert_eq!(
            kv.response_of(at(1, 4)),
            None,
            "below the mark, not applied"
        );
        assert_eq!(kv.response_of(at(2, 0)), None, "origin never seen");
    }

    /// Past `u16::MAX` distinct destination sets, each further new set is
    /// kept beside its entry, and the log still rebuilds exactly.
    #[test]
    fn destination_sets_past_the_index_width_rebuild_exactly() {
        let (_, mut kv) = single_shard();
        let cmd = Command::MultiPut { entries: vec![] };
        let mut reference = Vec::new();
        for seq in 0..u64::from(SPILLED) + 100 {
            let dest = GroupSet::from_bits(u128::from(seq) + 1);
            let response = kv.apply_command(mid(seq), dest, &cmd);
            reference.push(AppliedOp {
                id: mid(seq),
                dest,
                response,
            });
        }
        assert_eq!(kv.spilled.len(), 100);
        assert_eq!(kv.log(), reference);
        for seq in [0, 1, u64::from(SPILLED) - 1, u64::from(SPILLED) + 99] {
            assert_eq!(
                kv.response_of(mid(seq)).as_ref(),
                Some(&reference[seq as usize])
            );
        }
    }

    #[test]
    fn replicas_with_same_sequence_agree_and_order_matters() {
        let (shards, mut a) = single_shard();
        let mut b = KvStateMachine::new(GroupId(0), shards);
        let all = GroupSet::first_n(1);
        let cmds = [
            Command::Put { key: 1, value: 2 },
            Command::Incr { key: 1, delta: 3 },
            Command::Put { key: 9, value: 1 },
        ];
        for (i, c) in cmds.iter().enumerate() {
            a.apply_command(mid(i as u64), all, c);
            b.apply_command(mid(i as u64), all, c);
        }
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.log(), b.log());

        // Same multiset of applies in a different order → different digest.
        let mut c = KvStateMachine::new(GroupId(0), shards);
        c.apply_command(mid(1), all, &cmds[1]);
        c.apply_command(mid(0), all, &cmds[0]);
        c.apply_command(mid(2), all, &cmds[2]);
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn multiput_only_touches_owned_keys() {
        let shards = ShardMap::new(2);
        let g0 = GroupId(0);
        let g1 = GroupId(1);
        let k0 = shards.key_owned_by(g0, 0);
        let k1 = shards.key_owned_by(g1, 50);
        let mut r0 = KvStateMachine::new(g0, shards);
        let mut r1 = KvStateMachine::new(g1, shards);
        let cmd = Command::MultiPut {
            entries: vec![(k0, 7), (k1, 9)],
        };
        let dest = shards.dest_of(&cmd);
        assert_eq!(dest.len(), 2);
        r0.apply_command(mid(0), dest, &cmd);
        r1.apply_command(mid(0), dest, &cmd);
        assert_eq!((r0.value(k0), r0.value(k1)), (Some(7), None));
        assert_eq!((r1.value(k0), r1.value(k1)), (None, Some(9)));
    }

    #[test]
    fn undecodable_payload_is_counted_not_fatal() {
        let (_, mut kv) = single_shard();
        let junk = AppMessage::new(mid(0), GroupSet::first_n(1), Payload::from(vec![0xFFu8]));
        kv.apply(&junk);
        assert_eq!(kv.decode_errors(), 1);
        assert!(kv.log().is_empty());
    }

    #[test]
    fn buggy_wrapper_is_transparent_without_a_bug() {
        let shards = ShardMap::new(1);
        let shared = shared_replica(GroupId(0), shards);
        let mut tap = BuggyKv::new(Arc::clone(&shared), None);
        let mut reference = KvStateMachine::new(GroupId(0), shards);
        for seq in 0..10u64 {
            let cmd = Command::Incr {
                key: seq % 3,
                delta: 1,
            };
            let m = AppMessage::new(mid(seq), GroupSet::first_n(1), cmd.encode());
            tap.apply(&m);
            reference.apply(&m);
        }
        assert_eq!(shared.lock().unwrap().digest(), reference.digest());
    }

    #[test]
    fn lose_every_diverges_the_victim() {
        let shards = ShardMap::new(1);
        let shared = shared_replica(GroupId(0), shards);
        let mut tap = BuggyKv::new(Arc::clone(&shared), Some(ApplyBug::LoseEvery(2)));
        let mut reference = KvStateMachine::new(GroupId(0), shards);
        for seq in 0..4u64 {
            let cmd = Command::Put {
                key: 1,
                value: seq as i64,
            };
            let m = AppMessage::new(mid(seq), GroupSet::first_n(1), cmd.encode());
            tap.apply(&m);
            reference.apply(&m);
        }
        assert_eq!(shared.lock().unwrap().log().len(), 2, "half were lost");
        assert_ne!(shared.lock().unwrap().digest(), reference.digest());
    }

    #[test]
    fn swap_cross_shard_swaps_exactly_one_adjacent_pair() {
        let shards = ShardMap::new(2);
        let g0 = GroupId(0);
        let shared = shared_replica(g0, shards);
        let mut tap = BuggyKv::new(Arc::clone(&shared), Some(ApplyBug::SwapCrossShard));
        let k0 = shards.key_owned_by(g0, 0);
        let k1 = shards.key_owned_by(GroupId(1), 50);
        let cross = Command::Transfer {
            from: k0,
            to: k1,
            amount: 1,
        };
        let dest = shards.dest_of(&cross);
        for seq in 0..3u64 {
            tap.apply(&AppMessage::new(mid(seq), dest, cross.encode()));
        }
        let order: Vec<u64> = shared
            .lock()
            .unwrap()
            .log()
            .iter()
            .map(|a| a.id.seq)
            .collect();
        assert_eq!(order, vec![1, 0, 2], "first pair swapped, rest in order");
    }
}
