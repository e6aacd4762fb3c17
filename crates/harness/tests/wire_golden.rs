//! Golden wire-format corpus: one canonical sealed frame per message
//! type *and per enum variant*, pinned as checked-in hex.
//!
//! The fuzz tier (`wire_fuzz.rs`) proves `decode ∘ encode = id` *today*;
//! this tier proves the byte format does not drift *across commits* —
//! a peer built from last month's binary must still interoperate with
//! one built today. Because every variant has its own line, renumbering
//! a single tag fails here by name. Any intentional format change (which
//! must come with a `VERSION` bump) is blessed explicitly:
//!
//! ```text
//! WAMCAST_BLESS=1 cargo test -p wamcast-harness --test wire_golden
//! ```
//!
//! Each corpus line is `name <hex-of-sealed-frame>`. One list of
//! `(name, value)` entries drives both directions: the canonical value
//! must re-encode to the pinned bytes, and the pinned bytes must decode
//! back to the canonical value.

use std::fmt::{Debug, Write as _};
use std::sync::Arc;
use wamcast_baselines::detmerge::MergeMsg;
use wamcast_baselines::optimistic::OptimisticMsg;
use wamcast_baselines::ring::{RingMsg, RingStep};
use wamcast_baselines::rodrigues::RodriguesMsg;
use wamcast_baselines::sequencer::SequencerMsg;
use wamcast_baselines::skeen::SkeenMsg;
use wamcast_consensus::{Ballot, ConsensusMsg};
use wamcast_core::{BroadcastMsg, MsgEntry, MulticastMsg, Stage};
use wamcast_net::tcp::Frame;
use wamcast_rmcast::RmcastMsg;
use wamcast_smr::{AppliedOp, ReplicaLog, Response};
use wamcast_types::wire::{self, Wire};
use wamcast_types::{AppMessage, GroupId, GroupSet, MessageId, Payload, ProcessId};

/// Pinned `name hex` lines. Regenerate with `WAMCAST_BLESS=1`.
const GOLDEN: &str = include_str!("golden_wire_corpus.txt");

/// The arm id every corpus frame is sealed under (arbitrary but pinned:
/// changing it is itself a format change).
const ARM: u8 = 0x07;

fn mid() -> MessageId {
    MessageId::new(ProcessId(3), 41)
}

fn app() -> AppMessage {
    AppMessage::new(
        mid(),
        GroupSet::from_bits(0b101),
        Payload::from(vec![0xDE, 0xAD, 0xBE, 0xEF]),
    )
}

fn ballot() -> Ballot {
    Ballot {
        round: 7,
        owner: ProcessId(2),
    }
}

fn entry() -> MsgEntry {
    MsgEntry {
        msg: app(),
        ts: 99,
        stage: Stage::S2,
    }
}

fn applied() -> AppliedOp {
    AppliedOp {
        id: mid(),
        dest: GroupSet::from_bits(0b11),
        response: Response::Prev(Some(-5)),
    }
}

/// Whether some bytes decode back to exactly one canonical value.
type DecodesBack = Box<dyn Fn(&[u8]) -> Result<(), String>>;

/// One corpus line: a name, the canonical value's sealed bytes, and the
/// check that some bytes decode back to exactly that value.
struct Golden {
    name: &'static str,
    sealed: Vec<u8>,
    decodes_back: DecodesBack,
}

fn golden<T: Wire + PartialEq + Debug + 'static>(name: &'static str, value: T) -> Golden {
    Golden {
        name,
        sealed: wire::seal(ARM, &value),
        decodes_back: Box::new(move |bytes| match wire::open::<T>(ARM, bytes) {
            Ok(got) if got == value => Ok(()),
            Ok(got) => Err(format!("decodes to {got:?}, not {value:?}")),
            Err(e) => Err(format!("no longer decodes: {e}")),
        }),
    }
}

/// Every pinned value, in corpus order. The first 25 lines predate the
/// per-variant lines and keep their place; every enum variant of every
/// wire type has a line of its own, nested occurrences aside.
fn corpus() -> Vec<Golden> {
    vec![
        golden("ProcessId", ProcessId(3)),
        golden("GroupId", GroupId(2)),
        golden("GroupSet", GroupSet::from_bits(0b101)),
        golden("MessageId", mid()),
        golden("Payload", Payload::from(vec![1, 2, 3])),
        golden("AppMessage", app()),
        golden("Ballot", ballot()),
        golden(
            "ConsensusMsg.Promise",
            ConsensusMsg::Promise {
                instance: 5,
                ballot: ballot(),
                accepted: Some((Ballot::zero(ProcessId(1)), 17u64)),
            },
        ),
        golden("RmcastMsg.Data", RmcastMsg::Data(app())),
        golden("RmcastMsg.Ack", RmcastMsg::Ack(mid())),
        golden("MsgEntry", entry()),
        golden("MulticastMsg.Ts", MulticastMsg::Ts(Arc::new(vec![entry()]))),
        golden(
            "BroadcastMsg.Bundle",
            BroadcastMsg::Bundle {
                round: 6,
                msgs: Arc::new(vec![app()]),
            },
        ),
        golden("SkeenMsg.Propose", SkeenMsg::Propose { id: mid(), ts: 12 }),
        golden(
            "RingMsg.Cons",
            RingMsg::Cons(ConsensusMsg::Decide {
                instance: 2,
                value: RingStep { msg: app(), ts: 8 },
            }),
        ),
        golden("RodriguesMsg.Ts", RodriguesMsg::Ts { id: mid(), ts: 4 }),
        golden(
            "SequencerMsg.Assign",
            SequencerMsg::Assign { id: mid(), n: 9 },
        ),
        golden("OptimisticMsg.Seq", OptimisticMsg::Seq { id: mid(), n: 3 }),
        golden("MergeMsg.Null", MergeMsg::Null { ts: 11 }),
        golden("Response.Prev", Response::Prev(Some(-5))),
        golden("AppliedOp", applied()),
        golden(
            "ReplicaLog",
            ReplicaLog {
                process: ProcessId(1),
                group: GroupId(0),
                applied: vec![applied()],
                digest: 0xABCD,
                decode_errors: 0,
            },
        ),
        golden(
            "Frame.Peer",
            Frame::Peer {
                from: ProcessId(1),
                msg: MulticastMsg::Rm(RmcastMsg::Ack(mid())),
            },
        ),
        golden(
            "Frame.Cast",
            Frame::<MulticastMsg>::Cast {
                seq: 77,
                dest: GroupSet::from_bits(0b11),
                payload: Payload::from(vec![9, 8]),
            },
        ),
        golden("Frame.Shutdown", Frame::<MulticastMsg>::Shutdown),
        // ---- one line per remaining variant ----
        golden(
            "ConsensusMsg.Forward",
            ConsensusMsg::Forward {
                instance: 1,
                value: 17u64,
            },
        ),
        golden(
            "ConsensusMsg.Prepare",
            ConsensusMsg::<u64>::Prepare {
                instance: 2,
                ballot: ballot(),
            },
        ),
        golden(
            "ConsensusMsg.Accept",
            ConsensusMsg::Accept {
                instance: 3,
                ballot: ballot(),
                value: 17u64,
            },
        ),
        golden(
            "ConsensusMsg.Accepted",
            ConsensusMsg::Accepted {
                instance: 4,
                ballot: ballot(),
                value: 18u64,
                floor: 3,
            },
        ),
        golden(
            "ConsensusMsg.Decide",
            ConsensusMsg::Decide {
                instance: 6,
                value: 19u64,
            },
        ),
        golden("Stage.S0", Stage::S0),
        golden("Stage.S1", Stage::S1),
        golden("Stage.S2", Stage::S2),
        golden("Stage.S3", Stage::S3),
        golden("MulticastMsg.Rm", MulticastMsg::Rm(RmcastMsg::Data(app()))),
        golden(
            "MulticastMsg.Cons",
            MulticastMsg::Cons(ConsensusMsg::Accept {
                instance: 8,
                ballot: ballot(),
                value: Arc::new(vec![entry()]),
            }),
        ),
        golden(
            "MulticastMsg.TsNudge",
            MulticastMsg::TsNudge(Arc::new(vec![entry()])),
        ),
        golden("BroadcastMsg.Rm", BroadcastMsg::Rm(app())),
        golden(
            "BroadcastMsg.Cons",
            BroadcastMsg::Cons(ConsensusMsg::Decide {
                instance: 9,
                value: Arc::new(vec![app()]),
            }),
        ),
        golden(
            "BroadcastMsg.BundleAck",
            BroadcastMsg::BundleAck { round: 6 },
        ),
        golden("SkeenMsg.Data", SkeenMsg::Data(app())),
        golden("RingStep", RingStep { msg: app(), ts: 8 }),
        golden("RingMsg.Enter", RingMsg::Enter { msg: app(), ts: 0 }),
        golden("RingMsg.Final", RingMsg::Final { msg: app(), ts: 9 }),
        golden("RingMsg.FinalAck", RingMsg::FinalAck { id: mid() }),
        golden("RodriguesMsg.Data", RodriguesMsg::Data(app())),
        golden(
            "RodriguesMsg.Cons",
            RodriguesMsg::Cons {
                id: mid(),
                msg: ConsensusMsg::Accepted {
                    instance: 5,
                    ballot: ballot(),
                    value: 21,
                    floor: 0,
                },
            },
        ),
        golden("SequencerMsg.Data", SequencerMsg::Data(app())),
        golden("SequencerMsg.Vote", SequencerMsg::Vote { id: mid() }),
        golden("OptimisticMsg.Data", OptimisticMsg::Data(app())),
        golden("MergeMsg.Pub", MergeMsg::Pub { msg: app(), ts: 3 }),
        golden("Response.Value", Response::Value(None)),
        golden("Response.NewValue", Response::NewValue(-7)),
        golden("Response.Done", Response::Done),
        golden(
            "Frame.CastAck",
            Frame::<MulticastMsg>::CastAck { id: mid() },
        ),
        golden("Frame.Req", Frame::<MulticastMsg>::Req { body: vec![1, 2] }),
        golden("Frame.Rep", Frame::<MulticastMsg>::Rep { body: vec![3] }),
        golden(
            "Frame.CrashNotify",
            Frame::<MulticastMsg>::CrashNotify { of: ProcessId(2) },
        ),
    ]
}

fn hex(bytes: &[u8]) -> String {
    let mut out = String::new();
    for b in bytes {
        write!(out, "{b:02x}").expect("write to String");
    }
    out
}

fn unhex(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("corpus is valid hex"))
        .collect()
}

#[test]
fn wire_format_matches_blessed_corpus() {
    let got: String = corpus()
        .iter()
        .map(|g| format!("{} {}\n", g.name, hex(&g.sealed)))
        .collect();
    if std::env::var_os("WAMCAST_BLESS").is_some() {
        let path = format!(
            "{}/tests/golden_wire_corpus.txt",
            env!("CARGO_MANIFEST_DIR")
        );
        std::fs::write(&path, &got).expect("write goldens");
        eprintln!("blessed {} corpus lines into {path}", got.lines().count());
        return;
    }
    assert!(
        !GOLDEN.trim().is_empty(),
        "golden corpus missing — run with WAMCAST_BLESS=1 once"
    );
    for (g, n) in GOLDEN.lines().zip(got.lines()) {
        let name = n.split(' ').next().unwrap_or("?");
        assert_eq!(
            g, n,
            "wire format drifted for {name} — an intentional change needs a \
             VERSION bump and a WAMCAST_BLESS=1 re-bless"
        );
    }
    assert_eq!(GOLDEN, got, "corpus length changed");
}

/// The pinned bytes must also *decode* back to the canonical value — this
/// is the direction that catches a decoder losing compatibility with
/// frames produced by older builds.
#[test]
fn blessed_bytes_decode_to_canonical_values() {
    if GOLDEN.trim().is_empty() {
        return; // first bless pending; the other test reports it
    }
    let corpus = corpus();
    for g in &corpus {
        let pinned = GOLDEN
            .lines()
            .find_map(|l| l.strip_prefix(g.name).and_then(|r| r.strip_prefix(' ')))
            .unwrap_or_else(|| panic!("{} missing from corpus — re-bless", g.name));
        if let Err(e) = (g.decodes_back)(&unhex(pinned)) {
            panic!("{}: blessed bytes {e}", g.name);
        }
    }
    let mut names: Vec<_> = corpus.iter().map(|g| g.name).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), corpus.len(), "corpus names must be unique");
}
