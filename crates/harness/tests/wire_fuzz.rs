//! Round-trip fuzz of every wire message type in the stack registry's
//! arms, plus hostile-input hardening of the envelope.
//!
//! Every value is drawn by the type's own [`Sample`] impl: the one its
//! `wire_enum!` / `wire_struct!` declaration generates, or a leaf's
//! hand-written one, so the fuzzer reaches every declared variant without
//! spelling a layout a second time. Three properties, per type, over
//! seeded [`SplitMix64`] streams:
//!
//! 1. **Round trip** — `open(seal(m)) == m` for ≥ 10 000 drawn values
//!    (through the versioned envelope, so magic/version/arm stamping is
//!    exercised on every case, not just the body codec).
//! 2. **Truncation is always an error** — the codec is strictly
//!    sequential, so *every* strict prefix of a sealed frame must decode
//!    to `Err`, never to `Ok` and never to a panic. Checked at every
//!    boundary for a sample of cases.
//! 3. **Mutation never panics** — flipping an arbitrary byte may or may
//!    not produce a decodable frame (flipping a payload byte is fine),
//!    but it must never panic or allocate absurdly (hostile length claims
//!    are rejected before allocation).
//!
//! Wrong-version, wrong-magic and wrong-arm frames are additionally
//! pinned to their exact error variants, and every declared enum's first
//! unused tag to `UnknownTag` naming the enum.

use std::fmt::Debug;
use wamcast_baselines::detmerge::MergeMsg;
use wamcast_baselines::optimistic::OptimisticMsg;
use wamcast_baselines::ring::{RingMsg, RingStep};
use wamcast_baselines::rodrigues::RodriguesMsg;
use wamcast_baselines::sequencer::SequencerMsg;
use wamcast_baselines::skeen::SkeenMsg;
use wamcast_consensus::{Ballot, ConsensusMsg};
use wamcast_core::{BroadcastMsg, MsgBatch, MsgEntry, MulticastMsg, Stage};
use wamcast_net::tcp::{Frame, NoMsg};
use wamcast_rmcast::RmcastMsg;
use wamcast_smr::{AppliedOp, ReplicaLog, Response};
use wamcast_types::wire::{self, Sample, Wire, WireError};
use wamcast_types::{AppMessage, GroupId, GroupSet, MessageId, Payload, ProcessId, SplitMix64};

const CASES: usize = 10_000;
const ARM: u8 = 0x2A;

/// Seeds a per-type stream so types fuzz independently of one another.
fn rng_for(name: &str) -> SplitMix64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    SplitMix64::new(h)
}

/// Properties 1–4 for one type: round trip through the envelope,
/// `seal_into` differential equality over a reused dirty buffer, strict
/// truncation rejection on a sample, mutation panic-freedom.
fn fuzz_type<T>(name: &str)
where
    T: Wire + Sample + PartialEq + Debug,
{
    let mut rng = rng_for(name);
    // The pooled-buffer path's reuse buffer: deliberately *dirty* from the
    // previous case (and pre-soiled here), so any dependence of `seal_into`
    // on its buffer's prior contents or capacity shows up as a byte diff.
    let mut reused: Vec<u8> = vec![0xEE; 7];
    for case in 0..CASES {
        let v = T::sample(&mut rng);
        let sealed = wire::seal(ARM, &v);
        wire::seal_into(ARM, &v, &mut reused);
        assert_eq!(
            reused, sealed,
            "{name} case {case}: seal_into over a reused buffer diverged from seal"
        );
        let back = wire::open::<T>(ARM, &sealed)
            .unwrap_or_else(|e| panic!("{name} case {case}: decode failed: {e}"));
        assert_eq!(back, v, "{name} case {case}: round trip changed the value");

        if case % 97 == 0 {
            // Every strict prefix must be an error (the codec reads
            // sequentially, so a prefix always underruns).
            for cut in 0..sealed.len() {
                assert!(
                    wire::open::<T>(ARM, &sealed[..cut]).is_err(),
                    "{name} case {case}: truncation to {cut}/{} bytes decoded",
                    sealed.len()
                );
            }
        }
        // Flip one byte: any outcome but a panic is acceptable.
        if !sealed.is_empty() {
            let mut bent = sealed.clone();
            let at = rng.next_below(bent.len() as u64) as usize;
            bent[at] ^= (1 + rng.next_below(255)) as u8;
            let _ = wire::open::<T>(ARM, &bent);
        }
    }

    // Envelope pinning on one canonical instance.
    let v = T::sample(&mut rng);
    let sealed = wire::seal(ARM, &v);
    let mut bad_magic = sealed.clone();
    bad_magic[0] ^= 0xFF;
    assert!(matches!(
        wire::open::<T>(ARM, &bad_magic),
        Err(WireError::BadMagic { .. })
    ));
    let mut bad_version = sealed.clone();
    bad_version[2] = wire::VERSION + 1;
    assert!(matches!(
        wire::open::<T>(ARM, &bad_version),
        Err(WireError::BadVersion { .. })
    ));
    assert!(matches!(
        wire::open::<T>(ARM.wrapping_add(1), &sealed),
        Err(WireError::WrongArm { .. })
    ));
}

#[test]
fn foundation_types_roundtrip() {
    fuzz_type::<ProcessId>("ProcessId");
    fuzz_type::<GroupId>("GroupId");
    fuzz_type::<GroupSet>("GroupSet");
    fuzz_type::<MessageId>("MessageId");
    fuzz_type::<Payload>("Payload");
    fuzz_type::<AppMessage>("AppMessage");
}

#[test]
fn consensus_messages_roundtrip() {
    fuzz_type::<Ballot>("Ballot");
    fuzz_type::<ConsensusMsg<u64>>("ConsensusMsg<u64>");
    // The instantiation A1 actually puts on the wire: batch-valued Paxos.
    fuzz_type::<ConsensusMsg<MsgBatch>>("ConsensusMsg<MsgBatch>");
}

#[test]
fn rmcast_messages_roundtrip() {
    fuzz_type::<RmcastMsg>("RmcastMsg");
}

#[test]
fn paper_arm_messages_roundtrip() {
    fuzz_type::<Stage>("Stage");
    fuzz_type::<MsgEntry>("MsgEntry");
    fuzz_type::<MulticastMsg>("MulticastMsg");
    fuzz_type::<BroadcastMsg>("BroadcastMsg");
}

#[test]
fn baseline_arm_messages_roundtrip() {
    fuzz_type::<SkeenMsg>("SkeenMsg");
    fuzz_type::<RingStep>("RingStep");
    fuzz_type::<RingMsg>("RingMsg");
    fuzz_type::<RodriguesMsg>("RodriguesMsg");
    fuzz_type::<SequencerMsg>("SequencerMsg");
    fuzz_type::<OptimisticMsg>("OptimisticMsg");
    fuzz_type::<MergeMsg>("MergeMsg");
}

#[test]
fn smr_control_plane_roundtrips() {
    fuzz_type::<Response>("Response");
    fuzz_type::<AppliedOp>("AppliedOp");
    fuzz_type::<ReplicaLog>("ReplicaLog");
}

#[test]
fn tcp_frames_roundtrip() {
    fuzz_type::<Frame<MulticastMsg>>("Frame<MulticastMsg>");
    // The broadcast arm's frame instantiation (A2 over TCP).
    fuzz_type::<Frame<BroadcastMsg>>("Frame<BroadcastMsg>");
}

/// One line per declared enum (and the uninhabited `NoMsg`): the first
/// tag it leaves unused, which must decode to `UnknownTag` naming the
/// enum — not to a variant, not to another error, not to a panic.
#[test]
fn first_unused_tag_is_an_unknown_tag_error() {
    fn decode<T: Wire>(bytes: &[u8]) -> Result<(), WireError> {
        T::from_wire(bytes).map(drop)
    }
    type Decode = fn(&[u8]) -> Result<(), WireError>;
    let table: [(&str, u8, Decode); 14] = [
        ("ConsensusMsg", 6, decode::<ConsensusMsg<u64>>),
        ("RmcastMsg", 2, decode::<RmcastMsg>),
        ("Stage", 4, decode::<Stage>),
        ("MulticastMsg", 4, decode::<MulticastMsg>),
        ("BroadcastMsg", 4, decode::<BroadcastMsg>),
        ("SkeenMsg", 2, decode::<SkeenMsg>),
        ("RingMsg", 4, decode::<RingMsg>),
        ("RodriguesMsg", 3, decode::<RodriguesMsg>),
        ("SequencerMsg", 3, decode::<SequencerMsg>),
        ("OptimisticMsg", 2, decode::<OptimisticMsg>),
        ("MergeMsg", 2, decode::<MergeMsg>),
        ("Response", 4, decode::<Response>),
        ("Frame", 7, decode::<Frame<MulticastMsg>>),
        ("NoMsg", 0, decode::<NoMsg>),
    ];
    for (what, tag, decode) in table {
        assert_eq!(
            decode(&[tag]),
            Err(WireError::UnknownTag { what, tag }),
            "{what}"
        );
    }
}

#[test]
fn garbage_never_panics() {
    // Unstructured noise at the envelope: whatever happens, no panic and
    // no absurd allocation (hostile length claims are checked first).
    let mut rng = rng_for("garbage");
    for _ in 0..CASES {
        let len = rng.next_below(64) as usize;
        let noise: Vec<u8> = (0..len).map(|_| rng.next_below(256) as u8).collect();
        let _ = wire::open::<Frame<MulticastMsg>>(ARM, &noise);
        let _ = wire::open::<MulticastMsg>(ARM, &noise);
        let _ = wire::open::<ReplicaLog>(ARM, &noise);
        let _ = wire::peek_arm(&noise);
    }
}
