//! Wire layout of every baseline protocol's messages, so the TCP runtime
//! can host the Figure 1 baselines exactly like the paper's algorithms.
//! Declared once with `wamcast_types::wire_enum!` / `wire_struct!`, which
//! generate the codec and the fuzz generator. Tags and field order are
//! part of the wire format: changing either is a protocol break.

use crate::detmerge::MergeMsg;
use crate::optimistic::OptimisticMsg;
use crate::ring::{RingMsg, RingStep};
use crate::rodrigues::RodriguesMsg;
use crate::sequencer::SequencerMsg;
use crate::skeen::SkeenMsg;
use wamcast_types::{wire_enum, wire_struct};

wire_enum!(SkeenMsg {
    0 => Data(m),
    1 => Propose { id, ts },
});

wire_struct!(RingStep { msg, ts });

wire_enum!(RingMsg {
    0 => Enter { msg, ts },
    1 => Cons(c),
    2 => Final { msg, ts },
    3 => FinalAck { id },
});

wire_enum!(RodriguesMsg {
    0 => Data(m),
    1 => Ts { id, ts },
    2 => Cons { id, msg },
});

wire_enum!(SequencerMsg {
    0 => Data(m),
    1 => Assign { id, n },
    2 => Vote { id },
});

wire_enum!(OptimisticMsg {
    0 => Data(m),
    1 => Seq { id, n },
});

wire_enum!(MergeMsg {
    0 => Pub { msg, ts },
    1 => Null { ts },
});

#[cfg(test)]
mod tests {
    use super::*;
    use wamcast_consensus::{Ballot, ConsensusMsg};
    use wamcast_types::wire::Wire;
    use wamcast_types::{AppMessage, GroupSet, MessageId, Payload, ProcessId};

    fn msg(seq: u64) -> AppMessage {
        AppMessage::new(
            MessageId::new(ProcessId(1), seq),
            GroupSet::first_n(2),
            Payload::from(vec![7; 2]),
        )
    }

    #[test]
    fn baseline_messages_roundtrip() {
        let id = MessageId::new(ProcessId(3), 8);
        let skeen = vec![SkeenMsg::Data(msg(0)), SkeenMsg::Propose { id, ts: 5 }];
        for m in skeen {
            assert_eq!(SkeenMsg::from_wire(&m.to_wire()).unwrap(), m);
        }
        let ring = vec![
            RingMsg::Enter { msg: msg(1), ts: 0 },
            RingMsg::Cons(ConsensusMsg::Accept {
                instance: 1,
                ballot: Ballot::zero(ProcessId(0)),
                value: RingStep { msg: msg(2), ts: 3 },
            }),
            RingMsg::Final { msg: msg(3), ts: 9 },
            RingMsg::FinalAck { id },
        ];
        for m in ring {
            assert_eq!(RingMsg::from_wire(&m.to_wire()).unwrap(), m);
        }
        let rod = vec![
            RodriguesMsg::Data(msg(4)),
            RodriguesMsg::Ts { id, ts: 2 },
            RodriguesMsg::Cons {
                id,
                msg: ConsensusMsg::Decide {
                    instance: 0,
                    value: 11,
                },
            },
        ];
        for m in rod {
            assert_eq!(RodriguesMsg::from_wire(&m.to_wire()).unwrap(), m);
        }
        let seqr = vec![
            SequencerMsg::Data(msg(5)),
            SequencerMsg::Assign { id, n: 4 },
            SequencerMsg::Vote { id },
        ];
        for m in seqr {
            assert_eq!(SequencerMsg::from_wire(&m.to_wire()).unwrap(), m);
        }
        let opt = vec![OptimisticMsg::Data(msg(6)), OptimisticMsg::Seq { id, n: 1 }];
        for m in opt {
            assert_eq!(OptimisticMsg::from_wire(&m.to_wire()).unwrap(), m);
        }
        let merge = vec![
            MergeMsg::Pub { msg: msg(7), ts: 3 },
            MergeMsg::Null { ts: 4 },
        ];
        for m in merge {
            assert_eq!(MergeMsg::from_wire(&m.to_wire()).unwrap(), m);
        }
    }
}
