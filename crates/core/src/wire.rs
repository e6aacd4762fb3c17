//! Wire layout of Algorithm A1 ([`MulticastMsg`]) and Algorithm A2
//! ([`BroadcastMsg`]) messages, declared once with
//! `wamcast_types::wire_enum!` / `wire_struct!`, which generate the codec
//! and the fuzz generator. Tags and field order are part of the wire
//! format: changing either is a protocol break and must bump
//! `wamcast_types::wire::VERSION`.

use crate::abcast::BroadcastMsg;
use crate::amcast::{MsgEntry, MulticastMsg, Stage};
use wamcast_types::{wire_enum, wire_struct};

wire_enum!(Stage {
    0 => S0,
    1 => S1,
    2 => S2,
    3 => S3,
});

wire_struct!(MsgEntry { msg, ts, stage });

wire_enum!(MulticastMsg {
    0 => Rm(m),
    1 => Cons(c),
    2 => Ts(batch),
    3 => TsNudge(batch),
});

wire_enum!(BroadcastMsg {
    0 => Rm(m),
    1 => Cons(c),
    2 => Bundle { round, msgs },
    3 => BundleAck { round },
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abcast::RoundBundle;
    use crate::amcast::MsgBatch;
    use std::sync::Arc;
    use wamcast_consensus::{Ballot, ConsensusMsg};
    use wamcast_rmcast::RmcastMsg;
    use wamcast_types::wire::Wire;
    use wamcast_types::{AppMessage, GroupSet, MessageId, Payload, ProcessId};

    fn entry(seq: u64) -> MsgEntry {
        MsgEntry {
            msg: AppMessage::new(
                MessageId::new(ProcessId(2), seq),
                GroupSet::first_n(2),
                Payload::from(vec![seq as u8; 3]),
            ),
            ts: 10 + seq,
            stage: Stage::S1,
        }
    }

    #[test]
    fn multicast_variants_roundtrip() {
        let batch: MsgBatch = Arc::new(vec![entry(0), entry(1)]);
        let msgs = vec![
            MulticastMsg::Rm(RmcastMsg::Data(entry(5).msg)),
            MulticastMsg::Cons(ConsensusMsg::Accept {
                instance: 7,
                ballot: Ballot::zero(ProcessId(1)),
                value: batch.clone(),
            }),
            MulticastMsg::Ts(batch.clone()),
            MulticastMsg::TsNudge(batch),
        ];
        for m in msgs {
            assert_eq!(MulticastMsg::from_wire(&m.to_wire()).unwrap(), m);
        }
    }

    #[test]
    fn broadcast_variants_roundtrip() {
        let bundle: RoundBundle = Arc::new(vec![entry(0).msg, entry(1).msg]);
        let msgs = vec![
            BroadcastMsg::Rm(entry(3).msg),
            BroadcastMsg::Cons(ConsensusMsg::Decide {
                instance: 2,
                value: bundle.clone(),
            }),
            BroadcastMsg::Bundle {
                round: 9,
                msgs: bundle,
            },
            BroadcastMsg::BundleAck { round: 9 },
        ];
        for m in msgs {
            assert_eq!(BroadcastMsg::from_wire(&m.to_wire()).unwrap(), m);
        }
    }

    #[test]
    fn stage_tags_exhaustive() {
        for s in [Stage::S0, Stage::S1, Stage::S2, Stage::S3] {
            assert_eq!(Stage::from_wire(&s.to_wire()).unwrap(), s);
        }
    }
}
