//! Wire layout of the consensus engine's messages, declared once: each
//! line gives a variant's tag byte and its fields in wire order, and
//! `wamcast_types::wire_enum!` / `wire_struct!` generate the codec and the
//! fuzz generator from it. Format rules (fixed-width LE, length-prefixed
//! sequences, a leading tag byte per enum) are in `wamcast_types::wire`.
//! Tags and field order are part of the wire format: changing either is a
//! protocol break and must bump `wamcast_types::wire::VERSION`.

use crate::{Ballot, ConsensusMsg};
use wamcast_types::{wire_enum, wire_struct};

wire_struct!(Ballot { round, owner });

wire_enum!(ConsensusMsg<V> {
    0 => Forward { instance, value },
    1 => Prepare { instance, ballot },
    2 => Promise { instance, ballot, accepted },
    3 => Accept { instance, ballot, value },
    4 => Accepted { instance, ballot, value, floor },
    5 => Decide { instance, value },
});

#[cfg(test)]
mod tests {
    use super::*;
    use wamcast_types::wire::Wire;
    use wamcast_types::ProcessId;

    #[test]
    fn all_variants_roundtrip() {
        let b = Ballot {
            round: 3,
            owner: ProcessId(2),
        };
        let msgs: Vec<ConsensusMsg<u64>> = vec![
            ConsensusMsg::Forward {
                instance: 1,
                value: 42,
            },
            ConsensusMsg::Prepare {
                instance: 2,
                ballot: b,
            },
            ConsensusMsg::Promise {
                instance: 3,
                ballot: b,
                accepted: None,
            },
            ConsensusMsg::Promise {
                instance: 3,
                ballot: b,
                accepted: Some((Ballot::zero(ProcessId(0)), 7)),
            },
            ConsensusMsg::Accept {
                instance: 4,
                ballot: b,
                value: 9,
            },
            ConsensusMsg::Accepted {
                instance: 5,
                ballot: b,
                value: 9,
                floor: 4,
            },
            ConsensusMsg::Decide {
                instance: 6,
                value: 10,
            },
        ];
        for m in msgs {
            assert_eq!(ConsensusMsg::<u64>::from_wire(&m.to_wire()).unwrap(), m);
        }
    }
}
