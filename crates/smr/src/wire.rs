//! Wire layout of the SMR control plane: what a TCP client reads back
//! from peer processes — per-op [`Response`]s and end-of-run
//! [`ReplicaLog`] snapshots for the history checker. Declared once with
//! `wamcast_types::wire_enum!` / `wire_struct!`, which generate the codec
//! and the fuzz generator. [`crate::Command`] needs no declaration:
//! commands travel *inside* `Payload` bytes using their own fixed-width
//! codec (`Command::encode`/`decode`), which is the representation
//! replicas apply. Tags and field order here are part of the wire format;
//! changing either is a protocol break.

use crate::history::ReplicaLog;
use crate::kv::AppliedOp;
use crate::Response;
use wamcast_types::{wire_enum, wire_struct};

wire_enum!(Response {
    0 => Value(v),
    1 => Prev(v),
    2 => NewValue(v),
    3 => Done,
});

wire_struct!(AppliedOp { id, dest, response });

wire_struct!(ReplicaLog {
    process,
    group,
    applied,
    digest,
    decode_errors,
});

#[cfg(test)]
mod tests {
    use super::*;
    use wamcast_types::wire::Wire;
    use wamcast_types::{GroupId, GroupSet, MessageId, ProcessId};

    #[test]
    fn responses_roundtrip() {
        for resp in [
            Response::Value(None),
            Response::Value(Some(-3)),
            Response::Prev(Some(i64::MIN)),
            Response::NewValue(i64::MAX),
            Response::Done,
        ] {
            assert_eq!(Response::from_wire(&resp.to_wire()).unwrap(), resp);
        }
    }

    #[test]
    fn replica_log_roundtrips() {
        let log = ReplicaLog {
            process: ProcessId(4),
            group: GroupId(2),
            applied: vec![AppliedOp {
                id: MessageId::new(ProcessId(0), 3),
                dest: GroupSet::first_n(2),
                response: Response::Done,
            }],
            digest: 0xfeed_beef,
            decode_errors: 0,
        };
        assert_eq!(ReplicaLog::from_wire(&log.to_wire()).unwrap(), log);
    }
}
