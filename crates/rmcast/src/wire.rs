//! Wire layout of the reliable-multicast messages, declared once with
//! `wamcast_types::wire_enum!`, which generates the codec and the fuzz
//! generator. Tags and field order are part of the wire format: changing
//! either is a protocol break.

use crate::RmcastMsg;
use wamcast_types::wire_enum;

wire_enum!(RmcastMsg {
    0 => Data(m),
    1 => Ack(id),
});

#[cfg(test)]
mod tests {
    use super::*;
    use wamcast_types::wire::Wire;
    use wamcast_types::{AppMessage, GroupSet, MessageId, Payload, ProcessId};

    #[test]
    fn variants_roundtrip() {
        let m = RmcastMsg::Data(AppMessage::new(
            MessageId::new(ProcessId(1), 4),
            GroupSet::first_n(3),
            Payload::from(b"p".to_vec()),
        ));
        assert_eq!(RmcastMsg::from_wire(&m.to_wire()).unwrap(), m);
        let a = RmcastMsg::Ack(MessageId::new(ProcessId(0), 1));
        assert_eq!(RmcastMsg::from_wire(&a.to_wire()).unwrap(), a);
    }
}
