//! Layout pins for the types every layer keeps or queues one copy of per
//! cast (DESIGN §6.5's retention table prices them by these sizes). A
//! field added, reordered or re-aligned shows up here before it shows up
//! as resident memory.
#![cfg(target_pointer_width = "64")]

use std::mem::{align_of, size_of};
use wamcast_core::{MsgEntry, MulticastMsg};
use wamcast_types::{Action, AppMessage, GroupSet, Payload};

#[test]
fn per_cast_types_keep_their_sizes() {
    // The body handle inside every `AppMessage`: `Option<Arc<[u8]>>`.
    assert_eq!(size_of::<Payload>(), 16);
    // Embedded in every `AppMessage`; a bare `u128` would align it to 16
    // and pad the message by 16 bytes.
    assert_eq!(align_of::<GroupSet>(), 8);
    assert_eq!(size_of::<GroupSet>(), 16);
    // A1's `pending` and A2's `rdelivered` keep one per cast until it is
    // A-Delivered; every `Deliver` action and every simulator `Cast`
    // event carries one.
    assert_eq!(size_of::<AppMessage>(), 48);
    // Paxos `decisions` batches and every `(TS, batch)` keep one per cast
    // per deciding instance.
    assert_eq!(size_of::<MsgEntry>(), 64);
    // Each outbox action and queued simulator arrival of A1.
    assert_eq!(size_of::<MulticastMsg>(), 64);
    assert_eq!(size_of::<Action<MulticastMsg>>(), 72);
}
