//! Application-level messages.

use crate::{GroupSet, ProcessId};
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// Opaque application payload carried by a cast message.
///
/// A cheaply clonable, immutable byte buffer, so fanning one message out
/// to many processes never copies the bytes. One representation: an
/// `Option<Arc<[u8]>>`, 16 bytes, with `None` for the empty payload — so
/// an empty body owns no buffer, and [`new`](Self::new) is `const` and
/// allocation-free. The workspace builds offline with no external
/// dependencies; this type covers the slice of the `bytes::Bytes` API the
/// protocols need.
///
/// # Example
///
/// ```
/// use wamcast_types::Payload;
///
/// let p = Payload::from_static(b"x=1");
/// assert_eq!(p.len(), 3);
/// assert_eq!(&p[..], b"x=1");
/// assert_eq!(p.clone(), Payload::from(b"x=1".to_vec()));
/// assert!(Payload::new().is_empty());
/// ```
#[derive(Clone, Default)]
pub struct Payload(
    /// `None` exactly when empty: no constructor wraps an empty buffer,
    /// and `is_empty` relies on it.
    Option<Arc<[u8]>>,
);

impl Payload {
    /// An empty payload.
    #[inline]
    pub const fn new() -> Self {
        Payload(None)
    }

    /// A payload holding a copy of a `'static` byte string — one
    /// allocation and one copy, as [`copy_from_slice`](Self::copy_from_slice)
    /// (none for an empty string). Tests and examples use it for literals.
    #[inline]
    pub fn from_static(bytes: &'static [u8]) -> Self {
        Payload::copy_from_slice(bytes)
    }

    /// A payload copying `bytes` straight into its reference-counted
    /// buffer — exactly one allocation and one copy (none for an empty
    /// slice). `From<Vec<u8>>` on a borrowed slice would cost two (slice →
    /// `Vec`, `Vec` → `Arc<[u8]>`, whose lengths differ from the capacity
    /// in general); the wire decoder reads borrowed frame bytes, so this is
    /// its decode path.
    #[inline]
    pub fn copy_from_slice(bytes: &[u8]) -> Self {
        if bytes.is_empty() {
            Payload::new()
        } else {
            Payload(Some(Arc::from(bytes)))
        }
    }

    /// The payload bytes.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        self.0.as_deref().unwrap_or_default()
    }

    /// Number of payload bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Whether the payload is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.is_none()
    }
}

impl Deref for Payload {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Payload {
    fn from(v: Vec<u8>) -> Self {
        if v.is_empty() {
            Payload::new()
        } else {
            Payload(Some(v.into()))
        }
    }
}

impl From<&'static [u8]> for Payload {
    fn from(s: &'static [u8]) -> Self {
        Payload::from_static(s)
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Payload {}

impl std::hash::Hash for Payload {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Payload({}B)", self.len())
    }
}

/// Globally unique, totally ordered identifier of a cast message (`m.id`).
///
/// The paper's delivery rule breaks timestamp ties by message identifier:
/// `(m₁.ts, m₁.id) < (m₂.ts, m₂.id)` (§4.2). Identifiers are the pair
/// *(origin process, per-origin sequence number)* compared
/// lexicographically, so they are unique without coordination and the order
/// is total and agreed upon by everyone.
///
/// # Example
///
/// ```
/// use wamcast_types::{MessageId, ProcessId};
/// let a = MessageId::new(ProcessId(1), 0);
/// let b = MessageId::new(ProcessId(0), 9);
/// assert!(b < a); // origin id dominates
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MessageId {
    /// The process that cast the message.
    pub origin: ProcessId,
    /// Per-origin sequence number, starting at 0.
    pub seq: u64,
}

impl MessageId {
    /// Builds the identifier of the `seq`-th message cast by `origin`.
    #[inline]
    pub fn new(origin: ProcessId, seq: u64) -> Self {
        MessageId { origin, seq }
    }

    /// The trace layer's raw key for this cast (`(caster, seq)` as plain
    /// integers — `wamcast-trace` is dependency-free and cannot name
    /// `MessageId` itself).
    #[inline]
    pub fn cast_key(self) -> wamcast_trace::CastKey {
        wamcast_trace::CastKey::new(self.origin.0, self.seq)
    }
}

impl fmt::Debug for MessageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m({}#{})", self.origin, self.seq)
    }
}

impl fmt::Display for MessageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// An application message as cast by `A-MCast` / `A-BCast`.
///
/// Carries its identifier, destination group set (`m.dest`) and payload.
/// Protocol metadata (timestamp, stage, round, …) lives in the protocols'
/// own message types; `AppMessage` is what the application hands in and what
/// `A-Deliver` hands back.
///
/// # Example
///
/// ```
/// use wamcast_types::{AppMessage, GroupId, GroupSet, MessageId, Payload, ProcessId};
///
/// let m = AppMessage::new(
///     MessageId::new(ProcessId(0), 0),
///     GroupSet::from_iter([GroupId(0), GroupId(1)]),
///     Payload::from_static(b"update"),
/// );
/// assert_eq!(m.dest.len(), 2);
/// assert!(!m.is_single_group());
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct AppMessage {
    /// Unique identifier (`m.id`).
    pub id: MessageId,
    /// Destination groups (`m.dest`).
    pub dest: GroupSet,
    /// Opaque application payload.
    pub payload: Payload,
}

impl AppMessage {
    /// Creates a message.
    #[inline]
    pub fn new(id: MessageId, dest: GroupSet, payload: Payload) -> Self {
        AppMessage { id, dest, payload }
    }

    /// Whether `|m.dest| = 1`. Single-group messages take A1's fast path,
    /// skipping stages s1 and s2 entirely (§4.1).
    #[inline]
    pub fn is_single_group(&self) -> bool {
        self.dest.len() == 1
    }
}

impl fmt::Debug for AppMessage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "AppMessage{{{} -> {:?}, {}B}}",
            self.id,
            self.dest,
            self.payload.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GroupId;

    #[test]
    fn id_lexicographic_order() {
        let a = MessageId::new(ProcessId(0), 5);
        let b = MessageId::new(ProcessId(0), 6);
        let c = MessageId::new(ProcessId(1), 0);
        assert!(a < b);
        assert!(b < c);
    }

    #[test]
    fn single_group_detection() {
        let one = AppMessage::new(
            MessageId::new(ProcessId(0), 0),
            GroupSet::singleton(GroupId(2)),
            Payload::new(),
        );
        assert!(one.is_single_group());
        let two = AppMessage::new(
            MessageId::new(ProcessId(0), 1),
            GroupSet::from_iter([GroupId(0), GroupId(1)]),
            Payload::new(),
        );
        assert!(!two.is_single_group());
    }

    #[test]
    fn debug_renders() {
        let m = AppMessage::new(
            MessageId::new(ProcessId(3), 7),
            GroupSet::singleton(GroupId(0)),
            Payload::from_static(b"xy"),
        );
        let s = format!("{m:?}");
        assert!(s.contains("p3"), "{s}");
        assert!(s.contains("2B"), "{s}");
        assert_eq!(format!("{}", m.id), "m(p3#7)");
    }

    #[test]
    fn payload_equality_spans_representations() {
        let a = Payload::from_static(b"abc");
        let b = Payload::from(b"abc".to_vec());
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        assert!(!a.is_empty());
        assert_eq!(&b[1..], b"bc");
    }
}
