//! Dependency-free wire codec: the byte format protocol messages use to
//! cross process boundaries.
//!
//! The simulator runs in one address space and hands `Arc<M>` around, so
//! it never serializes a message. The TCP runtime in `wamcast-net` needs
//! real bytes, and the workspace builds offline with no external
//! dependencies, so the codec is hand-rolled: a tiny writer/reader
//! pair ([`WireWriter`] / [`WireReader`]), a [`Wire`] trait implemented by
//! every protocol message, and a versioned envelope ([`seal`] / [`open`])
//! that frames each datagram with `magic, version, arm-id` so peers reject
//! cross-version and cross-stack traffic instead of misparsing it.
//!
//! Only the leaves are written by hand here: integers, ids, [`GroupSet`],
//! [`Payload`], [`AppMessage`] and the `Vec` / `Arc` / `Option` / pair
//! containers. Every message type is *declared* with
//! [`wire_struct!`](crate::wire_struct) or [`wire_enum!`](crate::wire_enum):
//! one line per variant, naming its tag byte and its fields in wire
//! order. The declaration generates `encode`, `decode` and the fuzz
//! suite's [`Sample`] generator, so a layout is written once.
//!
//! Design rules (see `DESIGN.md` §"Wire envelope"):
//!
//! * **Fixed-width little-endian integers.** No varints: messages are
//!   dominated by payload bytes, and fixed widths keep the golden corpus
//!   stable and the decoder branch-free.
//! * **Length-prefixed byte strings and sequences**, never delimiters —
//!   payloads are arbitrary bytes, so no sentinel is safe to reserve.
//! * **Every decode path returns [`WireError`]**; malformed input (truncated,
//!   trailing, hostile length claims) must never panic or over-allocate.
//!   Length claims are validated against the bytes actually remaining
//!   before any allocation happens.
//! * **Enums carry a leading tag byte**; unknown tags are errors, which is
//!   what makes the envelope version byte enforceable.
//!
//! # Example
//!
//! ```
//! use wamcast_types::wire::{open, seal, Wire, WireError};
//! use wamcast_types::{AppMessage, GroupSet, MessageId, Payload, ProcessId};
//!
//! let m = AppMessage::new(
//!     MessageId::new(ProcessId(3), 7),
//!     GroupSet::first_n(2),
//!     Payload::from(b"x=1".to_vec()),
//! );
//! // Raw codec round-trip.
//! assert_eq!(AppMessage::from_wire(&m.to_wire()).unwrap(), m);
//! // Envelope: arm id 4 must match on both sides.
//! let datagram = seal(4, &m);
//! assert_eq!(open::<AppMessage>(4, &datagram).unwrap(), m);
//! assert!(matches!(
//!     open::<AppMessage>(5, &datagram),
//!     Err(WireError::WrongArm { got: 4, want: 5 })
//! ));
//! ```

use crate::{AppMessage, GroupId, GroupSet, MessageId, Payload, ProcessId, SplitMix64};
use std::fmt;
use std::sync::Arc;

/// First two bytes of every enveloped datagram.
pub const MAGIC: [u8; 2] = *b"WM";

/// Current wire-format version. Bump on any incompatible layout change;
/// the golden corpus test exists to make such changes loud. Version 2
/// added the sender's floor to consensus `Accepted`.
pub const VERSION: u8 = 2;

/// Envelope length: magic (2) + version (1) + arm id (1).
pub const ENVELOPE_LEN: usize = 4;

/// Why a decode failed. Every malformed input maps here — never a panic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Input ended before the value it claimed to hold.
    Truncated,
    /// Decoding succeeded but this many bytes were left over.
    Trailing(usize),
    /// The first two bytes were not [`MAGIC`].
    BadMagic([u8; 2]),
    /// The version byte did not match [`VERSION`]. There is no negotiation:
    /// a node speaks exactly one version and rejects everything else.
    BadVersion(u8),
    /// The envelope named a different protocol arm than this node hosts.
    WrongArm {
        /// Arm id carried by the datagram.
        got: u8,
        /// Arm id this node expected.
        want: u8,
    },
    /// An enum tag byte had no meaning for the named type.
    UnknownTag {
        /// The type being decoded.
        what: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// A length prefix claimed more bytes than the input holds — rejected
    /// before allocating anything.
    TooLong {
        /// Length the prefix claimed.
        claimed: u64,
        /// Bytes actually remaining.
        available: usize,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "input truncated"),
            WireError::Trailing(n) => write!(f, "{n} trailing bytes after value"),
            WireError::BadMagic(m) => write!(f, "bad magic {m:02x?}"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::WrongArm { got, want } => {
                write!(f, "datagram for arm {got}, this node hosts arm {want}")
            }
            WireError::UnknownTag { what, tag } => {
                write!(f, "unknown tag {tag} while decoding {what}")
            }
            WireError::TooLong { claimed, available } => {
                write!(
                    f,
                    "length prefix claims {claimed} bytes, only {available} remain"
                )
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Append-only byte sink the [`Wire`] encoders write into.
///
/// # Example
///
/// ```
/// use wamcast_types::wire::WireWriter;
/// let mut w = WireWriter::new();
/// w.u16(0x1234);
/// w.bytes(b"ab");
/// assert_eq!(w.finish(), vec![0x34, 0x12, 2, 0, 0, 0, b'a', b'b']);
/// ```
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// An empty writer.
    pub fn new() -> Self {
        WireWriter { buf: Vec::new() }
    }

    /// An empty writer with `cap` bytes pre-reserved.
    pub fn with_capacity(cap: usize) -> Self {
        WireWriter {
            buf: Vec::with_capacity(cap),
        }
    }

    /// A writer over a caller-owned buffer: clears `buf` (keeping its
    /// capacity) and appends into it. With [`Self::finish`] handing the
    /// buffer back, a hot loop encodes every frame into one allocation
    /// instead of one per frame — see [`seal_into`] for the pooled-envelope
    /// form. The encoding is byte-identical to a fresh writer's: clearing
    /// resets the length, and stale capacity is never observable.
    pub fn over(mut buf: Vec<u8>) -> Self {
        buf.clear();
        WireWriter { buf }
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a bool as one byte, `0` or `1`.
    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Appends a `u32` length prefix followed by the bytes.
    pub fn bytes(&mut self, v: &[u8]) {
        debug_assert!(
            v.len() <= u32::MAX as usize,
            "byte string too long for wire"
        );
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// Appends raw bytes with **no** length prefix (envelope header only).
    pub fn raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// `log2` of the number of [`BodyCache`] sets, of two slots each. A body
/// is worth finding from the first copy of its cast a node decodes until
/// the last one — the `Data`, each group's `(TS, batch)`, then `Forward`,
/// `Accept` and every member's `Accepted` of up to two consensus
/// instances — which is a few batch windows and consensus rounds. The set
/// of an id is its sequence number plus an offset of its caster's (see
/// `BodyCache::set`), so one caster's last 2^10 casts never evict each
/// other, and two casters keep their last 2^9 each at any distance between
/// their sequence numbers: 16 times the casts a `tcp_global` caster has
/// open (one client's closed loop of 32). The bound is on what the slots
/// keep, not on what they find: a slot holds a body until another cast
/// takes it, and evenly spread ids fill every slot. 1 024 slots keep at
/// most ≈ 0.22 MB of 200-byte bodies per node (1 024 × 216 B). 4 096
/// evenly filled slots would keep ≈ 0.9 MB, 2–3 MB more on a four-node
/// cluster than the 0.2–0.5 MB a node's hashed 4 096 slots reached, and
/// 2 048 would keep ≈ 0.44 MB, the top of that. A collision costs one
/// allocation, as every decode did before, never a wrong body.
const BODY_SET_BITS: u32 = 9;

/// One node's memory of the message bodies it decoded lately, so that the
/// many frames carrying one cast — its `Data`, every `(TS, batch)`,
/// `Accept` and `Accepted` naming it — end up sharing **one** buffer per
/// node instead of each keeping a private copy alive.
///
/// Two-way set-associative and fixed-size: an id may sit in either slot
/// of its set, and a newer id takes one of them over. Ids are never
/// trusted alone — a cached body is shared only if it is byte-equal to
/// what the frame carries — so a hostile or buggy sender can make the
/// cache miss, not make it lie.
/// Belongs to exactly one node: a process-wide cache would share bodies
/// between the nodes of an in-process cluster, which separate processes
/// could not.
///
/// # Example
///
/// ```
/// use wamcast_types::wire::{BodyCache, Wire, WireReader};
/// use wamcast_types::{AppMessage, GroupSet, MessageId, Payload, ProcessId};
///
/// let m = AppMessage::new(
///     MessageId::new(ProcessId(0), 7),
///     GroupSet::first_n(2),
///     Payload::from(b"body".to_vec()),
/// );
/// let bytes = m.to_wire();
/// let mut cache = BodyCache::new();
/// let a = AppMessage::decode(&mut WireReader::with_bodies(&bytes, &mut cache)).unwrap();
/// let b = AppMessage::decode(&mut WireReader::with_bodies(&bytes, &mut cache)).unwrap();
/// assert_eq!((&a, &b), (&m, &m));
/// assert_eq!(a.payload.as_ptr(), b.payload.as_ptr(), "one buffer, two handles");
/// assert_eq!((cache.hits(), cache.misses()), (1, 1));
/// ```
pub struct BodyCache {
    slots: Box<[Option<(MessageId, Payload)>]>,
    hits: u64,
    misses: u64,
}

impl BodyCache {
    /// An empty cache.
    pub fn new() -> Self {
        BodyCache {
            slots: vec![None; 2 << BODY_SET_BITS].into_boxed_slice(),
            hits: 0,
            misses: 0,
        }
    }

    /// The caster `id` counts as: its origin, and the client too where
    /// clients sharing a caster number their casts `client << 32 | round`.
    fn caster(id: MessageId) -> u32 {
        id.origin
            .0
            .wrapping_add(((id.seq >> 32) as u32).wrapping_mul(0x9E37_79B9))
    }

    /// The first slot of `id`'s set. Consecutive ids of one caster take
    /// consecutive sets, from an offset of the caster's: the caster
    /// bit-reversed, which puts the offsets of casters 0, 1, 2, 3 … as far
    /// apart as their number allows.
    fn set(id: MessageId) -> usize {
        let offset = Self::caster(id).reverse_bits() >> (u32::BITS - BODY_SET_BITS);
        let set = id.seq.wrapping_add(u64::from(offset)) & ((1 << BODY_SET_BITS) - 1);
        2 * set as usize
    }

    /// The cached body of `id`, if it holds exactly `bytes`.
    fn held(&self, id: MessageId, bytes: &[u8]) -> Option<&Payload> {
        let set = Self::set(id);
        self.slots[set..set + 2]
            .iter()
            .flatten()
            .find(|(held_id, held)| *held_id == id && held.as_slice() == bytes)
            .map(|(_, held)| held)
    }

    /// Puts `payload` in a slot of `id`'s set, whose first slot is the one
    /// taken more recently. The other slot goes, unless the first holds an
    /// older cast of the same caster and the other another caster's body:
    /// then two casters that share the set keep one body each.
    fn take(&mut self, id: MessageId, payload: Payload) {
        let set = Self::set(id);
        let ways = &mut self.slots[set..set + 2];
        let mine = |way: &Option<(MessageId, Payload)>| {
            way.as_ref()
                .is_some_and(|(held_id, _)| Self::caster(*held_id) == Self::caster(id))
        };
        let other = |way: &Option<(MessageId, Payload)>| way.is_some() && !mine(way);
        if !(mine(&ways[0]) && other(&ways[1])) {
            ways.swap(0, 1);
        }
        ways[0] = Some((id, payload));
    }

    /// The payload of message `id`, whose bytes on the wire are `bytes`:
    /// the cached buffer if it holds exactly these bytes under this id,
    /// else a fresh copy, which takes a slot. Empty bodies own no buffer
    /// and are never cached.
    pub fn share(&mut self, id: MessageId, bytes: &[u8]) -> Payload {
        if bytes.is_empty() {
            return Payload::new();
        }
        if let Some(held) = self.held(id, bytes).cloned() {
            self.hits += 1;
            return held;
        }
        let fresh = Payload::copy_from_slice(bytes);
        self.take(id, fresh.clone());
        self.misses += 1;
        fresh
    }

    /// Records `payload` as the body of `id` — for a body that reached the
    /// node outside an [`AppMessage`] (a client's cast, which names its
    /// message only by sequence number), so later frames carrying the
    /// message find it.
    pub fn prime(&mut self, id: MessageId, payload: &Payload) {
        if !payload.is_empty() {
            self.take(id, payload.clone());
        }
    }

    /// Bodies [`share`](Self::share) found and shared.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Bodies [`share`](Self::share) had to copy: first sight of a cast,
    /// a slot taken over meanwhile, or bytes that differ from the cached.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

impl Default for BodyCache {
    fn default() -> Self {
        BodyCache::new()
    }
}

impl fmt::Debug for BodyCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BodyCache")
            .field("hits", &self.hits)
            .field("misses", &self.misses)
            .finish_non_exhaustive()
    }
}

/// Cursor over received bytes the [`Wire`] decoders read from.
///
/// All getters return [`WireError::Truncated`] instead of panicking when the
/// input runs dry, and length prefixes are checked against the remaining
/// bytes before any allocation.
///
/// # Example
///
/// ```
/// use wamcast_types::wire::{WireError, WireReader};
/// let mut r = WireReader::new(&[7, 0]);
/// assert_eq!(r.u16().unwrap(), 7);
/// assert_eq!(r.u8(), Err(WireError::Truncated));
/// ```
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    /// Where [`body`](Self::body) looks for a copy it already made.
    bodies: Option<&'a mut BodyCache>,
}

impl<'a> WireReader<'a> {
    /// A reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, bodies: None }
    }

    /// [`new`](Self::new), with the decoding node's [`BodyCache`]: message
    /// bodies the node already holds are shared instead of copied again.
    /// What is decoded is equal either way.
    pub fn with_bodies(buf: &'a [u8], bodies: &'a mut BodyCache) -> Self {
        WireReader {
            buf,
            bodies: Some(bodies),
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// Whether every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.buf.len() < n {
            return Err(WireError::Truncated);
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    /// Reads a bool byte; anything other than `0`/`1` is an error.
    pub fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::UnknownTag { what: "bool", tag }),
        }
    }

    /// Reads a `u32`-length-prefixed byte string, borrowing from the input.
    /// Hostile length claims fail with [`WireError::TooLong`] before any
    /// allocation.
    pub fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let n = self.u32()? as usize;
        if n > self.remaining() {
            return Err(WireError::TooLong {
                claimed: n as u64,
                available: self.remaining(),
            });
        }
        self.take(n)
    }

    /// Reads the length-prefixed payload of message `id`: one copy into a
    /// fresh refcounted buffer, or — with a [`BodyCache`] that holds these
    /// very bytes under `id` — a handle to the copy made earlier.
    pub fn body(&mut self, id: MessageId) -> Result<Payload, WireError> {
        let bytes = self.bytes()?;
        Ok(match self.bodies.as_deref_mut() {
            Some(cache) => cache.share(id, bytes),
            None => Payload::copy_from_slice(bytes),
        })
    }

    /// Reads a `u32` element count for a sequence, validated against the
    /// remaining bytes (every element occupies at least one byte, so a
    /// count exceeding `remaining` is provably hostile).
    pub fn seq_len(&mut self) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        if n > self.remaining() {
            return Err(WireError::TooLong {
                claimed: n as u64,
                available: self.remaining(),
            });
        }
        Ok(n)
    }

    /// Succeeds only if every input byte was consumed.
    pub fn finish(self) -> Result<(), WireError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(WireError::Trailing(self.buf.len()))
        }
    }
}

/// A value with a byte-level wire representation.
///
/// Implementations must be **total inverses**: `decode(encode(v)) == v` for
/// every value, and `decode` must map every malformed input to `Err` —
/// never panic, never allocate proportionally to a length claim the input
/// cannot back. The fuzz suite in `wamcast-harness` enforces both.
///
/// # Example
///
/// A message type is declared, not implemented: [`wire_struct!`] names the
/// fields in wire order — which need not be the Rust order — and generates
/// `Wire` and [`Sample`] from them. A declaration that misses or invents a
/// field does not compile.
///
/// ```
/// use wamcast_types::wire::{Sample, Wire};
/// use wamcast_types::{wire_struct, ProcessId, SplitMix64};
///
/// #[derive(Debug, PartialEq)]
/// struct Ping { from: ProcessId, round: u64 }
///
/// wire_struct!(Ping { round, from });
///
/// let p = Ping { from: ProcessId(2), round: 7 };
/// assert_eq!(p.to_wire(), [7, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0], "round first");
/// assert_eq!(Ping::from_wire(&p.to_wire()).unwrap(), p);
/// assert!(Ping::from_wire(&[0u8; 3]).is_err(), "truncated input is an Err");
/// let q = Ping::sample(&mut SplitMix64::new(1));
/// assert_eq!(Ping::from_wire(&q.to_wire()).unwrap(), q);
/// ```
///
/// [`wire_struct!`]: crate::wire_struct
pub trait Wire: Sized {
    /// Appends this value's encoding to `w`.
    fn encode(&self, w: &mut WireWriter);

    /// Decodes one value from the front of `r`.
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError>;

    /// Encodes into a fresh buffer.
    fn to_wire(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        self.encode(&mut w);
        w.finish()
    }

    /// Decodes from a buffer, requiring every byte to be consumed.
    fn from_wire(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(bytes);
        let v = Self::decode(&mut r)?;
        r.finish()?;
        Ok(v)
    }
}

/// A value the codec fuzz suite can draw at random — every variant of a
/// declared message, with every leaf inside the range the wire carries.
/// Declarations generate it; the leaves below implement it by hand. Equal
/// generator seeds draw equal values.
pub trait Sample {
    /// Draws one value from `r`.
    fn sample(r: &mut SplitMix64) -> Self;
}

/// Declares the wire layout of a struct: its fields, in wire order.
/// Generates [`Wire`] — each field encoded, then decoded, in the order
/// listed, whatever the Rust declaration order — and [`Sample`]. Every
/// field type must itself be `Wire + Sample`. A declaration that misses or
/// invents a field is a compile error (the struct is destructured in
/// `encode` and built in `decode`). See the [`Wire`] example.
#[macro_export]
macro_rules! wire_struct {
    ($name:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::wire::Wire for $name {
            fn encode(&self, w: &mut $crate::wire::WireWriter) {
                let $name { $($field),+ } = self;
                $($crate::wire::Wire::encode($field, w);)+
            }

            fn decode(
                r: &mut $crate::wire::WireReader<'_>,
            ) -> ::core::result::Result<Self, $crate::wire::WireError> {
                ::core::result::Result::Ok($name {
                    $($field: $crate::wire::Wire::decode(r)?),+
                })
            }
        }

        impl $crate::wire::Sample for $name {
            fn sample(r: &mut $crate::SplitMix64) -> Self {
                $name { $($field: $crate::wire::Sample::sample(r)),+ }
            }
        }
    };
}

/// Declares the wire layout of an enum: one `tag => Variant` line per
/// variant, with its fields in wire order — `{ a, b }` for named fields,
/// `(a, b)` for a tuple variant (the names are only binders), nothing for
/// a unit variant. A variant is its tag byte followed by its fields.
/// Generates [`Wire`] — decoding an undeclared tag is
/// [`WireError::UnknownTag`] naming the enum — and [`Sample`], which
/// draws every declared variant. Type parameters, if any, are listed after
/// the name and bound by `Wire` (resp. `Sample`) in the generated impls.
/// A missing variant or field is a compile error in both directions.
///
/// # Example
///
/// ```
/// use wamcast_types::wire::{Wire, WireError};
/// use wamcast_types::{wire_enum, MessageId, ProcessId};
///
/// #[derive(Debug, PartialEq)]
/// enum Note<V> {
///     Put { id: MessageId, value: V },
///     Drop(MessageId),
///     Flush,
/// }
///
/// wire_enum!(Note<V> {
///     0 => Put { id, value },
///     1 => Drop(id),
///     7 => Flush,
/// });
///
/// let id = MessageId::new(ProcessId(1), 9);
/// let put = Note::Put { id, value: 5u64 };
/// assert_eq!(put.to_wire()[0], 0, "tag byte first");
/// assert_eq!(Note::from_wire(&put.to_wire()).unwrap(), put);
/// assert_eq!(Note::<u64>::Flush.to_wire(), [7]);
/// assert_eq!(
///     Note::<u64>::from_wire(&[2]),
///     Err(WireError::UnknownTag { what: "Note", tag: 2 })
/// );
/// ```
#[macro_export]
macro_rules! wire_enum {
    ($name:ident $(<$($param:ident),+>)? {
        $($tag:literal => $variant:ident
            $(($($item:ident),+ $(,)?))?
            $({ $($field:ident),+ $(,)? })?),+ $(,)?
    }) => {
        impl$(<$($param: $crate::wire::Wire),+>)? $crate::wire::Wire
            for $name$(<$($param),+>)?
        {
            fn encode(&self, w: &mut $crate::wire::WireWriter) {
                match self {
                    $(Self::$variant $(($($item),+))? $({ $($field),+ })? => {
                        w.u8($tag);
                        $($($crate::wire::Wire::encode($item, w);)+)?
                        $($($crate::wire::Wire::encode($field, w);)+)?
                    })+
                }
            }

            fn decode(
                r: &mut $crate::wire::WireReader<'_>,
            ) -> ::core::result::Result<Self, $crate::wire::WireError> {
                ::core::result::Result::Ok(match r.u8()? {
                    $($tag => Self::$variant
                        $(($($crate::wire_enum!(@each $item $crate::wire::Wire::decode(r)?)),+))?
                        $({ $($field: $crate::wire::Wire::decode(r)?),+ })?,)+
                    tag => {
                        return ::core::result::Result::Err($crate::wire::WireError::UnknownTag {
                            what: ::core::stringify!($name),
                            tag,
                        })
                    }
                })
            }
        }

        impl$(<$($param: $crate::wire::Sample),+>)? $crate::wire::Sample
            for $name$(<$($param),+>)?
        {
            fn sample(r: &mut $crate::SplitMix64) -> Self {
                const TAGS: &[u8] = &[$($tag),+];
                match TAGS[r.next_below(TAGS.len() as u64) as usize] {
                    $($tag => Self::$variant
                        $(($($crate::wire_enum!(@each $item $crate::wire::Sample::sample(r))),+))?
                        $({ $($field: $crate::wire::Sample::sample(r)),+ })?,)+
                    _ => ::core::unreachable!("TAGS lists every declared tag"),
                }
            }
        }
    };
    // One tuple-variant field: the binder only drives the repetition.
    (@each $item:ident $get:expr) => {
        $get
    };
}

/// Wraps a message in the versioned envelope: `magic, version, arm-id, body`.
pub fn seal<M: Wire>(arm: u8, msg: &M) -> Vec<u8> {
    let mut w = WireWriter::with_capacity(ENVELOPE_LEN + 16);
    w.raw(&MAGIC);
    w.u8(VERSION);
    w.u8(arm);
    msg.encode(&mut w);
    w.finish()
}

/// [`seal`] into a caller-owned buffer: clears `buf` (keeping its capacity)
/// and writes `magic, version, arm-id, body` into it. The bytes produced
/// are identical to `seal(arm, msg)` — same writer, same write sequence —
/// so a pooled buffer can replace a fresh allocation anywhere without
/// changing what goes on the wire; the differential fuzz suite pins this.
///
/// # Example
///
/// ```
/// use wamcast_types::wire::{seal, seal_into};
/// let mut buf = vec![0xAA; 64]; // dirty, oversized — contents don't leak
/// seal_into(4, &7u64, &mut buf);
/// assert_eq!(buf, seal(4, &7u64));
/// ```
pub fn seal_into<M: Wire>(arm: u8, msg: &M, buf: &mut Vec<u8>) {
    let mut w = WireWriter::over(std::mem::take(buf));
    w.raw(&MAGIC);
    w.u8(VERSION);
    w.u8(arm);
    msg.encode(&mut w);
    *buf = w.finish();
}

/// Validates the envelope header and returns the arm id, leaving the body
/// unread. Used by hosts that must dispatch before decoding.
pub fn peek_arm(bytes: &[u8]) -> Result<u8, WireError> {
    if bytes.len() < ENVELOPE_LEN {
        return Err(WireError::Truncated);
    }
    if bytes[..2] != MAGIC {
        return Err(WireError::BadMagic([bytes[0], bytes[1]]));
    }
    if bytes[2] != VERSION {
        return Err(WireError::BadVersion(bytes[2]));
    }
    Ok(bytes[3])
}

/// Checks magic, version and arm id, and returns what follows the envelope.
fn enveloped(want_arm: u8, bytes: &[u8]) -> Result<&[u8], WireError> {
    let got = peek_arm(bytes)?;
    if got != want_arm {
        return Err(WireError::WrongArm {
            got,
            want: want_arm,
        });
    }
    Ok(&bytes[ENVELOPE_LEN..])
}

/// Opens an enveloped datagram: checks magic, version and arm id, then
/// decodes the body, requiring every byte to be consumed.
pub fn open<M: Wire>(want_arm: u8, bytes: &[u8]) -> Result<M, WireError> {
    M::from_wire(enveloped(want_arm, bytes)?)
}

/// [`open`] for a node that keeps a [`BodyCache`]: the same checks, the
/// same value, but message bodies the cache already holds are shared with
/// it instead of copied out of `bytes` again.
pub fn open_sharing<M: Wire>(
    want_arm: u8,
    bytes: &[u8],
    bodies: &mut BodyCache,
) -> Result<M, WireError> {
    let mut r = WireReader::with_bodies(enveloped(want_arm, bytes)?, bodies);
    let v = M::decode(&mut r)?;
    r.finish()?;
    Ok(v)
}

impl Wire for u8 {
    #[inline]
    fn encode(&self, w: &mut WireWriter) {
        w.u8(*self);
    }

    #[inline]
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.u8()
    }
}

impl Sample for u8 {
    fn sample(r: &mut SplitMix64) -> Self {
        r.next_u64() as u8
    }
}

impl Wire for u64 {
    #[inline]
    fn encode(&self, w: &mut WireWriter) {
        w.u64(*self);
    }

    #[inline]
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.u64()
    }
}

impl Sample for u64 {
    fn sample(r: &mut SplitMix64) -> Self {
        r.next_u64()
    }
}

impl Wire for i64 {
    #[inline]
    fn encode(&self, w: &mut WireWriter) {
        w.u64(*self as u64);
    }

    #[inline]
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(r.u64()? as i64)
    }
}

impl Sample for i64 {
    fn sample(r: &mut SplitMix64) -> Self {
        r.next_u64() as i64
    }
}

impl Wire for ProcessId {
    #[inline]
    fn encode(&self, w: &mut WireWriter) {
        w.u32(self.0);
    }

    #[inline]
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(ProcessId(r.u32()?))
    }
}

impl Sample for ProcessId {
    fn sample(r: &mut SplitMix64) -> Self {
        ProcessId(r.next_below(1 << 20) as u32)
    }
}

impl Wire for GroupId {
    #[inline]
    fn encode(&self, w: &mut WireWriter) {
        w.u16(self.0);
    }

    #[inline]
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(GroupId(r.u16()?))
    }
}

impl Sample for GroupId {
    fn sample(r: &mut SplitMix64) -> Self {
        GroupId(r.next_below(1 << 12) as u16)
    }
}

/// Most groups a destination set on the wire can name: wire v2, like v1,
/// carries it as a `u64` mask. The format predates the 128-group in-memory mask,
/// and the golden corpus pins the 8-byte layout. The TCP runtime therefore
/// speaks topologies of at most this many groups — `peer` refuses larger
/// ones and `TcpClient::cast` refuses a destination beyond them — while
/// the 65..128-group range is a simulator-scale feature (`CLAIMS.md`'s
/// genuineness-at-scale rows run at 128 groups), which never serializes
/// destination sets.
pub const MAX_GROUPS: usize = 64;

impl Wire for GroupSet {
    #[inline]
    fn encode(&self, w: &mut WireWriter) {
        assert!(
            self.bits() >> MAX_GROUPS == 0,
            "wire v{VERSION} encodes at most {MAX_GROUPS} groups; {self} does not fit \
             (bump VERSION to widen)"
        );
        w.u64(self.bits() as u64);
    }

    #[inline]
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(GroupSet::from_bits(r.u64()? as u128))
    }
}

impl Sample for GroupSet {
    fn sample(r: &mut SplitMix64) -> Self {
        GroupSet::from_bits(u128::from(r.next_u64()))
    }
}

crate::wire_struct!(MessageId { origin, seq });

impl Wire for Payload {
    #[inline]
    fn encode(&self, w: &mut WireWriter) {
        w.bytes(self.as_slice());
    }

    #[inline]
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        // One copy, borrowed slice straight into the refcounted buffer —
        // `from(to_vec())` would copy twice (slice → Vec → Arc<[u8]>).
        Ok(Payload::copy_from_slice(r.bytes()?))
    }
}

impl Sample for Payload {
    fn sample(r: &mut SplitMix64) -> Self {
        let len = r.next_below(24);
        Payload::from((0..len).map(|_| u8::sample(r)).collect::<Vec<u8>>())
    }
}

/// Stays a leaf rather than a declaration: its body decodes through
/// [`WireReader::body`], so a node's [`BodyCache`] shares the buffer.
impl Wire for AppMessage {
    fn encode(&self, w: &mut WireWriter) {
        self.id.encode(w);
        self.dest.encode(w);
        self.payload.encode(w);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let id = MessageId::decode(r)?;
        let dest = GroupSet::decode(r)?;
        let payload = r.body(id)?;
        Ok(AppMessage { id, dest, payload })
    }
}

impl Sample for AppMessage {
    fn sample(r: &mut SplitMix64) -> Self {
        AppMessage::new(
            MessageId::sample(r),
            GroupSet::sample(r),
            Payload::sample(r),
        )
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, w: &mut WireWriter) {
        debug_assert!(
            self.len() <= u32::MAX as usize,
            "sequence too long for wire"
        );
        w.u32(self.len() as u32);
        for item in self {
            item.encode(w);
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let n = r.seq_len()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: Sample> Sample for Vec<T> {
    fn sample(r: &mut SplitMix64) -> Self {
        let len = r.next_below(4);
        (0..len).map(|_| T::sample(r)).collect()
    }
}

// Lives here rather than in downstream crates: `Arc` is not a fundamental
// type, so the orphan rule forbids e.g. `wamcast-core` from implementing a
// foreign trait for `Arc<Vec<MsgEntry>>`. Covers `SharedBatch<T>`.
impl<T: Wire> Wire for Arc<T> {
    fn encode(&self, w: &mut WireWriter) {
        T::encode(self, w);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Arc::new(T::decode(r)?))
    }
}

impl<T: Sample> Sample for Arc<T> {
    fn sample(r: &mut SplitMix64) -> Self {
        Arc::new(T::sample(r))
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            None => w.u8(0),
            Some(v) => {
                w.u8(1);
                v.encode(w);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            tag => Err(WireError::UnknownTag {
                what: "Option",
                tag,
            }),
        }
    }
}

impl<T: Sample> Sample for Option<T> {
    fn sample(r: &mut SplitMix64) -> Self {
        (r.next_below(2) == 0).then(|| T::sample(r))
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, w: &mut WireWriter) {
        self.0.encode(w);
        self.1.encode(w);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let a = A::decode(r)?;
        let b = B::decode(r)?;
        Ok((a, b))
    }
}

impl<A: Sample, B: Sample> Sample for (A, B) {
    fn sample(r: &mut SplitMix64) -> Self {
        (A::sample(r), B::sample(r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_msg() -> AppMessage {
        AppMessage::new(
            MessageId::new(ProcessId(9), 41),
            GroupSet::from_iter([GroupId(0), GroupId(3)]),
            Payload::from(b"hello".to_vec()),
        )
    }

    #[test]
    fn primitive_roundtrips() {
        let mut w = WireWriter::new();
        w.u8(7);
        w.u16(0xBEEF);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.bool(true);
        w.bytes(b"xyz");
        let buf = w.finish();
        let mut r = WireReader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 0xBEEF);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert!(r.bool().unwrap());
        assert_eq!(r.bytes().unwrap(), b"xyz");
        r.finish().unwrap();
    }

    #[test]
    fn message_roundtrip() {
        let m = sample_msg();
        assert_eq!(AppMessage::from_wire(&m.to_wire()).unwrap(), m);
    }

    #[test]
    fn container_roundtrips() {
        let v = vec![sample_msg(), sample_msg()];
        assert_eq!(Vec::<AppMessage>::from_wire(&v.to_wire()).unwrap(), v);
        let a = Arc::new(v);
        assert_eq!(Arc::<Vec<AppMessage>>::from_wire(&a.to_wire()).unwrap(), a);
        let some = Some(MessageId::new(ProcessId(1), 2));
        assert_eq!(
            Option::<MessageId>::from_wire(&some.to_wire()).unwrap(),
            some
        );
        let none: Option<MessageId> = None;
        assert_eq!(
            Option::<MessageId>::from_wire(&none.to_wire()).unwrap(),
            none
        );
    }

    #[test]
    fn truncation_is_an_error_at_every_prefix() {
        let bytes = sample_msg().to_wire();
        for cut in 0..bytes.len() {
            assert!(
                AppMessage::from_wire(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_an_error() {
        let mut bytes = sample_msg().to_wire();
        bytes.push(0);
        assert_eq!(AppMessage::from_wire(&bytes), Err(WireError::Trailing(1)));
    }

    #[test]
    fn hostile_length_claims_rejected_before_allocation() {
        // A Vec claiming u32::MAX elements backed by 4 bytes of input.
        let mut w = WireWriter::new();
        w.u32(u32::MAX);
        let bytes = w.finish();
        assert!(matches!(
            Vec::<AppMessage>::from_wire(&bytes),
            Err(WireError::TooLong { .. })
        ));
        // A byte string claiming more than remains.
        let mut w = WireWriter::new();
        w.u32(1000);
        w.raw(b"short");
        let bytes = w.finish();
        let mut r = WireReader::new(&bytes);
        assert!(matches!(r.bytes(), Err(WireError::TooLong { .. })));
    }

    #[test]
    fn envelope_round_trip_and_rejection() {
        let m = sample_msg();
        let dgram = seal(2, &m);
        assert_eq!(peek_arm(&dgram).unwrap(), 2);
        assert_eq!(open::<AppMessage>(2, &dgram).unwrap(), m);
        assert_eq!(
            open::<AppMessage>(1, &dgram),
            Err(WireError::WrongArm { got: 2, want: 1 })
        );

        let mut bad_magic = dgram.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            open::<AppMessage>(2, &bad_magic),
            Err(WireError::BadMagic(_))
        ));

        let mut bad_version = dgram.clone();
        bad_version[2] = VERSION + 1;
        assert_eq!(
            open::<AppMessage>(2, &bad_version),
            Err(WireError::BadVersion(VERSION + 1))
        );

        assert_eq!(peek_arm(&dgram[..3]), Err(WireError::Truncated));
    }

    #[test]
    fn seal_into_matches_seal_and_reuses_capacity() {
        let m = sample_msg();
        let fresh = seal(2, &m);
        // Dirty, oversized buffer: contents must not leak into the frame.
        let mut buf = vec![0xAA; 256];
        seal_into(2, &m, &mut buf);
        assert_eq!(buf, fresh);
        let cap = buf.capacity();
        seal_into(2, &m, &mut buf);
        assert_eq!(buf, fresh);
        assert_eq!(buf.capacity(), cap, "reuse must not reallocate");
        assert_eq!(open::<AppMessage>(2, &buf).unwrap(), m);
    }

    #[test]
    fn writer_over_clears_and_keeps_capacity() {
        let mut w = WireWriter::over(vec![1, 2, 3]);
        assert!(w.is_empty());
        w.u8(9);
        assert_eq!(w.finish(), vec![9]);
    }

    #[test]
    fn payload_decode_is_single_copy_equivalent() {
        let p = Payload::from(b"wire bytes".to_vec());
        let enc = p.to_wire();
        assert_eq!(Payload::from_wire(&enc).unwrap(), p);
        assert_eq!(Payload::copy_from_slice(b"wire bytes"), p);
    }

    #[test]
    fn bad_bool_and_option_tags() {
        let mut r = WireReader::new(&[9]);
        assert_eq!(
            r.bool(),
            Err(WireError::UnknownTag {
                what: "bool",
                tag: 9
            })
        );
        assert!(matches!(
            Option::<MessageId>::from_wire(&[7]),
            Err(WireError::UnknownTag { what: "Option", .. })
        ));
    }

    #[test]
    fn errors_display() {
        for e in [
            WireError::Truncated,
            WireError::Trailing(3),
            WireError::BadMagic([0, 1]),
            WireError::BadVersion(9),
            WireError::WrongArm { got: 1, want: 2 },
            WireError::UnknownTag {
                what: "x",
                tag: 255,
            },
            WireError::TooLong {
                claimed: 10,
                available: 1,
            },
        ] {
            assert!(!format!("{e}").is_empty());
        }
    }

    /// Casters 0 and 2 — the two casters of `tcp_global` — each keep
    /// their last 512 bodies at any distance between their sequence
    /// numbers, casting at the same rate or one faster, and a caster alone
    /// keeps its last 1 024.
    #[test]
    fn casters_keep_their_recent_bodies_at_any_drift() {
        let body = |id: MessageId| format!("body of {id}").into_bytes();
        let keeps = |cache: &BodyCache, ids: &[MessageId]| {
            ids.iter().all(|&id| cache.held(id, &body(id)).is_some())
        };
        let sets = 1u64 << BODY_SET_BITS;
        let casters = [ProcessId(0), ProcessId(2)];
        // Which caster casts next, in turn.
        let rates: [&[usize]; 3] = [&[0, 1], &[0, 1, 1], &[0, 0, 1]];
        for rate in rates {
            for drift in [0, 1, 100, 128, 255, 256, 384, 511, 4_000] {
                let first = [0, drift];
                let mut next = first;
                let mut cache = BodyCache::new();
                for step in 0..8_192 {
                    let c = rate[step % rate.len()];
                    let id = MessageId::new(casters[c], next[c]);
                    next[c] += 1;
                    cache.prime(id, &Payload::from(body(id)));
                    for c in 0..2 {
                        if next[c] - first[c] >= sets {
                            let oldest = MessageId::new(casters[c], next[c] - sets);
                            assert!(
                                keeps(&cache, &[oldest]),
                                "{rate:?}, drift {drift}: {oldest} evicted"
                            );
                        }
                    }
                }
                let window: Vec<_> = (0..2)
                    .flat_map(|c| {
                        (next[c] - sets..next[c]).map(move |s| MessageId::new(casters[c], s))
                    })
                    .collect();
                assert!(keeps(&cache, &window), "{rate:?}, drift {drift}");
            }
        }
        let mut cache = BodyCache::new();
        let alone = |seq: u64| MessageId::new(ProcessId(0), seq);
        for seq in 0..4_096 {
            cache.prime(alone(seq), &Payload::from(body(alone(seq))));
        }
        let window: Vec<_> = (4_096 - 2 * sets..4_096).map(alone).collect();
        assert!(keeps(&cache, &window));
        assert!(!keeps(&cache, &[alone(4_095 - 2 * sets)]));
    }
}
