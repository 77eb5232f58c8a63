//! The core codec: a bounds-checked byte [`Reader`], the [`Wire`] trait,
//! varint/string primitives, and the versioned frame layer.
//!
//! Design constraints (DESIGN.md §13):
//!
//! * **Self-contained** — no external serialization crates; every encoder
//!   writes plain bytes into a [`Sink`]: a `Vec<u8>`, or the counter behind
//!   [`Wire::encoded_len`].
//! * **Attacker-facing decode** — frames arrive from arbitrary sockets, so
//!   every length and tag is validated against the remaining input before a
//!   single byte is trusted. Decoding truncated or hostile bytes must
//!   return [`WireError`], never panic and never allocate proportionally to
//!   an unvalidated length field.
//! * **Canonical** — one value has one encoding (varints are minimal-width
//!   by construction of the encoder; NaN payloads collapse to
//!   [`CANON_NAN_BITS`]), and [`decode_frame`] rejects trailing bytes, so
//!   `encode ∘ decode` is the identity on frames.

use std::fmt;

/// Protocol version carried in every frame header. Bump on any
/// layout-incompatible change; decoders reject versions they do not speak.
pub const WIRE_VERSION: u8 = 2;

/// Hard upper bound on the body of a single frame (16 MiB). Guards both
/// the stream reader (a hostile length prefix cannot trigger a huge
/// allocation) and the encoder (a runaway payload is a bug, not a frame).
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// Maximum nesting depth [`Reader::nested`] allows (recursive values such
/// as `AggValue::Multi` stop here instead of overflowing the stack).
pub const MAX_DEPTH: u32 = 32;

/// The canonical bit pattern every NaN collapses to on the wire (the
/// positive quiet NaN). Keeps `decode(encode(x))` deterministic and makes
/// NaN sort keys byte-comparable across nodes.
pub const CANON_NAN_BITS: u64 = 0x7ff8_0000_0000_0000;

/// Why a decode failed. Every variant is a *rejected input*, not a
/// programming error: hostile bytes must land here, never in a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before the value did.
    Truncated,
    /// An enum tag byte had no meaning for the type being decoded.
    BadTag {
        /// The type being decoded.
        what: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// The frame header announced a protocol version we do not speak.
    BadVersion(u8),
    /// A varint ran past its maximum width or overflowed its target type.
    BadVarint,
    /// A length prefix exceeded the bytes actually available (or a hard
    /// cap), so the announced collection cannot exist in this input.
    BadLength {
        /// The type being decoded.
        what: &'static str,
        /// The announced length.
        len: u64,
    },
    /// A string's bytes were not valid UTF-8.
    BadUtf8,
    /// Nested values exceeded [`MAX_DEPTH`].
    TooDeep,
    /// The value decoded but left unconsumed bytes in the frame.
    TrailingBytes {
        /// How many bytes were left over.
        extra: usize,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "input truncated"),
            WireError::BadTag { what, tag } => write!(f, "bad tag {tag:#04x} for {what}"),
            WireError::BadVersion(v) => {
                write!(f, "unsupported wire version {v} (speak {WIRE_VERSION})")
            }
            WireError::BadVarint => write!(f, "malformed varint"),
            WireError::BadLength { what, len } => {
                write!(f, "length {len} for {what} exceeds remaining input")
            }
            WireError::BadUtf8 => write!(f, "string is not valid UTF-8"),
            WireError::TooDeep => write!(f, "nesting deeper than {MAX_DEPTH}"),
            WireError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after the value")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// A bounds-checked cursor over an immutable byte slice. All reads fail
/// with [`WireError::Truncated`] instead of slicing out of range.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    depth: u32,
}

impl<'a> Reader<'a> {
    /// Wraps a byte slice.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        Reader {
            buf,
            pos: 0,
            depth: 0,
        }
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether every byte has been consumed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Consumes one byte.
    #[inline]
    pub fn byte(&mut self) -> Result<u8, WireError> {
        let b = *self.buf.get(self.pos).ok_or(WireError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    /// Consumes exactly `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if n > self.remaining() {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// LEB128 varint, at most 10 bytes for a `u64`. The single-byte case
    /// (values < 128 — most tags, lengths, and small ids) is the fast
    /// path.
    #[inline]
    pub fn varint_u64(&mut self) -> Result<u64, WireError> {
        let b = self.byte()?;
        if b & 0x80 == 0 {
            return Ok(b as u64);
        }
        self.varint_u64_slow(b)
    }

    #[cold]
    fn varint_u64_slow(&mut self, first: u8) -> Result<u64, WireError> {
        let mut out: u64 = (first & 0x7f) as u64;
        for shift in (7..64).step_by(7) {
            let b = self.byte()?;
            let chunk = (b & 0x7f) as u64;
            // The 10th byte may only carry the top single bit of a u64.
            if shift == 63 && chunk > 1 {
                return Err(WireError::BadVarint);
            }
            out |= chunk << shift;
            if b & 0x80 == 0 {
                return Ok(out);
            }
        }
        Err(WireError::BadVarint)
    }

    /// Varint narrowed to `u32`.
    #[inline]
    pub fn varint_u32(&mut self) -> Result<u32, WireError> {
        u32::try_from(self.varint_u64()?).map_err(|_| WireError::BadVarint)
    }

    /// Varint narrowed to `u16`.
    #[inline]
    pub fn varint_u16(&mut self) -> Result<u16, WireError> {
        u16::try_from(self.varint_u64()?).map_err(|_| WireError::BadVarint)
    }

    /// A collection length prefix for `what`. Every element takes at least
    /// one byte, so a length beyond the *remaining* input cannot be honest
    /// and is rejected before anything is allocated for it; containers
    /// further cap what they reserve by their element's in-memory size.
    #[inline]
    pub fn seq_len(&mut self, what: &'static str) -> Result<usize, WireError> {
        let len = self.varint_u64()?;
        if len > self.remaining() as u64 {
            return Err(WireError::BadLength { what, len });
        }
        Ok(len as usize)
    }

    /// Eight little-endian bytes as an `f64`, with every NaN collapsed to
    /// the canonical quiet NaN.
    #[inline]
    pub fn f64(&mut self) -> Result<f64, WireError> {
        let bytes: [u8; 8] = self.take(8)?.try_into().expect("take(8) returned 8 bytes");
        let v = f64::from_bits(u64::from_le_bytes(bytes));
        Ok(if v.is_nan() {
            f64::from_bits(CANON_NAN_BITS)
        } else {
            v
        })
    }

    /// Sixteen little-endian bytes as a `u128` (ring identifiers).
    #[inline]
    pub fn u128(&mut self) -> Result<u128, WireError> {
        let bytes: [u8; 16] = self
            .take(16)?
            .try_into()
            .expect("take(16) returned 16 bytes");
        Ok(u128::from_le_bytes(bytes))
    }

    /// A length-prefixed UTF-8 string.
    #[inline]
    pub fn string(&mut self) -> Result<String, WireError> {
        let len = self.seq_len("string")?;
        let bytes = self.take(len)?;
        match std::str::from_utf8(bytes) {
            Ok(s) => Ok(s.to_owned()),
            Err(_) => Err(WireError::BadUtf8),
        }
    }

    /// Runs `f` one nesting level down, failing with
    /// [`WireError::TooDeep`] past [`MAX_DEPTH`]. Every heap container
    /// (`Vec`, `Box`, `Rc`, maps, sets) decodes its contents through this,
    /// and a type can only recurse through one of them, so no declared
    /// type needs a guard of its own and no hostile frame can overflow the
    /// decode stack.
    #[inline]
    pub fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, WireError>,
    ) -> Result<T, WireError> {
        if self.depth >= MAX_DEPTH {
            return Err(WireError::TooDeep);
        }
        self.depth += 1;
        let v = f(self);
        self.depth -= 1;
        v
    }
}

/// Where an encoding goes: a byte buffer, or a counter of the bytes it
/// would take. [`Wire::encode_into`] writes through this, so the one
/// layout a type declares serves both [`Wire::encode`] and
/// [`Wire::encoded_len`].
pub trait Sink {
    /// A run of bytes.
    fn bytes(&mut self, b: &[u8]);

    /// LEB128 varint.
    fn varint(&mut self, v: u64);

    /// One byte.
    #[inline]
    fn byte(&mut self, b: u8) {
        self.bytes(&[b]);
    }

    /// `f64` as 8 little-endian bytes, NaN canonicalized.
    #[inline]
    fn f64(&mut self, v: f64) {
        let bits = if v.is_nan() {
            CANON_NAN_BITS
        } else {
            v.to_bits()
        };
        self.bytes(&bits.to_le_bytes());
    }

    /// `u128` as 16 little-endian bytes.
    #[inline]
    fn u128(&mut self, v: u128) {
        self.bytes(&v.to_le_bytes());
    }

    /// Length-prefixed UTF-8 string.
    #[inline]
    fn string(&mut self, s: &str) {
        self.varint(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

impl Sink for Vec<u8> {
    #[inline]
    fn bytes(&mut self, b: &[u8]) {
        self.extend_from_slice(b);
    }

    #[inline]
    fn varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.push(byte);
                return;
            }
            self.push(byte | 0x80);
        }
    }
}

/// A [`Sink`] that keeps only the number of bytes written to it.
struct ByteCount(usize);

impl Sink for ByteCount {
    #[inline]
    fn bytes(&mut self, b: &[u8]) {
        self.0 += b.len();
    }

    /// One byte per started 7 bits of `v`, and one for zero.
    #[inline]
    fn varint(&mut self, v: u64) {
        self.0 += (70 - (v | 1).leading_zeros() as usize) / 7;
    }
}

/// A value with a binary wire form.
///
/// Implementations must be *total* on decode: any byte sequence either
/// yields a value or a [`WireError`]; panics and unbounded allocation are
/// protocol bugs (pinned by the corrupt-bytes proptests).
///
/// Only primitives and generic containers implement this by hand (in
/// [`impls`](crate::impls)); every struct and tagged enum declares its
/// layout once through [`wire_struct!`](crate::wire_struct) or
/// [`wire_enum!`](crate::wire_enum).
pub trait Wire: Sized {
    /// The `(tag byte, variant name)` table of a [`wire_enum!`](crate::wire_enum)
    /// type, in declaration order; empty for everything else.
    const TAGS: &'static [(u8, &'static str)] = &[];

    /// Writes this value's encoding to `out`.
    fn encode_into<S: Sink>(&self, out: &mut S);

    /// Decodes one value from the reader, consuming exactly its bytes.
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError>;

    /// Convenience: this value encoded into a fresh buffer.
    #[inline]
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// The length of [`Wire::encode`]'s output, counted without building it.
    #[inline]
    fn encoded_len(&self) -> usize {
        let mut n = ByteCount(0);
        self.encode_into(&mut n);
        n.0
    }
}

/// Test support for every crate that declares a wire enum: panics unless
/// `T`'s declared tags are unique and the `samples` between them encode to
/// each one. The round-trip suites feed this their strategies' output, so
/// a variant added to a [`wire_enum!`](crate::wire_enum) but not to its
/// strategy fails there. Gaps are allowed: a removed variant's tag is
/// retired, never reused.
pub fn assert_tags_covered<T: Wire>(samples: impl IntoIterator<Item = T>) {
    let mut declared: Vec<u8> = T::TAGS.iter().map(|&(tag, _)| tag).collect();
    declared.sort_unstable();
    assert!(!declared.is_empty(), "not a wire_enum! type");
    assert!(
        declared.windows(2).all(|w| w[0] < w[1]),
        "tags not unique: {:?}",
        T::TAGS
    );
    for v in samples {
        let tag = v.encode()[0];
        declared.retain(|&t| t != tag);
    }
    assert!(declared.is_empty(), "no sample has tag(s) {declared:?}");
}

/// Implements [`Wire`] for a struct: the listed fields in the listed
/// order, each through its own `Wire` impl (decode infers the field types,
/// so they are never re-typed). A tuple struct lists its indices:
/// `wire_struct!(TopicId { 0 })`.
///
/// The field list *is* the layout: reordering, adding or removing a field
/// changes the bytes and needs a [`WIRE_VERSION`] bump.
#[macro_export]
macro_rules! wire_struct {
    ($ty:ident { $($field:tt),* $(,)? }) => {
        impl $crate::Wire for $ty {
            #[inline]
            fn encode_into<S: $crate::Sink>(&self, out: &mut S) {
                $( $crate::Wire::encode_into(&self.$field, out); )*
            }
            #[inline]
            fn decode(r: &mut $crate::Reader<'_>) -> Result<Self, $crate::WireError> {
                Ok(Self { $( $field: $crate::Wire::decode(r)? ),* })
            }
        }
    };
}

/// Implements [`Wire`] for a tagged enum — one tag byte, then the variant's
/// fields in the listed order — and fills in [`Wire::TAGS`]:
///
/// ```text
/// wire_enum!(ScribeMsg<P> {
///     0 => Join { topic, scope, child },
///     1 => JoinAck { topic },
///     12 => AppDirect(p),
///     …
/// });
/// ```
///
/// Unknown tags decode to [`WireError::BadTag`] naming the type. Adding a
/// variant is one line with the next free tag; a shipped tag is never
/// reused or renumbered.
#[macro_export]
macro_rules! wire_enum {
    ($ty:ident $(<$param:ident>)? {
        $( $tag:literal => $variant:ident
            $( { $($field:ident),* $(,)? } )?
            $( ( $($elem:ident),* ) )?
        ),* $(,)?
    }) => {
        impl $(<$param: $crate::Wire>)? $crate::Wire for $ty $(<$param>)? {
            const TAGS: &'static [(u8, &'static str)] =
                &[ $( ($tag, stringify!($variant)) ),* ];

            #[inline]
            fn encode_into<S: $crate::Sink>(&self, out: &mut S) {
                match self {
                    $( Self::$variant $( { $($field),* } )? $( ( $($elem),* ) )? => {
                        $crate::Sink::byte(out, $tag);
                        $( $( $crate::Wire::encode_into($field, out); )* )?
                        $( $( $crate::Wire::encode_into($elem, out); )* )?
                    } )*
                }
            }

            #[inline]
            fn decode(r: &mut $crate::Reader<'_>) -> Result<Self, $crate::WireError> {
                Ok(match r.byte()? {
                    $( $tag => {
                        $( $( let $field = $crate::Wire::decode(r)?; )* )?
                        $( $( let $elem = $crate::Wire::decode(r)?; )* )?
                        Self::$variant $( { $($field),* } )? $( ( $($elem),* ) )?
                    } )*
                    tag => {
                        return Err($crate::WireError::BadTag {
                            what: stringify!($ty),
                            tag,
                        })
                    }
                })
            }
        }
    };
}

/// Encodes a message as a frame body: `[WIRE_VERSION][message bytes]`.
/// (The outer length prefix is added by the stream layer, [`write_frame`].)
#[inline]
pub fn encode_frame<M: Wire>(msg: &M) -> Vec<u8> {
    encode_frame_as(WIRE_VERSION, msg)
}

/// Decodes a frame body produced by [`encode_frame`]: checks the version,
/// decodes the message, and rejects trailing bytes.
#[inline]
pub fn decode_frame<M: Wire>(frame: &[u8]) -> Result<M, WireError> {
    decode_frame_as(WIRE_VERSION, frame)
}

/// [`encode_frame`] under the version byte of a format that is versioned
/// apart from the wire protocol: `rbay-store`'s files, whose records do not
/// change when a message does, so a [`WIRE_VERSION`] bump leaves every
/// journal on disk readable.
#[inline]
pub fn encode_frame_as<M: Wire>(version: u8, msg: &M) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    out.push(version);
    msg.encode_into(&mut out);
    out
}

/// [`decode_frame`] for a body [`encode_frame_as`] wrote under `version`.
#[inline]
pub fn decode_frame_as<M: Wire>(version: u8, frame: &[u8]) -> Result<M, WireError> {
    let mut r = Reader::new(frame);
    let got = r.byte()?;
    if got != version {
        return Err(WireError::BadVersion(got));
    }
    let msg = M::decode(&mut r)?;
    if !r.is_empty() {
        return Err(WireError::TrailingBytes {
            extra: r.remaining(),
        });
    }
    Ok(msg)
}

/// Writes `frame` to a stream as `[u32 LE length][frame bytes]`.
pub fn write_frame(w: &mut impl std::io::Write, frame: &[u8]) -> std::io::Result<()> {
    debug_assert!(frame.len() <= MAX_FRAME_LEN, "oversized outbound frame");
    w.write_all(&(frame.len() as u32).to_le_bytes())?;
    w.write_all(frame)?;
    w.flush()
}

/// Reads one length-prefixed frame from a stream, rejecting announced
/// lengths beyond `max` before allocating. Returns `Ok(None)` on a clean
/// EOF at a frame boundary.
pub fn read_frame(r: &mut impl std::io::Read, max: usize) -> std::io::Result<Option<Vec<u8>>> {
    let mut len_bytes = [0u8; 4];
    match r.read_exact(&mut len_bytes) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > max {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds cap {max}"),
        ));
    }
    // Read in bounded chunks so a hostile length never maps to one giant
    // up-front allocation beyond what the peer actually sends.
    let mut buf = Vec::with_capacity(len.min(64 * 1024));
    let mut taken = 0usize;
    let mut chunk = [0u8; 64 * 1024];
    while taken < len {
        let want = (len - taken).min(chunk.len());
        r.read_exact(&mut chunk[..want])?;
        buf.extend_from_slice(&chunk[..want]);
        taken += want;
    }
    Ok(Some(buf))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trips_at_boundaries() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            buf.varint(v);
            assert_eq!(v.encoded_len(), buf.len());
            let mut r = Reader::new(&buf);
            assert_eq!(r.varint_u64().unwrap(), v);
            assert!(r.is_empty());
        }
    }

    #[test]
    fn varint_rejects_overflow_and_truncation() {
        // 11 continuation bytes: too wide for u64.
        let wide = [0xffu8; 11];
        assert_eq!(
            Reader::new(&wide).varint_u64().unwrap_err(),
            WireError::BadVarint
        );
        // 10th byte carries more than the top bit.
        let mut overflow = vec![0x80u8; 9];
        overflow.push(0x02);
        assert_eq!(
            Reader::new(&overflow).varint_u64().unwrap_err(),
            WireError::BadVarint
        );
        // Continuation bit set at EOF.
        assert_eq!(
            Reader::new(&[0x80]).varint_u64().unwrap_err(),
            WireError::Truncated
        );
    }

    #[test]
    fn seq_len_rejects_lengths_beyond_input() {
        let mut buf = Vec::new();
        buf.varint(1_000_000);
        let err = Reader::new(&buf).seq_len("vec").unwrap_err();
        assert!(matches!(err, WireError::BadLength { len: 1_000_000, .. }));
    }

    #[test]
    fn nan_is_canonicalized() {
        let weird = f64::from_bits(0x7ff0_dead_beef_0001);
        assert!(weird.is_nan());
        let mut buf = Vec::new();
        buf.f64(weird);
        let got = Reader::new(&buf).f64().unwrap();
        assert_eq!(got.to_bits(), CANON_NAN_BITS);
    }

    #[test]
    fn frames_check_version_and_trailing_bytes() {
        let body = encode_frame(&7u64);
        assert_eq!(decode_frame::<u64>(&body).unwrap(), 7);
        let mut wrong = body.clone();
        wrong[0] = 99;
        assert_eq!(
            decode_frame::<u64>(&wrong).unwrap_err(),
            WireError::BadVersion(99)
        );
        let mut trailing = body;
        trailing.push(0);
        assert!(matches!(
            decode_frame::<u64>(&trailing).unwrap_err(),
            WireError::TrailingBytes { extra: 1 }
        ));
    }

    #[test]
    fn stream_frames_round_trip_and_cap_length() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        write_frame(&mut wire, b"").unwrap();
        let mut cursor = std::io::Cursor::new(wire);
        assert_eq!(read_frame(&mut cursor, 64).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut cursor, 64).unwrap().unwrap(), b"");
        assert!(read_frame(&mut cursor, 64).unwrap().is_none(), "clean EOF");

        let huge = (MAX_FRAME_LEN as u32 + 1).to_le_bytes();
        let mut cursor = std::io::Cursor::new(huge.to_vec());
        assert!(read_frame(&mut cursor, MAX_FRAME_LEN).is_err());
    }
}
