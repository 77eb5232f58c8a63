//! The hand-written [`Wire`] impls — primitives and generic containers —
//! and the declared layouts of the cross-node message surface owned by
//! `simnet` / `pastry` / `scribe` / `rbay-query`.
//!
//! All integers are varints unless the value is an identifier with a fixed
//! width (`NodeId` is 16 bytes LE); floats are 8-byte LE bit patterns with
//! NaN canonicalized; collections are varint-length-prefixed with the
//! length checked against remaining input before any allocation. Each
//! enum's tag table is its [`Wire::TAGS`].

use crate::codec::{emit, Reader, Wire, WireError};
use crate::{wire_enum, wire_struct};
use pastry::{NodeId, NodeInfo, PastryMsg};
use rbay_query::{AttrValue, CmpOp, FromClause, Predicate, Query, SortDir};
use scribe::{AggValue, ScribeMsg, TopicId};
use simnet::{NodeAddr, SimDuration, SimTime, SiteId};
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

// ---------------------------------------------------------------------------
// Primitives
// ---------------------------------------------------------------------------

impl Wire for u8 {
    #[inline]
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.byte()
    }
}

impl Wire for u16 {
    #[inline]
    fn encode_into(&self, out: &mut Vec<u8>) {
        emit::varint_u64(out, *self as u64);
    }
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.varint_u16()
    }
}

impl Wire for u32 {
    #[inline]
    fn encode_into(&self, out: &mut Vec<u8>) {
        emit::varint_u64(out, *self as u64);
    }
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.varint_u32()
    }
}

impl Wire for u64 {
    #[inline]
    fn encode_into(&self, out: &mut Vec<u8>) {
        emit::varint_u64(out, *self);
    }
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.varint_u64()
    }
}

impl Wire for u128 {
    #[inline]
    fn encode_into(&self, out: &mut Vec<u8>) {
        emit::u128(out, *self);
    }
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.u128()
    }
}

impl Wire for bool {
    #[inline]
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.byte()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::BadTag { what: "bool", tag }),
        }
    }
}

impl Wire for f64 {
    #[inline]
    fn encode_into(&self, out: &mut Vec<u8>) {
        emit::f64(out, *self);
    }
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.f64()
    }
}

impl Wire for String {
    #[inline]
    fn encode_into(&self, out: &mut Vec<u8>) {
        emit::string(out, self);
    }
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.string()
    }
}

impl<T: Wire> Wire for Option<T> {
    #[inline]
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode_into(out);
            }
        }
    }
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.byte()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            tag => Err(WireError::BadTag {
                what: "Option",
                tag,
            }),
        }
    }
}

// ---------------------------------------------------------------------------
// Containers
// ---------------------------------------------------------------------------
//
// Everything that owns heap memory decodes its contents through
// `Reader::nested`: a type can only recurse through one of these, so the
// depth guard lives here once instead of in every recursive type.

/// Bytes a `Vec` may reserve whatever the input holds. Elements are often
/// larger in memory than on the wire, so reserving strictly by the bytes
/// left would under-size honest small vectors and make them re-grow on
/// every decode; below this floor they get exactly `len`.
const RESERVE_FLOOR: usize = 4096;

/// How many `T`s to reserve for an announced `len`: no more memory than
/// the bytes still unread (or [`RESERVE_FLOOR`]), whatever `T`'s in-memory
/// size. `seq_len` only knows an element takes a byte; a `NodeInfo` or
/// `Candidate` takes tens of bytes in memory, so reserving `len` of them
/// would let a 16 MiB frame ask for hundreds of MiB before one element
/// decodes. A vector that outgrows the reservation grows as it fills.
fn bounded_capacity<T>(len: usize, remaining: usize) -> usize {
    len.min(remaining.max(RESERVE_FLOOR) / std::mem::size_of::<T>().max(1))
}

impl<T: Wire> Wire for Vec<T> {
    #[inline]
    fn encode_into(&self, out: &mut Vec<u8>) {
        emit::varint_u64(out, self.len() as u64);
        for v in self {
            v.encode_into(out);
        }
    }
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = r.seq_len("Vec")?;
        r.nested(|r| {
            let mut out = Vec::with_capacity(bounded_capacity::<T>(len, r.remaining()));
            for _ in 0..len {
                out.push(T::decode(r)?);
            }
            Ok(out)
        })
    }
}

impl<K: Wire + Ord, V: Wire> Wire for BTreeMap<K, V> {
    #[inline]
    fn encode_into(&self, out: &mut Vec<u8>) {
        emit::varint_u64(out, self.len() as u64);
        for (k, v) in self {
            k.encode_into(out);
            v.encode_into(out);
        }
    }
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = r.seq_len("BTreeMap")?;
        r.nested(|r| {
            (0..len)
                .map(|_| Ok((K::decode(r)?, V::decode(r)?)))
                .collect()
        })
    }
}

impl<T: Wire + Ord> Wire for BTreeSet<T> {
    #[inline]
    fn encode_into(&self, out: &mut Vec<u8>) {
        emit::varint_u64(out, self.len() as u64);
        for v in self {
            v.encode_into(out);
        }
    }
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = r.seq_len("BTreeSet")?;
        r.nested(|r| (0..len).map(|_| T::decode(r)).collect())
    }
}

impl<T: Wire> Wire for Box<T> {
    #[inline]
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.as_ref().encode_into(out);
    }
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.nested(|r| T::decode(r).map(Box::new))
    }
}

/// `Rc` is an in-memory sharing device (`SearchState.query`); on the wire
/// it is the plain value, re-wrapped on decode.
impl<T: Wire> Wire for Rc<T> {
    #[inline]
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.as_ref().encode_into(out);
    }
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.nested(|r| T::decode(r).map(Rc::new))
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    #[inline]
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.0.encode_into(out);
        self.1.encode_into(out);
    }
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

// ---------------------------------------------------------------------------
// simnet identifiers and time
// ---------------------------------------------------------------------------

wire_struct!(NodeAddr { 0 });
wire_struct!(SiteId { 0 });

impl Wire for SimTime {
    #[inline]
    fn encode_into(&self, out: &mut Vec<u8>) {
        emit::varint_u64(out, self.as_micros());
    }
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(SimTime::from_micros(r.varint_u64()?))
    }
}

impl Wire for SimDuration {
    #[inline]
    fn encode_into(&self, out: &mut Vec<u8>) {
        emit::varint_u64(out, self.as_micros());
    }
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(SimDuration::from_micros(r.varint_u64()?))
    }
}

// ---------------------------------------------------------------------------
// pastry
// ---------------------------------------------------------------------------

wire_struct!(NodeId { 0 });
wire_struct!(NodeInfo { id, addr, site });

wire_enum!(PastryMsg<A> {
    0 => Route { key, payload, hops, scope },
    1 => Join { joiner, rows, hops },
    2 => JoinReply { rows, leaves, root },
    3 => Announce { info },
    4 => RowRequest { row },
    5 => RowReply { row, entries },
    6 => LeafRepairRequest,
    7 => LeafRepairReply { leaves },
    8 => Direct(a),
});

// ---------------------------------------------------------------------------
// scribe
// ---------------------------------------------------------------------------

wire_struct!(TopicId { 0 });

wire_enum!(AggValue {
    0 => Count(n),
    1 => Sum(v),
    2 => Min(v),
    3 => Max(v),
    4 => Mean { sum, count },
    5 => Multi(xs),
});

wire_enum!(ScribeMsg<P> {
    0 => Join { topic, scope, child },
    1 => JoinAck { topic },
    2 => Leave { topic, child },
    3 => MulticastReq { topic, scope, payload },
    4 => MulticastData { topic, payload },
    5 => Anycast { topic, scope, payload, origin },
    6 => AnycastStep { topic, payload, origin, visited, stack },
    7 => AnycastResult { topic, payload, satisfied },
    8 => ProbeRoot { topic, scope, payload, origin },
    9 => ProbeReply { topic, payload, agg, exists },
    10 => AggUpdate { topic, value },
    11 => NotChild { topic },
    12 => AppDirect(p),
    13 => ReplicaSync { topic, scope, children, agg, subscribers },
});

// ---------------------------------------------------------------------------
// rbay-query
// ---------------------------------------------------------------------------

wire_enum!(AttrValue {
    0 => Bool(b),
    1 => Num(n),
    2 => Str(s),
});

wire_enum!(CmpOp {
    0 => Eq,
    1 => Ne,
    2 => Lt,
    3 => Le,
    4 => Gt,
    5 => Ge,
});

wire_enum!(SortDir {
    0 => Asc,
    1 => Desc,
});

wire_enum!(FromClause {
    0 => AllSites,
    1 => Sites(names),
});

wire_struct!(Predicate { attr, op, value });
wire_struct!(Query {
    k,
    from,
    predicates,
    order_by
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode_frame, encode_frame, MAX_DEPTH, MAX_FRAME_LEN};

    #[test]
    fn agg_value_round_trips_and_depth_limits() {
        let v = AggValue::Multi(vec![
            AggValue::Count(4),
            AggValue::Mean { sum: 1.5, count: 3 },
            AggValue::Multi(vec![AggValue::Min(-2.0), AggValue::Max(9.0)]),
        ]);
        assert_eq!(decode_frame::<AggValue>(&encode_frame(&v)).unwrap(), v);

        // Hostile nesting: MAX_DEPTH+1 nested Multi([..]) wrappers.
        let mut deep = AggValue::Count(1);
        for _ in 0..=MAX_DEPTH {
            deep = AggValue::Multi(vec![deep]);
        }
        assert_eq!(
            decode_frame::<AggValue>(&encode_frame(&deep)).unwrap_err(),
            WireError::TooDeep
        );
    }

    /// A locally declared recursive type gets the depth guard from `Box`
    /// without asking for it.
    #[derive(Debug, PartialEq)]
    enum Chain {
        End,
        Link(Box<Chain>),
    }

    wire_enum!(Chain {
        0 => End,
        1 => Link(next),
    });

    #[test]
    fn boxed_recursion_is_depth_limited() {
        let chain = |links: u32| (0..links).fold(Chain::End, |c, _| Chain::Link(Box::new(c)));
        let ok = chain(MAX_DEPTH);
        assert_eq!(decode_frame::<Chain>(&encode_frame(&ok)).unwrap(), ok);
        assert_eq!(
            decode_frame::<Chain>(&encode_frame(&chain(MAX_DEPTH + 1))).unwrap_err(),
            WireError::TooDeep
        );
        assert_eq!(Chain::TAGS, [(0, "End"), (1, "Link")]);
        assert_eq!(
            decode_frame::<Chain>(&[crate::WIRE_VERSION, 2]).unwrap_err(),
            WireError::BadTag {
                what: "Chain",
                tag: 2
            }
        );
    }

    #[test]
    fn vec_reservation_never_exceeds_the_bytes_left() {
        // The worst frame: 16 MiB announcing 16 M one-byte elements.
        let cap = bounded_capacity::<NodeInfo>(MAX_FRAME_LEN, MAX_FRAME_LEN);
        assert!(cap * std::mem::size_of::<NodeInfo>() <= MAX_FRAME_LEN);
        // A short frame gets the floor at most, an honest one exactly `len`.
        assert_eq!(bounded_capacity::<u128>(1000, 1000), RESERVE_FLOOR / 16);
        assert_eq!(bounded_capacity::<u128>(10, 100), 10);
        assert_eq!(bounded_capacity::<()>(10, 0), 10);

        // A vector larger than its reservation still decodes whole: 2000
        // one-byte varints are 16 KB of u64 in memory.
        let v: Vec<u64> = (0..2000).map(|i| i % 100).collect();
        assert_eq!(decode_frame::<Vec<u64>>(&encode_frame(&v)).unwrap(), v);
        // And a frame that lies about its length is refused as soon as its
        // bytes run out, having reserved no more than it sent.
        let mut hostile = vec![crate::WIRE_VERSION];
        emit::varint_u64(&mut hostile, 1 << 20);
        hostile.resize(hostile.len() + (1 << 20), 0);
        assert_eq!(
            decode_frame::<Vec<NodeInfo>>(&hostile).unwrap_err(),
            WireError::Truncated
        );
    }

    #[test]
    fn containers_encode_as_their_contents() {
        let map: BTreeMap<String, u64> = [("a".into(), 1), ("b".into(), 300)].into();
        let pairs: Vec<(String, u64)> = map.clone().into_iter().collect();
        assert_eq!(map.encode(), pairs.encode());
        assert_eq!(
            decode_frame::<BTreeMap<String, u64>>(&encode_frame(&map)).unwrap(),
            map
        );

        let set: BTreeSet<u64> = [7, 300, 1 << 40].into();
        assert_eq!(
            set.encode(),
            set.iter().copied().collect::<Vec<_>>().encode()
        );
        assert_eq!(
            decode_frame::<BTreeSet<u64>>(&encode_frame(&set)).unwrap(),
            set
        );

        assert_eq!(Rc::new(300u64).encode(), 300u64.encode());
        assert_eq!(Box::new(300u64).encode(), 300u64.encode());
        assert_eq!(
            *decode_frame::<Rc<u64>>(&encode_frame(&300u64)).unwrap(),
            300
        );
        assert_eq!(
            *decode_frame::<Box<u64>>(&encode_frame(&300u64)).unwrap(),
            300
        );
    }

    #[test]
    fn truncated_frames_error_not_panic() {
        let m: PastryMsg<AggValue> = PastryMsg::Route {
            key: NodeId(7),
            payload: AggValue::Multi(vec![AggValue::Count(1), AggValue::Sum(2.0)]),
            hops: 2,
            scope: None,
        };
        let bytes = encode_frame(&m);
        for cut in 0..bytes.len() {
            assert!(decode_frame::<PastryMsg<AggValue>>(&bytes[..cut]).is_err());
        }
    }
}
