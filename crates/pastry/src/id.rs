//! 128-bit ring identifiers.
//!
//! Pastry assigns every node a uniformly distributed 128-bit `NodeId` — the
//! SHA-1 hash of its address — and routes by matching successively longer
//! prefixes of base-16 digits (`b = 4`, so ⌈log₁₆ N⌉ expected hops).

use crate::sha1::sha1_u128;
use core::fmt;

/// Number of bits per routing digit (the paper's `b`, typical value 4).
pub const BITS_PER_DIGIT: u32 = 4;
/// Radix of a routing digit (`2^b = 16`).
pub const DIGIT_BASE: usize = 1 << BITS_PER_DIGIT;
/// Number of digits in a 128-bit identifier (128 / 4 = 32).
pub const ID_DIGITS: usize = 128 / BITS_PER_DIGIT as usize;

/// A 128-bit identifier on the Pastry ring.
///
/// Used both for nodes (`NodeId = SHA-1(address)`) and for Scribe trees
/// (`TreeId = SHA-1(topic ++ creator)`); the node whose id is numerically
/// closest to a TreeId is that tree's rendezvous root.
///
/// ```
/// use pastry::NodeId;
/// let a = NodeId::hash_of(b"node-1");
/// let b = NodeId::hash_of(b"node-2");
/// assert_ne!(a, b);
/// assert_eq!(a.common_prefix_len(a), 32);
/// ```
///
/// Packed to 8-byte alignment: a `u128` alone would align every struct
/// holding an id — `NodeInfo`, routing slots, messages — to 16 bytes and
/// pad each of them. Read the field by value (`{ id.0 }`); a reference to
/// it would be unaligned.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[repr(C, packed(8))]
pub struct NodeId(pub u128);

const _: () = assert!(std::mem::align_of::<NodeId>() == 8);
const _: () = assert!(std::mem::size_of::<NodeId>() == 16);

impl NodeId {
    /// Identifier formed from the first 128 bits of `SHA-1(data)`.
    pub fn hash_of(data: &[u8]) -> Self {
        NodeId(sha1_u128(data))
    }

    /// The `i`-th base-16 digit, most significant first.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 32`.
    pub fn digit(self, i: usize) -> usize {
        assert!(i < ID_DIGITS, "digit index {i} out of range");
        let shift = 128 - BITS_PER_DIGIT as usize * (i + 1);
        ((self.0 >> shift) & 0xF) as usize
    }

    /// Length of the common digit prefix shared with `other` (0..=32).
    pub fn common_prefix_len(self, other: NodeId) -> usize {
        if self == other {
            return ID_DIGITS;
        }
        ((self.0 ^ other.0).leading_zeros() / BITS_PER_DIGIT) as usize
    }

    /// Clockwise ring distance from `self` to `other` (wrapping subtraction).
    pub fn cw_distance(self, other: NodeId) -> u128 {
        other.0.wrapping_sub(self.0)
    }

    /// Minimal ring distance between the two ids.
    pub fn ring_distance(self, other: NodeId) -> u128 {
        let cw = self.cw_distance(other);
        let ccw = other.cw_distance(self);
        cw.min(ccw)
    }

    /// Whether `self` is numerically closer to `key` than `other` is.
    /// Ties break toward the numerically smaller id, so "closest" is a
    /// total order and all nodes agree on a key's root.
    pub fn closer_to(self, key: NodeId, other: NodeId) -> bool {
        let a = self.ring_distance(key);
        let b = other.ring_distance(key);
        a < b || (a == b && self.0 < other.0)
    }

    /// Whether `key` lies on the clockwise arc from `from` to `to`
    /// (inclusive of both endpoints).
    pub fn in_cw_range(key: NodeId, from: NodeId, to: NodeId) -> bool {
        from.cw_distance(key) <= from.cw_distance(to)
    }

    /// The raw 128-bit value.
    pub fn as_u128(self) -> u128 {
        self.0
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NodeId({:032x})", { self.0 })
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Print the leading 8 digits; enough to tell ids apart in traces.
        write!(f, "{:08x}…", (self.0 >> 96) as u32)
    }
}

impl From<u128> for NodeId {
    fn from(v: u128) -> Self {
        NodeId(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digits_decompose_the_id() {
        let id = NodeId(0x0123_4567_89AB_CDEF_0123_4567_89AB_CDEF);
        assert_eq!(id.digit(0), 0x0);
        assert_eq!(id.digit(1), 0x1);
        assert_eq!(id.digit(15), 0xF);
        assert_eq!(id.digit(31), 0xF);
        let recomposed = (0..ID_DIGITS).fold(0u128, |acc, i| (acc << 4) | id.digit(i) as u128);
        assert_eq!(recomposed, { id.0 });
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn digit_out_of_range_panics() {
        NodeId(0).digit(32);
    }

    #[test]
    fn common_prefix_len_cases() {
        let a = NodeId(0xAAAA_0000_0000_0000_0000_0000_0000_0000);
        let b = NodeId(0xAAAB_0000_0000_0000_0000_0000_0000_0000);
        assert_eq!(a.common_prefix_len(b), 3);
        assert_eq!(a.common_prefix_len(a), 32);
        let c = NodeId(0x5AAA_0000_0000_0000_0000_0000_0000_0000);
        assert_eq!(a.common_prefix_len(c), 0);
    }

    #[test]
    fn ring_distance_wraps() {
        let lo = NodeId(1);
        let hi = NodeId(u128::MAX);
        assert_eq!(lo.ring_distance(hi), 2);
        assert_eq!(hi.ring_distance(lo), 2);
        assert_eq!(lo.cw_distance(hi), u128::MAX - 1);
        assert_eq!(hi.cw_distance(lo), 2);
    }

    #[test]
    fn closer_to_is_total_and_antisymmetric() {
        let key = NodeId(100);
        let a = NodeId(90);
        let b = NodeId(111);
        // a is 10 away, b is 11 away.
        assert!(a.closer_to(key, b));
        assert!(!b.closer_to(key, a));
        // Equidistant: 95 and 105 are both 5 away; the smaller id wins.
        let c = NodeId(95);
        let d = NodeId(105);
        assert!(c.closer_to(key, d));
        assert!(!d.closer_to(key, c));
    }

    #[test]
    fn in_cw_range_wraps_around_zero() {
        let from = NodeId(u128::MAX - 10);
        let to = NodeId(10);
        assert!(NodeId::in_cw_range(NodeId(0), from, to));
        assert!(NodeId::in_cw_range(NodeId(u128::MAX - 5), from, to));
        assert!(NodeId::in_cw_range(from, from, to));
        assert!(NodeId::in_cw_range(to, from, to));
        assert!(!NodeId::in_cw_range(NodeId(11), from, to));
        assert!(!NodeId::in_cw_range(NodeId(500), from, to));
    }

    #[test]
    fn hash_of_is_stable_and_spread() {
        let a = NodeId::hash_of(b"addr:0");
        assert_eq!(a, NodeId::hash_of(b"addr:0"));
        // Uniformity smoke test: leading digits of 160 hashed ids should hit
        // many distinct values.
        let mut seen = std::collections::HashSet::new();
        for i in 0..160 {
            seen.insert(NodeId::hash_of(format!("addr:{i}").as_bytes()).digit(0));
        }
        assert!(
            seen.len() >= 12,
            "only {} distinct leading digits",
            seen.len()
        );
    }

    #[test]
    fn display_and_debug_nonempty() {
        let id = NodeId::hash_of(b"x");
        assert!(!format!("{id}").is_empty());
        assert!(format!("{id:?}").starts_with("NodeId("));
    }
}
