//! Per-node Pastry routing state: the routing table and the leaf set.

use crate::id::{NodeId, DIGIT_BASE};
use simnet::{NodeAddr, SiteId};

/// Everything a node knows about a peer: ring id, transport address, and the
/// site it belongs to (used for proximity preferences and administrative
/// isolation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeInfo {
    /// The peer's ring identifier.
    pub id: NodeId,
    /// The peer's transport address.
    pub addr: NodeAddr,
    /// The site (datacenter) hosting the peer.
    pub site: SiteId,
}

// 22 bytes of data in 24; a routing-table slot is 32. A field added here
// widens every slot of every table, so it must fail the build first.
const _: () = assert!(std::mem::size_of::<NodeInfo>() == 24);
const _: () = assert!(std::mem::size_of::<Option<NodeInfo>>() == 32);

/// Maximum number of leaf-set entries per side (`|L|/2 = 8`, so `|L| = 16`).
pub const LEAF_SET_SIDE: usize = 8;

/// Outcome of inserting into one leaf-set side.
enum SideInsert {
    /// Entry placed; carries whoever it displaced past the cap.
    Fit(Option<NodeInfo>),
    /// Entry is farther than everything on a full side.
    NoFit,
}

/// The set of nodes with numerically closest NodeIds, half clockwise and
/// half counterclockwise on the ring.
///
/// Pastry uses the leaf set for the final step of routing and for repairing
/// routing tables when nodes fail (paper §II.B.1).
#[derive(Debug, Clone)]
pub struct LeafSet {
    self_id: NodeId,
    /// Clockwise neighbours, ascending by clockwise distance from self.
    cw: Vec<NodeInfo>,
    /// Counterclockwise neighbours, ascending by counterclockwise distance.
    ccw: Vec<NodeInfo>,
    side: usize,
}

impl LeafSet {
    /// An empty leaf set for the node with id `self_id`.
    pub fn new(self_id: NodeId) -> Self {
        Self::with_side(self_id, LEAF_SET_SIDE)
    }

    /// An empty leaf set with a custom per-side capacity (tests use small
    /// sides to force interesting evictions).
    fn with_side(self_id: NodeId, side: usize) -> Self {
        assert!(side > 0, "leaf set side must be positive");
        LeafSet {
            self_id,
            cw: Vec::new(),
            ccw: Vec::new(),
            side,
        }
    }

    /// Inserts `info`, evicting the farthest entry on the relevant side if
    /// the side is full. Self and duplicates are ignored. A candidate that
    /// does not fit on its nearer side spills over to the other side (so a
    /// small ring of ≤ `2 × side` nodes is always fully covered, matching
    /// Pastry's successor/predecessor semantics). Returns whether the set
    /// changed.
    pub fn insert(&mut self, info: NodeInfo) -> bool {
        if info.id == self.self_id {
            return false;
        }
        let cw_d = self.self_id.cw_distance(info.id);
        let ccw_d = info.id.cw_distance(self.self_id);
        // Most peers a node hears from lie outside its leaf set. With both
        // sides full and the candidate no nearer than either side's
        // farthest member, no side has room for it and nothing changes:
        // sides are sorted, so two comparisons say what the scans below
        // would.
        if self.is_full()
            && cw_d >= self.self_id.cw_distance(self.cw[self.side - 1].id)
            && ccw_d >= self.ccw[self.side - 1].id.cw_distance(self.self_id)
        {
            return false;
        }
        if self.cw.iter().chain(&self.ccw).any(|e| e.id == info.id) {
            return false;
        }
        // A node belongs first to the side where it is nearer; if that
        // side is full of closer entries (or filling it evicts someone),
        // the displaced node may still be one of the other side's nearest.
        self.insert_chain(info, cw_d <= ccw_d, 4)
    }

    /// Inserts on one side; a displaced entry cascades to the other side
    /// (bounded depth — distances strictly grow along the chain).
    fn insert_chain(&mut self, info: NodeInfo, clockwise: bool, depth: u8) -> bool {
        if depth == 0 {
            return false;
        }
        match self.insert_side(info, clockwise) {
            SideInsert::Fit(None) => true,
            SideInsert::Fit(Some(evicted)) => {
                self.insert_chain(evicted, !clockwise, depth - 1);
                true
            }
            SideInsert::NoFit => self.insert_chain(info, !clockwise, depth - 1),
        }
    }

    /// Inserts into one side (true = clockwise), keeping it sorted by that
    /// side's arc distance and capped; reports the evicted entry, if any.
    fn insert_side(&mut self, info: NodeInfo, clockwise: bool) -> SideInsert {
        let self_id = self.self_id;
        let side = self.side;
        type DistFn = fn(NodeId, NodeId) -> u128;
        let (list, key): (&mut Vec<NodeInfo>, DistFn) = if clockwise {
            (&mut self.cw, |s, o| s.cw_distance(o))
        } else {
            (&mut self.ccw, |s, o| o.cw_distance(s))
        };
        let pos = list
            .iter()
            .position(|e| key(self_id, e.id) > key(self_id, info.id))
            .unwrap_or(list.len());
        if pos >= side {
            return SideInsert::NoFit;
        }
        list.insert(pos, info);
        let evicted = if list.len() > side { list.pop() } else { None };
        SideInsert::Fit(evicted)
    }

    /// Removes the entry with address `addr`, if present. Returns it.
    pub fn remove(&mut self, addr: NodeAddr) -> Option<NodeInfo> {
        for list in [&mut self.cw, &mut self.ccw] {
            if let Some(pos) = list.iter().position(|e| e.addr == addr) {
                return Some(list.remove(pos));
            }
        }
        None
    }

    /// All members (both sides), in no particular order.
    pub fn members(&self) -> impl Iterator<Item = &NodeInfo> {
        self.cw.iter().chain(self.ccw.iter())
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.cw.len() + self.ccw.len()
    }

    /// Whether the leaf set has no members.
    pub fn is_empty(&self) -> bool {
        self.cw.is_empty() && self.ccw.is_empty()
    }

    /// Whether both sides are at capacity. A non-full leaf set means the node
    /// knows the entire (small) network, and routing can finish in one hop.
    pub fn is_full(&self) -> bool {
        self.cw.len() == self.side && self.ccw.len() == self.side
    }

    /// Whether `key` falls within the ring interval covered by this leaf
    /// set (from the farthest counterclockwise member to the farthest
    /// clockwise member). When the set is not full, it covers the whole ring.
    pub fn covers(&self, key: NodeId) -> bool {
        if !self.is_full() {
            return true;
        }
        let lo = self.ccw.last().expect("full side").id;
        let hi = self.cw.last().expect("full side").id;
        NodeId::in_cw_range(key, lo, hi)
    }

    /// The member numerically closest to `key`, or `None` if the closest id
    /// is self. Ties break by smaller id (consistent with
    /// [`NodeId::closer_to`]).
    pub fn closest_to(&self, key: NodeId) -> Option<&NodeInfo> {
        let mut best: Option<&NodeInfo> = None;
        for e in self.members() {
            match best {
                Some(b) if !e.id.closer_to(key, b.id) => {}
                _ => best = Some(e),
            }
        }
        match best {
            Some(b) if b.id.closer_to(key, self.self_id) => Some(b),
            _ => None,
        }
    }

    /// The farthest member on each side, used to request repair data after
    /// failures.
    pub fn extremes(&self) -> (Option<&NodeInfo>, Option<&NodeInfo>) {
        (self.ccw.last(), self.cw.last())
    }
}

/// A routing-table row with no entries.
const EMPTY_ROW: [Option<NodeInfo>; DIGIT_BASE] = [None; DIGIT_BASE];

/// The prefix-routing table: up to 32 rows (one per matched-prefix length)
/// of 16 columns (one per next digit).
///
/// `rows[l][d]` holds a node whose id shares the first `l` digits with this
/// node's id and whose `(l+1)`-th digit is `d`. Only about ⌈log₁₆ N⌉ rows
/// ever fill in an N-node overlay, so rows are allocated up to the deepest
/// one an entry has landed in; a row past that reads as empty.
#[derive(Debug, Clone)]
pub struct RoutingTable {
    self_id: NodeId,
    rows: Vec<[Option<NodeInfo>; DIGIT_BASE]>,
}

impl RoutingTable {
    /// An empty routing table for `self_id`.
    pub fn new(self_id: NodeId) -> Self {
        RoutingTable {
            self_id,
            rows: Vec::new(),
        }
    }

    /// The slot `info` would occupy: `(row, column)`, or `None` for self.
    fn slot(&self, id: NodeId) -> Option<(usize, usize)> {
        if id == self.self_id {
            return None;
        }
        let row = self.self_id.common_prefix_len(id);
        Some((row, id.digit(row)))
    }

    /// Inserts `info`, keeping whichever candidate `prefer` likes better
    /// when the slot is occupied (`prefer(current, candidate)` returns true
    /// to replace). Entries for self are ignored. Returns whether the table
    /// changed.
    pub fn insert_with(
        &mut self,
        info: NodeInfo,
        prefer: impl Fn(&NodeInfo, &NodeInfo) -> bool,
    ) -> bool {
        let Some((row, col)) = self.slot(info.id) else {
            return false;
        };
        if self.rows.len() <= row {
            self.rows.resize(row + 1, EMPTY_ROW);
        }
        let slot = &mut self.rows[row][col];
        match slot {
            Some(cur) if cur.id == info.id || !prefer(cur, &info) => false,
            _ => {
                *slot = Some(info);
                true
            }
        }
    }

    /// Inserts `info`, keeping the existing occupant of a contested slot.
    pub fn insert(&mut self, info: NodeInfo) -> bool {
        self.insert_with(info, |_, _| false)
    }

    /// The entry at `(row, col)`, if any.
    pub fn entry(&self, row: usize, col: usize) -> Option<&NodeInfo> {
        self.rows.get(row)?.get(col)?.as_ref()
    }

    /// Whether `info` is in the table. Only the slot its id maps to can
    /// hold it, so this is one lookup, not a scan.
    pub(crate) fn holds(&self, info: &NodeInfo) -> bool {
        self.slot(info.id)
            .and_then(|(row, col)| self.entry(row, col))
            .is_some_and(|e| e.addr == info.addr)
    }

    /// The natural next hop for `key`: the entry sharing one more digit.
    pub fn next_hop(&self, key: NodeId) -> Option<&NodeInfo> {
        let row = self.self_id.common_prefix_len(key);
        self.rows.get(row)?[key.digit(row)].as_ref()
    }

    /// Removes all entries with address `addr`. Returns the `(row, col)`
    /// positions vacated, so repair can request replacement rows.
    pub fn remove(&mut self, addr: NodeAddr) -> Vec<(usize, usize)> {
        let mut vacated = Vec::new();
        for (r, row) in self.rows.iter_mut().enumerate() {
            for (c, slot) in row.iter_mut().enumerate() {
                if slot.map(|e| e.addr) == Some(addr) {
                    *slot = None;
                    vacated.push((r, c));
                }
            }
        }
        vacated
    }

    /// Iterates over all populated entries.
    pub fn entries(&self) -> impl Iterator<Item = &NodeInfo> {
        self.rows.iter().flatten().filter_map(|s| s.as_ref())
    }

    /// One full row (16 slots), used by the join protocol: the `l`-th row of
    /// a node sharing `l` digits with the joiner seeds the joiner's row `l`.
    /// A row never filled — any `row >= 32` among them — is all `None`.
    pub fn row(&self, row: usize) -> &[Option<NodeInfo>; DIGIT_BASE] {
        self.rows.get(row).unwrap_or(&EMPTY_ROW)
    }

    /// Number of populated entries.
    pub fn len(&self) -> usize {
        self.entries().count()
    }

    /// Whether the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries().next().is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info(id: u128) -> NodeInfo {
        // Mix in the high bits so large test ids still get distinct addrs.
        NodeInfo {
            id: NodeId(id),
            addr: NodeAddr((id ^ (id >> 96)) as u32),
            site: SiteId(0),
        }
    }

    #[test]
    fn leaf_set_keeps_closest_per_side() {
        let mut ls = LeafSet::with_side(NodeId(1000), 2);
        for id in [1010u128, 1020, 1030, 990, 980, 970] {
            ls.insert(info(id));
        }
        let mut cw: Vec<u128> = ls.cw.iter().map(|e| e.id.0).collect();
        let mut ccw: Vec<u128> = ls.ccw.iter().map(|e| e.id.0).collect();
        cw.sort();
        ccw.sort();
        assert_eq!(cw, vec![1010, 1020]);
        assert_eq!(ccw, vec![980, 990]);
        assert!(ls.is_full());
    }

    #[test]
    fn leaf_set_ignores_self_and_duplicates() {
        let mut ls = LeafSet::new(NodeId(5));
        assert!(!ls.insert(info(5)));
        assert!(ls.insert(info(6)));
        assert!(!ls.insert(info(6)));
        assert_eq!(ls.len(), 1);
    }

    #[test]
    fn leaf_set_covers_whole_ring_when_not_full() {
        let mut ls = LeafSet::with_side(NodeId(0), 2);
        ls.insert(info(10));
        assert!(ls.covers(NodeId(u128::MAX / 2)));
    }

    #[test]
    fn leaf_set_coverage_interval_when_full() {
        let mut ls = LeafSet::with_side(NodeId(1000), 1);
        ls.insert(info(1100));
        ls.insert(info(900));
        assert!(ls.covers(NodeId(950)));
        assert!(ls.covers(NodeId(1100)));
        assert!(ls.covers(NodeId(900)));
        assert!(!ls.covers(NodeId(1101)));
        assert!(!ls.covers(NodeId(899)));
    }

    #[test]
    fn leaf_closest_to_prefers_self_when_self_is_closest() {
        let mut ls = LeafSet::new(NodeId(1000));
        ls.insert(info(2000));
        assert!(ls.closest_to(NodeId(1001)).is_none());
        assert_eq!(ls.closest_to(NodeId(1999)).unwrap().id, NodeId(2000));
    }

    #[test]
    fn leaf_remove_and_extremes() {
        let mut ls = LeafSet::with_side(NodeId(100), 2);
        for id in [110u128, 120, 90, 80] {
            ls.insert(info(id));
        }
        let (ccw, cw) = ls.extremes();
        assert_eq!(ccw.unwrap().id, NodeId(80));
        assert_eq!(cw.unwrap().id, NodeId(120));
        assert!(ls.remove(NodeAddr(120)).is_some());
        assert!(ls.remove(NodeAddr(120)).is_none());
        assert_eq!(ls.len(), 3);
    }

    #[test]
    fn routing_table_slot_assignment() {
        let me = NodeId(0x0000_0000_0000_0000_0000_0000_0000_0000);
        let mut rt = RoutingTable::new(me);
        let other = info(0x00F0_0000_0000_0000_0000_0000_0000_0000);
        assert!(rt.insert(other));
        // Shares 2 leading zero digits, third digit is 0xF.
        assert_eq!(rt.entry(2, 0xF).unwrap().id, other.id);
        assert_eq!(rt.len(), 1);
    }

    #[test]
    fn routing_table_next_hop_matches_longer_prefix() {
        let me = NodeId(0);
        let mut rt = RoutingTable::new(me);
        let a = info(0x1000_0000_0000_0000_0000_0000_0000_0000);
        rt.insert(a);
        let key = NodeId(0x1234_0000_0000_0000_0000_0000_0000_0000);
        assert_eq!(rt.next_hop(key).unwrap().id, a.id);
        // Key whose first digit has no entry.
        let key2 = NodeId(0x2000_0000_0000_0000_0000_0000_0000_0000);
        assert!(rt.next_hop(key2).is_none());
    }

    #[test]
    fn routing_table_prefer_replaces() {
        let me = NodeId(0);
        let mut rt = RoutingTable::new(me);
        let a = NodeInfo {
            id: NodeId(0x1000_0000_0000_0000_0000_0000_0000_0000),
            addr: NodeAddr(1),
            site: SiteId(3),
        };
        let b = NodeInfo {
            id: NodeId(0x1100_0000_0000_0000_0000_0000_0000_0000),
            addr: NodeAddr(2),
            site: SiteId(0),
        };
        rt.insert(a);
        // Same slot (row 0, digit 1); prefer the site-0 node.
        assert!(rt.insert_with(b, |cur, cand| cand.site.0 < cur.site.0));
        assert_eq!(rt.entry(0, 1).unwrap().addr, NodeAddr(2));
        // Plain insert never replaces.
        assert!(!rt.insert(a));
    }

    #[test]
    fn routing_table_remove_by_addr() {
        let mut rt = RoutingTable::new(NodeId(0));
        let a = info(0x1000_0000_0000_0000_0000_0000_0000_0000);
        let b = info(0x2000_0000_0000_0000_0000_0000_0000_0000);
        rt.insert(a);
        rt.insert(b);
        assert_eq!(rt.remove(a.addr).len(), 1);
        assert_eq!(rt.len(), 1);
        assert!(rt.remove(a.addr).is_empty(), "idempotent");
    }

    #[test]
    fn routing_table_ignores_self() {
        let mut rt = RoutingTable::new(NodeId(7));
        assert!(!rt.insert(info(7)));
        assert!(rt.is_empty());
    }

    #[test]
    fn routing_table_rows_past_the_last_filled_read_as_empty() {
        let mut rt = RoutingTable::new(NodeId(0));
        assert!(rt.insert(info(0x00F0_0000_0000_0000_0000_0000_0000_0000)));
        for r in [0, 1, 3, 31, 32, 255, usize::MAX] {
            assert_eq!(rt.row(r), &[None; DIGIT_BASE], "row {r}");
        }
        assert_eq!(rt.row(2).iter().flatten().count(), 1);
        assert!(rt
            .next_hop(NodeId(0x0000_0000_0000_0000_0000_0000_0000_0001))
            .is_none());
        assert!(rt.next_hop(NodeId(0)).is_none(), "self");
    }

    /// The routing table as it was before rows were allocated on demand:
    /// all 32 × 16 slots from birth. [`RoutingTable`] must be
    /// indistinguishable from it.
    struct DenseTable {
        me: NodeId,
        rows: [[Option<NodeInfo>; DIGIT_BASE]; crate::ID_DIGITS],
    }

    impl DenseTable {
        fn insert_with(
            &mut self,
            info: NodeInfo,
            prefer: fn(&NodeInfo, &NodeInfo) -> bool,
        ) -> bool {
            if info.id == self.me {
                return false;
            }
            let row = self.me.common_prefix_len(info.id);
            let slot = &mut self.rows[row][info.id.digit(row)];
            match slot {
                None => *slot = Some(info),
                Some(cur) if cur.id != info.id && prefer(cur, &info) => *slot = Some(info),
                _ => return false,
            }
            true
        }

        fn remove(&mut self, addr: NodeAddr) -> Vec<(usize, usize)> {
            let mut vacated = Vec::new();
            for (r, row) in self.rows.iter_mut().enumerate() {
                for (c, slot) in row.iter_mut().enumerate() {
                    if slot.is_some_and(|e| e.addr == addr) {
                        *slot = None;
                        vacated.push((r, c));
                    }
                }
            }
            vacated
        }

        fn next_hop(&self, key: NodeId) -> Option<NodeInfo> {
            let row = self.me.common_prefix_len(key);
            self.rows.get(row).and_then(|r| r[key.digit(row)])
        }

        fn row(&self, row: usize) -> [Option<NodeInfo>; DIGIT_BASE] {
            self.rows.get(row).copied().unwrap_or([None; DIGIT_BASE])
        }

        fn entries(&self) -> Vec<NodeInfo> {
            self.rows.iter().flatten().flatten().copied().collect()
        }
    }

    /// An id sharing at least `digits` leading digits with `me` (all 32:
    /// `me` itself), the rest drawn from `noise`.
    fn near(me: NodeId, digits: usize, noise: u128) -> NodeId {
        NodeId(me.0 ^ noise.checked_shr(4 * digits as u32).unwrap_or(0))
    }

    /// [`LeafSet::insert`] as it was before its early reject: every
    /// candidate pays the duplicate scan and the side scans.
    fn insert_by_scans(ls: &mut LeafSet, info: NodeInfo) -> bool {
        if info.id == ls.self_id || ls.members().any(|e| e.id == info.id) {
            return false;
        }
        let cw_d = ls.self_id.cw_distance(info.id);
        let ccw_d = info.id.cw_distance(ls.self_id);
        ls.insert_chain(info, cw_d <= ccw_d, 4)
    }

    use proptest::collection::vec;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Random insert / remove runs on small sides: after every step
        /// the early-rejecting set returns and holds exactly what the
        /// scanning one does. Ids cluster near `me` or spread over the
        /// ring, and repeat, so full sides, duplicates and self all come
        /// up.
        #[test]
        fn leaf_set_insert_matches_the_scanning_insert(
            me in any::<u128>(),
            side in 1usize..4,
            ops in vec((any::<bool>(), 0u8..3, any::<u128>()), 0..64),
        ) {
            let mut fast = LeafSet::with_side(NodeId(me), side);
            let mut slow = LeafSet::with_side(NodeId(me), side);
            let mut seen: Vec<u128> = vec![me];
            for (insert, shape, noise) in ops {
                let id = match shape {
                    0 => me.wrapping_add(noise % 64).wrapping_sub(32),
                    1 => seen[(noise % seen.len() as u128) as usize],
                    _ => noise,
                };
                if insert {
                    prop_assert_eq!(fast.insert(info(id)), insert_by_scans(&mut slow, info(id)));
                    seen.push(id);
                } else {
                    prop_assert_eq!(fast.remove(info(id).addr), slow.remove(info(id).addr));
                }
                prop_assert_eq!(&fast.cw, &slow.cw);
                prop_assert_eq!(&fast.ccw, &slow.ccw);
            }
        }

        /// Random `insert` / `insert_with` / `remove` runs: after every
        /// step the on-demand table answers `next_hop`, `row` (every index
        /// a `u8` can name), `entries` and `len` exactly as the dense one.
        /// Ids come from a few noise values so that one id recurs under
        /// another address or site.
        #[test]
        fn routing_table_matches_the_dense_table(
            me in any::<u128>(),
            noises in vec(any::<u128>(), 1..5),
            ops in vec((0u8..3, 0usize..33, 0usize..5, 0u32..6, 0u16..3), 0..48),
            keys in vec((0usize..33, any::<u128>()), 1..6),
        ) {
            let me = NodeId(me);
            let mut rt = RoutingTable::new(me);
            let mut dense = DenseTable { me, rows: [[None; DIGIT_BASE]; crate::ID_DIGITS] };
            let prefer: fn(&NodeInfo, &NodeInfo) -> bool = |cur, cand| cand.site.0 < cur.site.0;
            for (kind, digits, noise, addr, site) in ops {
                let id = near(me, digits, noises[noise % noises.len()]);
                let e = NodeInfo { id, addr: NodeAddr(addr), site: SiteId(site) };
                match kind {
                    0 => prop_assert_eq!(rt.insert(e), dense.insert_with(e, |_, _| false)),
                    1 => prop_assert_eq!(rt.insert_with(e, prefer), dense.insert_with(e, prefer)),
                    _ => prop_assert_eq!(rt.remove(e.addr), dense.remove(e.addr)),
                }
                for &(digits, noise) in &keys {
                    let key = near(me, digits, noise);
                    prop_assert_eq!(rt.next_hop(key).copied(), dense.next_hop(key));
                }
                for r in 0..=usize::from(u8::MAX) {
                    prop_assert_eq!((r, rt.row(r)), (r, &dense.row(r)));
                }
                prop_assert_eq!(rt.entries().copied().collect::<Vec<_>>(), dense.entries());
                prop_assert_eq!(rt.len(), dense.entries().len());
            }
        }
    }
}
