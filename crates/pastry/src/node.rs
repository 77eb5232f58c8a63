//! The Pastry node protocol: prefix routing, join, announcements, and
//! leaf-set repair, plus the site-scoped routing mode used by RBAY's
//! administrative isolation (paper §III.E).
//!
//! The implementation is *sans-I/O*: [`PastryNode`] holds only protocol
//! state, sends through a [`Net`] — any [`Transport`] that carries
//! [`PastryMsg`]s — and hands application payloads to a [`PastryApp`].
//! Which peers are believed dead is kept here ([`PastryNode::buried`]);
//! what was routed through which hop is not — the application sees every
//! routed payload before it leaves and keeps what it needs.

use crate::id::{NodeId, ID_DIGITS};
use crate::state::{LeafSet, NodeInfo, RoutingTable};
use simnet::obs::{ObsEvent, Recorder};
use simnet::{MessageSize, NodeAddr, SiteId, Transport};
use std::collections::{BTreeSet, HashMap};

/// Short for "a [`Transport`] of [`PastryMsg`]s with payload `A`": what the
/// protocol emits messages through. Every such transport is one.
pub trait Net<A>: Transport<PastryMsg<A>> {}
impl<A, T: Transport<PastryMsg<A>>> Net<A> for T {}

/// Application callbacks invoked by the routing layer.
///
/// `forward` fires at every intermediate hop and may consume or rewrite the
/// payload — this is the hook Scribe uses to build trees out of the union of
/// JOIN paths.
pub trait PastryApp<A>: Sized {
    /// The message reached the node responsible for `key` after `hops`
    /// network hops.
    fn deliver<N: Net<A>>(
        &mut self,
        node: &mut PastryNode,
        net: &mut N,
        key: NodeId,
        payload: A,
        hops: u16,
    );

    /// The message is passing through on its way to `next`. Return the
    /// payload (possibly modified) to let it continue, or `None` to consume
    /// it.
    fn forward<N: Net<A>>(
        &mut self,
        node: &mut PastryNode,
        net: &mut N,
        key: NodeId,
        payload: A,
        next: &NodeInfo,
    ) -> Option<A> {
        let _ = (node, net, key, next);
        Some(payload)
    }

    /// A direct (unrouted) application message arrived from `from`.
    fn receive_direct<N: Net<A>>(
        &mut self,
        node: &mut PastryNode,
        net: &mut N,
        from: NodeAddr,
        payload: A,
    );
}

/// Wire messages of the Pastry layer, generic over the application payload.
#[derive(Debug, Clone)]
pub enum PastryMsg<A> {
    /// A routed application message heading for the node closest to `key`.
    Route {
        /// Destination key.
        key: NodeId,
        /// Application payload.
        payload: A,
        /// Network hops taken so far.
        hops: u16,
        /// When set, routing only considers nodes of this site
        /// (administrative isolation).
        scope: Option<SiteId>,
    },
    /// A join request routed toward the joiner's id; nodes on the path
    /// contribute routing-table rows.
    Join {
        /// The node joining the overlay.
        joiner: NodeInfo,
        /// Routing rows collected along the path so far.
        rows: Vec<Vec<NodeInfo>>,
        /// Network hops taken so far.
        hops: u16,
    },
    /// Sent by the joiner's root: seed state for the new node.
    JoinReply {
        /// Routing rows collected along the join path.
        rows: Vec<Vec<NodeInfo>>,
        /// The root's leaf set (plus the root itself).
        leaves: Vec<NodeInfo>,
        /// The root node.
        root: NodeInfo,
    },
    /// A (re)announcement of a node's existence; receivers add it to their
    /// routing state.
    Announce {
        /// The announcing node.
        info: NodeInfo,
    },
    /// Request for the receiver's routing-table row `row`, used to refill
    /// slots vacated by a failed node (Pastry's routing-table repair).
    RowRequest {
        /// The requested row index.
        row: u8,
    },
    /// The receiver's populated entries of row `row`.
    RowReply {
        /// The row index echoed.
        row: u8,
        /// The populated entries of that row.
        entries: Vec<NodeInfo>,
    },
    /// Request for the receiver's leaf set, used to repair after failures.
    LeafRepairRequest,
    /// The receiver's leaf set members.
    LeafRepairReply {
        /// Members of the replying node's leaf set (plus itself).
        leaves: Vec<NodeInfo>,
    },
    /// An unrouted application message.
    Direct(A),
}

impl<A: MessageSize> MessageSize for PastryMsg<A> {
    fn wire_size(&self) -> usize {
        const INFO: usize = 16 + 4 + 2; // id + addr + site on the wire
        match self {
            PastryMsg::Route { payload, .. } => 16 + 2 + 3 + payload.wire_size(),
            PastryMsg::Join { rows, .. } => {
                INFO + 2 + rows.iter().map(|r| r.len() * INFO).sum::<usize>()
            }
            PastryMsg::JoinReply { rows, leaves, .. } => {
                INFO + leaves.len() * INFO + rows.iter().map(|r| r.len() * INFO).sum::<usize>()
            }
            PastryMsg::Announce { .. } => INFO,
            PastryMsg::RowRequest { .. } => 2,
            PastryMsg::RowReply { entries, .. } => 2 + entries.len() * INFO,
            PastryMsg::LeafRepairRequest => 1,
            PastryMsg::LeafRepairReply { leaves } => 1 + leaves.len() * INFO,
            PastryMsg::Direct(a) => a.wire_size(),
        }
    }
}

/// Counters exposed for the evaluation harnesses (Fig. 8a/8b).
#[derive(Debug, Clone, Default)]
pub struct PastryStats {
    /// Routed messages this node forwarded toward another node.
    pub forwards: u64,
    /// Routed messages delivered at this node as the key's root.
    pub delivered: u64,
    /// Join requests this node helped route.
    pub joins_seen: u64,
}

/// Protocol state of one Pastry node.
///
/// The node participates in the global overlay and, for administrative
/// isolation, in a site-local view (a same-site routing table and leaf set)
/// so that site-scoped keys converge without leaving the site.
#[derive(Debug)]
pub struct PastryNode {
    info: NodeInfo,
    rt: RoutingTable,
    leaf: LeafSet,
    site_rt: RoutingTable,
    site_leaf: LeafSet,
    joined: bool,
    /// Public counters for the evaluation harnesses.
    pub stats: PastryStats,
    /// When enabled, counts forwards per destination key (Fig. 8b).
    forward_log: Option<HashMap<NodeId, u64>>,
    /// Observability-plane handle; disabled (a no-op) by default.
    obs: Recorder,
    /// Round-robin position for [`PastryNode::gossip_round`].
    gossip_cursor: usize,
    /// The peers this node believes dead — the one such set a node keeps.
    /// [`PastryNode::handle_failure`] buries; gossip and repair replies
    /// from slower peers would otherwise re-insert the corpse into the
    /// leaf set, where it silently blackholes every route through it, so
    /// [`PastryNode::insert_peer`] refuses a buried peer until the
    /// embedding node has proof of life and calls [`PastryNode::revive`].
    buried: BTreeSet<NodeAddr>,
}

impl PastryNode {
    /// Creates an un-joined node with the given identity.
    pub fn new(info: NodeInfo) -> Self {
        PastryNode {
            info,
            rt: RoutingTable::new(info.id),
            leaf: LeafSet::new(info.id),
            site_rt: RoutingTable::new(info.id),
            site_leaf: LeafSet::new(info.id),
            joined: false,
            stats: PastryStats::default(),
            forward_log: None,
            obs: Recorder::default(),
            gossip_cursor: 0,
            buried: BTreeSet::new(),
        }
    }

    /// This node's identity.
    pub fn info(&self) -> NodeInfo {
        self.info
    }

    /// This node's ring id.
    pub fn id(&self) -> NodeId {
        self.info.id
    }

    /// Whether the node has completed the join protocol (or was seeded via
    /// [`PastryNode::seed_state`]).
    pub fn is_joined(&self) -> bool {
        self.joined
    }

    /// The global leaf set (read-only).
    pub fn leaf_set(&self) -> &LeafSet {
        &self.leaf
    }

    /// The global routing table (read-only).
    pub fn routing_table(&self) -> &RoutingTable {
        &self.rt
    }

    /// The site-scoped leaf set (read-only) — peers in this node's own
    /// site, ordered around the site sub-ring.
    pub fn site_leaf_set(&self) -> &LeafSet {
        &self.site_leaf
    }

    /// Starts per-key forward counting (Fig. 8b instrumentation).
    pub fn enable_forward_log(&mut self) {
        self.forward_log = Some(HashMap::new());
    }

    /// Installs an observability recorder (a clone of the federation-wide
    /// handle); routing hooks stay no-ops while the recorder is disabled.
    pub fn set_recorder(&mut self, obs: Recorder) {
        self.obs = obs;
    }

    /// The per-key forward counts, if logging was enabled.
    pub fn forward_log(&self) -> Option<&HashMap<NodeId, u64>> {
        self.forward_log.as_ref()
    }

    /// Approximate memory used by routing state, in bytes (Fig. 8c
    /// accounting).
    pub fn state_bytes(&self) -> usize {
        let info = std::mem::size_of::<NodeInfo>();
        (self.rt.len() + self.site_rt.len() + self.leaf.len() + self.site_leaf.len()) * info
    }

    /// Inserts a peer into routing state (both global and, if same-site,
    /// site-local), preferring lower-latency candidates for contested
    /// routing-table slots.
    pub fn insert_peer<A, N: Net<A>>(&mut self, net: &N, info: NodeInfo) {
        if info.id == self.info.id || self.is_buried(info.addr) {
            return;
        }
        let my_site = self.info.site;
        self.rt.insert_with(info, |cur, cand| {
            net.rtt_ms(my_site, cand.site) < net.rtt_ms(my_site, cur.site)
        });
        self.leaf.insert(info);
        if info.site == my_site {
            self.site_rt.insert(info);
            self.site_leaf.insert(info);
        }
    }

    /// Seeds complete routing state directly (used by the omniscient
    /// bootstrap for large simulations) and marks the node joined.
    pub fn seed_state(
        &mut self,
        rt: RoutingTable,
        leaf: LeafSet,
        site_rt: RoutingTable,
        site_leaf: LeafSet,
    ) {
        self.rt = rt;
        self.leaf = leaf;
        self.site_rt = site_rt;
        self.site_leaf = site_leaf;
        self.joined = true;
    }

    /// One round of peer-set anti-entropy: announces this node to one
    /// known peer (round-robin) and pulls that peer's leaf set.
    ///
    /// The join-time `Announce` broadcast is one-shot and one-directional,
    /// so concurrent joins (or a lost frame on a real network) can leave
    /// two nodes mutually unaware forever. A periodic gossip round heals
    /// both holes: the `Announce` teaches the peer about us, and the
    /// `LeafRepairReply` teaches us the peer's neighbourhood — knowledge
    /// percolates transitively through any connected member. Both handlers
    /// are idempotent, so extra rounds are harmless.
    pub fn gossip_round<A, N: Net<A>>(&mut self, net: &mut N) {
        if !self.joined {
            return;
        }
        let peers = self.known_peers();
        if peers.is_empty() {
            return;
        }
        let peer = peers[self.gossip_cursor % peers.len()];
        self.gossip_cursor = self.gossip_cursor.wrapping_add(1);
        net.send(peer.addr, PastryMsg::Announce { info: self.info });
        net.send(peer.addr, PastryMsg::LeafRepairRequest);
    }

    /// All peers this node knows, deduplicated by address.
    pub fn known_peers(&self) -> Vec<NodeInfo> {
        let mut out: Vec<NodeInfo> = Vec::new();
        let mut push = |e: &NodeInfo| {
            if !out.iter().any(|o| o.addr == e.addr) {
                out.push(*e);
            }
        };
        for e in self.rt.entries() {
            push(e);
        }
        for e in self.leaf.members() {
            push(e);
        }
        for e in self.site_rt.entries() {
            push(e);
        }
        for e in self.site_leaf.members() {
            push(e);
        }
        out
    }

    /// Picks the next hop for `key`, or `None` if this node is the key's
    /// root within the (possibly site-scoped) view.
    pub fn next_hop(&self, key: NodeId, scope: Option<SiteId>) -> Option<NodeInfo> {
        match scope {
            None => Self::next_hop_in(&self.rt, &self.leaf, self.info, key, None),
            Some(site) => {
                if site == self.info.site {
                    Self::next_hop_in(&self.site_rt, &self.site_leaf, self.info, key, Some(site))
                } else {
                    // We are outside the scope; fall back to any known node
                    // of that site to enter it ("border routing").
                    self.known_peers()
                        .into_iter()
                        .filter(|p| p.site == site)
                        .min_by_key(|p| p.id.ring_distance(key))
                }
            }
        }
    }

    fn next_hop_in(
        rt: &RoutingTable,
        leaf: &LeafSet,
        me: NodeInfo,
        key: NodeId,
        scope: Option<SiteId>,
    ) -> Option<NodeInfo> {
        if key == me.id {
            return None;
        }
        // Leaf-set short cut: if the key falls in the covered interval, the
        // numerically closest leaf (or self) is the root.
        if leaf.covers(key) {
            return leaf.closest_to(key).copied();
        }
        // Prefix rule.
        if let Some(e) = rt.next_hop(key) {
            if scope.is_none_or(|s| e.site == s) {
                return Some(*e);
            }
        }
        // Rare case: any known node with at least as long a shared prefix
        // that is strictly closer to the key than we are.
        let l = me.id.common_prefix_len(key);
        let mut best: Option<NodeInfo> = None;
        for e in rt.entries().chain(leaf.members()) {
            if let Some(s) = scope {
                if e.site != s {
                    continue;
                }
            }
            if e.id.common_prefix_len(key) >= l && e.id.closer_to(key, me.id) {
                match best {
                    Some(b) if !e.id.closer_to(key, b.id) => {}
                    _ => best = Some(*e),
                }
            }
        }
        best
    }

    /// Routes `payload` toward `key`. If this node is already the root, the
    /// payload is delivered locally (with `hops = 0`).
    pub fn route<A, N: Net<A>, App: PastryApp<A>>(
        &mut self,
        net: &mut N,
        app: &mut App,
        key: NodeId,
        payload: A,
        scope: Option<SiteId>,
    ) {
        match self.next_hop(key, scope) {
            None => {
                self.stats.delivered += 1;
                let me = self.info.addr;
                self.obs.count(me, "route_deliver");
                self.obs.observe_hops(0);
                self.obs.record_with(|at| ObsEvent::RouteDeliver {
                    at,
                    node: me,
                    key: key.as_u128(),
                    hops: 0,
                });
                app.deliver(self, net, key, payload, 0);
            }
            Some(next) => self.send_routed(net, next.addr, key, payload, 1, scope),
        }
    }

    /// Sends a routed message on to `next` — the one place a
    /// [`PastryMsg::Route`] leaves a node, at its origin or at a forwarding
    /// hop. Pastry keeps no record of the hop: only the application knows
    /// which payloads are worth watching, so it is told first — at a
    /// forwarding hop through [`PastryApp::forward`], at the origin by
    /// whoever routes (in RBAY, Scribe tells its host, whose failure
    /// detector pings the hop on use and keeps a copy of a query-path
    /// message to route again if the hop turns out dead).
    pub fn send_routed<A, N: Net<A>>(
        &mut self,
        net: &mut N,
        next: NodeAddr,
        key: NodeId,
        payload: A,
        hops: u16,
        scope: Option<SiteId>,
    ) {
        let msg = PastryMsg::Route {
            key,
            payload,
            hops,
            scope,
        };
        net.send(next, msg);
    }

    /// Sends an unrouted application message straight to `to`.
    pub fn send_direct<A, N: Net<A>>(&mut self, net: &mut N, to: NodeAddr, payload: A) {
        net.send(to, PastryMsg::Direct(payload));
    }

    /// Initiates the join protocol through `bootstrap` (any node already in
    /// the overlay).
    pub fn join<A, N: Net<A>>(&mut self, net: &mut N, bootstrap: NodeAddr) {
        net.send(
            bootstrap,
            PastryMsg::Join {
                joiner: self.info,
                rows: Vec::new(),
                hops: 0,
            },
        );
    }

    /// Handles an incoming Pastry message. Application payloads are
    /// dispatched through `app`.
    pub fn on_message<A, N: Net<A>, App: PastryApp<A>>(
        &mut self,
        net: &mut N,
        app: &mut App,
        from: NodeAddr,
        msg: PastryMsg<A>,
    ) {
        match msg {
            PastryMsg::Route {
                key,
                payload,
                hops,
                scope,
            } => match self.next_hop(key, scope) {
                None => {
                    self.stats.delivered += 1;
                    let me = self.info.addr;
                    self.obs.count(me, "route_deliver");
                    self.obs.observe_hops(hops);
                    self.obs.record_with(|at| ObsEvent::RouteDeliver {
                        at,
                        node: me,
                        key: key.as_u128(),
                        hops,
                    });
                    app.deliver(self, net, key, payload, hops);
                }
                Some(next) => {
                    self.stats.forwards += 1;
                    if let Some(log) = &mut self.forward_log {
                        *log.entry(key).or_insert(0) += 1;
                    }
                    let me = self.info.addr;
                    self.obs.count(me, "route_forward");
                    self.obs.record_with(|at| ObsEvent::RouteForward {
                        at,
                        node: me,
                        key: key.as_u128(),
                        hops,
                    });
                    if let Some(payload) = app.forward(self, net, key, payload, &next) {
                        self.send_routed(net, next.addr, key, payload, hops + 1, scope);
                    }
                }
            },
            PastryMsg::Join {
                joiner,
                mut rows,
                hops,
            } => {
                self.stats.joins_seen += 1;
                // Contribute routing rows up to the shared-prefix length.
                let l = self.info.id.common_prefix_len(joiner.id).min(ID_DIGITS - 1);
                while rows.len() <= l {
                    let r = rows.len();
                    let row: Vec<NodeInfo> = self.rt.row(r).iter().filter_map(|e| *e).collect();
                    rows.push(row);
                }
                let next = Self::next_hop_in(&self.rt, &self.leaf, self.info, joiner.id, None);
                // Learn about the joiner ourselves.
                self.insert_peer(net, joiner);
                match next {
                    None => {
                        let mut leaves: Vec<NodeInfo> = self.leaf.members().copied().collect();
                        leaves.push(self.info);
                        net.send(
                            joiner.addr,
                            PastryMsg::JoinReply {
                                rows,
                                leaves,
                                root: self.info,
                            },
                        );
                    }
                    Some(next) => {
                        net.send(
                            next.addr,
                            PastryMsg::Join {
                                joiner,
                                rows,
                                hops: hops + 1,
                            },
                        );
                    }
                }
            }
            PastryMsg::JoinReply { rows, leaves, root } => {
                for e in rows.into_iter().flatten().chain(leaves).chain([root]) {
                    self.insert_peer(net, e);
                }
                self.joined = true;
                // Announce ourselves to everyone we now know.
                let me = self.info;
                for peer in self.known_peers() {
                    net.send(peer.addr, PastryMsg::Announce { info: me });
                }
            }
            PastryMsg::Announce { info } => {
                self.insert_peer(net, info);
            }
            PastryMsg::RowRequest { row } => {
                let entries: Vec<NodeInfo> = self
                    .rt
                    .row(row as usize)
                    .iter()
                    .filter_map(|e| *e)
                    .collect();
                net.send(from, PastryMsg::RowReply { row, entries });
            }
            PastryMsg::RowReply { entries, .. } => {
                for e in entries {
                    self.insert_peer(net, e);
                }
            }
            PastryMsg::LeafRepairRequest => {
                let mut leaves: Vec<NodeInfo> = self.leaf.members().copied().collect();
                leaves.push(self.info);
                net.send(from, PastryMsg::LeafRepairReply { leaves });
            }
            PastryMsg::LeafRepairReply { leaves } => {
                for e in leaves {
                    self.insert_peer(net, e);
                }
            }
            PastryMsg::Direct(payload) => {
                app.receive_direct(self, net, from, payload);
            }
        }
    }

    /// Whether this node believes `addr` dead.
    pub fn is_buried(&self, addr: NodeAddr) -> bool {
        self.buried.contains(&addr)
    }

    /// Every peer this node believes dead.
    pub fn buried(&self) -> &BTreeSet<NodeAddr> {
        &self.buried
    }

    /// Lifts a burial — the caller holds proof of life (a message from
    /// `addr` reached it) — so gossip and repair may re-insert the peer.
    /// Returns whether the peer was buried.
    pub fn revive(&mut self, addr: NodeAddr) -> bool {
        self.buried.remove(&addr)
    }

    /// Reacts to the discovery that `addr` has failed: buries it, removes
    /// it from all routing state, asks the surviving leaf-set extremes for
    /// their members, and asks a surviving same-row entry for each vacated
    /// routing-table row (the Pastry repair protocol).
    pub fn handle_failure<A, N: Net<A>>(&mut self, net: &mut N, addr: NodeAddr) {
        self.buried.insert(addr);
        let vacated = self.rt.remove(addr);
        self.site_rt.remove(addr);
        self.leaf.remove(addr);
        self.site_leaf.remove(addr);
        let (ccw, cw) = self.leaf.extremes();
        for e in [ccw, cw].into_iter().flatten() {
            net.send(e.addr, PastryMsg::LeafRepairRequest);
        }
        // For each row that lost an entry, ask a surviving entry of the
        // same row (which shares the relevant prefix) for its row; fall
        // back to any leaf when the row emptied out.
        let mut asked_rows = Vec::new();
        for (row, _) in vacated {
            if asked_rows.contains(&row) {
                continue;
            }
            asked_rows.push(row);
            let helper = self
                .rt
                .row(row)
                .iter()
                .flatten()
                .next()
                .copied()
                .or_else(|| self.leaf.members().next().copied());
            if let Some(h) = helper {
                net.send(h.addr, PastryMsg::RowRequest { row: row as u8 });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::NodeId;
    use simnet::{NodeAddr, SimDuration, SimTime, SiteId, TimerToken};
    use std::collections::VecDeque;

    /// Local payload type (the orphan rule forbids impls on `u32`).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct P(u32);
    impl MessageSize for P {}

    /// A loopback "network" that records sends for single-node unit tests.
    #[derive(Default)]
    struct RecNet {
        sent: VecDeque<(NodeAddr, PastryMsg<P>)>,
    }
    impl Transport<PastryMsg<P>> for RecNet {
        fn send(&mut self, to: NodeAddr, msg: PastryMsg<P>) {
            self.sent.push_back((to, msg));
        }
        fn now(&self) -> SimTime {
            SimTime::ZERO
        }
        fn set_timer(&mut self, _: SimDuration, _: TimerToken) {}
    }

    #[derive(Default)]
    struct RecApp {
        delivered: Vec<(NodeId, P, u16)>,
        directs: Vec<(NodeAddr, P)>,
    }
    impl PastryApp<P> for RecApp {
        fn deliver<N: Net<P>>(
            &mut self,
            _node: &mut PastryNode,
            _net: &mut N,
            key: NodeId,
            payload: P,
            hops: u16,
        ) {
            self.delivered.push((key, payload, hops));
        }
        fn receive_direct<N: Net<P>>(
            &mut self,
            _node: &mut PastryNode,
            _net: &mut N,
            from: NodeAddr,
            payload: P,
        ) {
            self.directs.push((from, payload));
        }
    }

    fn info(id: u128, addr: u32, site: u16) -> NodeInfo {
        NodeInfo {
            id: NodeId(id),
            addr: NodeAddr(addr),
            site: SiteId(site),
        }
    }

    #[test]
    fn lone_node_delivers_to_itself() {
        let mut node = PastryNode::new(info(100, 0, 0));
        let (mut net, mut app) = (RecNet::default(), RecApp::default());
        node.route(&mut net, &mut app, NodeId(12345), P(7), None);
        assert_eq!(app.delivered, vec![(NodeId(12345), P(7), 0)]);
        assert!(net.sent.is_empty());
    }

    #[test]
    fn routes_to_numerically_closest_known_node() {
        let mut node = PastryNode::new(info(100, 0, 0));
        let (mut net, mut app) = (RecNet::default(), RecApp::default());
        node.insert_peer(&net, info(2_000, 1, 0));
        node.insert_peer(&net, info(3_000, 2, 0));
        node.route(&mut net, &mut app, NodeId(2_100), P(7), None);
        let (to, msg) = net.sent.pop_front().expect("one send");
        assert_eq!(to, NodeAddr(1));
        assert!(matches!(msg, PastryMsg::Route { hops: 1, .. }));
        assert!(app.delivered.is_empty());
    }

    #[test]
    fn forward_increments_stats_and_log() {
        let mut node = PastryNode::new(info(100, 0, 0));
        node.enable_forward_log();
        let (mut net, mut app) = (RecNet::default(), RecApp::default());
        node.insert_peer(&net, info(50_000, 1, 0));
        node.on_message(
            &mut net,
            &mut app,
            NodeAddr(9),
            PastryMsg::Route {
                key: NodeId(49_999),
                payload: P(1),
                hops: 3,
                scope: None,
            },
        );
        assert_eq!(node.stats.forwards, 1);
        assert_eq!(node.forward_log().unwrap()[&NodeId(49_999)], 1);
        let (_, msg) = net.sent.pop_front().unwrap();
        assert!(matches!(msg, PastryMsg::Route { hops: 4, .. }));
    }

    #[test]
    fn direct_messages_bypass_routing() {
        let mut node = PastryNode::new(info(100, 0, 0));
        let (mut net, mut app) = (RecNet::default(), RecApp::default());
        node.on_message(&mut net, &mut app, NodeAddr(4), PastryMsg::Direct(P(42)));
        assert_eq!(app.directs, vec![(NodeAddr(4), P(42))]);
    }

    #[test]
    fn scoped_next_hop_never_leaves_site() {
        let mut node = PastryNode::new(info(100, 0, 1));
        let net = RecNet::default();
        // An other-site node much closer to the key, and a same-site node.
        node.insert_peer(&net, info(1_000_000, 1, 2));
        node.insert_peer(&net, info(5_000, 2, 1));
        let hop = node.next_hop(NodeId(999_999), Some(SiteId(1)));
        assert_eq!(hop.unwrap().addr, NodeAddr(2));
    }

    #[test]
    fn scope_from_outside_enters_via_border() {
        let mut node = PastryNode::new(info(100, 0, 1));
        let net = RecNet::default();
        node.insert_peer(&net, info(900, 5, 3));
        let hop = node.next_hop(NodeId(901), Some(SiteId(3)));
        assert_eq!(hop.unwrap().addr, NodeAddr(5));
    }

    #[test]
    fn failure_removes_peer_and_requests_repair() {
        let mut node = PastryNode::new(info(100, 0, 0));
        let mut net = RecNet::default();
        node.insert_peer(&net, info(200, 1, 0));
        node.insert_peer(&net, info(300, 2, 0));
        node.handle_failure(&mut net, NodeAddr(1));
        assert!(node.known_peers().iter().all(|p| p.addr != NodeAddr(1)));
        // Repair requests went out: leaf-set repair to the surviving
        // extremes plus row repair for the vacated routing-table slot.
        assert!(net
            .sent
            .iter()
            .any(|(_, m)| matches!(m, PastryMsg::LeafRepairRequest)));
        assert!(net
            .sent
            .iter()
            .any(|(_, m)| matches!(m, PastryMsg::RowRequest { .. })));
    }

    /// Hearing *about* a buried peer never lifts the burial, whichever
    /// message carries the news and even if the peer itself sent it: only
    /// `revive` does, and the embedding node decides when.
    #[test]
    fn buried_peer_is_refused_by_every_gossip_path_until_revived() {
        let dead = info(200, 1, 0);
        let gossip: [(&str, PastryMsg<P>); 3] = [
            ("Announce", PastryMsg::Announce { info: dead }),
            (
                "RowReply",
                PastryMsg::RowReply {
                    row: 0,
                    entries: vec![dead],
                },
            ),
            (
                "LeafRepairReply",
                PastryMsg::LeafRepairReply { leaves: vec![dead] },
            ),
        ];
        let knows_dead = |n: &PastryNode| n.known_peers().iter().any(|p| p.addr == dead.addr);
        for (path, msg) in gossip {
            let mut node = PastryNode::new(info(100, 0, 0));
            let (mut net, mut app) = (RecNet::default(), RecApp::default());
            node.insert_peer(&net, dead);
            node.handle_failure(&mut net, dead.addr);
            assert_eq!(node.buried().iter().collect::<Vec<_>>(), [&dead.addr]);
            for from in [NodeAddr(2), dead.addr] {
                node.on_message(&mut net, &mut app, from, msg.clone());
                assert!(!knows_dead(&node), "{path} from {from} resurrected it");
                assert!(node.is_buried(dead.addr), "{path} from {from} un-buried it");
            }
            assert!(node.revive(dead.addr), "it was buried");
            assert!(!node.revive(dead.addr), "and is not any more");
            node.on_message(&mut net, &mut app, NodeAddr(2), msg);
            assert!(knows_dead(&node), "{path} must re-insert a revived peer");
        }
    }

    #[test]
    fn row_request_returns_row_and_reply_refills() {
        let mut node = PastryNode::new(info(100, 0, 0));
        let (mut net, mut app) = (RecNet::default(), RecApp::default());
        let peer = info(0x1000_0000_0000_0000_0000_0000_0000_0000, 1, 0);
        node.insert_peer(&net, peer);
        let row = node.id().common_prefix_len(peer.id);
        // Someone asks us for that row.
        node.on_message(
            &mut net,
            &mut app,
            NodeAddr(9),
            PastryMsg::RowRequest { row: row as u8 },
        );
        let (to, msg) = net.sent.pop_front().unwrap();
        assert_eq!(to, NodeAddr(9));
        let PastryMsg::RowReply { entries, .. } = msg else {
            panic!("expected RowReply");
        };
        assert!(entries.iter().any(|e| e.addr == peer.addr));
        // A reply refills our own table.
        let mut fresh = PastryNode::new(info(100, 0, 0));
        fresh.on_message(
            &mut net,
            &mut app,
            NodeAddr(1),
            PastryMsg::RowReply {
                row: row as u8,
                entries: vec![peer],
            },
        );
        assert!(fresh.known_peers().iter().any(|p| p.addr == peer.addr));
    }

    #[test]
    fn wire_size_charges_payload() {
        let small = PastryMsg::Route {
            key: NodeId(0),
            payload: P(0),
            hops: 0,
            scope: None,
        };
        let join: PastryMsg<P> = PastryMsg::Join {
            joiner: info(0, 0, 0),
            rows: vec![vec![info(1, 1, 0); 16]],
            hops: 0,
        };
        assert!(join.wire_size() > small.wire_size());
    }
}
