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
use simnet::{NodeAddr, SiteId, ThinVec, Transport};
use std::collections::BTreeSet;

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

/// Join re-sends ([`PastryNode::join`] called again before the join
/// completed) a joiner spends chasing a leaf member that does not answer
/// its probe; at the next one it stops waiting and completes without that
/// member's confirmation.
pub const JOIN_PROBE_RESENDS: u8 = 4;

/// Hops after which a routed message or a join is dropped. A route in a
/// consistent overlay takes about ⌈log₁₆ N⌉ hops; one this long is
/// circling between nodes whose tables disagree — a part-filled leaf set
/// (a restarting node's) claims to cover the whole ring, while a
/// neighbour routes back to it by prefix — and between two members of one
/// pack it would spin the pack's loopback without end.
const MAX_HOPS: u16 = 64;

/// A joiner's leaf-set probes — MSPastry's consistent join (Castro et al.,
/// "Performance and dependability of structured peer-to-peer overlays",
/// DSN 2004) built from existing messages: every peer that enters either
/// leaf set while the join is in progress is sent `Announce` +
/// `LeafRepairRequest` once, and the join completes when every probe has
/// been answered.
#[derive(Debug, Default)]
struct JoinProbe {
    /// Every peer probed so far.
    asked: Vec<NodeAddr>,
    /// Probed peers whose `LeafRepairReply` has not arrived.
    waiting: Vec<NodeAddr>,
    /// Join re-sends since the `JoinReply`.
    resends: u8,
    /// Joins this node is the root of, with the rows gathered on their
    /// way, held until its own join completes.
    held: Vec<(NodeInfo, Vec<Vec<NodeInfo>>)>,
    /// [`JoinState::Joined`]'s notes, gathered while probing.
    notes: ThinVec<JoinNote>,
}

/// What a joined node remembers of the joins it routed, until the peer
/// named announces itself. Only a restart leaves a node others hold
/// unjoined, so only a restart writes one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JoinNote {
    /// The peer handed back a join, not having joined itself: joins route
    /// around it, and it is kept out of the routing table — not out of the
    /// leaf set, whose span a member short would misstate.
    HandedBack(NodeAddr),
    /// The peer's join reached a dead end here and was dropped; its
    /// re-send is answered.
    DeadEnd(NodeAddr),
}

impl JoinNote {
    fn addr(self) -> NodeAddr {
        match self {
            JoinNote::HandedBack(a) | JoinNote::DeadEnd(a) => a,
        }
    }
}

/// Where a node stands in the join protocol: one value, written only by
/// the join handlers ([`PastryNode::join`], the `Join`, `JoinReply` and
/// `LeafRepairReply` handlers, and the `LeafRepairRequest` and `Announce`
/// handlers for what it notes) and by [`PastryNode::seed_state`].
#[derive(Debug)]
enum JoinState {
    /// No `JoinReply` yet.
    Unjoined {
        /// The node that handed back the `Join` this node last sent, not
        /// having joined itself, if one has.
        handed_back_by: Option<NodeAddr>,
        /// The peers that probed this node before it had a view of the
        /// ring (a restarted node others still hold): each was answered
        /// with this node alone, and is sent its leaf set once the
        /// `JoinReply` arrives.
        probed_by: ThinVec<NodeAddr>,
    },
    /// The `JoinReply` arrived and leaf-set probes are outstanding.
    Probing(Box<JoinProbe>),
    /// Every probe answered, or seeded; with its notes on the joins it
    /// routed.
    Joined(ThinVec<JoinNote>),
}

impl JoinState {
    /// The notes on the joins this node routed; `None` while unjoined,
    /// when it routes no joins but hands them back.
    fn notes_mut(&mut self) -> Option<&mut ThinVec<JoinNote>> {
        match self {
            JoinState::Unjoined { .. } => None,
            JoinState::Probing(probe) => Some(&mut probe.notes),
            JoinState::Joined(notes) => Some(notes),
        }
    }

    /// Whether `addr` handed back a join this node routed and has not
    /// announced itself since.
    fn handed_back(&self, addr: NodeAddr) -> bool {
        let notes: &[JoinNote] = match self {
            JoinState::Unjoined { .. } => &[],
            JoinState::Probing(probe) => &probe.notes,
            JoinState::Joined(notes) => notes,
        };
        notes.contains(&JoinNote::HandedBack(addr))
    }
}

// A federation holds one `PastryNode` per member, so its width is paid
// per member.
const _: () = assert!(std::mem::size_of::<PastryNode>() <= 304);

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
    join: JoinState,
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
            join: JoinState::Unjoined {
                handed_back_by: None,
                probed_by: ThinVec::new(),
            },
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

    /// Whether the node has completed the join protocol — its `JoinReply`
    /// arrived and every leaf-set member it learned of since answered its
    /// probe — or was seeded via [`PastryNode::seed_state`].
    pub fn is_joined(&self) -> bool {
        matches!(self.join, JoinState::Joined(_))
    }

    /// The node that handed back the `Join` this node last sent, because
    /// it has not joined either; `None` if none has, or once a `JoinReply`
    /// arrived. A bootstrap that hands joins back is no way into an
    /// overlay, so the joiner should try another.
    pub fn join_handed_back_by(&self) -> Option<NodeAddr> {
        match self.join {
            JoinState::Unjoined { handed_back_by, .. } => handed_back_by,
            _ => None,
        }
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

    /// Installs an observability recorder (a clone of the federation-wide
    /// handle); routing hooks stay no-ops while the recorder is disabled.
    pub fn set_recorder(&mut self, obs: Recorder) {
        self.obs = obs;
    }

    /// Approximate memory used by routing state, in bytes (Fig. 8c
    /// accounting): the entries of both routing tables and both leaf sets
    /// times a fixed per-entry charge. It counts what the node knows, not
    /// what the allocator holds: empty slots of an allocated routing-table
    /// row and spare vector capacity are left out.
    pub fn state_bytes(&self) -> usize {
        // One entry's charge as one constant rather than
        // `size_of::<NodeInfo>()` (24 B since `NodeId` packs to 8-byte
        // alignment): Fig. 8c must not move when the layout does.
        const ENTRY_BYTES: usize = 32;
        (self.rt.len() + self.site_rt.len() + self.leaf.len() + self.site_leaf.len()) * ENTRY_BYTES
    }

    /// Inserts a peer into routing state (both global and, if same-site,
    /// site-local), preferring lower-latency candidates for contested
    /// routing-table slots.
    pub fn insert_peer<A, N: Net<A>>(&mut self, net: &N, info: NodeInfo) {
        if info.id == self.info.id || self.is_buried(info.addr) {
            return;
        }
        let my_site = self.info.site;
        // A peer that handed a join back stays out of the routing table,
        // where a repair may have put a live node in its place.
        if !self.join.handed_back(info.addr) {
            self.rt.insert_with(info, |cur, cand| {
                net.rtt_ms(my_site, cand.site) < net.rtt_ms(my_site, cur.site)
            });
        }
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
        self.join = JoinState::Joined(ThinVec::new());
    }

    /// One round of peer-set anti-entropy: announces this node to one
    /// known peer (round-robin) and pulls that peer's leaf set.
    ///
    /// It refreshes what a node knows; it does not make leaf sets exact.
    /// When a join completed at its `JoinReply`, concurrent joins left
    /// interleaved sub-rings each consistent with itself: two daemons of
    /// 500 members read 482 of 1,000 leaf sets missing a true neighbour
    /// (60 with the wrong successor) once all had joined, and still 311
    /// (53) 30 s later, because one peer per round rarely lands in a gap.
    /// The consistent join ([`PastryNode::join`]) closes those gaps
    /// before a joiner counts as joined. Both handlers are idempotent, so
    /// extra rounds are harmless.
    pub fn gossip_round<A, N: Net<A>>(&mut self, net: &mut N) {
        if !self.is_joined() {
            return;
        }
        let n = self.peers().count();
        if n == 0 {
            return;
        }
        let peer = *self.peers().nth(self.gossip_cursor % n).expect("n peers");
        self.gossip_cursor = self.gossip_cursor.wrapping_add(1);
        net.send(peer.addr, PastryMsg::Announce { info: self.info });
        net.send(peer.addr, PastryMsg::LeafRepairRequest);
    }

    /// All peers this node knows, deduplicated by address.
    pub fn known_peers(&self) -> Vec<NodeInfo> {
        self.peers().copied().collect()
    }

    /// Every known peer once, in first-appearance order over the global
    /// table, the global leaf set, the site table and the site leaf set.
    /// A peer's id is fixed by its address, so whether an earlier routing
    /// table holds an entry is one slot lookup ([`RoutingTable::holds`]);
    /// only the 16-entry leaf set is scanned.
    fn peers(&self) -> impl Iterator<Item = &NodeInfo> {
        let (rt, leaf, site_rt) = (&self.rt, &self.leaf, &self.site_rt);
        let seen = move |e: &NodeInfo| rt.holds(e) || leaf.members().any(|m| m.addr == e.addr);
        rt.entries()
            .chain(leaf.members().filter(move |e| !rt.holds(e)))
            .chain(site_rt.entries().filter(move |e| !seen(e)))
            .chain(
                self.site_leaf
                    .members()
                    .filter(move |e| !seen(e) && !site_rt.holds(e)),
            )
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
                    self.peers()
                        .filter(|p| p.site == site)
                        .min_by_key(|p| p.id.ring_distance(key))
                        .copied()
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
                let me = self.info.addr;
                self.obs.record_with(|| ObsEvent::RouteDeliver {
                    at: net.now(),
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
    /// the overlay), or re-sends it: call again while
    /// [`PastryNode::is_joined`] is false, as messages may be lost.
    ///
    /// The join is consistent: on the `JoinReply` the joiner probes every
    /// member of its leaf sets, probes each leaf member the replies teach
    /// it, and counts as joined once every probe is answered — so two
    /// concurrent joiners that are ring neighbours meet at a common leaf
    /// member before either completes. After the reply, a re-send chases
    /// the unanswered probes instead, and the [`JOIN_PROBE_RESENDS`]th
    /// after it gives up on them.
    ///
    /// A bootstrap that has not joined itself hands the `Join` back; the
    /// joiner drops it and records who did
    /// ([`PastryNode::join_handed_back_by`]), and the next re-send tries
    /// again.
    pub fn join<A, N: Net<A>>(&mut self, net: &mut N, bootstrap: NodeAddr) {
        let JoinState::Probing(probe) = &mut self.join else {
            if let JoinState::Unjoined { handed_back_by, .. } = &mut self.join {
                *handed_back_by = None;
            }
            net.send(
                bootstrap,
                PastryMsg::Join {
                    joiner: self.info,
                    rows: Vec::new(),
                    hops: 0,
                },
            );
            return;
        };
        probe.resends += 1;
        if probe.resends > JOIN_PROBE_RESENDS {
            probe.waiting.clear();
        }
        for &addr in &probe.waiting {
            net.send(addr, PastryMsg::Announce { info: self.info });
            net.send(addr, PastryMsg::LeafRepairRequest);
        }
        self.probe_leaves(net);
    }

    /// Handles `joiner`'s join request, which arrived from `from`: forwards
    /// it to the known node nearest the joiner's id, contributing this
    /// node's routing rows, or — at the root — answers with this node's
    /// leaf set.
    ///
    /// A node that has not had its own `JoinReply` hands the join back (a
    /// restarted node others still hold, or a joiner still waiting): it
    /// knows nothing to answer with. The sender routes joins around it
    /// until it announces itself, and asks for a live node to take its
    /// routing-table slot ([`JoinNote::HandedBack`]); it keeps it in the
    /// leaf set, whose span stays that of the ring. A node that then knows
    /// no nearer live node while the joiner's id lies outside that span is
    /// at a dead end, not the root: a restart of a whole daemon leaves runs
    /// of restarted members, and the way past one may be a slot still
    /// under repair. It drops the join once ([`JoinNote::DeadEnd`]) and
    /// answers the re-send. A joiner never answers its own join: one
    /// handed back to it came straight from the bootstrap it was sent to,
    /// and is dropped for the next re-send to retry. A node still probing
    /// holds a join it is the root of until its own join completes, so
    /// every `JoinReply` carries a confirmed leaf set. The joiner is not
    /// learned here: it announces itself once it has state.
    fn on_join<A, N: Net<A>>(
        &mut self,
        net: &mut N,
        from: NodeAddr,
        joiner: NodeInfo,
        mut rows: Vec<Vec<NodeInfo>>,
        hops: u16,
    ) {
        if joiner.addr == self.info.addr {
            // Every hop routes a join as if the joiner were absent, so
            // only a hand-back brings it here.
            if let JoinState::Unjoined { handed_back_by, .. } = &mut self.join {
                *handed_back_by = Some(from);
            }
            return;
        }
        if let JoinState::Unjoined { .. } = self.join {
            // Handed back with a hop count of zero, which only the
            // joiner's own first send otherwise carries.
            net.send(
                from,
                PastryMsg::Join {
                    joiner,
                    rows,
                    hops: 0,
                },
            );
            return;
        }
        if hops == 0 && from != joiner.addr && !self.join.handed_back(from) {
            self.handed_back(net, from);
        }
        // Contribute routing rows up to the shared-prefix length.
        let l = self.info.id.common_prefix_len(joiner.id).min(ID_DIGITS - 1);
        while rows.len() <= l {
            let r = rows.len();
            let row: Vec<NodeInfo> = self.rt.row(r).iter().filter_map(|e| *e).collect();
            rows.push(row);
        }
        // The joiner is passed by too: a restart leaves it in our tables
        // under its old id, and the join must reach its live neighbours.
        let me = self.info;
        let join = &self.join;
        let next = self
            .rt
            .entries()
            .chain(self.leaf.members())
            .filter(|e| e.addr != joiner.addr && !join.handed_back(e.addr))
            .filter(|e| e.id.closer_to(joiner.id, me.id))
            .min_by_key(|e| e.id.ring_distance(joiner.id))
            .copied();
        if next.is_none() && !self.leaf.covers(joiner.id) {
            // A dead end: this node is the nearest live node it knows of
            // maybe only because the way on handed joins back.
            let notes = self.join.notes_mut().expect("joined or probing");
            let note = JoinNote::DeadEnd(joiner.addr);
            if !notes.contains(&note) {
                notes.push(note);
                self.obs.count("join_dead_end");
                return;
            }
        }
        if let Some(next) = next {
            if hops >= MAX_HOPS {
                self.obs.count("join_hop_limit");
                return;
            }
            let hops = hops + 1;
            net.send(next.addr, PastryMsg::Join { joiner, rows, hops });
            return;
        }
        if let JoinState::Probing(probe) = &mut self.join {
            if !probe.held.iter().any(|(j, _)| j.addr == joiner.addr) {
                probe.held.push((joiner, rows));
            }
            return;
        }
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

    /// Probes every leaf-set member (global and site) not probed yet, and
    /// completes the join once no probe is outstanding. A no-op unless a
    /// join is in progress.
    fn probe_leaves<A, N: Net<A>>(&mut self, net: &mut N) {
        let JoinState::Probing(probe) = &mut self.join else {
            return;
        };
        for peer in self.leaf.members().chain(self.site_leaf.members()) {
            if !probe.asked.contains(&peer.addr) {
                probe.asked.push(peer.addr);
                probe.waiting.push(peer.addr);
                net.send(peer.addr, PastryMsg::Announce { info: self.info });
                net.send(peer.addr, PastryMsg::LeafRepairRequest);
            }
        }
        if probe.waiting.is_empty() {
            let held = std::mem::take(&mut probe.held);
            self.join = JoinState::Joined(std::mem::take(&mut probe.notes));
            for (joiner, rows) in held {
                self.on_join(net, joiner.addr, joiner, rows, 0);
            }
        }
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
                    let me = self.info.addr;
                    self.obs.record_with(|| ObsEvent::RouteDeliver {
                        at: net.now(),
                        node: me,
                        key: key.as_u128(),
                        hops,
                    });
                    app.deliver(self, net, key, payload, hops);
                }
                Some(_) if hops >= MAX_HOPS => self.obs.count("route_hop_limit"),
                Some(next) => {
                    let me = self.info.addr;
                    self.obs.record_with(|| ObsEvent::RouteForward {
                        at: net.now(),
                        node: me,
                        key: key.as_u128(),
                        hops,
                    });
                    let hops = hops.saturating_add(1);
                    if let Some(payload) = app.forward(self, net, key, payload, &next) {
                        self.send_routed(net, next.addr, key, payload, hops, scope);
                    }
                }
            },
            PastryMsg::Join { joiner, rows, hops } => self.on_join(net, from, joiner, rows, hops),
            PastryMsg::JoinReply { rows, leaves, root } => {
                for e in rows.into_iter().flatten().chain(leaves).chain([root]) {
                    self.insert_peer(net, e);
                }
                if self.is_joined() {
                    return; // a late reply to a re-sent join
                }
                if let JoinState::Unjoined { probed_by, .. } = &self.join {
                    let mut leaves: Vec<NodeInfo> = self.leaf.members().copied().collect();
                    leaves.push(self.info);
                    for &peer in probed_by.iter() {
                        let leaves = leaves.clone();
                        net.send(peer, PastryMsg::LeafRepairReply { leaves });
                    }
                    // Announce ourselves to everyone we now know; leaf-set
                    // members hear it with their probe.
                    let me = self.info;
                    let (leaf, site_leaf) = (&self.leaf, &self.site_leaf);
                    let in_leaf = |p: &NodeInfo| {
                        leaf.members()
                            .chain(site_leaf.members())
                            .any(|m| m.addr == p.addr)
                    };
                    for peer in self.peers().filter(|p| !in_leaf(p)) {
                        net.send(peer.addr, PastryMsg::Announce { info: me });
                    }
                    self.join = JoinState::Probing(Box::default());
                }
                self.probe_leaves(net);
            }
            PastryMsg::Announce { info } => {
                if let Some(notes) = self.join.notes_mut() {
                    notes.retain(|note| note.addr() != info.addr);
                }
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
                let mut leaves: Vec<NodeInfo> = match &mut self.join {
                    // It holds only peers that announced themselves to it,
                    // no view of the ring: a prober would take them for one.
                    JoinState::Unjoined { probed_by, .. } => {
                        if !probed_by.contains(&from) {
                            probed_by.push(from);
                        }
                        Vec::new()
                    }
                    _ => self.leaf.members().copied().collect(),
                };
                leaves.push(self.info);
                net.send(from, PastryMsg::LeafRepairReply { leaves });
            }
            PastryMsg::LeafRepairReply { leaves } => {
                for e in leaves {
                    self.insert_peer(net, e);
                }
                if let JoinState::Probing(probe) = &mut self.join {
                    probe.waiting.retain(|&a| a != from);
                    self.probe_leaves(net);
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

    /// Notes that `addr` handed back a join this node routed, not having
    /// joined itself: takes it out of the routing table and asks a
    /// surviving same-row entry for each vacated row, where a live node may
    /// take its place.
    fn handed_back<A, N: Net<A>>(&mut self, net: &mut N, addr: NodeAddr) {
        let notes = self.join.notes_mut().expect("joined or probing");
        notes.push(JoinNote::HandedBack(addr));
        let vacated = self.rt.remove(addr);
        self.request_rows(net, vacated);
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
        self.request_rows(net, vacated);
    }

    /// For each row that lost an entry at `vacated`, asks a surviving entry
    /// of the same row (which shares the relevant prefix) for its row;
    /// falls back to any leaf when the row emptied out.
    fn request_rows<A, N: Net<A>>(&self, net: &mut N, vacated: Vec<(usize, usize)>) {
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
    fn forward_is_recorded_once() {
        let mut node = PastryNode::new(info(100, 0, 0));
        let obs = Recorder::enabled(8);
        node.set_recorder(obs.clone());
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
        let forward = ObsEvent::RouteForward {
            at: SimTime::ZERO,
            node: NodeAddr(0),
            key: 49_999,
            hops: 3,
        };
        assert_eq!(obs.events(), vec![forward]);
        assert_eq!(obs.snapshot().count("route_forward"), 1);
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

    /// A row index is one byte from whoever sent the frame, and a table has
    /// 32 rows: a request for any other row is answered, with nothing.
    #[test]
    fn row_request_past_the_last_row_gets_an_empty_reply() {
        let mut node = PastryNode::new(info(100, 0, 0));
        let (mut net, mut app) = (RecNet::default(), RecApp::default());
        node.insert_peer(&net, info(0x1000_0000_0000_0000_0000_0000_0000_0000, 1, 0));
        node.on_message(
            &mut net,
            &mut app,
            NodeAddr(9),
            PastryMsg::RowRequest { row: 200 },
        );
        let (to, msg) = net.sent.pop_front().expect("a reply");
        assert_eq!(to, NodeAddr(9));
        let PastryMsg::RowReply { row: 200, entries } = msg else {
            panic!("expected RowReply for row 200, got {msg:?}");
        };
        assert!(entries.is_empty());
    }

    /// The gossip pick walks the peers without collecting them, and picks
    /// what indexing the old address-deduplicated list picked.
    #[test]
    fn gossip_picks_round_robin_over_the_deduplicated_peers() {
        let me = NodeInfo {
            id: NodeId::hash_of(b"peer:0"),
            addr: NodeAddr(0),
            site: SiteId(0),
        };
        let mut node = PastryNode::new(me);
        let mut net = RecNet::default();
        for a in 1..400u32 {
            let id = NodeId::hash_of(format!("peer:{a}").as_bytes());
            node.insert_peer(&net, info(id.as_u128(), a, (a % 3 == 0) as u16));
        }
        node.handle_failure(&mut net, NodeAddr(7));
        node.join = JoinState::Joined(ThinVec::new());
        let mut listed: Vec<NodeInfo> = Vec::new();
        for e in node
            .rt
            .entries()
            .chain(node.leaf.members())
            .chain(node.site_rt.entries())
            .chain(node.site_leaf.members())
        {
            if !listed.iter().any(|o| o.addr == e.addr) {
                listed.push(*e);
            }
        }
        assert!(listed.len() > 40, "{} peers", listed.len());
        assert_eq!(node.known_peers(), listed);
        for round in 0..listed.len() + 3 {
            net.sent.clear();
            node.gossip_round(&mut net);
            assert_eq!(net.sent[0].0, listed[round % listed.len()].addr);
        }
    }

    /// Node `x` of id `X`, joined, with a full leaf set: eight peers on
    /// each side, `1_000` apart — addresses 11–18 counter-clockwise, 21–28
    /// clockwise.
    fn joined_with_leaves() -> (PastryNode, u128) {
        const X: u128 = 1 << 100;
        let mut x = PastryNode::new(info(X, 0, 0));
        let net = RecNet::default();
        for d in 1..=8u32 {
            let off = u128::from(d) * 1_000;
            x.insert_peer(&net, info(X - off, 10 + d, 0));
            x.insert_peer(&net, info(X + off, 20 + d, 0));
        }
        x.join = JoinState::Joined(ThinVec::new());
        (x, X)
    }

    /// Messages a node sent, with their destinations.
    type Sent = Vec<(NodeAddr, PastryMsg<P>)>;

    /// Where `x` sends `joiner`'s join that arrived from `from`, with its
    /// hop count, and what else it sent.
    fn route_join(
        x: &mut PastryNode,
        from: u32,
        joiner: NodeInfo,
        hops: u16,
    ) -> (Option<(NodeAddr, u16)>, Sent) {
        let (mut net, mut app) = (RecNet::default(), RecApp::default());
        let rows = Vec::new();
        let msg = PastryMsg::Join { joiner, rows, hops };
        x.on_message(&mut net, &mut app, NodeAddr(from), msg);
        let mut next = None;
        let mut rest = Vec::new();
        for (to, msg) in net.sent {
            match msg {
                PastryMsg::Join { hops, .. } => next = Some((to, hops)),
                other => rest.push((to, other)),
            }
        }
        (next, rest)
    }

    /// A peer that hands back a join is routed around, and kept in the
    /// leaf set but out of the routing table, where a row is asked for in
    /// its place, until it announces itself.
    #[test]
    fn a_peer_that_hands_a_join_back_is_routed_around_until_it_announces() {
        let (mut x, id) = joined_with_leaves();
        let joiner = info(id + 3_400, 99, 0);
        let (next, _) = route_join(&mut x, 50, joiner, 1);
        assert_eq!(next, Some((NodeAddr(23), 2)), "the nearest peer");
        let (next, rest) = route_join(&mut x, 23, joiner, 0);
        assert_eq!(next, Some((NodeAddr(24), 1)), "the next nearest");
        assert!(rest
            .iter()
            .any(|(_, m)| matches!(m, PastryMsg::RowRequest { .. })));
        assert!(x.leaf_set().members().any(|m| m.addr == NodeAddr(23)));
        assert!(x.routing_table().entries().all(|e| e.addr != NodeAddr(23)));
        let (mut net, mut app) = (RecNet::default(), RecApp::default());
        let info23 = info(id + 3_000, 23, 0);
        x.on_message(
            &mut net,
            &mut app,
            NodeAddr(23),
            PastryMsg::Announce { info: info23 },
        );
        assert!(x.routing_table().entries().any(|e| e.addr == NodeAddr(23)));
        let (next, _) = route_join(&mut x, 50, joiner, 1);
        assert_eq!(next, Some((NodeAddr(23), 2)), "announced: routed to again");
    }

    /// A node whose way toward a joiner outside its leaf set is all
    /// handed back is at a dead end: it drops the join once, and answers
    /// the re-send.
    #[test]
    fn a_join_at_a_dead_end_is_dropped_once_and_answered_again() {
        let (mut x, id) = joined_with_leaves();
        let joiner = info(id - 100_000, 99, 0);
        let mut from = (50, 1);
        let dropped = loop {
            let (next, rest) = route_join(&mut x, from.0, joiner, from.1);
            match next {
                // Every counter-clockwise peer is restarted, unjoined.
                Some((to, _)) if (11..=18).contains(&to.0) => from = (to.0, 0),
                Some(other) => panic!("routed past the run to {other:?}"),
                None => break rest,
            }
        };
        assert!(dropped
            .iter()
            .all(|(_, m)| matches!(m, PastryMsg::RowRequest { .. })));
        let (next, rest) = route_join(&mut x, 50, joiner, 1);
        assert_eq!(next, None);
        assert!(matches!(
            rest.as_slice(),
            [(to, PastryMsg::JoinReply { .. })] if *to == NodeAddr(99)
        ));
    }

    /// An unjoined node holds only the peers that announced themselves to
    /// it: it answers a probe with itself alone, and sends the prober its
    /// leaf set once its `JoinReply` arrives.
    #[test]
    fn an_unjoined_node_answers_a_probe_once_it_has_a_view() {
        let mut u = PastryNode::new(info(5_000, 1, 0));
        let (mut net, mut app) = (RecNet::default(), RecApp::default());
        let prober = info(6_000, 2, 0);
        u.on_message(
            &mut net,
            &mut app,
            NodeAddr(2),
            PastryMsg::Announce { info: prober },
        );
        u.on_message(
            &mut net,
            &mut app,
            NodeAddr(2),
            PastryMsg::LeafRepairRequest,
        );
        let Some((NodeAddr(2), PastryMsg::LeafRepairReply { leaves })) = net.sent.pop_front()
        else {
            panic!("no answer to the probe");
        };
        assert_eq!(leaves, [u.info()]);
        let root = info(7_000, 3, 0);
        let reply = PastryMsg::JoinReply {
            rows: Vec::new(),
            leaves: vec![root],
            root,
        };
        u.on_message(&mut net, &mut app, NodeAddr(3), reply);
        let view = net.sent.iter().find_map(|(to, m)| match m {
            PastryMsg::LeafRepairReply { leaves } if *to == NodeAddr(2) => Some(leaves),
            _ => None,
        });
        let view = view.expect("the prober is sent the view");
        assert!(view.contains(&root) && view.contains(&u.info()));
    }

    /// Two nodes whose tables disagree about a key route it to each other:
    /// `a` knows only `b`, so its part-filled leaf set claims the key and
    /// hands it to `b`, numerically closer; `b`'s full leaf set does not
    /// reach the key, so it routes by prefix to `a`, which shares a longer
    /// one. A routed message stops after `MAX_HOPS` instead of circling
    /// for ever. A join goes to the nearest node each hop knows, so it
    /// does not circle: `b` sends it on to its leaf nearest the key.
    #[test]
    fn a_message_circling_between_disagreeing_tables_is_dropped() {
        let key: u128 = 0x5 << 124;
        let mut a = PastryNode::new(info(0x5f << 120, 0, 0));
        let b_id = key - 1_000;
        let mut b = PastryNode::new(info(b_id, 1, 0));
        let net = RecNet::default();
        a.insert_peer(&net, b.info);
        b.insert_peer(&net, a.info);
        for i in 1..=8u32 {
            let d = u128::from(i);
            b.insert_peer(&net, info(b_id - d, 10 + i, 0));
            b.insert_peer(&net, info(b_id + d, 20 + i, 0));
        }
        a.join = JoinState::Joined(ThinVec::new());
        b.join = JoinState::Joined(ThinVec::new());
        let route = PastryMsg::Route {
            key: NodeId(key),
            payload: P(7),
            hops: 0,
            scope: None,
        };
        let (mut net, mut app) = (RecNet::default(), RecApp::default());
        net.sent.push_back((NodeAddr(0), route));
        let mut delivered = 0;
        while let Some((to, msg)) = net.sent.pop_front() {
            delivered += 1;
            assert!(delivered <= 2 * usize::from(MAX_HOPS), "still circling");
            let (node, from) = match to.0 {
                0 => (&mut a, NodeAddr(1)),
                1 => (&mut b, NodeAddr(0)),
                other => panic!("left the loop for {other}"),
            };
            node.on_message(&mut net, &mut app, from, msg);
        }
        assert!(delivered > usize::from(MAX_HOPS) / 2, "it did circle");
        assert!(app.delivered.is_empty());
        let joiner = info(key, 99, 0);
        let join = PastryMsg::Join {
            joiner,
            rows: Vec::new(),
            hops: 1,
        };
        let mut net = RecNet::default();
        a.on_message(&mut net, &mut app, NodeAddr(7), join);
        let (to, join) = net.sent.pop_front().unwrap();
        assert_eq!(to, NodeAddr(1));
        b.on_message(&mut net, &mut app, NodeAddr(0), join);
        let (to, join) = net.sent.pop_front().unwrap();
        assert_eq!(to, NodeAddr(28), "b's leaf nearest the key");
        assert!(matches!(join, PastryMsg::Join { hops: 3, .. }));
    }
}
