//! Peer liveness: the one failure detector (DESIGN.md §17, state table).
//!
//! To a node every peer is **Alive**, **Pinged** (a heartbeat is
//! outstanding) or **Buried** (declared dead). Which peers are buried is
//! kept once, in [`pastry::PastryNode::buried`] — the routing layer must
//! consult it inside every gossip-driven `insert_peer` — and written from
//! exactly two places, both here: [`RbayNode::declare_dead`] and
//! [`RbayNode::proof_of_life`]. [`RbayHost`] keeps only the ledger of
//! [`Contact`]s.
//!
//! Pings go out on a budget, at three cadences. **Every round**: the peers
//! this node's correctness leans on — both leaf sets and every tree parent
//! and child. **On use**: the next hop of a routed message, at the moment
//! the message leaves, unless the hop was heard from since the last round
//! or already owes an answer. **Slowly** ([`SLOW_PROBE_PERIOD`]): the rest
//! of the routing tables, and the buried — except that a round which
//! finds an every-round ping still unanswered verifies the whole routing
//! table at once, because crashes come together.
//!
//! A routed message that leaves through a hop which owes an answer may be
//! lost with it, and only this node knows where it went. So beside the
//! ping the ledger keeps a copy of each query-path message routed through
//! the hop ([`RbayHost::routed_through`], the one writer): any message
//! from the hop drops the copies, and [`RbayNode::declare_dead`] routes
//! them again through the repaired tables (the one reader).

use crate::actor::{RbayMsg, RbayNode};
use crate::host::{Op, RbayHost};
use crate::types::RbayPayload;
use pastry::NodeInfo;
use scribe::ScribeMsg;
use simnet::obs::ObsEvent;
use simnet::Transport;
use simnet::{NodeAddr, SimTime};
use std::collections::BTreeSet;

/// A peer on the slow cadence is pinged on one heartbeat round in this
/// many; which one depends on its address and the pinger's, so neither end
/// sees a burst. One period serves two kinds of peer. *Routing-table
/// entries outside the leaf sets*: a dead one blackholes whatever is
/// routed through it, but a route pings its hop on use, so the stripe only
/// has to clear out corpses nothing routes through before they pile up
/// over epochs of churn (a tree rejoin burns two rounds on every dead hop
/// it meets). *Buried peers*: repair evicts a declared peer from every
/// table, so its detectors stop pinging it — but routing-table knowledge
/// is asymmetric, and a recovered peer that never knew its detector would
/// otherwise stay buried forever (gossip cannot re-insert it). A corpse
/// never answers, so that cost is bounded by the size of the buried set.
pub const SLOW_PROBE_PERIOD: u64 = 8;

/// A routed message as it left this node: what a [`Contact::Pinged`]
/// entry keeps a copy of.
pub(crate) type Routed = ScribeMsg<RbayPayload>;

/// What the ledger holds about a peer. A peer without an entry is Alive
/// and has been silent since the last heartbeat round.
#[derive(Debug, Clone)]
pub(crate) enum Contact {
    /// A message from the peer arrived since the last heartbeat round: it
    /// need not be pinged on use, and nothing routed through it is kept.
    Heard,
    /// A ping sent at this time is unanswered; beside it, a copy of each
    /// query-path message routed through the peer since.
    Pinged(SimTime, Vec<Routed>),
}

impl Contact {
    /// The copies kept beside the entry (none beside `Heard`).
    fn into_copies(self) -> Vec<Routed> {
        match self {
            Contact::Pinged(_, copies) => copies,
            Contact::Heard => Vec::new(),
        }
    }
}

impl RbayHost {
    /// Forgets every ping that has been outstanding for longer than
    /// `heartbeat_timeout` and returns the peers that owed the answer,
    /// each with the copies kept beside its ping.
    pub(crate) fn expire_pings(&mut self) -> Vec<(NodeAddr, Vec<Routed>)> {
        let (now, deadline) = (self.now, self.cfg.heartbeat_timeout);
        let overdue = |c: &Contact| match c {
            Contact::Pinged(sent, _) => now.saturating_since(*sent) > deadline,
            Contact::Heard => false,
        };
        self.contacts
            .extract_if(.., |_, c| overdue(c))
            .map(|(peer, c)| (peer, c.into_copies()))
            .collect()
    }

    /// Queues this round's heartbeats: one to every peer of `hot`, and one
    /// to every peer of `cold` and of `buried` whose slow-cadence turn this
    /// round is — each unless it already owes an answer (what was heard
    /// before this round stopped counting at [`RbayHost::begin_round`]).
    ///
    /// A `hot` peer that let a whole round pass without answering (a round
    /// is hundreds of round trips) is most likely dead, and the repair that
    /// follows its declaration routes `Join`s through `cold` entries that
    /// may have died with it: that round every `cold` peer takes its turn,
    /// so the corpses among them are gone one round after the repair
    /// starts rather than up to a period later. It costs nothing while
    /// nothing fails, and under a timeout shorter than two rounds one
    /// sweep per burst of crashes: the silent peer is declared at the next
    /// round. (Under a longer one the sweep repeats until it is — what
    /// every round cost before there was a budget.)
    pub(crate) fn heartbeat_round(
        &mut self,
        hot: &[NodeAddr],
        cold: &[NodeAddr],
        buried: &BTreeSet<NodeAddr>,
    ) {
        self.hb_round = self.hb_round.wrapping_add(1);
        // A ping this round's own repair or tick sent on use, in this
        // instant, is not an earlier round's ping left unanswered.
        let now = self.now;
        let alarm = (hot.iter())
            .any(|p| matches!(self.contacts.get(p), Some(Contact::Pinged(at, _)) if *at < now));
        for &to in hot {
            if !buried.contains(&to) {
                self.heartbeat(to, None);
            }
        }
        for &to in cold {
            if (alarm || self.slow_turn(to)) && !buried.contains(&to) {
                self.heartbeat(to, Some("hb_cold"));
            }
        }
        for &to in buried {
            if self.slow_turn(to) && !self.contacts.contains_key(&to) {
                self.obs.count(self.addr, "suspect_probe");
                self.ping(to);
            }
        }
    }

    /// A maintenance round begins: what was heard before it stops counting
    /// as fresh — before the round routes anything, so that a hop the
    /// tick's or the repair's `Join` leaves through is pinged on use.
    pub(crate) fn begin_round(&mut self) {
        self.contacts.retain(|_, c| !matches!(c, Contact::Heard));
    }

    /// Heartbeat rounds this node has run. Rounds reach every live node
    /// of a federation together, so the difference to a crashed peer's
    /// count is how many rounds the peer has been gone.
    pub fn heartbeat_rounds(&self) -> u64 {
        self.hb_round
    }

    /// Whether a ping to `peer` is outstanding.
    pub fn owes_answer(&self, peer: NodeAddr) -> bool {
        matches!(self.contacts.get(&peer), Some(Contact::Pinged(..)))
    }

    /// The query-path copies this node keeps, as `(peer they left
    /// through, how many)`. Each such peer owes an answer and is not
    /// buried (rbay-check's `copy-owes-answer`), so the copies live no
    /// longer than the ping beside them.
    pub fn kept_copies(&self) -> impl Iterator<Item = (NodeAddr, usize)> + '_ {
        self.contacts.iter().filter_map(|(peer, c)| match c {
            Contact::Pinged(_, copies) if !copies.is_empty() => Some((*peer, copies.len())),
            _ => None,
        })
    }

    /// Whether this round is `peer`'s turn on the slow cadence.
    fn slow_turn(&self, peer: NodeAddr) -> bool {
        let stripe = u64::from(peer.0) + u64::from(self.addr.0) + self.hb_round;
        stripe.is_multiple_of(SLOW_PROBE_PERIOD)
    }

    /// A routed message is leaving through `hop` — the on-use cadence and
    /// the one writer of copies. Unless the hop was heard from since the
    /// last round, it is pinged now (if it does not owe an answer
    /// already), so a dead routing-table entry is found out one timeout
    /// after its first use, not after its next turn on the slow cadence;
    /// and a `ProbeRoot`, `Anycast` or `MulticastReq` — whose sender has
    /// no retry of its own — is kept beside the ping, to be routed again
    /// if the hop is declared dead. A `Join` is not: the Scribe tick
    /// re-sends it (DESIGN.md §17, one retry per round). Nothing is
    /// written with `failure_detection` off.
    pub(crate) fn routed_through(&mut self, hop: NodeAddr, msg: &Routed) {
        if !self.cfg.failure_detection {
            return;
        }
        if !self.contacts.contains_key(&hop) {
            self.heartbeat(hop, Some("hb_on_use"));
        }
        let query_path = matches!(
            msg,
            ScribeMsg::ProbeRoot { .. }
                | ScribeMsg::Anycast { .. }
                | ScribeMsg::MulticastReq { .. }
        );
        if let Some(Contact::Pinged(_, copies)) = self.contacts.get_mut(&hop) {
            if query_path {
                copies.push(msg.clone());
            }
        }
    }

    /// Alive → Pinged, for a peer that is not buried: every such ping
    /// counts `hb_send`, and `cadence` beside it when it is not the
    /// every-round one. A peer that already owes an answer is left alone.
    fn heartbeat(&mut self, to: NodeAddr, cadence: Option<&'static str>) {
        let from = self.addr;
        if to == from || self.owes_answer(to) {
            return;
        }
        self.obs.count(from, "hb_send");
        if let Some(cadence) = cadence {
            self.obs.count(from, cadence);
        }
        self.obs
            .record_with(|at| ObsEvent::HeartbeatSend { at, from, to });
        self.ping(to);
    }

    /// Enters a ping to `peer` in the ledger and queues it. The nonce is
    /// the round that sent it; the ledger is keyed by peer, so any message
    /// from the peer settles it.
    fn ping(&mut self, peer: NodeAddr) {
        self.contacts
            .insert(peer, Contact::Pinged(self.now, Vec::new()));
        let payload = RbayPayload::Ping {
            nonce: self.hb_round,
            info: self.self_info(),
        };
        self.ops.push_back(Op::Direct { to: peer, payload });
    }

    /// A heartbeat names its sender so that a receiver which evicted it (a
    /// false-positive repair) can re-learn it. The name comes from outside:
    /// unless it carries the address the frame arrived from, nothing is
    /// learned and the caller must drop the message. The one place
    /// [`Op::LearnPeer`] is queued.
    fn learn_sender(&mut self, from: NodeAddr, info: NodeInfo) -> bool {
        if info.addr != from {
            return false;
        }
        self.ops.push_back(Op::LearnPeer { info });
        true
    }

    /// `Ping` received: re-learn the pinger and answer.
    pub(crate) fn on_ping(&mut self, from: NodeAddr, nonce: u64, info: NodeInfo) {
        if self.learn_sender(from, info) {
            let payload = RbayPayload::Pong {
                nonce,
                info: self.self_info(),
            };
            self.ops.push_back(Op::Direct { to: from, payload });
        }
    }

    /// `Pong` received: re-learn the responder. Its ping was settled when
    /// the frame arrived, like any other message's
    /// ([`RbayNode::proof_of_life`]).
    pub(crate) fn on_pong(&mut self, from: NodeAddr, info: NodeInfo) {
        self.learn_sender(from, info);
    }
}

impl RbayNode {
    /// The peers pinged every round, sorted: those whose failure this
    /// node must react to at once — leaf-set neighbours (every route ends
    /// on them, and they are whom repair consults) and tree parents and
    /// children.
    pub fn hot_peers(&self) -> Vec<NodeAddr> {
        let leaves = self.pastry.leaf_set().members();
        let mut hot: Vec<NodeAddr> = leaves
            .chain(self.pastry.site_leaf_set().members())
            .map(|e| e.addr)
            .collect();
        for (_, st) in self.scribe.topics() {
            hot.extend(st.children.iter().copied());
            hot.extend(st.parent);
        }
        hot.sort();
        hot.dedup();
        hot
    }

    /// The failure-detection part of a maintenance round: peers whose
    /// ping is overdue are declared dead, then the round's pings go out.
    pub(crate) fn detect_failures_via<T: Transport<RbayMsg>>(&mut self, tr: &mut T) {
        let hot = self.hot_peers();
        // Cold, pinged on use and on the slow cadence: the rest of the
        // routing tables. A dead entry there blackholes every Join and
        // anycast routed through it, and unlike a leaf-set neighbour it
        // is never consulted for repair, so nothing else would ever
        // notice the corpse.
        let known = self.pastry.known_peers();
        let cold: Vec<NodeAddr> = known
            .iter()
            .map(|e| e.addr)
            .filter(|a| hot.binary_search(a).is_err())
            .collect();
        let mut overdue = self.host.expire_pings();
        // A buried peer's unanswered probe is not news.
        overdue.retain(|(peer, _)| !self.pastry.is_buried(*peer));
        self.declare_dead(tr, overdue);
        self.host.heartbeat_round(&hot, &cold, self.pastry.buried());
    }

    /// Alive or Pinged → Buried, for each overdue peer in turn: Pastry
    /// buries it and repairs its routing state around it, then Scribe
    /// repairs the trees. Then the copies of what was routed through the
    /// corpses since their pings go out again through the repaired tables
    /// — once each, and delivered here where this node is now the key's
    /// root. Every corpse of the round is buried before any copy leaves,
    /// so none is routed into a peer declared a moment later. The querier
    /// cannot know which hop ate its probe; without this it waits out its
    /// timeout.
    fn declare_dead<T: Transport<RbayMsg>>(
        &mut self,
        tr: &mut T,
        overdue: Vec<(NodeAddr, Vec<Routed>)>,
    ) {
        let detector = self.host.addr;
        let mut copies = Vec::new();
        for (peer, kept) in overdue {
            self.host.obs.count(detector, "hb_expire");
            self.host
                .obs
                .record_with(|at| ObsEvent::HeartbeatExpire { at, detector, peer });
            self.pastry.handle_failure(tr, peer);
            self.scribe
                .handle_failure(&mut self.pastry, tr, &mut self.host, peer);
            copies.extend(kept);
        }
        for msg in copies {
            self.host.obs.count(detector, "reroute");
            self.scribe
                .reroute(&mut self.pastry, tr, &mut self.host, msg);
        }
    }

    /// A message from `peer` arrived, so it is not dead. Pinged → Alive:
    /// whatever the message is, it settles the peer's outstanding ping —
    /// a node that hears a neighbour's aggregates every round does not
    /// declare it dead over lost `Pong`s — and drops the copies kept
    /// beside it. Buried → Alive: gossip and heartbeats may re-insert it.
    /// Either way it counts as heard from until the next heartbeat round.
    pub(crate) fn proof_of_life(&mut self, peer: NodeAddr) {
        if self.host.cfg.failure_detection {
            self.host.contacts.insert(peer, Contact::Heard);
        }
        if self.pastry.revive(peer) {
            let node = self.host.addr;
            self.host.obs.count(node, "unsuspect");
            self.host
                .obs
                .record_with(|at| ObsEvent::Unsuspect { at, node, peer });
        }
    }
}

#[cfg(test)]
mod heartbeat_tests {
    use super::*;
    use crate::actor::tests::{node_with, RecTransport};
    use crate::host::RbayConfig;
    use pastry::{NodeId, PastryMsg};
    use scribe::{AggValue, ScribeHost, ScribeMsg, TopicId};
    use simnet::obs::Recorder;
    use simnet::{SimDuration, SimTime, SiteId};

    const PEER: NodeAddr = NodeAddr(5);

    fn info(a: u32) -> NodeInfo {
        NodeInfo {
            id: NodeId(1_000 + u128::from(a)),
            addr: NodeAddr(a),
            site: SiteId(0),
        }
    }

    /// Node 0 with failure detection on, a 400 ms heartbeat timeout and a
    /// recorder, knowing `peers`.
    fn detector(peers: &[u32]) -> (RbayNode, RecTransport) {
        let mut n = node_with(
            0,
            RbayConfig {
                failure_detection: true,
                heartbeat_timeout: SimDuration::from_millis(400),
                ..RbayConfig::default()
            },
        );
        n.host.obs = Recorder::enabled(64);
        let tr = RecTransport::default();
        for &p in peers {
            n.pastry.insert_peer(&tr, info(p));
        }
        (n, tr)
    }

    /// One maintenance round at `ms`; returns whom it pinged.
    fn round(n: &mut RbayNode, tr: &mut RecTransport, ms: u64) -> Vec<NodeAddr> {
        round_sent(n, tr, ms).pings
    }

    /// The pings a bare `heartbeat_round` queued.
    fn queued_pings(h: &mut RbayHost) -> Vec<NodeAddr> {
        let ping = |op: Op| match op {
            Op::Direct {
                to,
                payload: RbayPayload::Ping { .. },
            } => Some(to),
            _ => None,
        };
        h.ops.drain(..).filter_map(ping).collect()
    }

    fn knows(n: &RbayNode, peer: NodeAddr) -> bool {
        n.pastry.known_peers().iter().any(|p| p.addr == peer)
    }

    fn count(n: &RbayNode, kind: &str) -> u64 {
        n.host.obs.global_count(kind)
    }

    /// A detector whose only peer was pinged at 0 ms and declared dead by
    /// the round at 1,000 ms (rounds 1 and 2 of its counter).
    fn detector_with_buried_peer() -> (RbayNode, RecTransport) {
        let (mut n, mut tr) = detector(&[PEER.0]);
        assert_eq!(round(&mut n, &mut tr, 0), [PEER]);
        assert_eq!(round(&mut n, &mut tr, 1_000), []);
        assert!(n.pastry.is_buried(PEER));
        (n, tr)
    }

    /// A detector whose leaf set is full of sixteen nearer peers
    /// (addresses 100–115), so that `PEER` sits in its routing table only.
    fn detector_with_cold_peer() -> (RbayNode, RecTransport) {
        let (mut n, tr) = detector(&[PEER.0]);
        let me = n.pastry.id().as_u128();
        for i in 0..16u32 {
            let off = u128::from(1 + i / 2);
            let near = NodeInfo {
                id: NodeId(if i % 2 == 0 {
                    me.wrapping_add(off)
                } else {
                    me.wrapping_sub(off)
                }),
                addr: NodeAddr(100 + i),
                site: SiteId(0),
            };
            n.pastry.insert_peer(&tr, near);
        }
        assert!(n.pastry.leaf_set().members().all(|e| e.addr != PEER));
        assert!(knows(&n, PEER));
        (n, tr)
    }

    /// A [`round`] whose every ping is answered, except by `silent` — and
    /// by a message that is not a `Pong`.
    fn answered_round(
        n: &mut RbayNode,
        tr: &mut RecTransport,
        ms: u64,
        silent: Option<NodeAddr>,
    ) -> Vec<NodeAddr> {
        let pinged = round(n, tr, ms);
        for &p in pinged.iter().filter(|p| Some(**p) != silent) {
            n.on_message_via(tr, p, PastryMsg::LeafRepairRequest);
        }
        tr.sent.clear();
        pinged
    }

    /// What a node sent, by kind.
    #[derive(Debug, Default)]
    struct Sent {
        /// Where routed messages went.
        routes: Vec<NodeAddr>,
        /// Whom it pinged.
        pings: Vec<NodeAddr>,
        /// Whom it answered a probe, as the root.
        replies: Vec<NodeAddr>,
    }

    fn drain(tr: &mut RecTransport) -> Sent {
        let mut s = Sent::default();
        for (to, m) in tr.sent.drain(..) {
            match m {
                PastryMsg::Route { .. } => s.routes.push(to),
                PastryMsg::Direct(ScribeMsg::AppDirect(RbayPayload::Ping { .. })) => {
                    s.pings.push(to)
                }
                PastryMsg::Direct(ScribeMsg::ProbeReply { .. }) => s.replies.push(to),
                _ => {}
            }
        }
        s
    }

    /// A `ProbeRoot` from node 9.
    fn probe(n: &RbayNode) -> Routed {
        ScribeMsg::ProbeRoot {
            topic: n.host.tree_topic("GPU=true", SiteId(0)),
            scope: None,
            payload: RbayPayload::Ping {
                nonce: 0,
                info: info(9),
            },
            origin: NodeAddr(9),
        }
    }

    /// `msg`, routed toward `key`, arrives from node 9 at `ms`; returns
    /// what the node sent handling it.
    fn forward(n: &mut RbayNode, tr: &mut RecTransport, ms: u64, key: NodeId, msg: Routed) -> Sent {
        tr.now = SimTime::from_millis(ms);
        let route = PastryMsg::Route {
            key,
            payload: msg,
            hops: 1,
            scope: None,
        };
        n.on_message_via(tr, NodeAddr(9), route);
        drain(tr)
    }

    /// A probe for `PEER`'s own id arrives from node 9 and is forwarded
    /// through `PEER`; returns whom the node pinged while forwarding it.
    fn route_through_peer(n: &mut RbayNode, tr: &mut RecTransport, ms: u64) -> Vec<NodeAddr> {
        let msg = probe(n);
        let sent = forward(n, tr, ms, info(PEER.0).id, msg);
        assert_eq!(sent.routes, [PEER], "the probe goes through the peer");
        sent.pings
    }

    /// One maintenance round at `ms`; returns everything it sent.
    fn round_sent(n: &mut RbayNode, tr: &mut RecTransport, ms: u64) -> Sent {
        tr.now = SimTime::from_millis(ms);
        n.maintenance_round_via(tr);
        drain(tr)
    }

    fn copies(n: &RbayNode) -> Vec<(NodeAddr, usize)> {
        n.host.kept_copies().collect()
    }

    fn owes(n: &RbayNode, peer: NodeAddr) -> bool {
        n.host.owes_answer(peer)
    }

    #[test]
    fn heartbeat_round_pings_new_peers_once() {
        let (mut n, _) = detector(&[]);
        let none = BTreeSet::new();
        n.host
            .heartbeat_round(&[NodeAddr(5), NodeAddr(6)], &[], &none);
        assert_eq!(queued_pings(&mut n.host), [NodeAddr(5), NodeAddr(6)]);
        // Outstanding peers are not re-pinged.
        n.host
            .heartbeat_round(&[NodeAddr(5), NodeAddr(6)], &[], &none);
        assert!(n.host.ops.is_empty());
    }

    /// Pinged → Alive on whatever the peer sends, not on a `Pong` only: a
    /// neighbour whose aggregates keep arriving is not declared dead.
    #[test]
    fn any_message_from_the_peer_settles_its_ping() {
        let topic = TopicId::scoped("GPU=true", "rbay", SiteId(0));
        let messages: [(&str, RbayMsg); 3] = [
            (
                "Pong",
                PastryMsg::Direct(ScribeMsg::AppDirect(RbayPayload::Pong {
                    nonce: 1,
                    info: info(PEER.0),
                })),
            ),
            (
                "AggUpdate",
                PastryMsg::Direct(ScribeMsg::AggUpdate {
                    topic,
                    value: AggValue::Count(1),
                }),
            ),
            ("Announce", PastryMsg::Announce { info: info(PEER.0) }),
        ];
        for (what, msg) in messages {
            let (mut n, mut tr) = detector(&[PEER.0]);
            assert_eq!(round(&mut n, &mut tr, 0), [PEER]);
            assert!(owes(&n, PEER));
            tr.now = SimTime::from_millis(300);
            n.on_message_via(&mut tr, PEER, msg);
            assert!(
                matches!(n.host.contacts.get(&PEER), Some(Contact::Heard)),
                "{what}"
            );
            // Long past the timeout of the settled ping: pinged afresh,
            // not declared.
            assert_eq!(round(&mut n, &mut tr, 1_000), [PEER], "{what}");
            assert_eq!(count(&n, "hb_expire"), 0, "{what}");
        }
    }

    #[test]
    fn overdue_pings_declare_failures_exactly_once() {
        let (mut n, mut tr) = detector_with_buried_peer();
        assert_eq!(count(&n, "hb_expire"), 1);
        assert!(!knows(&n, PEER), "repair evicts the declared peer");
        // A buried peer is not re-declared and is dropped from the regular
        // ping sets: over a whole period it gets the one slow-cadence
        // probe and nothing else.
        for _ in 0..SLOW_PROBE_PERIOD {
            n.host.heartbeat_round(&[PEER], &[PEER], n.pastry.buried());
        }
        assert_eq!(queued_pings(&mut n.host), [PEER]);
        assert_eq!(count(&n, "hb_send"), 1);
        assert_eq!(count(&n, "suspect_probe"), 1);
        round(&mut n, &mut tr, 3_000);
        round(&mut n, &mut tr, 4_000);
        assert_eq!(count(&n, "hb_expire"), 1);
    }

    #[test]
    fn unsuspect_restores_a_recovered_peer() {
        let (mut n, _) = detector_with_buried_peer();
        // Any message from the peer proves it alive: it is un-buried and
        // eligible for pinging again.
        n.proof_of_life(PEER);
        assert!(n.pastry.buried().is_empty());
        assert!(!owes(&n, PEER));
        n.host.heartbeat_round(&[PEER], &[], n.pastry.buried());
        assert_eq!(
            queued_pings(&mut n.host),
            [PEER],
            "recovered peer must be pinged again"
        );
        // Proof of life from a peer that was never buried lifts nothing.
        n.proof_of_life(NodeAddr(9));
        assert_eq!(count(&n, "unsuspect"), 1);
    }

    #[test]
    fn suspected_peers_are_probed_at_the_slow_cadence() {
        let (mut n, mut tr) = detector_with_buried_peer();
        // One round of a period re-pings the corpse, so a revived peer can
        // answer and lift the burial even on detectors it never knew
        // about; the others send it nothing.
        let probes = (1..=SLOW_PROBE_PERIOD)
            .filter(|r| round(&mut n, &mut tr, 1_000 + r * 1_000) == [PEER])
            .count();
        assert_eq!(probes, 1, "one probe per period");
        // The probe never re-declares the peer.
        round(&mut n, &mut tr, 20_000);
        assert_eq!(count(&n, "hb_expire"), 1);
    }

    /// A routing-table entry outside the leaf sets is on the slow cadence:
    /// one ping per period, while a leaf-set neighbour gets one per round.
    #[test]
    fn cold_peer_is_pinged_on_its_slow_turn_only() {
        let (mut n, mut tr) = detector_with_cold_peer();
        let rounds: Vec<Vec<NodeAddr>> = (0..SLOW_PROBE_PERIOD)
            .map(|r| answered_round(&mut n, &mut tr, r * 250, None))
            .collect();
        let pinging = |peer| rounds.iter().filter(|r| r.contains(&peer)).count() as u64;
        assert_eq!(pinging(PEER), 1);
        assert!(!rounds[0].contains(&PEER), "not its turn: {:?}", rounds[0]);
        assert_eq!(pinging(NodeAddr(100)), SLOW_PROBE_PERIOD);
        // Every ping counts `hb_send`; the cold one `hb_cold` beside it.
        assert_eq!(count(&n, "hb_send"), 16 * SLOW_PROBE_PERIOD + 1);
        assert_eq!(count(&n, "hb_cold"), 1);
        assert_eq!(count(&n, "hb_expire"), 0);
    }

    /// A leaf-set neighbour that lets a round pass without answering is
    /// the alarm: that round pings the cold peers too, whoever's turn it
    /// is — once, not on every round the neighbour stays silent.
    #[test]
    fn an_unanswered_hot_ping_sweeps_the_cold_peers() {
        let (mut n, mut tr) = detector_with_cold_peer();
        let silent = Some(NodeAddr(100));
        assert!(!answered_round(&mut n, &mut tr, 0, silent).contains(&PEER));
        assert!(answered_round(&mut n, &mut tr, 250, silent).contains(&PEER));
        assert_eq!(count(&n, "hb_cold"), 1);
        // Round 3 declares the neighbour; round 3 is also the peer's slow
        // turn, and it answered the sweep, so it is pinged afresh.
        assert!(answered_round(&mut n, &mut tr, 500, silent).contains(&PEER));
        assert!(n.pastry.is_buried(NodeAddr(100)));
        for r in 3..8 {
            assert!(!answered_round(&mut n, &mut tr, r * 250, silent).contains(&PEER));
        }
        assert_eq!(count(&n, "hb_cold"), 2);
    }

    /// On use: a route through a cold peer pings it in the same instant —
    /// and not again while the ping is outstanding, nor while the peer
    /// counts as heard from; the next round makes it stale again.
    #[test]
    fn route_through_a_cold_peer_pings_it_at_once() {
        let (mut n, mut tr) = detector_with_cold_peer();
        assert!(!answered_round(&mut n, &mut tr, 0, None).contains(&PEER));
        assert_eq!(route_through_peer(&mut n, &mut tr, 10), [PEER]);
        assert!(owes(&n, PEER));
        assert_eq!(route_through_peer(&mut n, &mut tr, 20), [], "outstanding");
        n.on_message_via(&mut tr, PEER, PastryMsg::LeafRepairRequest);
        assert_eq!(route_through_peer(&mut n, &mut tr, 30), [], "fresh");
        assert!(!answered_round(&mut n, &mut tr, 250, None).contains(&PEER));
        assert_eq!(route_through_peer(&mut n, &mut tr, 260), [PEER], "stale");
        assert_eq!(count(&n, "hb_on_use"), 2);
        assert_eq!(count(&n, "hb_cold"), 0);
    }

    /// A detector knowing `peers`, the first of them `PEER`, at ids just
    /// past the probed tree's key, so that `PEER` is its root and the next
    /// one would be. Its round at 0 ms pinged them all and heard from all
    /// but `PEER`; a probe routed through `PEER` at 10 ms was copied beside
    /// its ping.
    fn detector_with_a_copy(peers: &[u32]) -> (RbayNode, RecTransport) {
        let (mut n, mut tr) = detector(&[]);
        let key = n.host.tree_topic("GPU=true", SiteId(0)).key();
        for (i, &p) in peers.iter().enumerate() {
            let near = NodeInfo {
                id: NodeId(key.as_u128().wrapping_add(1 + i as u128)),
                ..info(p)
            };
            n.pastry.insert_peer(&tr, near);
        }
        assert_eq!(
            answered_round(&mut n, &mut tr, 0, Some(PEER)).len(),
            peers.len()
        );
        let msg = probe(&n);
        let sent = forward(&mut n, &mut tr, 10, key, msg);
        assert_eq!(sent.routes, [PEER]);
        assert!(
            sent.pings.is_empty(),
            "the round's ping is still outstanding"
        );
        assert_eq!(copies(&n), [(PEER, 1)]);
        (n, tr)
    }

    /// What a dead hop swallowed goes out again: the round that declares
    /// `PEER` routes the kept probe once, through the repaired tables, and
    /// no later round routes it again.
    #[test]
    fn a_probe_routed_through_a_pinged_hop_is_rerouted_once_when_it_is_declared() {
        let (mut n, mut tr) = detector_with_a_copy(&[PEER.0, 6]);
        answered_round(&mut n, &mut tr, 250, Some(PEER));
        assert_eq!(copies(&n), [(PEER, 1)], "240 ms: not overdue");
        let declared = round_sent(&mut n, &mut tr, 500);
        assert!(n.pastry.is_buried(PEER));
        assert_eq!(
            declared.routes,
            [NodeAddr(6)],
            "one re-route, to the repaired hop"
        );
        // The round forgot what 6 said before it, so the re-route keeps
        // its own copy until 6 answers the ping it owes.
        assert_eq!(copies(&n), [(NodeAddr(6), 1)]);
        n.on_message_via(&mut tr, NodeAddr(6), PastryMsg::LeafRepairRequest);
        assert!(copies(&n).is_empty());
        for ms in [750, 1_000, 1_250] {
            assert!(answered_round(&mut n, &mut tr, ms, None)
                .iter()
                .all(|p| *p != PEER));
        }
        assert_eq!(count(&n, "reroute"), 1);
        assert_eq!(count(&n, "hb_expire"), 1);
    }

    /// The mirror that promotes itself: where the declaring node is now
    /// the key's root, the kept probe is answered here.
    #[test]
    fn a_kept_probe_is_answered_here_when_this_node_is_now_the_root() {
        let (mut n, mut tr) = detector_with_a_copy(&[PEER.0]);
        round_sent(&mut n, &mut tr, 250);
        let declared = round_sent(&mut n, &mut tr, 500);
        assert!(n.pastry.is_buried(PEER));
        assert!(declared.routes.is_empty(), "{declared:?}");
        assert_eq!(declared.replies, [NodeAddr(9)], "answered to the origin");
        assert!(copies(&n).is_empty());
    }

    /// Any message from the hop — not only a `Pong` — proves it alive:
    /// the copy is dropped, and nothing is re-sent even when the hop later
    /// goes silent and is declared.
    #[test]
    fn any_message_from_the_hop_drops_its_copies() {
        let pong = PastryMsg::Direct(ScribeMsg::AppDirect(RbayPayload::Pong {
            nonce: 1,
            info: info(PEER.0),
        }));
        for (what, msg) in [
            ("Pong", pong),
            ("LeafRepairRequest", PastryMsg::LeafRepairRequest),
        ] {
            let (mut n, mut tr) = detector_with_a_copy(&[PEER.0]);
            tr.now = SimTime::from_millis(20);
            n.on_message_via(&mut tr, PEER, msg);
            drain(&mut tr);
            assert!(copies(&n).is_empty(), "{what}");
            for ms in [250, 500, 750] {
                let sent = round_sent(&mut n, &mut tr, ms);
                assert!(sent.routes.is_empty() && sent.replies.is_empty(), "{what}");
            }
            assert!(n.pastry.is_buried(PEER), "{what}: silent since 250 ms");
            assert_eq!(count(&n, "reroute"), 0, "{what}");
        }
    }

    /// A hop heard from since the last round is neither pinged nor given a
    /// copy: the window this leaves open is the rest of that round.
    #[test]
    fn a_heard_hop_keeps_no_copy() {
        let (mut n, mut tr) = detector(&[PEER.0]);
        answered_round(&mut n, &mut tr, 0, None);
        let msg = probe(&n);
        let sent = forward(&mut n, &mut tr, 10, info(PEER.0).id, msg);
        assert_eq!(sent.routes, [PEER]);
        assert!(sent.pings.is_empty());
        assert!(copies(&n).is_empty());
    }

    /// A `Join` is re-sent by the Scribe tick, not from a copy — but its
    /// hop is still verified on use.
    #[test]
    fn a_join_keeps_no_copy_but_pings_its_hop() {
        let (mut n, mut tr) = detector_with_cold_peer();
        answered_round(&mut n, &mut tr, 0, None);
        let join = ScribeMsg::Join {
            topic: n.host.tree_topic("GPU=true", SiteId(0)),
            scope: None,
            child: info(9),
        };
        let sent = forward(&mut n, &mut tr, 10, info(PEER.0).id, join);
        assert_eq!(sent.routes, [PEER]);
        assert_eq!(sent.pings, [PEER]);
        assert!(owes(&n, PEER));
        assert!(copies(&n).is_empty());
    }

    /// With the detector off nothing is written: no ping, no copy.
    #[test]
    fn nothing_is_kept_with_failure_detection_off() {
        let mut n = node_with(0, RbayConfig::default());
        let mut tr = RecTransport::default();
        n.pastry.insert_peer(&tr, info(PEER.0));
        let msg = probe(&n);
        let sent = forward(&mut n, &mut tr, 10, info(PEER.0).id, msg);
        assert_eq!(sent.routes, [PEER]);
        assert!(sent.pings.is_empty());
        assert!(n.host.contacts.is_empty());
    }

    /// The origin site: a `Join` this node routes itself pings its first
    /// hop in the same `control` call, before any round has run.
    #[test]
    fn an_originated_route_pings_its_first_hop() {
        let (mut n, mut tr) = detector(&[]);
        let topic = n.host.tree_topic("GPU=true", SiteId(0));
        let rendezvous = NodeInfo {
            id: NodeId(topic.key().as_u128().wrapping_add(1)),
            addr: PEER,
            site: SiteId(0),
        };
        n.control(&mut tr, |n, _| {
            n.host.ops.push_back(Op::LearnPeer { info: rendezvous });
            n.host
                .post_resource("GPU", rbay_query::AttrValue::Bool(true));
        });
        let kinds: Vec<&str> = tr
            .sent
            .iter()
            .map(|(to, m)| {
                assert_eq!(*to, PEER);
                match m {
                    PastryMsg::Route { .. } => "route",
                    PastryMsg::Direct(ScribeMsg::AppDirect(RbayPayload::Ping { .. })) => "ping",
                    _ => "other",
                }
            })
            .collect();
        assert_eq!(kinds, ["route", "ping"]);
        assert_eq!(count(&n, "hb_on_use"), 1);
    }

    /// An on-use ping nobody answers ends like any other: the first round
    /// past the timeout declares the peer, once.
    #[test]
    fn unanswered_on_use_ping_declares_the_peer_once() {
        let (mut n, mut tr) = detector_with_cold_peer();
        answered_round(&mut n, &mut tr, 0, Some(PEER));
        assert_eq!(route_through_peer(&mut n, &mut tr, 10), [PEER]);
        answered_round(&mut n, &mut tr, 250, Some(PEER));
        assert_eq!(count(&n, "hb_expire"), 0, "240 ms: not overdue");
        answered_round(&mut n, &mut tr, 500, Some(PEER));
        assert!(n.pastry.is_buried(PEER));
        assert!(!knows(&n, PEER));
        for r in 3..12 {
            answered_round(&mut n, &mut tr, r * 250, Some(PEER));
        }
        assert_eq!(count(&n, "hb_expire"), 1);
    }

    #[test]
    fn ping_messages_are_answered_with_pongs() {
        let (mut n, _) = detector(&[]);
        n.host.on_direct(
            NodeAddr(9),
            RbayPayload::Ping {
                nonce: 42,
                info: info(9),
            },
        );
        // The pinger is re-learned (false-positive healing) and answered.
        assert!(matches!(
            n.host.ops.front(),
            Some(Op::LearnPeer { info }) if info.addr == NodeAddr(9)
        ));
        assert!(n.host.ops.iter().any(|op| matches!(
            op,
            Op::Direct {
                to: NodeAddr(9),
                payload: RbayPayload::Pong { nonce: 42, .. },
            }
        )));
    }

    /// The identity a heartbeat claims is outside input: one that does not
    /// match the frame's sender inserts nothing into the routing state,
    /// gets no answer and settles no ping — a frame proves only its own
    /// sender alive.
    #[test]
    fn heartbeat_naming_another_sender_is_dropped() {
        let (mut n, mut tr) = detector(&[]);
        n.host.on_direct(
            NodeAddr(7),
            RbayPayload::Ping {
                nonce: 1,
                info: info(9),
            },
        );
        assert!(n.host.ops.is_empty(), "spoofed Ping: {:?}", n.host.ops);
        n.host.heartbeat_round(&[PEER], &[], &BTreeSet::new());
        n.host.ops.clear();
        let pong_naming_peer = PastryMsg::Direct(ScribeMsg::AppDirect(RbayPayload::Pong {
            nonce: 1,
            info: info(PEER.0),
        }));
        n.on_message_via(&mut tr, NodeAddr(7), pong_naming_peer);
        assert!(tr.sent.is_empty(), "spoofed Pong: {:?}", tr.sent);
        assert!(!knows(&n, PEER));
        assert!(owes(&n, PEER));
    }

    /// What a step of the walk does to the detector.
    enum Step {
        /// A maintenance round at this many milliseconds.
        Round(u64),
        /// This many further rounds, 10 ms apart, from this time on.
        Rounds(u64, u64),
        /// An `Announce` naming the peer arrives from this address.
        Hear(u32),
    }

    /// One leaf-set peer through DESIGN.md §17's state table: Alive →
    /// Pinged → its message settles the ping → Pinged → overdue → Buried
    /// (refused by `insert_peer`, skipped by the round, probed on its
    /// [`SLOW_PROBE_PERIOD`] turn only) → any message → Alive again.
    #[test]
    fn one_peer_walks_the_state_table() {
        use Step::{Hear, Round, Rounds};
        // After each step: [it pinged the peer, the peer owes an answer,
        // the peer is buried, the peer is in routing state].
        let walk = [
            ("alive: round 1 pings", Round(0), [true, true, false, true]),
            (
                "pinged: not due yet",
                Round(300),
                [false, true, false, true],
            ),
            (
                "its message settles",
                Hear(PEER.0),
                [false, false, false, true],
            ),
            (
                "alive: round 3 pings",
                Round(600),
                [true, true, false, true],
            ),
            (
                "overdue: round 4 declares",
                Round(1_100),
                [false, false, true, false],
            ),
            ("gossip is refused", Hear(3), [false, false, true, false]),
            (
                "rounds 5 to 10 skip",
                Rounds(1_200, 6),
                [false, false, true, false],
            ),
            (
                "round 11: its slow turn",
                Round(2_000),
                [true, true, true, false],
            ),
            (
                "the probe expires",
                Round(3_000),
                [false, false, true, false],
            ),
            (
                "its message revives",
                Hear(PEER.0),
                [false, false, false, true],
            ),
            (
                "alive: pinged afresh",
                Round(3_100),
                [true, true, false, true],
            ),
        ];
        let (mut n, mut tr) = detector(&[PEER.0]);
        for (what, step, want) in walk {
            let pinged = match step {
                Round(ms) => round(&mut n, &mut tr, ms).contains(&PEER),
                Rounds(ms, k) => {
                    (0..k).any(|r| round(&mut n, &mut tr, ms + r * 10).contains(&PEER))
                }
                Hear(from) => {
                    let about_peer = PastryMsg::Announce { info: info(PEER.0) };
                    n.on_message_via(&mut tr, NodeAddr(from), about_peer);
                    false
                }
            };
            let got = [
                pinged,
                owes(&n, PEER),
                n.pastry.is_buried(PEER),
                knows(&n, PEER),
            ];
            assert_eq!(got, want, "{what}");
        }
        for (kind, want) in [
            ("hb_send", 3),
            ("hb_expire", 1),
            ("suspect_probe", 1),
            ("unsuspect", 1),
        ] {
            assert_eq!(count(&n, kind), want, "{kind}");
        }
    }
}
