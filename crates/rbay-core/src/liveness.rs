//! Peer liveness: the one failure detector (DESIGN.md §17, state table).
//!
//! To a node every peer is **Alive**, **Pinged** (a heartbeat is
//! outstanding) or **Buried** (declared dead). Which peers are buried is
//! kept once, in [`pastry::PastryNode::buried`] — the routing layer must
//! consult it inside every gossip-driven `insert_peer` — and written from
//! exactly two places, both here: [`RbayNode::declare_dead`] and
//! [`RbayNode::proof_of_life`]. [`RbayHost`] keeps only the ledger of
//! outstanding pings.

use crate::actor::{RbayMsg, RbayNode};
use crate::host::{Op, RbayHost};
use crate::transport::NetAdapter;
use crate::types::RbayPayload;
use pastry::NodeInfo;
use rbay_wire::Transport;
use simnet::obs::ObsEvent;
use simnet::NodeAddr;
use std::collections::BTreeSet;

/// Every this many heartbeat rounds, buried peers are pinged once. Repair
/// evicts a declared peer from every table, so its detectors stop pinging
/// it — but routing-table knowledge is asymmetric, and a recovered peer
/// that never knew its detector would otherwise stay buried forever
/// (gossip cannot re-insert it). A corpse never answers, so the cost is
/// bounded by the size of the buried set.
pub const SUSPECT_PROBE_PERIOD: u64 = 4;

impl RbayHost {
    /// Forgets every ping that has been outstanding for longer than
    /// `heartbeat_timeout` and returns the peers that owed the answer.
    pub(crate) fn expire_pings(&mut self) -> Vec<NodeAddr> {
        let (now, deadline) = (self.now, self.cfg.heartbeat_timeout);
        self.pending_pings
            .extract_if(.., |_, sent| now.saturating_since(*sent) > deadline)
            .map(|(peer, _)| peer)
            .collect()
    }

    /// Queues this round's heartbeats: one to every peer of `peers` that
    /// is neither `buried` nor already owes an answer, and — every
    /// [`SUSPECT_PROBE_PERIOD`]th round — one to every buried peer that
    /// owes none.
    pub(crate) fn heartbeat_round(&mut self, peers: &[NodeAddr], buried: &BTreeSet<NodeAddr>) {
        self.hb_round = self.hb_round.wrapping_add(1);
        let from = self.addr;
        for &to in peers {
            if to == from || buried.contains(&to) || self.pending_pings.contains_key(&to) {
                continue;
            }
            self.obs.count(from, "hb_send");
            self.obs
                .record_with(|at| ObsEvent::HeartbeatSend { at, from, to });
            self.ping(to);
        }
        if self.hb_round.is_multiple_of(SUSPECT_PROBE_PERIOD) {
            for &to in buried {
                if !self.pending_pings.contains_key(&to) {
                    self.obs.count(from, "suspect_probe");
                    self.ping(to);
                }
            }
        }
    }

    /// Enters a ping to `peer` in the ledger and queues it. The nonce is
    /// the round that sent it; the ledger is keyed by peer, so any Pong
    /// from the peer settles it.
    fn ping(&mut self, peer: NodeAddr) {
        self.pending_pings.insert(peer, self.now);
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

    /// `Pong` received: re-learn the responder and settle its ping — the
    /// only message that does so for a peer that is not buried.
    pub(crate) fn on_pong(&mut self, from: NodeAddr, info: NodeInfo) {
        if self.learn_sender(from, info) {
            self.pending_pings.remove(&from);
        }
    }
}

impl RbayNode {
    /// The failure-detection part of a maintenance round: peers whose
    /// ping is overdue are declared dead, then the round's pings go out.
    pub(crate) fn detect_failures_via<T: Transport<RbayMsg>>(&mut self, tr: &mut T) {
        // Probe every peer in routing state plus tree parents/children
        // — the peers whose failure this node must react to. The
        // routing tables are included because a dead entry there
        // silently blackholes every Join/anycast routed through it:
        // unlike a leaf-set neighbour it is never consulted for
        // repair, so nothing else would ever notice the corpse.
        let mut peers: Vec<NodeAddr> = self.pastry.known_peers().iter().map(|e| e.addr).collect();
        for (_, st) in self.scribe.topics() {
            peers.extend(st.children.iter().copied());
            peers.extend(st.parent);
        }
        peers.sort();
        peers.dedup();
        for peer in self.host.expire_pings() {
            // A buried peer's unanswered probe is not news.
            if !self.pastry.is_buried(peer) {
                self.declare_dead(tr, peer);
            }
        }
        self.host.heartbeat_round(&peers, self.pastry.buried());
    }

    /// Alive or Pinged → Buried: Pastry buries `peer` and repairs its
    /// routing state around it, then Scribe repairs the trees.
    fn declare_dead<T: Transport<RbayMsg>>(&mut self, tr: &mut T, peer: NodeAddr) {
        let detector = self.host.addr;
        self.host.obs.count(detector, "hb_expire");
        self.host
            .obs
            .record_with(|at| ObsEvent::HeartbeatExpire { at, detector, peer });
        let mut net = NetAdapter::new(tr);
        self.pastry.handle_failure(&mut net, peer);
        self.scribe
            .handle_failure(&mut self.pastry, &mut net, &mut self.host, peer);
    }

    /// Buried → Alive: a message from `peer` arrived, so it is not dead.
    /// Gossip and heartbeats may re-insert it, and a probe it still owes
    /// an answer to is forgotten so the next round pings it afresh. A
    /// no-op for a peer that is not buried.
    pub(crate) fn proof_of_life(&mut self, peer: NodeAddr) {
        if self.pastry.revive(peer) {
            self.host.pending_pings.remove(&peer);
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
    use scribe::{ScribeHost, ScribeMsg};
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
        let mut tr = RecTransport::default();
        for &p in peers {
            n.pastry.insert_peer(&NetAdapter::new(&mut tr), info(p));
        }
        (n, tr)
    }

    /// One maintenance round at `ms`; returns whom it pinged.
    fn round(n: &mut RbayNode, tr: &mut RecTransport, ms: u64) -> Vec<NodeAddr> {
        tr.now = SimTime::from_millis(ms);
        n.maintenance_round_via(tr);
        let ping = |(to, m): (NodeAddr, RbayMsg)| match m {
            PastryMsg::Direct(ScribeMsg::AppDirect(RbayPayload::Ping { .. })) => Some(to),
            _ => None,
        };
        tr.sent.drain(..).filter_map(ping).collect()
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

    #[test]
    fn heartbeat_round_pings_new_peers_once() {
        let (mut n, _) = detector(&[]);
        let none = BTreeSet::new();
        n.host.heartbeat_round(&[NodeAddr(5), NodeAddr(6)], &none);
        assert_eq!(queued_pings(&mut n.host), [NodeAddr(5), NodeAddr(6)]);
        // Outstanding peers are not re-pinged.
        n.host.heartbeat_round(&[NodeAddr(5), NodeAddr(6)], &none);
        assert!(n.host.ops.is_empty());
    }

    #[test]
    fn pong_clears_the_outstanding_ping() {
        let (mut n, _) = detector(&[]);
        let none = BTreeSet::new();
        n.host.heartbeat_round(&[PEER], &none);
        n.host.on_direct(
            PEER,
            RbayPayload::Pong {
                nonce: 1,
                info: info(PEER.0),
            },
        );
        assert!(n.host.pending_pings.is_empty());
        // The peer can be pinged again later.
        n.host.ops.clear();
        n.host.heartbeat_round(&[PEER], &none);
        assert_eq!(queued_pings(&mut n.host), [PEER]);
    }

    #[test]
    fn overdue_pings_declare_failures_exactly_once() {
        let (mut n, mut tr) = detector_with_buried_peer();
        assert_eq!(count(&n, "hb_expire"), 1);
        assert!(!knows(&n, PEER), "repair evicts the declared peer");
        // A buried peer is not re-declared and is dropped from the
        // regular ping set (it only gets the slow-cadence probe).
        n.host.heartbeat_round(&[PEER], n.pastry.buried());
        assert!(n.host.ops.is_empty());
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
        assert!(n.host.pending_pings.is_empty());
        n.host.heartbeat_round(&[PEER], n.pastry.buried());
        assert_eq!(
            queued_pings(&mut n.host),
            [PEER],
            "recovered peer must be pinged again"
        );
        // Proof of life from a peer that was never buried is a no-op.
        n.proof_of_life(NodeAddr(9));
        assert_eq!(count(&n, "unsuspect"), 1);
    }

    #[test]
    fn suspected_peers_are_probed_at_the_slow_cadence() {
        let (mut n, mut tr) = detector_with_buried_peer();
        // Rounds up to the probe period send nothing to the corpse; the
        // period-th round re-pings it so a revived peer can answer and
        // lift the burial even on detectors it never knew about.
        let probed_at = (1..=SUSPECT_PROBE_PERIOD)
            .find(|r| round(&mut n, &mut tr, 1_000 + r * 1_000) == [PEER]);
        assert!(
            probed_at.is_some(),
            "buried peer was never probed within a full period"
        );
        // The probe never re-declares the peer.
        round(&mut n, &mut tr, 9_000);
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
    /// gets no answer and settles no ping.
    #[test]
    fn heartbeat_naming_another_sender_is_dropped() {
        let (mut n, _) = detector(&[]);
        n.host.on_direct(
            NodeAddr(7),
            RbayPayload::Ping {
                nonce: 1,
                info: info(9),
            },
        );
        assert!(n.host.ops.is_empty(), "spoofed Ping: {:?}", n.host.ops);
        n.host.heartbeat_round(&[PEER], &BTreeSet::new());
        n.host.ops.clear();
        n.host.on_direct(
            PEER,
            RbayPayload::Pong {
                nonce: 1,
                info: info(9),
            },
        );
        assert!(n.host.ops.is_empty(), "spoofed Pong: {:?}", n.host.ops);
        assert!(n.host.pending_pings.contains_key(&PEER));
    }

    /// What a step of the walk does to the detector.
    enum Step {
        /// A maintenance round at this many milliseconds.
        Round(u64),
        /// An `Announce` naming the peer arrives from this address.
        Hear(u32),
    }

    /// One peer through DESIGN.md §17's state table: Alive → Pinged →
    /// overdue → Buried (refused by `insert_peer`, skipped by the round,
    /// probed on every [`SUSPECT_PROBE_PERIOD`]th round only) → any
    /// message → Alive again.
    #[test]
    fn one_peer_walks_the_state_table() {
        use Step::{Hear, Round};
        // After each step: [it pinged the peer, the peer owes a Pong, the
        // peer is buried, the peer is in routing state].
        let walk = [
            (
                "alive: the round pings",
                Round(0),
                [true, true, false, true],
            ),
            (
                "pinged: not due yet",
                Round(300),
                [false, true, false, true],
            ),
            (
                "overdue: declared",
                Round(1_000),
                [false, false, true, false],
            ),
            ("gossip is refused", Hear(3), [false, false, true, false]),
            ("round 4 probes", Round(2_000), [true, true, true, false]),
            (
                "the probe expires",
                Round(3_000),
                [false, false, true, false],
            ),
            ("round 6 skips", Round(4_000), [false, false, true, false]),
            ("round 7 skips", Round(5_000), [false, false, true, false]),
            ("round 8 probes", Round(6_000), [true, true, true, false]),
            (
                "its message revives",
                Hear(PEER.0),
                [false, false, false, true],
            ),
            (
                "alive: pinged afresh",
                Round(6_100),
                [true, true, false, true],
            ),
        ];
        let (mut n, mut tr) = detector(&[PEER.0]);
        for (what, step, want) in walk {
            let pinged = match step {
                Round(ms) => round(&mut n, &mut tr, ms).contains(&PEER),
                Hear(from) => {
                    let about_peer = PastryMsg::Announce { info: info(PEER.0) };
                    n.on_message_via(&mut tr, NodeAddr(from), about_peer);
                    false
                }
            };
            let owes = n.host.pending_pings.contains_key(&PEER);
            let got = [pinged, owes, n.pastry.is_buried(PEER), knows(&n, PEER)];
            assert_eq!(got, want, "{what}");
        }
        for (kind, want) in [
            ("hb_send", 2),
            ("hb_expire", 1),
            ("suspect_probe", 2),
            ("unsuspect", 1),
        ] {
            assert_eq!(count(&n, kind), want, "{kind}");
        }
    }
}
