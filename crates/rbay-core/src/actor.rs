//! The actor embedding a full RBAY node: Pastry routing state, Scribe
//! trees, and the RBAY application host. Also drains the host's deferred
//! operation queue after every dispatch.
//!
//! All protocol logic is written against [`simnet::Transport`] (the `*_via`
//! methods), so the same node runs over the in-memory simulator (the
//! [`simnet::Actor`] impl below hands its [`Context`] straight through) or
//! over real sockets (`rbay-bench`'s `rbay-node` daemon, via
//! [`crate::MemberCtx`]).

use crate::host::{split_timer_token, Op, RbayHost};
use crate::types::RbayPayload;
use pastry::{LeafSet, PastryMsg, PastryNode, RoutingTable};
use scribe::{ScribeApp, ScribeLayer, ScribeMsg};
use simnet::{Actor, Context, NodeAddr, TimerToken, Transport};

/// The message type on the wire: Pastry framing around Scribe framing
/// around RBAY payloads.
pub type RbayMsg = PastryMsg<ScribeMsg<RbayPayload>>;

/// One complete RBAY node.
#[derive(Debug)]
pub struct RbayNode {
    /// DHT routing state.
    pub pastry: PastryNode,
    /// Tree state.
    pub scribe: ScribeLayer,
    /// Application state.
    pub host: RbayHost,
}

impl RbayNode {
    /// The one way to drive a node: stamps the host's clock from the
    /// transport, runs `f`, then executes every host operation `f` queued
    /// (the failure detector's on-use pings among them). A message, a
    /// timer, a maintenance round and an operator's request are all bodies
    /// run inside it.
    pub fn control<T: Transport<RbayMsg>, R>(
        &mut self,
        tr: &mut T,
        f: impl FnOnce(&mut RbayNode, &mut T) -> R,
    ) -> R {
        self.host.now = tr.now();
        let r = f(self, tr);
        self.drain_ops(tr);
        r
    }

    /// Executes every queued host operation, with full access to the
    /// routing layers. Operations may enqueue further operations (e.g. a
    /// RemoteProbe handler queues probes); the loop runs until quiescence.
    pub(crate) fn drain_ops<T: Transport<RbayMsg>>(&mut self, tr: &mut T) {
        let RbayNode {
            pastry,
            scribe,
            host,
        } = self;
        while let Some(op) = host.ops.pop_front() {
            match op {
                Op::Subscribe { topic, scope } => {
                    scribe.subscribe(pastry, tr, host, topic, scope);
                    scribe.set_local_value(topic, host.tree_local_value());
                    // If the tree was already attached the subscribe was a
                    // no-op; drop the pending-join marker, which otherwise
                    // waits for an attach notice that never comes.
                    if scribe.topic(topic).is_some_and(|st| st.is_attached()) {
                        host.sub_requested.remove(&topic);
                    }
                }
                Op::Unsubscribe { topic } => {
                    scribe.unsubscribe::<RbayPayload, _>(pastry, tr, topic);
                }
                Op::Probe {
                    topic,
                    scope,
                    payload,
                } => {
                    scribe.probe_root(pastry, tr, host, topic, scope, payload);
                }
                Op::Anycast {
                    topic,
                    scope,
                    payload,
                } => {
                    scribe.anycast(pastry, tr, host, topic, scope, payload);
                }
                Op::Multicast {
                    topic,
                    scope,
                    payload,
                } => {
                    scribe.multicast(pastry, tr, host, topic, scope, payload);
                }
                Op::Direct { to, payload } => {
                    scribe.send_direct(tr, to, payload);
                }
                Op::LearnPeer { info } => {
                    pastry.insert_peer(tr, info);
                }
                Op::Timer { delay, token } => {
                    tr.set_timer(delay, token);
                }
            }
        }
    }

    /// Runs one maintenance round: AA `onTimer`/membership checks, an
    /// aggregation tick pushing tree aggregates one level rootward, and
    /// (when enabled) heartbeat-based failure detection over the node's
    /// overlay neighbours.
    pub fn maintenance_round_via<T: Transport<RbayMsg>>(&mut self, tr: &mut T) {
        self.control(tr, |n, tr| {
            n.host.begin_round();
            n.host.maintenance();
            // Refresh this node's contribution to every subscribed tree
            // (the aggregate attribute may have changed since the last
            // round).
            let fresh = n.host.tree_local_value();
            let subscribed: Vec<scribe::TopicId> = n
                .scribe
                .topics()
                .filter(|(_, st)| st.subscribed)
                .map(|(t, _)| *t)
                .collect();
            for t in subscribed {
                n.scribe.set_local_value(t, fresh.clone());
            }
            // The tick also re-sends the `Join` of any tree this node is
            // detached from: the one retry per round (DESIGN.md §17).
            n.scribe.aggregate_tick(&mut n.pastry, tr, &mut n.host);
            // Peer-set anti-entropy: one Announce + leaf-set pull per
            // round so routing knowledge lost to concurrent joins or
            // dropped frames eventually heals (the join-time Announce is
            // one-shot).
            n.pastry.gossip_round(tr);
            if n.host.cfg.failure_detection {
                n.detect_failures_via(tr);
            }
        });
    }

    /// Dispatches one incoming message over any transport (what the
    /// [`Actor`] impl does for the simulator, and the daemon's event loop
    /// does for decoded TCP frames).
    pub fn on_message_via<T: Transport<RbayMsg>>(
        &mut self,
        tr: &mut T,
        from: NodeAddr,
        msg: RbayMsg,
    ) {
        self.control(tr, |n, tr| {
            // Any message from a peer proves it alive — the one place that
            // is acted on, before anything looks at the message.
            if !scribe::seeded_bug_active(3) {
                n.proof_of_life(from);
            }
            let mut app = ScribeApp {
                layer: &mut n.scribe,
                host: &mut n.host,
            };
            n.pastry.on_message(tr, &mut app, from, msg);
        });
    }

    /// Fires one timer over any transport. A firing the query engine no
    /// longer waits for (a finished query, an earlier attempt) is ignored
    /// by [`RbayHost::on_query_timer`].
    pub fn on_timer_via<T: Transport<RbayMsg>>(&mut self, tr: &mut T, token: TimerToken) {
        self.control(tr, |n, _| {
            let (seq, attempt, kind) = split_timer_token(token);
            if kind != 0 {
                n.host.on_query_timer(seq, attempt, kind);
            }
        });
    }

    /// Sends this node's Pastry join request toward `bootstrap`. Safe to
    /// re-send each tick until [`PastryNode::is_joined`] turns true — join
    /// traffic may be lost on a real network.
    pub fn join_via<T: Transport<RbayMsg>>(&mut self, tr: &mut T, bootstrap: NodeAddr) {
        self.control(tr, |n, tr| {
            n.pastry.join(tr, bootstrap);
        });
    }

    /// Marks this node as the overlay's first member: joined, with empty
    /// routing state. Only the bootstrap daemon of a fresh deployment
    /// should call this; everyone else joins through it.
    pub fn seed_as_bootstrap(&mut self) {
        let id = self.pastry.info().id;
        self.pastry.seed_state(
            RoutingTable::new(id),
            LeafSet::new(id),
            RoutingTable::new(id),
            LeafSet::new(id),
        );
    }
}

impl Actor for RbayNode {
    type Msg = RbayMsg;

    fn on_message(&mut self, ctx: &mut Context<'_, RbayMsg>, from: NodeAddr, msg: RbayMsg) {
        self.on_message_via(ctx, from, msg);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, RbayMsg>, token: TimerToken) {
        self.on_timer_via(ctx, token);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::host::RbayConfig;
    use crate::types::RbayEvent;
    use crate::Federation;
    use aascript::SharedSandbox;
    use pastry::{NodeId, NodeInfo};
    use rbay_query::AttrValue;
    use simnet::{SimDuration, SimTime, SiteId, Topology};
    use std::rc::Rc;

    /// A lone single-site node with default configuration.
    pub(crate) fn node(index: u32) -> RbayNode {
        node_with(index, RbayConfig::default())
    }

    /// A lone single-site node under `cfg`.
    pub(crate) fn node_with(index: u32, cfg: RbayConfig) -> RbayNode {
        let info = NodeInfo {
            id: NodeId::hash_of(format!("test-node:{index}").as_bytes()),
            addr: NodeAddr(index),
            site: SiteId(0),
        };
        let host = RbayHost::new(
            Rc::new(cfg),
            info.id,
            info.addr,
            info.site,
            SharedSandbox::new(),
            vec![vec![NodeAddr(0)]],
            vec!["site0".into()],
        );
        RbayNode {
            pastry: PastryNode::new(info),
            scribe: ScribeLayer::new(),
            host,
        }
    }

    /// Records what a node sends instead of delivering it.
    #[derive(Default)]
    pub(crate) struct RecTransport {
        pub(crate) sent: Vec<(NodeAddr, RbayMsg)>,
        pub(crate) now: SimTime,
    }

    impl Transport<RbayMsg> for RecTransport {
        fn send(&mut self, to: NodeAddr, msg: RbayMsg) {
            self.sent.push((to, msg));
        }
        fn now(&self) -> SimTime {
            self.now
        }
        fn set_timer(&mut self, _delay: SimDuration, _token: TimerToken) {}
    }

    impl RecTransport {
        /// Drains the sent messages and counts the routed `Join`s.
        fn take_joins(&mut self) -> usize {
            let joins = |m: &RbayMsg| {
                matches!(
                    m,
                    PastryMsg::Route {
                        payload: ScribeMsg::Join { .. },
                        ..
                    }
                )
            };
            self.sent.drain(..).filter(|(_, m)| joins(m)).count()
        }
    }

    /// A node that posted `GPU=true` while it knew one peer, sitting at
    /// the tree's key: its `Join` went to that peer and got lost.
    fn subscriber_with_lost_join(tr: &mut RecTransport) -> (RbayNode, scribe::TopicId, NodeInfo) {
        let mut n = node(1);
        let topic = n.host.tree_topic("GPU=true", SiteId(0));
        let peer = NodeInfo {
            id: NodeId(topic.key().as_u128().wrapping_add(1)),
            addr: NodeAddr(2),
            site: SiteId(0),
        };
        n.control(tr, |n, _| {
            n.host.ops.push_back(Op::LearnPeer { info: peer });
            n.host.post_resource("GPU", AttrValue::Bool(true));
        });
        assert_eq!(tr.take_joins(), 1, "the first join goes out");
        (n, topic, peer)
    }

    fn subscribed_events(n: &RbayNode) -> usize {
        let subscribed = |e: &&RbayEvent| matches!(e, RbayEvent::Subscribed { .. });
        n.host.events.iter().filter(subscribed).count()
    }

    /// Driving a node is `control` and nothing else: clock first, then the
    /// closure, then everything the closure queued, then its value.
    #[test]
    fn control_stamps_the_clock_drains_and_returns_the_closures_value() {
        let mut tr = RecTransport {
            now: SimTime::from_millis(7),
            ..RecTransport::default()
        };
        // The fixture posts inside `control` and has counted the `Join`
        // by the time it returns.
        let (mut n, ..) = subscriber_with_lost_join(&mut tr);
        assert_eq!(n.host.now, tr.now);
        assert!(n.host.ops.is_empty());
        tr.now = SimTime::from_millis(9);
        let seen = n.control(&mut tr, |n, _| n.host.now);
        assert_eq!(seen, tr.now, "stamped before the closure runs");
    }

    /// Every `Federation` verb is a `control` closure — the installs too,
    /// which used to leave the node's clock where the last message put it.
    #[test]
    fn federation_installs_stamp_the_clock_and_drain() {
        let mut fed = Federation::new(Topology::single_site(4, 0.5), 1);
        let t = SimTime::from_secs(3);
        fed.run_until(t);
        fed.install_node_aa(NodeAddr(2), "function onGet(caller) return true end");
        fed.settle();
        let host = &fed.node(NodeAddr(2)).host;
        assert_eq!(host.now, t);
        assert!(host.ops.is_empty());
    }

    /// The tick is the only retry left: a `Join` lost in flight is sent
    /// again once per maintenance round, until the ack arrives.
    #[test]
    fn lost_join_is_resent_once_per_round_until_acked() {
        let mut tr = RecTransport::default();
        let (mut n, topic, peer) = subscriber_with_lost_join(&mut tr);
        for _ in 0..3 {
            n.maintenance_round_via(&mut tr);
            assert_eq!(tr.take_joins(), 1, "one join per detached topic per round");
            assert!(n.host.sub_requested.contains_key(&topic));
        }
        let ack = PastryMsg::Direct(ScribeMsg::JoinAck { topic });
        n.on_message_via(&mut tr, peer.addr, ack);
        assert_eq!(subscribed_events(&n), 1);
        assert!(n.host.sub_requested.is_empty());
        n.maintenance_round_via(&mut tr);
        assert_eq!(tr.take_joins(), 0, "attached: nothing to retry");
    }

    /// A subscriber whose next hop vanishes while its `Join` is
    /// unanswered is the rendezvous itself at the next tick; becoming the
    /// root there must reach the host like every other attach.
    #[test]
    fn subscriber_promoted_by_the_tick_reports_its_subscription() {
        let mut tr = RecTransport::default();
        let (mut n, topic, peer) = subscriber_with_lost_join(&mut tr);
        n.pastry.handle_failure(&mut tr, peer.addr);
        n.maintenance_round_via(&mut tr);
        assert!(n.scribe.topic(topic).is_some_and(|st| st.is_root));
        assert_eq!(subscribed_events(&n), 1);
        assert!(n.host.sub_requested.is_empty());
        n.maintenance_round_via(&mut tr);
        assert_eq!(subscribed_events(&n), 1, "reported once");
    }
}
