//! Tree membership: who this node's parent and children are.
//!
//! Every change of `is_root` or `parent` happens in this file, through
//! four transitions:
//!
//! * `reattach` — the one "root or join?" decision;
//! * `become_root` — its root arm, also taken when a mirrored root dies;
//! * `detach` — clears the parent pointer and tells the old parent;
//! * `on_join_ack` — sets the parent pointer.
//!
//! The rest (subscribe, failure repair, the `NotChild` NACK, a routed
//! `Join` landing, the tick's retry) decides *when* to call them. The
//! state table is in DESIGN.md §17.

use super::{route_to_root, ScribeHost, ScribeLayer};
use crate::types::{ScribeMsg, TopicId};
use pastry::{Net, NodeInfo, PastryMsg, PastryNode};
use simnet::obs::ObsEvent;
use simnet::{NodeAddr, SimTime, SiteId};

/// Tells `parent` that `child` is no longer below it.
fn send_leave<P, N>(net: &mut N, parent: NodeAddr, topic: TopicId, child: NodeAddr)
where
    N: Net<ScribeMsg<P>>,
{
    net.send(parent, PastryMsg::Direct(ScribeMsg::Leave { topic, child }));
}

impl ScribeLayer {
    /// Subscribes this node to `topic`. If the node is the rendezvous root
    /// it attaches immediately; otherwise a JOIN is routed toward the
    /// topic key and the tree grows by the union of join paths. Calling it
    /// again while the join is still unanswered re-sends the join.
    pub fn subscribe<P, N, H>(
        &mut self,
        pastry: &mut PastryNode,
        net: &mut N,
        host: &mut H,
        topic: TopicId,
        scope: Option<SiteId>,
    ) where
        N: Net<ScribeMsg<P>>,
        H: ScribeHost<P>,
    {
        let st = self.topics.entry(topic).or_default();
        st.scope = scope;
        let newly = !std::mem::replace(&mut st.subscribed, true);
        if !st.is_attached() {
            self.reattach(pastry, net, host, topic);
        } else if newly {
            host.on_subscribed(topic);
        }
    }

    /// Unsubscribes from `topic`. Forwarder state is pruned lazily: a node
    /// with no children and no subscription leaves its parent too.
    pub fn unsubscribe<P, N>(&mut self, pastry: &mut PastryNode, net: &mut N, topic: TopicId)
    where
        N: Net<ScribeMsg<P>>,
    {
        if let Some(st) = self.topics.get_mut(&topic) {
            st.subscribed = false;
            st.local_value = None;
        }
        self.maybe_prune(net, pastry.info().addr, topic);
    }

    /// Drops the topic state, telling the parent, if nothing depends on
    /// this node being in the tree any more.
    pub(super) fn maybe_prune<P, N>(&mut self, net: &mut N, me: NodeAddr, topic: TopicId)
    where
        N: Net<ScribeMsg<P>>,
    {
        let Some(st) = self.topics.get(&topic) else {
            return;
        };
        // A childless, unsubscribed root is pruned like any other node
        // (it has no parent, so no Leave goes out); a later Join simply
        // re-creates the root state at the rendezvous node. Keeping it
        // alive would leak topic state forever.
        if st.is_needed() {
            return;
        }
        if let Some(parent) = st.parent {
            send_leave(net, parent, topic, me);
        }
        self.obs.count("tree_prune");
        self.topics.remove(&topic);
    }

    /// The one attachment decision, for a node that has no parent: asks
    /// Pastry once whether this node is the rendezvous for `topic`, and
    /// either becomes the root or stops being one and routes a `Join`
    /// toward the key. Idempotent: a root that is still the rendezvous
    /// stays as it is, and a re-sent `Join` grafts nothing twice.
    pub(super) fn reattach<P, N, H>(
        &mut self,
        pastry: &mut PastryNode,
        net: &mut N,
        host: &mut H,
        topic: TopicId,
    ) where
        N: Net<ScribeMsg<P>>,
        H: ScribeHost<P>,
    {
        let Some(scope) = self.topics.get(&topic).map(|st| st.scope) else {
            return;
        };
        let join = ScribeMsg::Join {
            topic,
            scope,
            child: pastry.info(),
        };
        if route_to_root(pastry, net, host, topic, scope, join).is_some() {
            self.become_root(pastry.info(), net, host, topic);
        } else if let Some(st) = self.topics.get_mut(&topic) {
            st.is_root = false;
        }
    }

    /// Makes this node the root of `topic`: adopts the warm replica if one
    /// is cached (re-pointing the mirrored children here), lets go of a
    /// parent it may still have, and tells the host its subscription is
    /// attached. Does nothing on a node that already is the root.
    fn become_root<P, N, H>(&mut self, me: NodeInfo, net: &mut N, host: &mut H, topic: TopicId)
    where
        N: Net<ScribeMsg<P>>,
        H: ScribeHost<P>,
    {
        let st = self.topics.entry(topic).or_default();
        if std::mem::replace(&mut st.is_root, true) {
            return;
        }
        let subscribed = st.subscribed;
        self.promote_from_replica(me, net, topic);
        self.detach(net, me.addr, topic);
        if subscribed {
            host.on_subscribed(topic);
        }
    }

    /// Clears the parent pointer and tells the old parent. The notice
    /// matters even when the parent was declared dead: a false-positive
    /// declaration leaves it alive, and without the `Leave` it would keep
    /// this node as a stale child, counting its subtree twice once it
    /// re-attaches elsewhere. A really dead parent never receives it.
    fn detach<P, N>(&mut self, net: &mut N, me: NodeAddr, topic: TopicId)
    where
        N: Net<ScribeMsg<P>>,
    {
        let old = self.topics.get_mut(&topic).and_then(|st| st.parent.take());
        if let Some(old) = old {
            if !crate::seeded_bug_active(1) {
                send_leave(net, old, topic, me);
            }
        }
    }

    /// A `JoinAck` arrived: `from` grafted this node and becomes its
    /// parent. A previous parent is told to let go, or this node would sit
    /// in two children sets at once (multicast duplicates and aggregate
    /// double-counting). An ack this node cannot use — it is the root, or
    /// it left the tree — is answered with a `Leave`, so the sender does
    /// not keep a child that will never report.
    pub(super) fn on_join_ack<P, N, H>(
        &mut self,
        net: &mut N,
        host: &mut H,
        me: NodeAddr,
        from: NodeAddr,
        topic: TopicId,
    ) where
        N: Net<ScribeMsg<P>>,
        H: ScribeHost<P>,
    {
        let Some(st) = self.topics.get(&topic).filter(|st| !st.is_root) else {
            send_leave(net, from, topic, me);
            return;
        };
        let (old, subscribed) = (st.parent, st.subscribed);
        if old != Some(from) {
            self.detach(net, me, topic);
        }
        self.topics.get_mut(&topic).expect("checked above").parent = Some(from);
        self.obs.record_with(|| ObsEvent::TreeParent {
            at: net.now(),
            node: me,
            topic: topic.key().as_u128(),
            old,
            new: from,
        });
        if subscribed {
            host.on_subscribed(topic);
        }
    }

    /// A `NotChild` NACK arrived: the node this one reports to does not
    /// list it as a child. Forget that parent (it needs no `Leave`) and
    /// join again.
    pub(super) fn on_not_child<P, N, H>(
        &mut self,
        pastry: &mut PastryNode,
        net: &mut N,
        host: &mut H,
        from: NodeAddr,
        topic: TopicId,
    ) where
        N: Net<ScribeMsg<P>>,
        H: ScribeHost<P>,
    {
        if crate::seeded_bug_active(2) {
            return;
        }
        let Some(st) = self.topics.get_mut(&topic) else {
            return;
        };
        // Only react if the NACK comes from the node we currently
        // believe is our parent; a stale NACK from an old parent
        // must not detach us from a good one.
        if st.parent != Some(from) {
            return;
        }
        st.parent = None;
        let me = pastry.info().addr;
        self.obs.count("orphan_rejoin");
        self.maybe_prune(net, me, topic);
        self.reattach(pastry, net, host, topic);
    }

    /// Grafts `child` under this node (`me`) for `topic`, acknowledging it.
    pub(super) fn graft<P, N>(
        &mut self,
        net: &mut N,
        me: NodeAddr,
        topic: TopicId,
        scope: Option<SiteId>,
        child: NodeAddr,
    ) where
        N: Net<ScribeMsg<P>>,
    {
        let st = self.topics.entry(topic).or_default();
        st.scope = scope;
        let grafted = !st.children.contains_key(&child);
        st.children.entry(child).or_default().seen = st.agg_round;
        if grafted {
            self.obs.record_with(|| ObsEvent::TreeGraft {
                at: net.now(),
                parent: me,
                child,
                topic: topic.key().as_u128(),
            });
        }
        net.send(child, PastryMsg::Direct(ScribeMsg::JoinAck { topic }));
    }

    /// Forgets `child` and its report (`now` stamps the leave).
    pub(super) fn drop_child(
        &mut self,
        now: SimTime,
        me: NodeAddr,
        topic: TopicId,
        child: NodeAddr,
    ) {
        let Some(st) = self.topics.get_mut(&topic) else {
            return;
        };
        if st.children.remove(&child).is_some() {
            self.obs.record_with(|| ObsEvent::TreeLeave {
                at: now,
                parent: me,
                child,
                topic: topic.key().as_u128(),
            });
        }
    }

    /// Reacts to a failed node: detaches it everywhere and re-joins any
    /// tree whose parent was lost.
    pub fn handle_failure<P, N, H>(
        &mut self,
        pastry: &mut PastryNode,
        net: &mut N,
        host: &mut H,
        addr: NodeAddr,
    ) where
        N: Net<ScribeMsg<P>>,
        H: ScribeHost<P>,
    {
        let me = pastry.info();
        let orphaned: Vec<TopicId> = self
            .topics
            .iter()
            .filter(|(_, st)| st.parent == Some(addr))
            .map(|(t, _)| *t)
            .collect();
        // Root failover: if the failed node is the root of a tree this
        // node mirrors, and the repair now converges here (no next hop
        // toward the key), promote from the warm replica immediately —
        // the tree answers again within the same maintenance round.
        let mirrored: Vec<(TopicId, Option<SiteId>)> = self
            .replicas
            .iter()
            .filter(|(_, rep)| rep.root == addr)
            .map(|(t, rep)| (*t, rep.scope))
            .collect();
        for (topic, scope) in mirrored {
            if pastry.next_hop(topic.key(), scope).is_none() {
                self.become_root(me, net, host, topic);
            }
        }
        let affected: Vec<TopicId> = self.topics.keys().copied().collect();
        for topic in affected {
            self.drop_child(net.now(), me.addr, topic, addr);
        }
        for topic in orphaned {
            self.obs.count("parent_lost");
            self.detach(net, me.addr, topic);
            if self.is_member(topic) {
                self.reattach(pastry, net, host, topic);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::*;
    use super::super::TopicState;
    use super::*;

    fn child_of(parent: u32) -> TopicState {
        TopicState {
            parent: Some(NodeAddr(parent)),
            subscribed: true,
            ..TopicState::default()
        }
    }

    fn join_ack() -> Msg {
        PastryMsg::Direct(ScribeMsg::JoinAck { topic: topic() })
    }

    fn not_child() -> Msg {
        PastryMsg::Direct(ScribeMsg::NotChild { topic: topic() })
    }

    #[test]
    fn lone_subscriber_becomes_root() {
        let (mut pastry, mut layer, mut net, mut host) = node(0);
        layer.subscribe(&mut pastry, &mut net, &mut host, topic(), None);
        let st = layer.topic(topic()).unwrap();
        assert!(st.is_root && st.subscribed);
        assert_eq!(host.subscribed, vec![topic()]);
        assert!(net.sent.is_empty());
    }

    #[test]
    fn subscribe_routes_join_toward_topic_key() {
        let (mut pastry, mut layer, mut net, mut host) = node(0);
        // Teach pastry a far-away peer so the topic key routes off-node.
        pastry.insert_peer(&net, peer_at_key(1));
        layer.subscribe(&mut pastry, &mut net, &mut host, topic(), None);
        let (to, msg) = net.sent.pop_front().expect("join sent");
        assert_eq!(to, NodeAddr(1));
        assert!(is_join(&msg));
        // Not yet attached.
        assert!(host.subscribed.is_empty());
    }

    #[test]
    fn subscribing_again_while_detached_resends_the_join() {
        let (mut pastry, mut layer, mut net, mut host) = node(0);
        pastry.insert_peer(&net, peer_at_key(1));
        layer.subscribe(&mut pastry, &mut net, &mut host, topic(), None);
        layer.subscribe(&mut pastry, &mut net, &mut host, topic(), None);
        assert_eq!(net.sent.iter().filter(|(_, m)| is_join(m)).count(), 2);
    }

    #[test]
    fn join_ack_sets_parent_and_notifies() {
        let (mut pastry, mut layer, mut net, mut host) = node(0);
        pastry.insert_peer(&net, peer_at_key(1));
        layer.subscribe(&mut pastry, &mut net, &mut host, topic(), None);
        deliver(&mut pastry, &mut layer, &mut net, &mut host, 1, join_ack());
        assert_eq!(layer.topic(topic()).unwrap().parent, Some(NodeAddr(1)));
        assert_eq!(host.subscribed, vec![topic()]);
    }

    #[test]
    fn stale_join_ack_reparent_sends_leave_to_old_parent() {
        let (mut pastry, mut layer, mut net, mut host) = node(0);
        layer.topics.insert(topic(), child_of(3));
        deliver(&mut pastry, &mut layer, &mut net, &mut host, 5, join_ack());
        assert_eq!(layer.topic(topic()).unwrap().parent, Some(NodeAddr(5)));
        let (to, msg) = net.sent.pop_front().expect("leave to old parent");
        assert_eq!(to, NodeAddr(3));
        assert!(is_leave_of(&msg, 0));
        assert!(net.sent.is_empty());
    }

    #[test]
    fn duplicate_join_ack_from_same_parent_is_quiet() {
        let (mut pastry, mut layer, mut net, mut host) = node(0);
        layer.topics.insert(
            topic(),
            TopicState {
                subscribed: false,
                ..child_of(3)
            },
        );
        deliver(&mut pastry, &mut layer, &mut net, &mut host, 3, join_ack());
        assert_eq!(layer.topic(topic()).unwrap().parent, Some(NodeAddr(3)));
        assert!(net.sent.is_empty());
    }

    /// The Root and Child states are exclusive: an ack that reaches a
    /// node which has meanwhile become the root must not give it a parent.
    #[test]
    fn join_ack_at_a_root_is_refused_with_a_leave() {
        let (mut pastry, mut layer, mut net, mut host) = node(0);
        layer.subscribe(&mut pastry, &mut net, &mut host, topic(), None);
        deliver(&mut pastry, &mut layer, &mut net, &mut host, 5, join_ack());
        let st = layer.topic(topic()).unwrap();
        assert!(st.is_root && st.parent.is_none());
        let (to, msg) = net.sent.pop_front().expect("leave to the acker");
        assert_eq!(to, NodeAddr(5));
        assert!(is_leave_of(&msg, 0));
        assert!(net.sent.is_empty());
    }

    #[test]
    fn join_ack_for_a_tree_this_node_left_is_refused_with_a_leave() {
        let (mut pastry, mut layer, mut net, mut host) = node(0);
        deliver(&mut pastry, &mut layer, &mut net, &mut host, 5, join_ack());
        assert!(layer.topic(topic()).is_none());
        let (to, msg) = net.sent.pop_front().expect("leave to the acker");
        assert_eq!(to, NodeAddr(5));
        assert!(is_leave_of(&msg, 0));
    }

    #[test]
    fn not_child_nack_clears_parent_and_rejoins() {
        let (mut pastry, mut layer, mut net, mut host) = node(0);
        pastry.insert_peer(&net, peer_at_key(9));
        layer.topics.insert(topic(), child_of(3));
        deliver(&mut pastry, &mut layer, &mut net, &mut host, 3, not_child());
        assert_eq!(layer.topic(topic()).unwrap().parent, None);
        let (_, msg) = net.sent.pop_front().expect("rejoin sent");
        assert!(is_join(&msg));
        assert!(
            net.sent.is_empty(),
            "a parent that disowned us needs no Leave"
        );
    }

    #[test]
    fn not_child_from_non_parent_is_ignored() {
        let (mut pastry, mut layer, mut net, mut host) = node(0);
        layer.topics.insert(topic(), child_of(3));
        deliver(&mut pastry, &mut layer, &mut net, &mut host, 5, not_child());
        assert_eq!(layer.topic(topic()).unwrap().parent, Some(NodeAddr(3)));
        assert!(net.sent.is_empty());
    }

    #[test]
    fn not_child_on_bare_state_prunes_without_rejoin() {
        let (mut pastry, mut layer, mut net, mut host) = node(0);
        // Pure forwarder whose only tie to the tree was the (stale) parent.
        layer.topics.insert(
            topic(),
            TopicState {
                subscribed: false,
                ..child_of(3)
            },
        );
        deliver(&mut pastry, &mut layer, &mut net, &mut host, 3, not_child());
        assert!(
            layer.topic(topic()).is_none(),
            "nothing left to participate with"
        );
        assert!(net.sent.is_empty());
    }

    #[test]
    fn unsubscribed_childless_root_prunes_topic_state() {
        let (mut pastry, mut layer, mut net, mut host) = node(0);
        layer.subscribe(&mut pastry, &mut net, &mut host, topic(), None);
        assert!(layer.topic(topic()).unwrap().is_root);
        layer.unsubscribe::<P, _>(&mut pastry, &mut net, topic());
        assert!(
            layer.topic(topic()).is_none(),
            "childless unsubscribed root must not leak topic state"
        );
        assert!(net.sent.is_empty(), "a root has no parent to notify");
    }

    #[test]
    fn root_with_children_survives_unsubscribe() {
        let (mut pastry, mut layer, mut net, mut host) = node(0);
        layer.subscribe(&mut pastry, &mut net, &mut host, topic(), None);
        layer.graft::<P, _>(&mut net, NodeAddr(0), topic(), None, NodeAddr(7));
        net.sent.clear();
        layer.unsubscribe::<P, _>(&mut pastry, &mut net, topic());
        let st = layer
            .topic(topic())
            .expect("still the rendezvous for a child");
        assert!(st.is_root && !st.subscribed);
        assert!(st.children.contains_key(&NodeAddr(7)));
    }

    #[test]
    fn unsubscribe_prunes_and_sends_leave() {
        let (mut pastry, mut layer, mut net, _) = node(0);
        // Simulate an attached non-root member.
        layer.topics.insert(topic(), child_of(3));
        layer.unsubscribe::<P, _>(&mut pastry, &mut net, topic());
        assert!(layer.topic(topic()).is_none());
        let (to, msg) = net.sent.pop_front().unwrap();
        assert_eq!(to, NodeAddr(3));
        assert!(is_leave_of(&msg, 0));
    }

    #[test]
    fn forwarder_with_children_does_not_prune() {
        let (mut pastry, mut layer, mut net, _) = node(0);
        let mut st = child_of(3);
        st.children.insert(NodeAddr(8), Default::default());
        layer.topics.insert(topic(), st);
        layer.unsubscribe::<P, _>(&mut pastry, &mut net, topic());
        assert!(layer.topic(topic()).is_some(), "still a forwarder");
        assert!(net.sent.is_empty());
    }

    #[test]
    fn parent_failure_triggers_rejoin() {
        let (mut pastry, mut layer, mut net, mut host) = node(0);
        pastry.insert_peer(&net, peer_at_key(9));
        layer.topics.insert(topic(), child_of(3));
        layer.handle_failure(&mut pastry, &mut net, &mut host, NodeAddr(3));
        assert_eq!(layer.topic(topic()).unwrap().parent, None);
        // A Leave goes to the presumed-dead parent first (a false-positive
        // declaration must not leave a stale edge behind), then the rejoin.
        let (to, msg) = net.sent.pop_front().expect("leave sent");
        assert_eq!(to, NodeAddr(3));
        assert!(is_leave_of(&msg, 0));
        let (_, msg) = net.sent.pop_front().expect("rejoin sent");
        assert!(is_join(&msg));
    }

    /// A routed `Join` that lands on a node which is still somebody's
    /// child (the old root died and this node is the successor) makes it
    /// the root *and* clears its parent pointer.
    #[test]
    fn join_landing_on_a_child_promotes_it_and_detaches_it() {
        let (mut pastry, mut layer, mut net, mut host) = node(0);
        layer.topics.insert(topic(), child_of(3));
        let join = PastryMsg::Route {
            key: topic().key(),
            payload: ScribeMsg::Join {
                topic: topic(),
                scope: None,
                child: info(1),
            },
            hops: 1,
            scope: None,
        };
        deliver(&mut pastry, &mut layer, &mut net, &mut host, 1, join);
        let st = layer.topic(topic()).unwrap();
        assert!(st.is_root && st.parent.is_none());
        assert!(st.children.contains_key(&NodeAddr(1)));
        let leaves: Vec<NodeAddr> = net
            .sent
            .iter()
            .filter(|(_, m)| is_leave_of(m, 0))
            .map(|(to, _)| *to)
            .collect();
        assert_eq!(leaves, vec![NodeAddr(3)]);
    }

    /// The tick is the only retry: a detached subscriber sends exactly one
    /// `Join` per tick until it is attached, then none.
    #[test]
    fn tick_resends_one_join_per_round_while_detached() {
        let (mut pastry, mut layer, mut net, mut host) = node(0);
        pastry.insert_peer(&net, peer_at_key(1));
        layer.subscribe(&mut pastry, &mut net, &mut host, topic(), None);
        net.sent.clear(); // the first Join is lost in flight
        for _ in 0..3 {
            layer.aggregate_tick(&mut pastry, &mut net, &mut host);
            let joins = net.sent.drain(..).filter(|(_, m)| is_join(m)).count();
            assert_eq!(joins, 1);
        }
        deliver(&mut pastry, &mut layer, &mut net, &mut host, 1, join_ack());
        layer.aggregate_tick(&mut pastry, &mut net, &mut host);
        assert!(!net.sent.iter().any(|(_, m)| is_join(m)));
    }

    /// A detached subscriber that finds itself the rendezvous at tick time
    /// becomes the root through the same transition as everywhere else,
    /// so the host hears about it.
    #[test]
    fn tick_promotion_of_a_detached_subscriber_notifies_the_host() {
        let (mut pastry, mut layer, mut net, mut host) = node(0);
        layer.topics.insert(
            topic(),
            TopicState {
                subscribed: true,
                ..TopicState::default()
            },
        );
        layer.aggregate_tick(&mut pastry, &mut net, &mut host);
        assert!(layer.topic(topic()).unwrap().is_root);
        assert_eq!(host.subscribed, vec![topic()]);
        layer.aggregate_tick(&mut pastry, &mut net, &mut host);
        assert_eq!(host.subscribed, vec![topic()], "notified once");
    }

    /// A fragment root that learns of a node closer to the key steps down
    /// and joins toward it.
    #[test]
    fn tick_demotes_a_root_that_sees_a_next_hop() {
        let (mut pastry, mut layer, mut net, mut host) = node(0);
        layer.subscribe(&mut pastry, &mut net, &mut host, topic(), None);
        assert!(layer.topic(topic()).unwrap().is_root);
        pastry.insert_peer(&net, peer_at_key(1));
        layer.aggregate_tick(&mut pastry, &mut net, &mut host);
        assert!(!layer.topic(topic()).unwrap().is_root);
        assert_eq!(net.sent.iter().filter(|(_, m)| is_join(m)).count(), 1);
    }
}
