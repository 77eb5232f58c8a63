//! The periodic `aggregate` roll-up (RBAY's extension to Scribe): one
//! tick per maintenance round pushes every subtree's merged value one
//! level rootward, expires silent children, and runs the attachment and
//! replica upkeep that shares its cadence.

use super::{Child, ScribeHost, ScribeLayer};
use crate::types::{AggValue, ScribeMsg, TopicId};
use pastry::{Net, PastryMsg, PastryNode};
use simnet::obs::ObsEvent;
use simnet::{NodeAddr, SimTime};

/// Ticks a child may stay silent before its edge and cached aggregate are
/// expired. Attached children push every tick, so silence this long means
/// the child crashed or re-parented elsewhere while its `Leave` was lost.
pub(super) const STALE_AGG_ROUNDS: u64 = 4;

impl ScribeLayer {
    /// Sets this node's contribution to the topic's aggregate (e.g.
    /// `Count(1)` for tree size).
    pub fn set_local_value(&mut self, topic: TopicId, value: AggValue) {
        if let Some(st) = self.topics.get_mut(&topic) {
            st.local_value = Some(value);
        }
    }

    /// The root's current view of the tree aggregate (valid at the root).
    /// A freshly promoted root answers from its inherited warm aggregate
    /// (the pre-crash whole-tree view) until its own child reports
    /// converge.
    pub fn root_aggregate(&self, topic: TopicId) -> Option<AggValue> {
        self.topics.get(&topic).and_then(|st| {
            st.warm_agg
                .as_ref()
                .map(|(warm, _)| warm.clone())
                .or_else(|| st.merged_agg())
        })
    }

    /// Pushes merged subtree aggregates one level up every tree this node
    /// participates in (the paper's periodic `aggregate` primitive). Call
    /// from a periodic timer; after `O(depth)` ticks the root's aggregate
    /// is exact. The tick is also the one place a detached member's `Join`
    /// is re-sent and a stale root steps down.
    pub fn aggregate_tick<P, N, H>(&mut self, pastry: &mut PastryNode, net: &mut N, host: &mut H)
    where
        N: Net<ScribeMsg<P>>,
        H: ScribeHost<P>,
    {
        let me = pastry.info().addr;
        let topics: Vec<TopicId> = self.topics.keys().copied().collect();
        for topic in topics {
            self.age_topic(net.now(), me, topic);
            // A forwarder whose subtree is gone leaves the tree. (The
            // rendezvous keeps even an empty root state: children that
            // re-join land here.)
            if !self.topics[&topic].is_root {
                self.maybe_prune(net, me, topic);
            }
            let Some(st) = self.topics.get(&topic) else {
                continue;
            };
            let was_root = st.is_root;
            // A child has its place (and seeded bug 4 never doubts a root).
            let settled = if was_root {
                crate::seeded_bug_active(4)
            } else {
                st.parent.is_some()
            };
            if settled {
                continue;
            }
            // The same question settles the two cases left.
            // * Root: in a healed overlay exactly one node has no next hop
            //   toward the key, so a root that *does* see one is a fragment
            //   left over from a false-positive partition. It steps down
            //   and joins toward the true root so the fragments merge back.
            // * Detached member (subscriber, or forwarder with a live
            //   subtree): its `Join` — or the `JoinAck` — may have been lost
            //   in flight. This is the one retry there is; duplicate grafts
            //   are idempotent.
            self.reattach(pastry, net, host, topic);
            if !self.topics[&topic].is_root {
                let kind = if was_root {
                    "root_demote"
                } else {
                    "rejoin_retry"
                };
                self.obs.count(kind);
            }
        }
        for (topic, st) in &self.topics {
            let (Some(parent), Some(value)) = (st.parent, st.merged_agg()) else {
                continue;
            };
            self.obs.record_with(|| ObsEvent::AggSend {
                at: net.now(),
                from: me,
                to: parent,
                topic: topic.key().as_u128(),
            });
            net.send(
                parent,
                PastryMsg::Direct(ScribeMsg::AggUpdate {
                    topic: *topic,
                    value,
                }),
            );
        }
        self.age_replicas();
        self.push_replicas(pastry, net);
    }

    /// Advances one topic's tick counter, lets an inherited warm
    /// aggregate decay, and expires children silent past the staleness
    /// bound: their cached report would otherwise be merged rootward
    /// forever even though the child crashed or moved to another parent
    /// (its Leave lost in flight). A live expired child is NACKed into a
    /// clean re-join by its next push.
    fn age_topic(&mut self, now: SimTime, me: NodeAddr, topic: TopicId) {
        let st = self.topics.get_mut(&topic).expect("listed topic exists");
        st.agg_round += 1;
        let round = st.agg_round;
        // Once a child reports (the live view is converging) or the
        // staleness bound passes, the root answers from its own subtree
        // again.
        if let Some((_, since)) = st.warm_agg {
            if st.children.values().any(|c| c.agg.is_some())
                || round.saturating_sub(since) > STALE_AGG_ROUNDS
            {
                st.warm_agg = None;
            }
        }
        let stale: Vec<NodeAddr> = st
            .children
            .iter()
            .filter(|(_, c)| round.saturating_sub(c.seen) > STALE_AGG_ROUNDS)
            .map(|(addr, _)| *addr)
            .collect();
        for c in stale {
            self.drop_child(now, me, topic, c);
            self.obs.count("stale_child_expire");
        }
    }

    /// An `AggUpdate` arrived: cache the child's report, or NACK a sender
    /// this node does not list as a child.
    pub(super) fn on_agg_update<P, N>(
        &mut self,
        net: &mut N,
        me: NodeAddr,
        from: NodeAddr,
        topic: TopicId,
        value: AggValue,
    ) where
        N: Net<ScribeMsg<P>>,
    {
        match self.topics.get_mut(&topic) {
            Some(st) if st.children.contains_key(&from) => {
                let seen = st.agg_round;
                let agg = Some(value);
                st.children.insert(from, Child { seen, agg });
                self.obs.count("agg_update_recv");
            }
            _ => {
                // The sender believes we are its parent but we do not
                // list it as a child (typically after a false-positive
                // failure declaration dropped it). NACK so the orphan
                // clears its stale parent pointer and re-joins instead
                // of silently falling out of the aggregate forever.
                self.obs.record_with(|| ObsEvent::NotChild {
                    at: net.now(),
                    node: me,
                    orphan: from,
                    topic: topic.key().as_u128(),
                });
                net.send(from, PastryMsg::Direct(ScribeMsg::NotChild { topic }));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::*;
    use super::super::TopicState;
    use super::*;
    use simnet::obs::Recorder;

    fn agg_update(n: u64) -> Msg {
        PastryMsg::Direct(ScribeMsg::AggUpdate {
            topic: topic(),
            value: AggValue::Count(n),
        })
    }

    #[test]
    fn aggregation_merges_children_and_local() {
        let (mut pastry, mut layer, mut net, mut host) = node(0);
        layer.subscribe(&mut pastry, &mut net, &mut host, topic(), None);
        layer.set_local_value(topic(), AggValue::Count(1));
        // Fake child reports.
        let st = layer.topics.get_mut(&topic()).unwrap();
        st.children.insert(NodeAddr(1), Child::default());
        st.children.insert(NodeAddr(2), Child::default());
        for (c, n) in [(1u32, 4u64), (2, 5)] {
            deliver(
                &mut pastry,
                &mut layer,
                &mut net,
                &mut host,
                c,
                agg_update(n),
            );
        }
        assert_eq!(layer.root_aggregate(topic()).unwrap().as_count(), Some(10));
    }

    #[test]
    fn agg_update_from_non_child_is_ignored() {
        let (mut pastry, mut layer, mut net, mut host) = node(0);
        layer.subscribe(&mut pastry, &mut net, &mut host, topic(), None);
        layer.set_local_value(topic(), AggValue::Count(1));
        deliver(
            &mut pastry,
            &mut layer,
            &mut net,
            &mut host,
            42,
            agg_update(99),
        );
        assert_eq!(layer.root_aggregate(topic()).unwrap().as_count(), Some(1));
        // The stranger gets a NotChild NACK so it can clear its stale
        // parent pointer and re-join.
        let (to, msg) = net.sent.pop_front().expect("NACK sent");
        assert_eq!(to, NodeAddr(42));
        assert!(matches!(msg, PastryMsg::Direct(ScribeMsg::NotChild { .. })));
    }

    /// A child that said goodbye (or was declared dead) is forgotten at
    /// once; the stale sweep must not expire it a second time later.
    #[test]
    fn departed_child_is_not_expired_again_by_the_stale_sweep() {
        for by_failure in [false, true] {
            let (mut pastry, mut layer, mut net, mut host) = node(0);
            let obs = Recorder::enabled(64);
            layer.set_recorder(obs.clone());
            layer.subscribe(&mut pastry, &mut net, &mut host, topic(), None);
            layer.graft::<P, _>(&mut net, NodeAddr(0), topic(), None, NodeAddr(7));
            if by_failure {
                layer.handle_failure(&mut pastry, &mut net, &mut host, NodeAddr(7));
            } else {
                let leave = PastryMsg::Direct(ScribeMsg::Leave {
                    topic: topic(),
                    child: NodeAddr(7),
                });
                deliver(&mut pastry, &mut layer, &mut net, &mut host, 7, leave);
            }
            for _ in 0..STALE_AGG_ROUNDS + 2 {
                layer.aggregate_tick(&mut pastry, &mut net, &mut host);
            }
            assert_eq!(obs.snapshot().count("stale_child_expire"), 0);
            let leaves = obs
                .events()
                .iter()
                .filter(|e| matches!(e, ObsEvent::TreeLeave { .. }))
                .count();
            assert_eq!(leaves, 1, "the child left exactly once");
            assert!(layer.topic(topic()).unwrap().children.is_empty());
        }
    }

    #[test]
    fn forced_reparent_keeps_root_aggregate_exact() {
        let t = topic();
        let n = 4usize;
        let mut nodes: Vec<(PastryNode, ScribeLayer, RecHost)> = (0..n as u32)
            .map(|i| (mk_pastry(i), ScribeLayer::new(), RecHost::default()))
            .collect();
        let mut nets: Vec<RecNet> = (0..n).map(|_| RecNet::default()).collect();

        // Hand-built tree: root 0 (subscribed) with children {1, 2};
        // node 1 (subscribed) owns child 3; node 2 is a pure forwarder;
        // node 3 (subscribed) hangs under 1.
        let mut root = TopicState {
            is_root: true,
            subscribed: true,
            local_value: Some(AggValue::Count(1)),
            ..TopicState::default()
        };
        root.children.insert(NodeAddr(1), Child::default());
        root.children.insert(NodeAddr(2), Child::default());
        nodes[0].1.topics.insert(t, root);
        let mut mid = TopicState {
            parent: Some(NodeAddr(0)),
            subscribed: true,
            local_value: Some(AggValue::Count(1)),
            ..TopicState::default()
        };
        mid.children.insert(
            NodeAddr(3),
            Child {
                seen: 0,
                agg: Some(AggValue::Count(1)),
            },
        );
        nodes[1].1.topics.insert(t, mid);
        nodes[2].1.topics.insert(
            t,
            TopicState {
                parent: Some(NodeAddr(0)),
                ..TopicState::default()
            },
        );
        nodes[3].1.topics.insert(
            t,
            TopicState {
                parent: Some(NodeAddr(1)),
                subscribed: true,
                local_value: Some(AggValue::Count(1)),
                ..TopicState::default()
            },
        );

        // A transient repair made node 2 graft node 3 and send a duplicate
        // JoinAck: node 3 must detach from its old parent 1 or it sits in
        // two children sets and the root aggregate double-counts it.
        nodes[2]
            .1
            .topics
            .get_mut(&t)
            .unwrap()
            .children
            .insert(NodeAddr(3), Child::default());
        {
            let (pastry, layer, host) = &mut nodes[3];
            let ack = PastryMsg::Direct(ScribeMsg::JoinAck { topic: t });
            deliver(pastry, layer, &mut nets[3], host, 2, ack);
        }
        pump(&mut nodes, &mut nets);

        // Two aggregate rounds propagate the leaf values to the root.
        for _ in 0..2 {
            for (j, net) in nets.iter_mut().enumerate() {
                let (pastry, layer, host) = &mut nodes[j];
                layer.aggregate_tick(pastry, net, host);
            }
            pump(&mut nodes, &mut nets);
        }

        // Exactly three subscribers (0, 1, 3): the root aggregate must be
        // exact, not 4 (double-counting node 3 via both parents).
        assert_eq!(nodes[0].1.root_aggregate(t).unwrap().as_count(), Some(3));
    }
}
