//! k-replicated rendezvous state: every root mirrors its child set,
//! aggregate, and subscriber summary to the k leaf-set members nearest
//! the topic key. The successor rendezvous is by definition the
//! next-closest id, so when the root dies the node the repair converges
//! on holds a warm replica and promotes from it.

use super::ScribeLayer;
use crate::types::{AggValue, ScribeMsg, TopicId};
use pastry::{Net, NodeInfo, PastryMsg, PastryNode};
use simnet::{NodeAddr, SiteId};

/// Leaf-set members (nearest the topic key) the root mirrors its
/// rendezvous state to every aggregate tick. The successor rendezvous is
/// by definition the next-closest id to the key, so it is (almost always)
/// one of the k replicas and promotes warm.
pub const REPLICA_K: usize = 3;

/// Ticks a replica may go unrefreshed before it is dropped. The root
/// pushes every tick, so a replica this stale means the root died (and
/// someone else promoted) or this node fell out of the root's leaf set.
pub const REPLICA_TTL_ROUNDS: u64 = 8;

/// A warm mirror of a remote root's rendezvous state, held at one of the
/// k leaf-set members nearest the topic key (pushed via
/// [`ScribeMsg::ReplicaSync`], consumed by root promotion).
#[derive(Debug, Clone)]
pub struct ReplicaCache {
    /// The root that pushed this replica.
    pub root: NodeAddr,
    /// Scope of the mirrored tree.
    pub scope: Option<SiteId>,
    /// The root's children at push time.
    pub children: Vec<NodeAddr>,
    /// The root's merged aggregate at push time.
    pub agg: Option<AggValue>,
    /// Subscriber summary (the aggregate's count reading).
    pub subscribers: u64,
    /// Ticks since the last refresh; expired past
    /// [`REPLICA_TTL_ROUNDS`].
    pub age: u64,
}

impl ScribeLayer {
    /// Iterates over the warm replicas of remote roots held at this node.
    pub fn replicas(&self) -> impl Iterator<Item = (&TopicId, &ReplicaCache)> {
        self.replicas.iter()
    }

    /// The new root's share of a promotion: consumes the warm replica of
    /// `topic`, if one is cached — adopts the mirrored child set,
    /// re-points every child here with an immediate `JoinAck` (the
    /// child's handler detaches it from the dead root), and installs the
    /// mirrored aggregate as the probe answer until the children
    /// re-report. A node with no cache rebuilds cold: its children find
    /// it by re-joining.
    pub(super) fn promote_from_replica<P, N>(&mut self, me: NodeInfo, net: &mut N, topic: TopicId)
    where
        N: Net<ScribeMsg<P>>,
    {
        let Some(rep) = self.replicas.remove(&topic) else {
            return;
        };
        let scope = self.topics.get(&topic).and_then(|st| st.scope);
        let scope = scope.or(rep.scope);
        for c in rep.children {
            if c != me.addr && c != rep.root {
                self.graft(net, me.addr, topic, scope, c);
            }
        }
        let st = self.topics.entry(topic).or_default();
        st.scope = scope;
        st.warm_agg = rep.agg.map(|agg| (agg, st.agg_round));
        self.obs.count("replica_promote");
    }

    /// What a probe reaching the rendezvous is told: the root's
    /// aggregate, or — when the root's state has not re-formed here yet
    /// (root dead or mid-repair) — the mirrored one from the warm
    /// replica, in which case the tree still counts as existing.
    pub(super) fn probe_answer(&self, topic: TopicId) -> (Option<AggValue>, bool) {
        let replica = self.replicas.get(&topic);
        let exists = self.is_member(topic) || replica.is_some();
        let agg = self
            .root_aggregate(topic)
            .or_else(|| replica.and_then(|r| r.agg.clone()));
        (agg, exists)
    }

    /// Replica aging: a mirror unrefreshed past its TTL means the root
    /// died (and a fresher copy was consumed elsewhere) or this node left
    /// the root's neighbourhood; drop it rather than promote from an
    /// arbitrarily stale view.
    pub(super) fn age_replicas(&mut self) {
        let before = self.replicas.len();
        self.replicas.retain(|_, rep| {
            rep.age += 1;
            rep.age <= REPLICA_TTL_ROUNDS
        });
        for _ in self.replicas.len()..before {
            self.obs.count("replica_expire");
        }
    }

    /// Mirrors every tree this node roots to the [`REPLICA_K`] leaf-set
    /// members nearest the topic key.
    pub(super) fn push_replicas<P, N>(&self, pastry: &PastryNode, net: &mut N)
    where
        N: Net<ScribeMsg<P>>,
    {
        let me = pastry.info();
        for (topic, st) in &self.topics {
            if !st.is_root {
                continue;
            }
            let agg = st.merged_agg();
            let subscribers = agg
                .as_ref()
                .and_then(|a| a.as_count())
                .unwrap_or(u64::from(st.subscribed));
            let leaves = if st.scope == Some(me.site) {
                pastry.site_leaf_set()
            } else {
                pastry.leaf_set()
            };
            let mut targets: Vec<NodeInfo> = leaves
                .members()
                .filter(|i| i.addr != me.addr && st.scope.is_none_or(|site| i.site == site))
                .copied()
                .collect();
            targets.sort_by(|a, b| {
                a.id.ring_distance(topic.key())
                    .cmp(&b.id.ring_distance(topic.key()))
                    .then(a.id.cmp(&b.id))
            });
            targets.truncate(REPLICA_K);
            let children: Vec<NodeAddr> = st.children.keys().copied().collect();
            for target in targets {
                self.obs.count("replica_sync_send");
                net.send(
                    target.addr,
                    PastryMsg::Direct(ScribeMsg::ReplicaSync {
                        topic: *topic,
                        scope: st.scope,
                        children: children.clone(),
                        agg: agg.clone(),
                        subscribers,
                    }),
                );
            }
        }
    }

    /// A `ReplicaSync` arrived from the root `from`: cache its state.
    pub(super) fn on_replica_sync(&mut self, me: NodeAddr, topic: TopicId, replica: ReplicaCache) {
        // A node that is itself the root must not cache a stale
        // mirror of its own tree (the push raced a promotion).
        if replica.root == me || self.topics.get(&topic).is_some_and(|st| st.is_root) {
            return;
        }
        self.replicas.insert(topic, replica);
        self.obs.count("replica_sync_recv");
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::*;
    use super::*;

    /// Delivers a `ReplicaSync` from `root` to the node.
    fn deliver_replica_sync(
        (pastry, layer, net, host): &mut (PastryNode, ScribeLayer, RecNet, RecHost),
        root: u32,
        children: &[u32],
        count: u64,
    ) {
        let sync = PastryMsg::Direct(ScribeMsg::ReplicaSync {
            topic: topic(),
            scope: None,
            children: children.iter().map(|c| NodeAddr(*c)).collect(),
            agg: Some(AggValue::Count(count)),
            subscribers: count,
        });
        deliver(pastry, layer, net, host, root, sync);
    }

    #[test]
    fn root_crash_promotes_replica_with_warm_state() {
        let mut n = node(0);
        deliver_replica_sync(&mut n, 9, &[1, 2], 3);
        let (mut pastry, mut layer, mut net, mut host) = n;
        let rep = layer.replicas.get(&topic()).expect("replica cached");
        assert_eq!(rep.root, NodeAddr(9));
        // The root dies; this node (no peers, so it is the rendezvous for
        // every key) must promote from the warm mirror within the same
        // failure-handling step.
        layer.handle_failure(&mut pastry, &mut net, &mut host, NodeAddr(9));
        let st = layer.topic(topic()).expect("promoted state");
        assert!(st.is_root, "successor must become root");
        assert_eq!(
            st.children.keys().copied().collect::<Vec<_>>(),
            vec![NodeAddr(1), NodeAddr(2)],
            "mirrored child set adopted"
        );
        assert!(
            !layer.replicas.contains_key(&topic()),
            "replica consumed by promotion"
        );
        // The inherited aggregate answers probes while the live roll-up
        // converges.
        assert_eq!(
            layer.root_aggregate(topic()).and_then(|a| a.as_count()),
            Some(3),
            "warm aggregate served"
        );
        // Both adopted children were re-acked so their parent pointers
        // flip to the new root.
        let acked: Vec<NodeAddr> = net
            .sent
            .iter()
            .filter_map(|(to, m)| {
                matches!(m, PastryMsg::Direct(ScribeMsg::JoinAck { .. })).then_some(*to)
            })
            .collect();
        assert_eq!(acked, vec![NodeAddr(1), NodeAddr(2)]);
    }

    #[test]
    fn expired_replica_falls_back_to_cold_rebuild() {
        let mut n = node(0);
        deliver_replica_sync(&mut n, 9, &[1], 2);
        let (mut pastry, mut layer, mut net, mut host) = n;
        // k failures in a row: the root never refreshes the mirror, so it
        // ages past its TTL and is dropped rather than promoted stale.
        for _ in 0..=REPLICA_TTL_ROUNDS {
            layer.aggregate_tick(&mut pastry, &mut net, &mut host);
        }
        assert!(
            !layer.replicas.contains_key(&topic()),
            "stale replica expired"
        );
        // A late Join still rebuilds the tree from scratch at the
        // rendezvous — cold, with no inherited aggregate.
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
        let st = layer.topic(topic()).expect("rebuilt state");
        assert!(st.is_root);
        assert!(st.children.contains_key(&NodeAddr(1)));
        assert!(st.warm_agg.is_none(), "cold rebuild has no warm aggregate");
    }

    #[test]
    fn replica_sync_is_refused_by_a_current_root() {
        let mut n = node(0);
        {
            let (pastry, layer, net, host) = &mut n;
            layer.subscribe(pastry, net, host, topic(), None);
            assert!(layer.topic(topic()).unwrap().is_root);
        }
        deliver_replica_sync(&mut n, 9, &[1], 1);
        assert!(
            !n.1.replicas.contains_key(&topic()),
            "a root must not mirror a stale view of its own tree"
        );
    }

    #[test]
    fn probe_at_unpromoted_replica_holder_answers_from_mirror() {
        let mut n = node(0);
        deliver_replica_sync(&mut n, 9, &[1, 2], 3);
        let (mut pastry, mut layer, mut net, mut host) = n;
        // A tree-size probe routed here mid-repair (the old root is dead,
        // this node has not promoted yet) must still report the tree as
        // existing, with the mirrored aggregate.
        let probe = PastryMsg::Route {
            key: topic().key(),
            payload: ScribeMsg::ProbeRoot {
                topic: topic(),
                scope: None,
                payload: P(0),
                origin: NodeAddr(5),
            },
            hops: 1,
            scope: None,
        };
        deliver(&mut pastry, &mut layer, &mut net, &mut host, 5, probe);
        let reply = net
            .sent
            .iter()
            .find_map(|(to, m)| match m {
                PastryMsg::Direct(ScribeMsg::ProbeReply { agg, exists, .. }) => {
                    Some((*to, agg.clone(), *exists))
                }
                _ => None,
            })
            .expect("probe reply sent");
        assert_eq!(reply.0, NodeAddr(5));
        assert!(reply.2, "tree exists while mid-repair");
        assert_eq!(reply.1.and_then(|a| a.as_count()), Some(3));
    }
}
