//! The [`PastryApp`] glue: which layer method each arriving message
//! runs.

use super::{ReplicaCache, ScribeHost, ScribeLayer};
use crate::types::ScribeMsg;
use pastry::{Net, NodeInfo, PastryApp, PastryMsg, PastryNode};
use simnet::NodeAddr;

/// Glue implementing [`PastryApp`] for a Scribe layer plus its host. Build
/// one per dispatch:
///
/// ```ignore
/// let mut app = ScribeApp { layer: &mut scribe, host: &mut host };
/// pastry.on_message(&mut net, &mut app, from, msg);
/// ```
pub struct ScribeApp<'a, H> {
    /// The node's Scribe state.
    pub layer: &'a mut ScribeLayer,
    /// The node's application.
    pub host: &'a mut H,
}

impl<'a, P, H> PastryApp<ScribeMsg<P>> for ScribeApp<'a, H>
where
    P: Clone,
    H: ScribeHost<P>,
{
    fn deliver<N: Net<ScribeMsg<P>>>(
        &mut self,
        node: &mut PastryNode,
        net: &mut N,
        _key: pastry::NodeId,
        payload: ScribeMsg<P>,
        _hops: u16,
    ) {
        match payload {
            ScribeMsg::Join {
                topic,
                scope,
                child,
            } => {
                // We are the rendezvous for this tree: graft the child, and
                // take the root role if this node does not hold it yet.
                self.layer
                    .graft(net, node.info().addr, topic, scope, child.addr);
                self.layer.reattach(node, net, self.host, topic);
            }
            ScribeMsg::MulticastReq { topic, payload, .. } => {
                self.layer.disseminate(net, self.host, topic, payload);
            }
            ScribeMsg::Anycast {
                topic,
                payload,
                origin,
                ..
            } => {
                // With no tree here the walk reports back unsatisfied.
                self.layer
                    .start_walk(node, net, self.host, topic, payload, origin);
            }
            ScribeMsg::ProbeRoot {
                topic,
                mut payload,
                origin,
                ..
            } => {
                let (agg, exists) = self.layer.probe_answer(topic);
                self.host.on_root_probe(topic, &mut payload);
                net.send(
                    origin,
                    PastryMsg::Direct(ScribeMsg::ProbeReply {
                        topic,
                        payload,
                        agg: agg.map(Box::new),
                        exists,
                    }),
                );
            }
            // Direct-only variants cannot arrive via routing; ignore
            // defensively.
            _ => {}
        }
    }

    fn forward<N: Net<ScribeMsg<P>>>(
        &mut self,
        node: &mut PastryNode,
        net: &mut N,
        _key: pastry::NodeId,
        payload: ScribeMsg<P>,
        next: &NodeInfo,
    ) -> Option<ScribeMsg<P>> {
        let onward = match payload {
            ScribeMsg::Join {
                topic,
                scope,
                child,
            } => {
                // Union-of-paths tree construction: graft the child here.
                // If we are already in the tree the join stops; otherwise we
                // become a forwarder and join on behalf of our new subtree.
                let already = self.layer.is_member(topic);
                self.layer
                    .graft(net, node.info().addr, topic, scope, child.addr);
                if already {
                    None
                } else {
                    Some(ScribeMsg::Join {
                        topic,
                        scope,
                        child: node.info(),
                    })
                }
            }
            ScribeMsg::Anycast {
                topic,
                payload,
                origin,
                ..
            } if self.layer.is_member(topic) => {
                // Local route convergence dropped the walk at a nearby
                // member; take over the DFS here.
                self.layer
                    .start_walk(node, net, self.host, topic, payload, origin);
                None
            }
            other => Some(other),
        };
        if let Some(msg) = &onward {
            self.host.on_route(next.addr, msg);
        }
        onward
    }

    fn receive_direct<N: Net<ScribeMsg<P>>>(
        &mut self,
        node: &mut PastryNode,
        net: &mut N,
        from: NodeAddr,
        payload: ScribeMsg<P>,
    ) {
        let me = node.info().addr;
        match payload {
            ScribeMsg::JoinAck { topic } => {
                self.layer.on_join_ack(net, self.host, me, from, topic);
            }
            ScribeMsg::Leave { topic, child } => {
                self.layer.drop_child(net.now(), me, topic, child);
                self.layer.maybe_prune(net, me, topic);
            }
            ScribeMsg::MulticastData { topic, payload } => {
                self.layer.disseminate(net, self.host, topic, payload);
            }
            ScribeMsg::AnycastStep {
                topic,
                payload,
                origin,
                visited,
                stack,
            } => {
                self.layer
                    .process_walk(node, net, self.host, topic, payload, origin, visited, stack);
            }
            ScribeMsg::AnycastResult {
                topic,
                payload,
                satisfied,
            } => {
                self.host.on_anycast_result(topic, payload, satisfied);
            }
            ScribeMsg::ProbeReply {
                topic,
                payload,
                agg,
                exists,
            } => {
                self.host
                    .on_probe_reply(topic, payload, agg.map(|a| *a), exists);
            }
            ScribeMsg::AggUpdate { topic, value } => {
                self.layer.on_agg_update(net, me, from, topic, value);
            }
            ScribeMsg::NotChild { topic } => {
                self.layer.on_not_child(node, net, self.host, from, topic);
            }
            ScribeMsg::ReplicaSync {
                topic,
                scope,
                children,
                agg,
                subscribers,
            } => {
                let replica = ReplicaCache {
                    root: from,
                    scope,
                    children,
                    agg,
                    subscribers,
                    age: 0,
                };
                self.layer.on_replica_sync(me, topic, replica);
            }
            ScribeMsg::AppDirect(p) => {
                self.host.on_direct(from, p);
            }
            // Routed-only variants cannot arrive directly; ignore.
            _ => {}
        }
    }
}
