//! Traffic over an existing tree: multicast dissemination, the anycast
//! depth-first walk, and root probes.

use super::{route_to_root, ScribeHost, ScribeLayer};
use crate::types::{ScribeMsg, TopicId, Visit};
use pastry::{Net, PastryMsg, PastryNode};
use simnet::{NodeAddr, SiteId};

impl ScribeLayer {
    /// Multicasts `payload` to every subscriber of `topic` (dissemination
    /// from the root down the tree, paper §II.B.3).
    pub fn multicast<P, N, H>(
        &mut self,
        pastry: &mut PastryNode,
        net: &mut N,
        host: &mut H,
        topic: TopicId,
        scope: Option<SiteId>,
        payload: P,
    ) where
        P: Clone,
        N: Net<ScribeMsg<P>>,
        H: ScribeHost<P>,
    {
        let req = ScribeMsg::MulticastReq {
            topic,
            scope,
            payload,
        };
        if let Some(ScribeMsg::MulticastReq { payload, .. }) =
            route_to_root(pastry, net, host, topic, scope, req)
        {
            self.disseminate(net, host, topic, payload);
        }
    }

    pub(super) fn disseminate<P, N, H>(
        &mut self,
        net: &mut N,
        host: &mut H,
        topic: TopicId,
        payload: P,
    ) where
        P: Clone,
        N: Net<ScribeMsg<P>>,
        H: ScribeHost<P>,
    {
        let Some(st) = self.topics.get(&topic) else {
            return;
        };
        for child in &st.children {
            net.send(
                *child,
                PastryMsg::Direct(ScribeMsg::MulticastData {
                    topic,
                    payload: payload.clone(),
                }),
            );
        }
        if st.subscribed {
            host.on_multicast(topic, &payload);
        }
    }

    /// Anycasts `payload` into `topic`: the walk enters at a tree member
    /// near this node (Pastry's local route convergence) and performs a
    /// distributed depth-first search until a visit accepts or the tree is
    /// exhausted; the result returns to this node via
    /// [`ScribeHost::on_anycast_result`].
    pub fn anycast<P, N, H>(
        &mut self,
        pastry: &mut PastryNode,
        net: &mut N,
        host: &mut H,
        topic: TopicId,
        scope: Option<SiteId>,
        payload: P,
    ) where
        P: Clone,
        N: Net<ScribeMsg<P>>,
        H: ScribeHost<P>,
    {
        let origin = pastry.info().addr;
        if self.is_member(topic) {
            self.start_walk(pastry, net, host, topic, payload, origin);
            return;
        }
        let req = ScribeMsg::Anycast {
            topic,
            scope,
            payload,
            origin,
        };
        if let Some(ScribeMsg::Anycast { payload, .. }) =
            route_to_root(pastry, net, host, topic, scope, req)
        {
            // We are the rendezvous node but the tree does not exist.
            host.on_anycast_result(topic, payload, false);
        }
    }

    /// Asks the root of `topic` for its aggregate (tree size in the query
    /// protocol); the reply arrives via [`ScribeHost::on_probe_reply`].
    pub fn probe_root<P, N, H>(
        &mut self,
        pastry: &mut PastryNode,
        net: &mut N,
        host: &mut H,
        topic: TopicId,
        scope: Option<SiteId>,
        payload: P,
    ) where
        N: Net<ScribeMsg<P>>,
        H: ScribeHost<P>,
    {
        let req = ScribeMsg::ProbeRoot {
            topic,
            scope,
            payload,
            origin: pastry.info().addr,
        };
        if let Some(ScribeMsg::ProbeRoot { mut payload, .. }) =
            route_to_root(pastry, net, host, topic, scope, req)
        {
            let (agg, exists) = self.probe_answer(topic);
            host.on_root_probe(topic, &mut payload);
            host.on_probe_reply(topic, payload, agg, exists);
        }
    }

    /// Starts the distributed DFS at this node.
    pub(super) fn start_walk<P, N, H>(
        &mut self,
        pastry: &mut PastryNode,
        net: &mut N,
        host: &mut H,
        topic: TopicId,
        payload: P,
        origin: NodeAddr,
    ) where
        N: Net<ScribeMsg<P>>,
        H: ScribeHost<P>,
    {
        self.process_walk(
            pastry,
            net,
            host,
            topic,
            payload,
            origin,
            Vec::new(),
            Vec::new(),
        );
    }

    /// One step of the distributed DFS: visit self (if a member and
    /// unvisited), extend the frontier with tree neighbours, and either
    /// hand the walk to the next node or return the result to the origin.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn process_walk<P, N, H>(
        &mut self,
        pastry: &mut PastryNode,
        net: &mut N,
        host: &mut H,
        topic: TopicId,
        mut payload: P,
        origin: NodeAddr,
        mut visited: Vec<NodeAddr>,
        mut stack: Vec<NodeAddr>,
    ) where
        N: Net<ScribeMsg<P>>,
        H: ScribeHost<P>,
    {
        let me = pastry.info().addr;
        if let Some(st) = self.topics.get(&topic) {
            if st.is_member() && !visited.contains(&me) {
                visited.push(me);
                if st.subscribed && host.on_anycast_visit(topic, &mut payload) == Visit::Stop {
                    net.send(
                        origin,
                        PastryMsg::Direct(ScribeMsg::AnycastResult {
                            topic,
                            payload,
                            satisfied: true,
                        }),
                    );
                    return;
                }
                // Extend the frontier with unexplored tree neighbours.
                for n in st.children.iter().copied().chain(st.parent) {
                    if !visited.contains(&n) && !stack.contains(&n) {
                        stack.push(n);
                    }
                }
            }
        }
        // The stack was built from other members' views, so it can name a
        // peer this node has already buried: skip it like a visited one,
        // or the walk is handed to a corpse and lost.
        while let Some(next) = stack.pop() {
            if visited.contains(&next) || pastry.is_buried(next) {
                continue;
            }
            net.send(
                next,
                PastryMsg::Direct(ScribeMsg::AnycastStep {
                    topic,
                    payload,
                    origin,
                    visited,
                    stack,
                }),
            );
            return;
        }
        net.send(
            origin,
            PastryMsg::Direct(ScribeMsg::AnycastResult {
                topic,
                payload,
                satisfied: false,
            }),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::*;
    use super::*;

    #[test]
    fn root_multicast_reaches_children_and_self() {
        let (mut pastry, mut layer, mut net, mut host) = node(0);
        layer.subscribe(&mut pastry, &mut net, &mut host, topic(), None);
        // Graft two children manually.
        for c in [7u32, 9] {
            layer.graft::<P, _>(&mut net, NodeAddr(0), topic(), None, NodeAddr(c));
        }
        net.sent.clear(); // drop the acks
        layer.multicast(&mut pastry, &mut net, &mut host, topic(), None, P(5));
        let dests: Vec<NodeAddr> = net.sent.iter().map(|(to, _)| *to).collect();
        assert_eq!(dests, vec![NodeAddr(7), NodeAddr(9)]);
        assert_eq!(host.multicasts, vec![(topic(), P(5))]);
    }

    /// Multicasting into a tree that does not exist at its rendezvous node
    /// is a harmless no-op (the root-side disseminate finds no state).
    #[test]
    fn multicast_into_missing_tree_is_a_noop() {
        // This lone node is the rendezvous for every key.
        let (mut pastry, mut layer, mut net, mut host) = node(4);
        layer.multicast(&mut pastry, &mut net, &mut host, topic(), None, P(0));
        assert!(net.sent.is_empty());
        assert!(host.multicasts.is_empty(), "no members exist");
        assert!(layer.topic(topic()).is_none());
    }

    #[test]
    fn anycast_on_lone_root_visits_self_then_satisfies() {
        let (mut pastry, mut layer, mut net, mut host) = node(0);
        host.stop_after = 1;
        layer.subscribe(&mut pastry, &mut net, &mut host, topic(), None);
        layer.anycast(&mut pastry, &mut net, &mut host, topic(), None, P(1));
        // Result goes to origin (self) as a direct message.
        let (to, msg) = net.sent.pop_front().unwrap();
        assert_eq!(to, NodeAddr(0));
        assert!(matches!(
            msg,
            PastryMsg::Direct(ScribeMsg::AnycastResult {
                satisfied: true,
                ..
            })
        ));
        assert_eq!(host.visits, 1);
    }

    /// A walk whose carried stack names a peer this node has buried skips
    /// it, as it skips a visited one, and goes on to the live entry below.
    #[test]
    fn walk_step_skips_a_buried_stack_entry() {
        let (mut pastry, mut layer, mut net, mut host) = node(0);
        let (live, buried) = (NodeAddr(3), NodeAddr(4));
        pastry.insert_peer(&net, info(buried.0));
        pastry.handle_failure(&mut net, buried);
        net.sent.clear();
        let step = PastryMsg::Direct(ScribeMsg::AnycastStep {
            topic: topic(),
            payload: P(1),
            origin: NodeAddr(9),
            visited: vec![NodeAddr(9)],
            stack: vec![live, buried],
        });
        deliver(&mut pastry, &mut layer, &mut net, &mut host, 9, step);
        let (to, msg) = net.sent.pop_front().expect("the walk goes on");
        assert_eq!(to, live);
        let PastryMsg::Direct(ScribeMsg::AnycastStep { stack, .. }) = msg else {
            panic!("expected an AnycastStep, got {msg:?}");
        };
        assert!(stack.is_empty(), "the corpse is dropped from the stack");
        assert!(net.sent.is_empty());
    }

    #[test]
    fn anycast_exhaustion_reports_unsatisfied() {
        let (mut pastry, mut layer, mut net, mut host) = node(0);
        host.stop_after = u32::MAX;
        layer.subscribe(&mut pastry, &mut net, &mut host, topic(), None);
        layer.anycast(&mut pastry, &mut net, &mut host, topic(), None, P(1));
        let (_, msg) = net.sent.pop_front().unwrap();
        assert!(matches!(
            msg,
            PastryMsg::Direct(ScribeMsg::AnycastResult {
                satisfied: false,
                ..
            })
        ));
    }
}
