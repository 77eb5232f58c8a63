//! Fixtures shared by the layer's unit tests: a recording network and
//! host, hand-built Pastry nodes, and a message pump.

use super::*;
use pastry::{NodeId, NodeInfo};
use simnet::{SimDuration, SimTime, TimerToken, Transport};
use std::collections::VecDeque;

#[derive(Debug, Clone, PartialEq)]
pub(super) struct P(pub u32);

pub(super) type Msg = PastryMsg<ScribeMsg<P>>;

#[derive(Default)]
pub(super) struct RecNet {
    pub sent: VecDeque<(NodeAddr, Msg)>,
}
impl Transport<Msg> for RecNet {
    fn send(&mut self, to: NodeAddr, msg: Msg) {
        self.sent.push_back((to, msg));
    }
    fn now(&self) -> SimTime {
        SimTime::ZERO
    }
    fn set_timer(&mut self, _: SimDuration, _: TimerToken) {}
}

#[derive(Default)]
pub(super) struct RecHost {
    pub multicasts: Vec<(TopicId, P)>,
    pub visits: u32,
    pub stop_after: u32,
    pub results: Vec<(P, bool)>,
    pub subscribed: Vec<TopicId>,
}
impl ScribeHost<P> for RecHost {
    fn on_multicast(&mut self, topic: TopicId, payload: &P) {
        self.multicasts.push((topic, payload.clone()));
    }
    fn on_anycast_visit(&mut self, _topic: TopicId, _payload: &mut P) -> Visit {
        self.visits += 1;
        if self.visits >= self.stop_after {
            Visit::Stop
        } else {
            Visit::Continue
        }
    }
    fn on_anycast_result(&mut self, _topic: TopicId, payload: P, satisfied: bool) {
        self.results.push((payload, satisfied));
    }
    fn on_probe_reply(&mut self, _t: TopicId, _p: P, _a: Option<AggValue>, _e: bool) {}
    fn on_direct(&mut self, _from: NodeAddr, _payload: P) {}
    fn on_subscribed(&mut self, topic: TopicId) {
        self.subscribed.push(topic);
    }
}

/// The topic every unit test uses.
pub(super) fn topic() -> TopicId {
    TopicId::new("GPU", "test")
}

pub(super) fn info(addr: u32) -> NodeInfo {
    NodeInfo {
        id: NodeId::hash_of(format!("n{addr}").as_bytes()),
        addr: NodeAddr(addr),
        site: SiteId(0),
    }
}

/// A Pastry node with empty routing state: the rendezvous for every key
/// until it is taught a peer.
pub(super) fn mk_pastry(addr: u32) -> PastryNode {
    PastryNode::new(info(addr))
}

/// A peer whose id sits right next to the test topic's key, so that a
/// node that knows it routes the topic off-node.
pub(super) fn peer_at_key(addr: u32) -> NodeInfo {
    NodeInfo {
        id: NodeId(topic().key().as_u128().wrapping_add(1)),
        ..info(addr)
    }
}

/// A lone node with its layer, network and host.
pub(super) fn node(addr: u32) -> (PastryNode, ScribeLayer, RecNet, RecHost) {
    (
        mk_pastry(addr),
        ScribeLayer::new(),
        RecNet::default(),
        RecHost::default(),
    )
}

/// Hands `msg` to the node as if it arrived from `from`.
pub(super) fn deliver(
    pastry: &mut PastryNode,
    layer: &mut ScribeLayer,
    net: &mut RecNet,
    host: &mut RecHost,
    from: u32,
    msg: Msg,
) {
    let mut app = ScribeApp { layer, host };
    pastry.on_message(net, &mut app, NodeAddr(from), msg);
}

/// Delivers every queued message between a hand-built set of nodes
/// until the network drains.
pub(super) fn pump(nodes: &mut [(PastryNode, ScribeLayer, RecHost)], nets: &mut [RecNet]) {
    loop {
        let mut moved = false;
        for j in 0..nets.len() {
            let msgs: Vec<_> = nets[j].sent.drain(..).collect();
            for (to, msg) in msgs {
                moved = true;
                let (pastry, layer, host) = &mut nodes[to.index()];
                deliver(pastry, layer, &mut nets[to.index()], host, j as u32, msg);
            }
        }
        if !moved {
            break;
        }
    }
}

/// Whether `msg` is a routed `Join`.
pub(super) fn is_join(msg: &Msg) -> bool {
    matches!(
        msg,
        PastryMsg::Route {
            payload: ScribeMsg::Join { .. },
            ..
        }
    )
}

/// Whether `msg` is a `Leave` naming `child`.
pub(super) fn is_leave_of(msg: &Msg, child: u32) -> bool {
    matches!(msg, PastryMsg::Direct(ScribeMsg::Leave { child: c, .. }) if *c == NodeAddr(child))
}
