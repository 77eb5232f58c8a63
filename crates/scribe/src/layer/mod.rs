//! The Scribe protocol layer: tree membership, multicast, anycast, and
//! RBAY's aggregation extension.
//!
//! [`ScribeLayer`] holds per-topic tree state and is driven in two ways:
//!
//! * **Operations** (subscribe, multicast, anycast, probe, aggregate tick)
//!   are methods called by the embedding node with its Pastry state and a
//!   [`Net`] handle.
//! * **Messages** arrive through [`ScribeApp`], the [`PastryApp`] glue that
//!   intercepts routed joins/anycasts (building trees from the union of
//!   join paths) and dispatches direct tree messages.
//!
//! Application behaviour is injected through [`ScribeHost`]: visit
//! decisions, multicast consumption, probe/anycast results, and the hop
//! each routed message leaves through.
//!
//! The layer is one type split over the seams of the protocol:
//!
//! * [`attach`] — who this node's parent and children are: the single
//!   attachment transition and everything that calls it;
//! * [`aggregate`] — the periodic roll-up tick;
//! * [`replica`] — k-replicated rendezvous state and warm promotion;
//! * [`walk`] — multicast, the anycast DFS and root probes;
//! * [`app`] — the [`PastryApp`] message dispatch.
//!
//! [`PastryApp`]: pastry::PastryApp

mod aggregate;
mod app;
mod attach;
mod replica;
#[cfg(test)]
mod testkit;
mod walk;

pub use app::ScribeApp;
pub use replica::{ReplicaCache, REPLICA_K, REPLICA_TTL_ROUNDS};

use crate::types::{AggValue, ScribeMsg, TopicId, Visit};
use pastry::{Net, PastryMsg, PastryNode};
use simnet::obs::Recorder;
use simnet::{NodeAddr, SiteId};
use std::collections::BTreeMap;

/// Application callbacks for tree events.
///
/// Callbacks only mutate host state and return decisions; hosts that need to
/// launch follow-up operations queue them internally and drain the queue
/// after message dispatch returns (see `rbay-core`).
pub trait ScribeHost<P> {
    /// A multicast payload reached this (subscribed) node.
    fn on_multicast(&mut self, topic: TopicId, payload: &P);

    /// An anycast walk is visiting this (subscribed) node; mutate the
    /// payload and decide whether the walk stops here.
    fn on_anycast_visit(&mut self, topic: TopicId, payload: &mut P) -> Visit;

    /// An anycast this node originated has finished.
    fn on_anycast_result(&mut self, topic: TopicId, payload: P, satisfied: bool);

    /// A root probe this node originated has been answered.
    fn on_probe_reply(&mut self, topic: TopicId, payload: P, agg: Option<AggValue>, exists: bool);

    /// A direct application message arrived.
    fn on_direct(&mut self, from: NodeAddr, payload: P);

    /// The tree root is answering a probe; annotate the payload if desired.
    fn on_root_probe(&mut self, topic: TopicId, payload: &mut P) {
        let _ = (topic, payload);
    }

    /// This node completed its subscription (grafted, or became root).
    fn on_subscribed(&mut self, topic: TopicId) {
        let _ = topic;
    }

    /// A routed message is about to leave this node through `hop`, at its
    /// origin or at a forwarding hop: the one place the host sees what
    /// left through which peer. RBAY's failure detector pings the hop on
    /// use here and keeps a copy of a query-path message, which
    /// [`ScribeLayer::reroute`] sends again if the hop is declared dead.
    fn on_route(&mut self, hop: NodeAddr, msg: &ScribeMsg<P>) {
        let _ = (hop, msg);
    }
}

/// What a tree node keeps about one child: when it was last heard from
/// and the aggregate it last reported (paper §II.B.2–3).
#[derive(Debug, Clone, Default)]
pub struct Child {
    /// Last tick the child was grafted or pushed an aggregate; a child
    /// silent past `STALE_AGG_ROUNDS` is expired (see
    /// [`ScribeLayer::aggregate_tick`]).
    pub seen: u64,
    /// The aggregate the child last reported; `None` until it reports.
    pub agg: Option<AggValue>,
}

/// Per-topic tree state at one node.
///
/// For attachment a node is in exactly one of three states: **Root**
/// (`is_root`, no parent), **Child(p)** (`parent == Some(p)`, not root) or
/// **Detached** (neither; a `Join` is in flight or about to be re-sent).
/// The fields are public for readers; only the transitions in the
/// `attach` module write `is_root` and `parent`.
#[derive(Debug, Clone, Default)]
pub struct TopicState {
    /// Upstream neighbour (`None` at the root or while a join is in
    /// flight).
    pub parent: Option<NodeAddr>,
    /// Downstream neighbours (the children table of paper §II.B.2), one
    /// entry each.
    pub children: BTreeMap<NodeAddr, Child>,
    /// Whether this node is a leaf-subscriber (vs a pure forwarder).
    pub subscribed: bool,
    /// Whether this node is the rendezvous root.
    pub is_root: bool,
    /// Site scope of the tree, for isolation-scoped topics.
    pub scope: Option<SiteId>,
    /// This node's own contribution to the tree aggregate.
    pub local_value: Option<AggValue>,
    /// Aggregate ticks this node has run for this topic.
    pub agg_round: u64,
    /// Aggregate inherited from a [`ReplicaCache`] at promotion, with the
    /// tick it was installed at: the pre-crash whole-tree view, answered
    /// to probes while the promoted root's own child reports converge.
    /// Cleared once a child reports or after `STALE_AGG_ROUNDS` ticks.
    pub warm_agg: Option<(AggValue, u64)>,
}

impl TopicState {
    /// Whether the node participates in the tree at all.
    pub fn is_member(&self) -> bool {
        self.is_needed() || self.is_attached()
    }

    /// Whether the node has its place in the tree: it is the root or has
    /// a parent. A member that is not attached is re-joining.
    pub fn is_attached(&self) -> bool {
        self.is_root || self.parent.is_some()
    }

    /// Whether anything depends on this node being in the tree: its own
    /// subscription, or a subtree it forwards for.
    fn is_needed(&self) -> bool {
        self.subscribed || !self.children.is_empty()
    }

    /// The merged aggregate of this node's subtree: its own contribution
    /// (when subscribed) plus the cached child reports.
    pub fn merged_agg(&self) -> Option<AggValue> {
        let own = if self.subscribed {
            self.local_value.clone()
        } else {
            None
        };
        let reported = self.children.values().filter_map(|c| c.agg.as_ref());
        AggValue::merge_all(own.iter().chain(reported))
    }
}

// A node holds one `TopicState` per tree it is in, and a federation of
// thousands of members is in several trees each.
const _: () = assert!(std::mem::size_of::<TopicState>() <= 104);

/// Scribe tree state for one node, across all topics.
#[derive(Debug, Default)]
pub struct ScribeLayer {
    topics: BTreeMap<TopicId, TopicState>,
    /// Warm mirrors of remote roots' rendezvous state (see
    /// [`ReplicaCache`]); consumed on promotion, expired past
    /// [`REPLICA_TTL_ROUNDS`] unrefreshed ticks.
    replicas: BTreeMap<TopicId, ReplicaCache>,
    /// Observability-plane handle; disabled (a no-op) by default.
    obs: Recorder,
}

impl ScribeLayer {
    /// An empty layer.
    pub fn new() -> Self {
        ScribeLayer::default()
    }

    /// Installs an observability recorder (a clone of the federation-wide
    /// handle); tree-maintenance hooks stay no-ops while it is disabled.
    pub fn set_recorder(&mut self, obs: Recorder) {
        self.obs = obs;
    }

    /// Read-only view of a topic's state, if the node participates.
    pub fn topic(&self, topic: TopicId) -> Option<&TopicState> {
        self.topics.get(&topic)
    }

    /// Iterates over `(topic, state)` pairs this node participates in.
    pub fn topics(&self) -> impl Iterator<Item = (&TopicId, &TopicState)> {
        self.topics.iter()
    }

    /// Whether this node participates in `topic`.
    pub fn is_member(&self, topic: TopicId) -> bool {
        self.topics.get(&topic).is_some_and(|s| s.is_member())
    }

    /// Sends an application payload directly to another node.
    pub fn send_direct<P, N>(&mut self, net: &mut N, to: NodeAddr, payload: P)
    where
        N: Net<ScribeMsg<P>>,
    {
        net.send(to, PastryMsg::Direct(ScribeMsg::AppDirect(payload)));
    }

    /// Routes `msg`, a routed message, toward its tree's root once more
    /// through the repaired tables: the host kept a copy of it when it
    /// left through a hop that has since been declared dead. Where this
    /// node is now the rendezvous — the mirror that just promoted itself —
    /// it is delivered here, as if it had arrived. A direct-only message
    /// has no root to go to and is dropped.
    pub fn reroute<P, N, H>(
        &mut self,
        pastry: &mut PastryNode,
        net: &mut N,
        host: &mut H,
        msg: ScribeMsg<P>,
    ) where
        P: Clone,
        N: Net<ScribeMsg<P>>,
        H: ScribeHost<P>,
    {
        let (topic, scope) = match &msg {
            ScribeMsg::Join { topic, scope, .. }
            | ScribeMsg::MulticastReq { topic, scope, .. }
            | ScribeMsg::Anycast { topic, scope, .. }
            | ScribeMsg::ProbeRoot { topic, scope, .. } => (*topic, *scope),
            _ => return,
        };
        if let Some(msg) = route_to_root(pastry, net, host, topic, scope, msg) {
            let mut app = ScribeApp { layer: self, host };
            pastry::PastryApp::deliver(&mut app, pastry, net, topic.key(), msg, 0);
        }
    }
}

/// Routes `msg` one hop toward the rendezvous root of `topic`, telling the
/// host which hop it leaves through ([`ScribeHost::on_route`]). When this
/// node is itself the rendezvous nothing is sent and `msg` comes back for
/// the caller to act on locally.
fn route_to_root<P, N, H>(
    pastry: &mut PastryNode,
    net: &mut N,
    host: &mut H,
    topic: TopicId,
    scope: Option<SiteId>,
    msg: ScribeMsg<P>,
) -> Option<ScribeMsg<P>>
where
    N: Net<ScribeMsg<P>>,
    H: ScribeHost<P>,
{
    let Some(next) = pastry.next_hop(topic.key(), scope) else {
        return Some(msg);
    };
    host.on_route(next.addr, &msg);
    pastry.send_routed(net, next.addr, topic.key(), msg, 1, scope);
    None
}
