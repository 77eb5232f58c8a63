//! The RBAY node application: the key-value attribute map, the active
//! attribute runtime binding, reservations, and the
//! [`ScribeHost`](scribe::ScribeHost) callbacks that implement the
//! node-side of the query protocol.
//!
//! Host callbacks never send messages themselves; they queue [`Op`]s which
//! the enclosing actor drains with full access to the Pastry/Scribe state
//! (see [`crate::actor`]).
//!
//! This module holds the state ([`RbayHost`]), the deferred [`Op`]s, the
//! query-timer tokens and the attribute write path. The rest of
//! `impl RbayHost` is split by subject: `config` (what a deployment sets),
//! `aa` (vetting, installing and running active attributes), `journal`
//! (the durable store), `search` (the walk visit and the reservation),
//! `dispatch` (the `ScribeHost` callbacks); the query engine is
//! [`crate::engine`] and the failure detector [`crate::liveness`].

mod aa;
mod config;
mod dispatch;
mod journal;
mod search;

pub use config::{InstallError, LintPolicy, RbayConfig, RestoreSummary};

use crate::frontdoor::{query_key, Frontdoor, FrontdoorConfig, FrontdoorDecision};
use crate::liveness::Contact;
use crate::naming::HybridNaming;
use crate::types::{QueryId, QueryRecord, RbayEvent, RbayPayload, SearchState};
use aascript::analysis::Diagnostic;
use aascript::{AaInstance, SharedSandbox};
use pastry::NodeId;
use rbay_query::{AttrValue, Query};
use rbay_store::{Store, WalRecord};
use scribe::{AggValue, TopicId};
use simnet::obs::Recorder;
use simnet::{NodeAddr, SimDuration, SimTime, SiteId, TimerToken};
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

/// Name of the per-site control tree carrying front-door cache
/// invalidations (gateways subscribe on [`RbayHost::enable_frontdoor`]).
pub const FRONTDOOR_TREE: &str = "__frontdoor";

/// Name under which RBAY trees are created (the "creator" of TreeIds).
const CREATOR: &str = "rbay";

/// A deferred operation queued by host callbacks and executed by the actor.
#[derive(Debug)]
pub enum Op {
    /// Subscribe this node to a tree.
    Subscribe {
        /// Tree to join.
        topic: TopicId,
        /// Site scope.
        scope: Option<SiteId>,
    },
    /// Leave a tree.
    Unsubscribe {
        /// Tree to leave.
        topic: TopicId,
    },
    /// Probe a tree root for its aggregate.
    Probe {
        /// Tree to probe.
        topic: TopicId,
        /// Site scope.
        scope: Option<SiteId>,
        /// Probe payload.
        payload: RbayPayload,
    },
    /// Launch an anycast walk.
    Anycast {
        /// Tree to walk.
        topic: TopicId,
        /// Site scope.
        scope: Option<SiteId>,
        /// Walk payload.
        payload: RbayPayload,
    },
    /// Multicast to every member of a tree.
    Multicast {
        /// Tree to cover.
        topic: TopicId,
        /// Site scope.
        scope: Option<SiteId>,
        /// Data payload.
        payload: RbayPayload,
    },
    /// Send a payload straight to a node.
    Direct {
        /// Destination.
        to: NodeAddr,
        /// Payload.
        payload: RbayPayload,
    },
    /// Arm a timer on this node.
    Timer {
        /// Delay from now.
        delay: SimDuration,
        /// Token passed back on expiry.
        token: TimerToken,
    },
    /// (Re-)insert a peer into the Pastry routing state — issued when a
    /// heartbeat names its sender, which a false-positive failure repair
    /// may have evicted.
    LearnPeer {
        /// The peer's overlay identity.
        info: pastry::NodeInfo,
    },
}

/// Timer token kinds (low two bits of the token).
pub const TIMER_KIND_TIMEOUT: u64 = 1;
/// Retry (backoff) timer kind.
pub const TIMER_KIND_RETRY: u64 = 2;

/// Builds a query-timer token from a query's sequence number, the attempt
/// it belongs to, and the kind. Stale timers from earlier attempts are
/// recognized (and ignored) by the attempt field.
pub fn query_timer_token(id: QueryId, attempt: u32, kind: u64) -> TimerToken {
    TimerToken(((id.seq() as u64) << 10) | (((attempt as u64) & 0xFF) << 2) | kind)
}

/// Splits a timer token into `(seq, attempt, kind)`.
pub fn split_timer_token(token: TimerToken) -> (u32, u32, u64) {
    (
        (token.0 >> 10) as u32,
        ((token.0 >> 2) & 0xFF) as u32,
        token.0 & 0b11,
    )
}

/// The per-node RBAY application state.
#[derive(Debug)]
pub struct RbayHost {
    /// Virtual time as of the current dispatch (refreshed by the actor).
    pub now: SimTime,
    /// Shared configuration.
    pub cfg: Rc<RbayConfig>,
    /// This node's ring id.
    pub id: NodeId,
    /// This node's address.
    pub addr: NodeAddr,
    /// This node's site.
    pub site: SiteId,
    /// The key-value map of resource attributes (paper §III.A).
    pub attrs: BTreeMap<String, AttrValue>,
    /// Per-attribute active attributes.
    pub attr_aas: BTreeMap<String, AaInstance>,
    /// The node-level policy AA (invoked when no attribute AA applies).
    pub node_aa: Option<AaInstance>,
    /// Shared sealed stdlib for AA instantiation.
    pub sandbox: SharedSandbox,
    /// Current reservation, if any: `(holder, expires_at)`.
    pub reservation: Option<(QueryId, SimTime)>,
    /// Queries whose reservations were committed on this node.
    pub committed: Vec<QueryId>,
    /// Queries issued by this node.
    pub queries: BTreeMap<QueryId, QueryRecord>,
    /// Local sequence for query ids.
    pub next_seq: u32,
    /// Gateway ("border router") addresses of each site, indexed by
    /// SiteId. Several per site: query retries rotate through them, so a
    /// failed border router only costs one timed-out attempt.
    pub gateways: Vec<Vec<NodeAddr>>,
    /// Site names, indexed by SiteId (resolves FROM clauses).
    pub site_names: Vec<String>,
    /// Names of trees whose membership is decided by AA handlers each
    /// maintenance round (onSubscribe/onUnsubscribe).
    pub dynamic_trees: Vec<String>,
    /// Hybrid naming links (minor attribute → major tree, §III.C).
    pub naming: HybridNaming,
    /// Timestamped events for the measurement harnesses.
    pub events: Vec<RbayEvent>,
    /// Join-request times awaiting their JoinAck (Fig. 11).
    pub sub_requested: BTreeMap<TopicId, SimTime>,
    /// Latest answers to admin stats probes: tree name → (aggregate,
    /// exists, as-of time).
    pub tree_stats: BTreeMap<String, (Option<AggValue>, bool, SimTime)>,
    /// The failure detector's ledger ([`crate::liveness`]), one entry per
    /// peer: a ping it owes an answer to, with a copy of each query-path
    /// message routed through it since, or that it has been heard from
    /// since the last heartbeat round. Which peers are believed dead is
    /// Pastry's to say ([`pastry::PastryNode::buried`]).
    pub(crate) contacts: BTreeMap<NodeAddr, Contact>,
    /// Heartbeat round counter: paces the slow cadence and numbers the
    /// pings of a round.
    pub(crate) hb_round: u64,
    /// Deferred operations for the actor to execute.
    pub ops: VecDeque<Op>,
    /// Count of `onGet` denials (diagnostics).
    pub aa_denials: u64,
    /// Count of AA runtime errors (budget exhaustion etc.).
    pub aa_errors: u64,
    /// Lint diagnostics from installed scripts, per install: `(label,
    /// diagnostics)` where `label` is `"node"` or the attribute name.
    /// Populated under [`LintPolicy::Warn`] (all diagnostics) and
    /// [`LintPolicy::Deny`] (warnings of accepted scripts).
    pub lint_reports: Vec<(String, Vec<Diagnostic>)>,
    /// Observability-plane handle; disabled (a no-op) by default.
    pub obs: Recorder,
    /// The query front door (result cache, single-flight, admission
    /// control); `None` unless [`RbayHost::enable_frontdoor`] ran — only
    /// gateway nodes carry one.
    pub frontdoor: Option<Box<Frontdoor>>,
    /// Durable state engine (DESIGN.md §18); `None` for in-memory nodes
    /// (the default — simulator federations never persist). When present,
    /// every mutating path appends a WAL record before acknowledging.
    pub store: Option<Box<Store>>,
    /// Handler sources recovered from the store but rejected on restore
    /// (re-lint under the current policy, or compile/instantiation
    /// failure): `(label, diagnostic)`. The source stays durable so a
    /// policy fix plus a restart can still install it; the running node
    /// simply operates without the handler.
    pub quarantined: Vec<(String, String)>,
    /// Searches waiting, in arrival order, for this node's hold on itself
    /// by another of its own queries to be handed back
    /// (`RbayHost::search_here`).
    pub(crate) parked_searches: VecDeque<(SearchState, String)>,
}

impl RbayHost {
    /// Creates an idle host.
    pub fn new(
        cfg: Rc<RbayConfig>,
        id: NodeId,
        addr: NodeAddr,
        site: SiteId,
        sandbox: SharedSandbox,
        gateways: Vec<Vec<NodeAddr>>,
        site_names: Vec<String>,
    ) -> Self {
        RbayHost {
            now: SimTime::ZERO,
            cfg,
            id,
            addr,
            site,
            attrs: BTreeMap::new(),
            attr_aas: BTreeMap::new(),
            node_aa: None,
            sandbox,
            reservation: None,
            committed: Vec::new(),
            queries: BTreeMap::new(),
            next_seq: 0,
            gateways,
            site_names,
            dynamic_trees: Vec::new(),
            naming: HybridNaming::new(),
            events: Vec::new(),
            sub_requested: BTreeMap::new(),
            tree_stats: BTreeMap::new(),
            contacts: BTreeMap::new(),
            hb_round: 0,
            ops: VecDeque::new(),
            aa_denials: 0,
            aa_errors: 0,
            lint_reports: Vec::new(),
            obs: Recorder::default(),
            frontdoor: None,
            store: None,
            quarantined: Vec::new(),
            parked_searches: VecDeque::new(),
        }
    }

    /// The scoped topic of the `attr=value` tree in `site`.
    pub fn tree_topic(&self, tree_name: &str, site: SiteId) -> TopicId {
        TopicId::scoped(tree_name, CREATOR, site)
    }

    /// This node's overlay identity (carried in heartbeat messages).
    pub fn self_info(&self) -> pastry::NodeInfo {
        pastry::NodeInfo {
            id: self.id,
            addr: self.addr,
            site: self.site,
        }
    }

    /// This node's contribution to each tree it subscribes to: its unit
    /// count, plus statistics of the configured aggregate attribute.
    pub fn tree_local_value(&self) -> AggValue {
        match &self.cfg.aggregate_attr {
            None => AggValue::Count(1),
            Some(attr) => {
                let reading = self.attrs.get(attr).and_then(|v| match v {
                    rbay_query::AttrValue::Num(n) => Some(*n),
                    _ => None,
                });
                let (mean, min, max) = match reading {
                    Some(x) => (
                        AggValue::Mean { sum: x, count: 1 },
                        AggValue::Min(x),
                        AggValue::Max(x),
                    ),
                    // Identity contributions: a node without the attribute
                    // affects the count but not the statistics.
                    None => (
                        AggValue::Mean { sum: 0.0, count: 0 },
                        AggValue::Min(f64::INFINITY),
                        AggValue::Max(f64::NEG_INFINITY),
                    ),
                };
                AggValue::Multi(vec![AggValue::Count(1), mean, min, max])
            }
        }
    }

    /// The border router used to reach `site` on the given attempt:
    /// retries rotate through the site's gateway list.
    pub fn gateway_for(&self, site: SiteId, attempt: u32) -> NodeAddr {
        let list = &self.gateways[site.0 as usize];
        list[attempt as usize % list.len()]
    }

    /// The routing scope for operations on `site`'s trees: the site itself
    /// under administrative isolation, or unrestricted global routing.
    pub fn routing_scope(&self, site: SiteId) -> Option<SiteId> {
        if self.cfg.site_isolation {
            Some(site)
        } else {
            None
        }
    }

    /// Sets an attribute locally and queues the subscription to its
    /// site-scoped `attr=value` tree.
    pub fn post_resource(&mut self, attr: &str, value: AttrValue) {
        let tree = self.naming.tree_for_post(attr, &value);
        let topic = self.tree_topic(&tree, self.site);
        let scope = self.routing_scope(self.site);
        self.persist(WalRecord::AttrPut {
            attr: attr.to_owned(),
            value: value.clone(),
        });
        self.persist(WalRecord::SubAdd { topic, scope });
        self.attrs.insert(attr.to_owned(), value);
        self.sub_requested.insert(topic, self.now);
        self.ops.push_back(Op::Subscribe { topic, scope });
        self.emit_invalidation(attr);
    }

    /// Updates an attribute value without touching tree membership (used
    /// by monitoring updates like utilization readings).
    pub fn update_attr(&mut self, attr: &str, value: AttrValue) {
        self.persist(WalRecord::AttrPut {
            attr: attr.to_owned(),
            value: value.clone(),
        });
        self.attrs.insert(attr.to_owned(), value);
        self.emit_invalidation(attr);
    }

    /// Write-path half of front-door cache coherence: purge this node's
    /// own cache (a gateway may change its own attributes), multicast the
    /// invalidation over the site-local `__frontdoor` tree, and hand one
    /// Direct to each remote site's gateway for local re-multicast. A
    /// no-op unless [`RbayConfig::frontdoor_invalidation`] is set.
    fn emit_invalidation(&mut self, attr: &str) {
        if !self.cfg.frontdoor_invalidation {
            return;
        }
        if let Some(fd) = self.frontdoor.as_mut() {
            fd.invalidate_attr(attr);
        }
        self.multicast_invalidation(attr.to_owned());
        for s in 0..self.gateways.len() as u16 {
            let site = SiteId(s);
            if site == self.site {
                continue;
            }
            self.ops.push_back(Op::Direct {
                to: self.gateway_for(site, 0),
                payload: RbayPayload::Invalidate {
                    attr: attr.to_owned(),
                    fanout: true,
                },
            });
        }
    }

    /// Queues the multicast of an invalidation of `attr` over this site's
    /// `__frontdoor` tree: from the writer, or from the border router a
    /// remote writer handed it to.
    fn multicast_invalidation(&mut self, attr: String) {
        let topic = self.tree_topic(FRONTDOOR_TREE, self.site);
        let scope = self.routing_scope(self.site);
        let payload = RbayPayload::Invalidate {
            attr,
            fanout: false,
        };
        self.ops.push_back(Op::Multicast {
            topic,
            scope,
            payload,
        });
    }

    /// Read-path half of front-door cache coherence: an invalidation of
    /// `attr` arrived (multicast, or relayed by a border router), so purge
    /// whatever this gateway cached that depends on it.
    fn invalidate_frontdoor(&mut self, attr: &str) {
        if let Some(fd) = self.frontdoor.as_mut() {
            if fd.invalidate_attr(attr) > 0 {
                let node = self.addr;
                self.obs.count(node, "fd_invalidate");
            }
        }
    }

    /// Turns this node into a front-door gateway: installs the cache /
    /// single-flight / admission state and subscribes to the site-local
    /// `__frontdoor` invalidation tree. Call on gateway nodes once the
    /// overlay has converged (the subscription routes like any tree join).
    pub fn enable_frontdoor(&mut self, cfg: FrontdoorConfig) {
        self.frontdoor = Some(Box::new(Frontdoor::new(cfg)));
        let topic = self.tree_topic(FRONTDOOR_TREE, self.site);
        let scope = self.routing_scope(self.site);
        self.sub_requested.insert(topic, self.now);
        self.ops.push_back(Op::Subscribe { topic, scope });
    }

    /// Routes one client query through the front door: cache hit,
    /// coalesce onto an identical in-flight walk, launch a new walk, or
    /// shed under overload. Falls back to a plain [`RbayHost::issue_query`]
    /// when no front door is enabled, so callers need not special-case.
    pub fn frontdoor_query(
        &mut self,
        query: Query,
        password: Option<String>,
    ) -> crate::frontdoor::FrontdoorResponse {
        use crate::frontdoor::FrontdoorResponse;
        let node = self.addr;
        let Some(fd) = self.frontdoor.as_mut() else {
            let id = self.issue_query(query, password);
            return FrontdoorResponse::Pending {
                id,
                coalesced: false,
            };
        };
        let key = query_key(&query);
        match fd.begin(&key, self.now) {
            FrontdoorDecision::Hit { result, satisfied } => {
                self.obs.count(node, "fd_hit");
                FrontdoorResponse::Cached { result, satisfied }
            }
            FrontdoorDecision::Coalesce { leader } => {
                self.obs.count(node, "fd_coalesce");
                FrontdoorResponse::Pending {
                    id: leader,
                    coalesced: true,
                }
            }
            FrontdoorDecision::Shed { retry_after } => {
                // A shed is advisory back-pressure, never a query outcome:
                // the cache is untouched and recall accounting never sees
                // it.
                self.obs.count(node, "fd_shed");
                FrontdoorResponse::Shed { retry_after }
            }
            FrontdoorDecision::Admit => {
                self.obs.count(node, "fd_miss");
                // Register the leader *before* issuing: anchorless queries
                // complete synchronously inside `issue_query`, and the
                // completion hook must already see the leader entry.
                let id = QueryId::new(self.addr, self.next_seq);
                self.frontdoor
                    .as_mut()
                    .expect("checked above")
                    .lead(key, id);
                let got = self.issue_query(query, password);
                debug_assert_eq!(got, id, "leader id must match issue order");
                FrontdoorResponse::Pending {
                    id,
                    coalesced: false,
                }
            }
        }
    }
}

/// The host every unit test of this crate's host code starts from.
#[cfg(test)]
pub(crate) mod testkit {
    use super::*;

    /// A single-site host at address 7 with three gateways.
    pub(crate) fn host_with(cfg: RbayConfig) -> RbayHost {
        RbayHost::new(
            Rc::new(cfg),
            NodeId(42),
            NodeAddr(7),
            SiteId(0),
            SharedSandbox::new(),
            vec![vec![NodeAddr(0), NodeAddr(1), NodeAddr(2)]],
            vec!["local".into()],
        )
    }

    /// [`host_with`] the default configuration.
    pub(crate) fn host() -> RbayHost {
        host_with(RbayConfig::default())
    }

    /// [`host_with`] the default configuration under `lint_policy`.
    pub(crate) fn host_with_policy(lint_policy: LintPolicy) -> RbayHost {
        host_with(RbayConfig {
            lint_policy,
            ..RbayConfig::default()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::testkit::{host, host_with};
    use super::*;

    #[test]
    fn post_resource_queues_scoped_subscription() {
        let mut h = host();
        h.post_resource("GPU", AttrValue::Bool(true));
        assert_eq!(h.attrs["GPU"], AttrValue::Bool(true));
        let Some(Op::Subscribe { topic, scope }) = h.ops.front() else {
            panic!("expected a subscribe op");
        };
        assert_eq!(*scope, Some(SiteId(0)));
        assert_eq!(*topic, TopicId::scoped("GPU=true", "rbay", SiteId(0)));
    }

    #[test]
    fn gateway_rotation_wraps_through_the_list() {
        let h = host();
        assert_eq!(h.gateway_for(SiteId(0), 0), NodeAddr(0));
        assert_eq!(h.gateway_for(SiteId(0), 1), NodeAddr(1));
        assert_eq!(h.gateway_for(SiteId(0), 2), NodeAddr(2));
        assert_eq!(h.gateway_for(SiteId(0), 3), NodeAddr(0));
    }

    #[test]
    fn tree_local_value_reflects_the_aggregate_attr() {
        let mut h = host_with(RbayConfig {
            aggregate_attr: Some("CPU_utilization".into()),
            ..RbayConfig::default()
        });
        // Without a reading: identity contributions besides the count.
        let v = h.tree_local_value();
        assert_eq!(v.as_count(), Some(1));
        assert_eq!(v.component(1).unwrap().as_f64(), 0.0);
        // With a reading.
        h.update_attr("CPU_utilization", AttrValue::Num(40.0));
        let v = h.tree_local_value();
        assert_eq!(v.component(1).unwrap().as_f64(), 40.0);
        assert_eq!(v.component(2).unwrap().as_f64(), 40.0);
        assert_eq!(v.component(3).unwrap().as_f64(), 40.0);
    }
}
