//! Application payloads and records of the RBAY layer.

use pastry::NodeId;
use rbay_query::{AttrValue, Query};
use scribe::TopicId;
use simnet::{MessageSize, NodeAddr, SimTime, SiteId};
use std::rc::Rc;

/// A unique query identifier: issuing node address in the high bits, local
/// sequence number in the low bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QueryId(pub u64);

impl QueryId {
    /// Builds an id from the issuing node and its local counter.
    pub fn new(origin: NodeAddr, seq: u32) -> Self {
        QueryId(((origin.0 as u64) << 32) | seq as u64)
    }

    /// The issuing node.
    pub fn origin(self) -> NodeAddr {
        NodeAddr((self.0 >> 32) as u32)
    }

    /// The issuing node's local counter: the query's position in its
    /// origin's issue order.
    pub fn seq(self) -> u32 {
        (self.0 & 0xFFFF_FFFF) as u32
    }
}

impl std::fmt::Display for QueryId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "q{:x}", self.0)
    }
}

/// One candidate node discovered (and reserved) by a search.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// The candidate's ring id (what `SELECT NodeId` returns).
    pub id: NodeId,
    /// Its transport address.
    pub addr: NodeAddr,
    /// Its site.
    pub site: SiteId,
    /// The value of the GROUPBY attribute at visit time, for ordering.
    pub sort_key: Option<AttrValue>,
}

/// The anycast payload of the search step: the query itself plus the buffer
/// of `k` candidate slots being filled along the walk (Fig. 7, step 3-4).
#[derive(Debug, Clone)]
pub struct SearchState {
    /// Which query this walk belongs to.
    pub query_id: QueryId,
    /// Node that must receive the final result.
    pub reply_to: NodeAddr,
    /// The parsed query (shared, not mutated).
    pub query: Rc<Query>,
    /// Optional password presented to `onGet` handlers.
    pub password: Option<String>,
    /// Candidates found so far.
    pub slots: Vec<Candidate>,
}

/// An admin command disseminated down a tree and handed to each member's
/// `onDeliver` handler (paper Table I).
#[derive(Debug, Clone, PartialEq)]
pub struct AdminCommand {
    /// Command sequence number (unique per admin).
    pub cmd_id: u64,
    /// The attribute the command concerns.
    pub attr: String,
    /// The payload handed to `onDeliver` (e.g. a new expiration time or
    /// price).
    pub payload: AttrValue,
    /// When the admin issued it (for the Fig. 11 latency measurement).
    pub issued_at: SimTime,
}

/// The RBAY application payload carried inside Scribe messages.
#[derive(Debug, Clone)]
pub enum RbayPayload {
    /// Step 1-2: probe a tree root for its size. Carried through
    /// `probe_root`; the reply's aggregate is the tree size.
    SizeProbe {
        /// Which query is probing.
        query_id: QueryId,
        /// Index of the probed tree in the query's anchor list.
        tree_idx: u8,
        /// Node that must receive the (possibly forwarded) answer.
        reply_to: NodeAddr,
        /// Site this probe concerns.
        site: SiteId,
    },
    /// Step 3-4: the anycast search walk.
    Search(SearchState),
    /// A gateway forwards a root-probe answer back to the querier.
    ProbeEcho {
        /// Which query.
        query_id: QueryId,
        /// Which anchor tree.
        tree_idx: u8,
        /// Site probed.
        site: SiteId,
        /// Tree size if the tree exists.
        size: Option<u64>,
        /// Whether the tree exists at its rendezvous node.
        exists: bool,
    },
    /// A gateway forwards a finished search back to the querier.
    SearchEcho {
        /// Which query.
        query_id: QueryId,
        /// Site searched.
        site: SiteId,
        /// Candidates reserved in that site.
        slots: Vec<Candidate>,
        /// Whether the buffer filled before the tree was exhausted.
        satisfied: bool,
    },
    /// Ask a remote site's gateway to run probes there on our behalf
    /// (administrative isolation: queries cross sites only through border
    /// routers, §III.E).
    RemoteProbe {
        /// Which query.
        query_id: QueryId,
        /// Who to answer.
        reply_to: NodeAddr,
        /// Site to probe (the gateway's own site).
        site: SiteId,
        /// Anchor tree names to probe.
        trees: Vec<String>,
    },
    /// Ask a remote site's gateway to run the search step there.
    RemoteSearch {
        /// The walk to run; `reply_to` inside names the original querier.
        state: SearchState,
        /// Anchor tree to search.
        tree: String,
    },
    /// Step 5: commit a reservation on a chosen node.
    Commit {
        /// The reserving query.
        query_id: QueryId,
    },
    /// Release a reservation that was not chosen.
    Release {
        /// The reserving query.
        query_id: QueryId,
    },
    /// Multicast admin command (policy changes, Fig. 11 onDeliver).
    Admin(AdminCommand),
    /// An admin's stats probe toward a tree root ("calculate a global view
    /// of the tree to the root … the size of the tree, the average value
    /// of all nodes' attributes", §II.B.3).
    StatsProbe {
        /// Who asked.
        reply_to: NodeAddr,
        /// The probed tree's textual name (echoed for bookkeeping).
        tree: String,
    },
    /// The answer to a [`RbayPayload::StatsProbe`], forwarded by the
    /// querier-side callback.
    StatsEcho {
        /// The probed tree's textual name.
        tree: String,
        /// Root aggregate, if the tree exists.
        agg: Option<scribe::AggValue>,
        /// Whether the tree exists.
        exists: bool,
    },
    /// Liveness heartbeat (failure detection between overlay neighbours).
    Ping {
        /// Sequence number echoed by the pong.
        nonce: u64,
        /// The sender's overlay identity, so a receiver that dropped it
        /// from its routing state (a false-positive failure repair) can
        /// re-learn it.
        info: pastry::NodeInfo,
    },
    /// Heartbeat acknowledgement.
    Pong {
        /// Echoed sequence number.
        nonce: u64,
        /// The responder's overlay identity (see [`RbayPayload::Ping`]).
        info: pastry::NodeInfo,
    },
    /// Front-door cache invalidation: `attr` changed somewhere, so every
    /// gateway must purge cached results that depend on it. Multicast over
    /// the site-local `__frontdoor` admin tree; sent Direct (with `fanout`)
    /// to one gateway per remote site, which re-multicasts locally —
    /// the same border-router pattern queries use under administrative
    /// isolation.
    Invalidate {
        /// The attribute whose value changed.
        attr: String,
        /// When true the receiving gateway re-multicasts the invalidation
        /// over its own site's `__frontdoor` tree.
        fanout: bool,
    },
}

impl MessageSize for RbayPayload {
    fn wire_size(&self) -> usize {
        match self {
            RbayPayload::SizeProbe { .. } => 16,
            RbayPayload::Search(s) | RbayPayload::RemoteSearch { state: s, .. } => {
                48 + s.slots.len() * 40 + s.query.predicates.len() * 32
            }
            RbayPayload::ProbeEcho { .. } => 24,
            RbayPayload::SearchEcho { slots, .. } => 16 + slots.len() * 40,
            RbayPayload::RemoteProbe { trees, .. } => {
                16 + trees.iter().map(|t| t.len()).sum::<usize>()
            }
            RbayPayload::Commit { .. } | RbayPayload::Release { .. } => 9,
            RbayPayload::Admin(c) => 24 + c.attr.len(),
            // nonce + NodeInfo (ring id, address, site).
            RbayPayload::Ping { .. } | RbayPayload::Pong { .. } => 33,
            RbayPayload::StatsProbe { tree, .. } => 5 + tree.len(),
            RbayPayload::StatsEcho { tree, .. } => 30 + tree.len(),
            RbayPayload::Invalidate { attr, .. } => 3 + attr.len(),
        }
    }
}

/// Lifecycle of one issued query, kept by the issuing node.
#[derive(Debug, Clone)]
pub struct QueryRecord {
    /// The query id.
    pub id: QueryId,
    /// The parsed query.
    pub query: Rc<Query>,
    /// Resolved anchor tree names (after hybrid-naming links).
    pub anchor_trees: Vec<String>,
    /// Password presented to handlers.
    pub password: Option<String>,
    /// When the first attempt was issued.
    pub issued_at: SimTime,
    /// When the query finished (success, gave up, or timed out).
    pub completed_at: Option<SimTime>,
    /// Attempts made so far (for the exponential backoff).
    pub attempts: u32,
    /// The final candidates. For a `satisfied` query, exactly `k`: held
    /// (sent `Commit`, never `Release`) when
    /// [`RbayConfig::commit_results`](crate::RbayConfig::commit_results)
    /// is on, found and given back when it is off. For a query that gave
    /// up after `MAX_ATTEMPTS` (5), the partial result: listed, not held.
    pub result: Vec<Candidate>,
    /// Whether `k` candidates were found — and, with commits on,
    /// committed.
    pub satisfied: bool,
    /// FROM-clause site names that did not resolve to any federated site —
    /// the query silently searched fewer sites than asked, so issuers
    /// (`trace_dump`, the `rbay-node` daemon) surface these to the user.
    pub unknown_sites: Vec<String>,
    /// Sites that still owe a probe/search answer for the current attempt.
    pub pending: QueryPending,
}

/// One collected probe answer: `(size if the tree exists, exists)`.
pub type ProbeAnswer = (Option<u64>, bool);

/// Per-attempt bookkeeping of outstanding probe/search responses.
#[derive(Debug, Clone, Default)]
pub struct QueryPending {
    /// Sites still being probed: `(site, per-tree answers collected)`.
    pub probes: Vec<(SiteId, Vec<Option<ProbeAnswer>>)>,
    /// Sites with a search in flight.
    pub searches: Vec<SiteId>,
    /// Per-site search outcomes collected this attempt.
    pub found: Vec<Candidate>,
}

/// Timestamped node-local events consumed by the measurement harnesses.
#[derive(Debug, Clone, PartialEq)]
pub enum RbayEvent {
    /// This node completed a tree subscription (Fig. 11 onSubscribe).
    Subscribed {
        /// Tree joined.
        topic: TopicId,
        /// When the join was requested.
        requested_at: SimTime,
        /// When the JoinAck / root promotion happened.
        attached_at: SimTime,
    },
    /// An admin command reached this node (Fig. 11 onDeliver).
    AdminDelivered {
        /// The command.
        cmd_id: u64,
        /// When it was issued.
        issued_at: SimTime,
        /// When it arrived here.
        delivered_at: SimTime,
    },
    /// A query this node issued completed.
    QueryDone {
        /// The query.
        query_id: QueryId,
        /// Issue time.
        issued_at: SimTime,
        /// Completion time.
        completed_at: SimTime,
        /// Whether it found its `k` nodes.
        satisfied: bool,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_ids_are_unique_per_origin_and_seq() {
        let a = QueryId::new(NodeAddr(1), 1);
        let b = QueryId::new(NodeAddr(1), 2);
        let c = QueryId::new(NodeAddr(2), 1);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, QueryId::new(NodeAddr(1), 1));
        assert_eq!((c.origin(), c.seq()), (NodeAddr(2), 1));
    }

    #[test]
    fn wire_size_scales_with_slots() {
        let q = Rc::new(rbay_query::parse_query("SELECT 3 FROM * WHERE a = 1").unwrap());
        let mk = |n: usize| {
            RbayPayload::Search(SearchState {
                query_id: QueryId(1),
                reply_to: NodeAddr(0),
                query: Rc::clone(&q),
                password: None,
                slots: vec![
                    Candidate {
                        id: NodeId(0),
                        addr: NodeAddr(0),
                        site: SiteId(0),
                        sort_key: None,
                    };
                    n
                ],
            })
        };
        assert!(mk(5).wire_size() > mk(1).wire_size());
    }
}
