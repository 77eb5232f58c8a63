//! Application payloads and records of the RBAY layer.

use pastry::NodeId;
use rbay_query::{AttrValue, Query};
use scribe::TopicId;
use simnet::{NodeAddr, SimTime, SiteId, ThinVec};
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
    pub slots: ThinVec<Candidate>,
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
    /// `probe_root`; the reply's aggregate is the tree size, and it comes
    /// back to the node that probed — the site's entry node
    /// ([`RbayPayload::SiteSearch`]), which records it.
    SizeProbe {
        /// Which query is probing.
        query_id: QueryId,
        /// Index of the probed tree in the query's anchor list.
        tree_idx: u8,
    },
    /// Step 3-4: the anycast search walk.
    Search(SearchState),
    /// A site's finished search, back to the querier.
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
    /// A query enters a site (steps 1-3 there): the entry node — the
    /// querier for its own site, a border router otherwise, since queries
    /// cross sites only through border routers (§III.E) — probes the
    /// roots of its site's anchor trees, then starts the walk in the
    /// smallest existing one. Only the walk's [`RbayPayload::SearchEcho`]
    /// comes back.
    SiteSearch {
        /// The walk to run; `reply_to` inside names the querier.
        state: Box<SearchState>,
        /// Anchor tree names to probe, in the query's anchor order.
        trees: Vec<String>,
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
    Admin(Box<AdminCommand>),
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
        agg: Option<Box<scribe::AggValue>>,
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

/// What holds a node for a query (protocol step 5). A walk reserves the
/// node for a short window; the querier's `Commit` turns that reservation
/// into a commit, which only the client's explicit release ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hold {
    /// Reserved by a walk of `by`; lapses at `until`.
    Reserved {
        /// The reserving query.
        by: QueryId,
        /// When the reservation lapses.
        until: SimTime,
    },
    /// Committed to `by`, with no expiry.
    Committed {
        /// The committing query.
        by: QueryId,
    },
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
    /// Sites that still owe an answer for the current attempt.
    pub pending: QueryPending,
}

/// Per-attempt bookkeeping of outstanding site answers.
#[derive(Debug, Clone, Default)]
pub struct QueryPending {
    /// Sites whose search — probe step included — has not answered.
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
}
