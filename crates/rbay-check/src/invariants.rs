//! Protocol invariants evaluated while the checker explores.
//!
//! Two tiers, reflecting what is actually stable when:
//!
//! * **Step invariants** ([`StepTracker::check`]) run after every fired
//!   event. Messages are in flight, so most structure is legitimately
//!   inconsistent mid-step; only always-true sanity conditions and
//!   *persistence* conditions (a transient state that refuses to resolve
//!   within a grace window) are checked here.
//! * **Quiescence invariants** ([`check_quiescent`]) run once the event
//!   store drains: nothing is in flight, every scheduled maintenance
//!   round has run, so the tree must be fully consistent — single live
//!   root, no root with a parent, attachment symmetry, exact aggregate,
//!   no long-dead peer kept, no query-path copy kept past its ping, no
//!   site probe step kept past its bound, symmetric peer sets, and every
//!   committed query completed.
//!
//! False-positive discipline: the scenarios bound fault injection to an
//! early horizon (see [`crate::scenario`]) and schedule enough
//! maintenance rounds afterwards that correct code provably converges
//! before the quiescence check — a violation therefore indicts the
//! protocol, not the harness.

use crate::runner::WINDOW;
use rbay_core::{Federation, Hold, SLOW_PROBE_PERIOD};
use scribe::TopicId;
use simnet::{NodeAddr, SimDuration};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// What the oracles need to know about the scenario under check.
pub struct InvariantCtx {
    /// The topic tree under scrutiny.
    pub topic: TopicId,
    /// Nodes posted as resource holders (the expected subscribed set;
    /// the live subset is computed per check).
    pub holders: Vec<NodeAddr>,
    /// Check root-aggregate exactness at quiescence. Requires the
    /// scenario to leave enough post-fault rounds for stale-entry expiry
    /// (all shipped scenarios do).
    pub check_aggregate: bool,
    /// Check leaf-set symmetry between live nodes at quiescence.
    pub check_peer_symmetry: bool,
    /// Treat an unsatisfied query as a violation when every holder is
    /// still alive. OFF by default: this is the hunting mode for the
    /// known ROADMAP-1 recall collapse, not a regression gate.
    pub strict_recall: bool,
    /// Steps a dual attachment (one child in two live parents' children
    /// sets) may persist before it counts as a leak. In correct code the
    /// detach `Leave` is in flight and fires within the exploration
    /// window; only a mutant (or a dropped Leave, which the fault horizon
    /// rules out) lets the state outlive the grace window.
    pub dual_grace: usize,
    /// Interval between the scenario's maintenance rounds (sets how many
    /// rounds a heartbeat takes to expire).
    pub round: SimDuration,
}

impl InvariantCtx {
    /// A context with the default gates (aggregate + peer symmetry on,
    /// strict recall off).
    pub fn new(topic: TopicId, holders: Vec<NodeAddr>) -> Self {
        InvariantCtx {
            topic,
            holders,
            check_aggregate: true,
            check_peer_symmetry: true,
            strict_recall: false,
            dual_grace: 48,
            round: SimDuration::from_millis(250),
        }
    }
}

/// A protocol-invariant violation found by the checker.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// A node lists itself as its own parent or child.
    SelfLink {
        /// The offending node.
        node: NodeAddr,
    },
    /// More than one live node believes it is the tree root.
    MultipleRoots {
        /// Every live self-declared root.
        roots: Vec<NodeAddr>,
    },
    /// Live members exist but no live node is root.
    NoLiveRoot,
    /// At quiescence a node is root and still points at a parent: the
    /// Root / Child / Detached states of `TopicState` are not exclusive
    /// (its public fields cannot express that, so the checker does).
    RootWithParent {
        /// The root.
        node: NodeAddr,
        /// The parent it still points at.
        parent: NodeAddr,
    },
    /// A live child sat in two live parents' children sets for longer
    /// than the grace window (double-counted aggregate, duplicate
    /// multicast).
    DualAttachment {
        /// The doubly-attached child.
        child: NodeAddr,
        /// The parents that both claim it.
        parents: Vec<NodeAddr>,
    },
    /// At quiescence a node points at a live parent that does not list
    /// it as a child (permanently orphaned subscriber: its aggregates
    /// are NACKed forever).
    DetachedAttachment {
        /// The orphan.
        child: NodeAddr,
        /// The parent that disowned it.
        parent: NodeAddr,
    },
    /// A live subscriber has no live parent chain ending at a live root.
    OrphanedSubscriber {
        /// The orphan.
        node: NodeAddr,
    },
    /// A live node still lists a live peer as failed at quiescence
    /// (permanently evicted peer: heartbeats to it never resume).
    EvictedLivePeer {
        /// The node holding the stale suspicion.
        suspecter: NodeAddr,
        /// The live peer it buried.
        peer: NodeAddr,
    },
    /// With failure detection on, a live node still keeps — in a leaf set,
    /// as a tree neighbour, or in a routing table — a peer that crashed
    /// more heartbeat rounds ago than the detector's budget allows (every
    /// round for the first two, the slow cadence for the third).
    KeptCorpse {
        /// The node holding the stale entry.
        holder: NodeAddr,
        /// The crashed peer it keeps.
        corpse: NodeAddr,
        /// Heartbeat rounds the holder has run since the crash.
        rounds: u64,
    },
    /// A live node keeps a copy of a query-path message beside a peer it
    /// has buried, or that owes it no answer: the copy outlived the ping
    /// that bounds it, so it is memory kept for nothing and a re-route
    /// that will never come.
    CopyOwesAnswer {
        /// The node keeping the copies.
        holder: NodeAddr,
        /// The peer they left through.
        peer: NodeAddr,
        /// How many.
        copies: usize,
    },
    /// A live node keeps a query's site probe step — the tree-size answers
    /// the node a query entered its site at collects — longer than the
    /// query timeout, or for a query it issued and has completed: state
    /// that outlived its query.
    SiteProbeBounded {
        /// The entry node keeping it.
        holder: NodeAddr,
        /// The query's issuing node.
        origin: NodeAddr,
        /// Position in the origin's issue order.
        seq: u32,
    },
    /// Leaf-set membership is asymmetric between two live nodes after
    /// gossip convergence.
    AsymmetricPeers {
        /// The node missing the entry.
        a: NodeAddr,
        /// The peer that still lists `a`.
        b: NodeAddr,
    },
    /// The root's aggregate count disagrees with the live subscribed
    /// membership at quiescence.
    AggregateMismatch {
        /// What the root reports.
        reported: Option<u64>,
        /// The live subscribed member count.
        expected: u64,
    },
    /// An issued query whose origin is alive never completed (the
    /// ROADMAP-1 reflex: queries silently lost mid-repair). A record its
    /// origin retired counts as completed, and gets neither the
    /// `unsatisfied-query` nor the `unheld-result` check.
    LostQuery {
        /// The issuing node.
        origin: NodeAddr,
        /// Position in the origin's issue order.
        seq: u32,
    },
    /// Strict-recall mode: every holder is alive yet the query finished
    /// unsatisfied.
    UnsatisfiedQuery {
        /// The issuing node.
        origin: NodeAddr,
        /// Position in the origin's issue order.
        seq: u32,
    },
    /// A query reported `satisfied` whose result is not `k` distinct
    /// candidates, or — with commits on — names a live candidate whose
    /// one hold is not `Hold::Committed` by it (the ledger says taken, the
    /// node is free or another query's). A node holds one query at a time,
    /// so this is also `no-double-commit`: two satisfied queries naming
    /// one node cannot both pass.
    UnheldResult {
        /// The issuing node.
        origin: NodeAddr,
        /// Position in the origin's issue order.
        seq: u32,
    },
    /// The run failed to drain its event store within the step budget.
    NonQuiescent {
        /// Steps executed before giving up.
        steps: usize,
    },
    /// bench:fig8 — routed probes were lost or duplicated.
    ProbeLoss {
        /// Probes delivered.
        delivered: usize,
        /// Probes routed.
        expected: usize,
    },
    /// A mirrored rendezvous replica broke its consistency discipline:
    /// either a node mirrors itself, or a replica outlived its TTL
    /// without being refreshed or expired.
    ReplicaDivergence {
        /// The node holding the replica.
        holder: NodeAddr,
        /// The root the replica claims to mirror.
        root: NodeAddr,
    },
}

impl Violation {
    /// Stable machine-readable kind, used in `.schedule` files and by
    /// the shrinker to decide whether a reduced schedule still fails
    /// "the same way".
    pub fn kind(&self) -> &'static str {
        match self {
            Violation::SelfLink { .. } => "self-link",
            Violation::MultipleRoots { .. } => "multiple-roots",
            Violation::NoLiveRoot => "no-live-root",
            Violation::RootWithParent { .. } => "root-with-parent",
            Violation::DualAttachment { .. } => "dual-attachment",
            Violation::DetachedAttachment { .. } => "detached-attachment",
            Violation::OrphanedSubscriber { .. } => "orphaned-subscriber",
            Violation::EvictedLivePeer { .. } => "evicted-live-peer",
            Violation::KeptCorpse { .. } => "kept-corpse",
            Violation::CopyOwesAnswer { .. } => "copy-owes-answer",
            Violation::SiteProbeBounded { .. } => "site-probe-bounded",
            Violation::AsymmetricPeers { .. } => "asymmetric-peers",
            Violation::AggregateMismatch { .. } => "aggregate-mismatch",
            Violation::LostQuery { .. } => "lost-query",
            Violation::UnsatisfiedQuery { .. } => "unsatisfied-query",
            Violation::UnheldResult { .. } => "unheld-result",
            Violation::NonQuiescent { .. } => "non-quiescent",
            Violation::ProbeLoss { .. } => "probe-loss",
            Violation::ReplicaDivergence { .. } => "replica-divergence",
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::SelfLink { node } => write!(f, "{node:?} is its own tree neighbour"),
            Violation::MultipleRoots { roots } => {
                write!(f, "multiple live roots: {roots:?}")
            }
            Violation::NoLiveRoot => write!(f, "live members but no live root"),
            Violation::RootWithParent { node, parent } => {
                write!(f, "{node:?} is root yet points at parent {parent:?}")
            }
            Violation::DualAttachment { child, parents } => {
                write!(f, "{child:?} attached under {parents:?} simultaneously")
            }
            Violation::DetachedAttachment { child, parent } => {
                write!(f, "{child:?} points at {parent:?}, which disowned it")
            }
            Violation::OrphanedSubscriber { node } => {
                write!(f, "{node:?} subscribed but unreachable from the root")
            }
            Violation::EvictedLivePeer { suspecter, peer } => {
                write!(f, "{suspecter:?} still declares live {peer:?} failed")
            }
            Violation::KeptCorpse {
                holder,
                corpse,
                rounds,
            } => {
                write!(
                    f,
                    "{holder:?} still keeps {corpse:?}, crashed {rounds} heartbeat rounds ago"
                )
            }
            Violation::CopyOwesAnswer {
                holder,
                peer,
                copies,
            } => {
                write!(
                    f,
                    "{holder:?} keeps {copies} copies beside {peer:?}, which owes it no answer"
                )
            }
            Violation::SiteProbeBounded {
                holder,
                origin,
                seq,
            } => {
                write!(
                    f,
                    "{holder:?} keeps the probe step of query #{seq} from {origin:?} past its bound"
                )
            }
            Violation::AsymmetricPeers { a, b } => {
                write!(f, "{b:?} lists {a:?} but not vice versa")
            }
            Violation::AggregateMismatch { reported, expected } => {
                write!(f, "root aggregate {reported:?}, live membership {expected}")
            }
            Violation::LostQuery { origin, seq } => {
                write!(f, "query #{seq} from live {origin:?} never completed")
            }
            Violation::UnsatisfiedQuery { origin, seq } => {
                write!(
                    f,
                    "query #{seq} from {origin:?} unsatisfied with all holders live"
                )
            }
            Violation::UnheldResult { origin, seq } => {
                write!(
                    f,
                    "query #{seq} from {origin:?} satisfied, yet its result is not k held nodes"
                )
            }
            Violation::NonQuiescent { steps } => {
                write!(f, "not quiescent after {steps} steps")
            }
            Violation::ProbeLoss {
                delivered,
                expected,
            } => {
                write!(f, "{delivered} of {expected} routed probes delivered")
            }
            Violation::ReplicaDivergence { holder, root } => {
                write!(
                    f,
                    "replica at {holder:?} mirroring {root:?} broke the refresh/expiry discipline"
                )
            }
        }
    }
}

fn live(fed: &Federation, addr: NodeAddr) -> bool {
    !fed.sim().is_failed(addr)
}

fn live_nodes(fed: &Federation) -> impl Iterator<Item = NodeAddr> + '_ {
    (0..fed.sim().topology().node_count() as u32)
        .map(NodeAddr)
        .filter(|a| live(fed, *a))
}

/// `child -> live parents listing it` for the topic.
fn attachment_map(fed: &Federation, topic: TopicId) -> BTreeMap<NodeAddr, Vec<NodeAddr>> {
    let mut map: BTreeMap<NodeAddr, Vec<NodeAddr>> = BTreeMap::new();
    for p in live_nodes(fed) {
        if let Some(st) = fed.node(p).scribe.topic(topic) {
            for &c in st.children.keys() {
                if live(fed, c) {
                    map.entry(c).or_default().push(p);
                }
            }
        }
    }
    map
}

/// The failure detector's contract, in heartbeat rounds since a peer
/// crashed (rounds reach all live nodes together and a crashed node runs
/// none, so the two counters' difference is exact; wall time is not,
/// because scenarios let time pass without maintenance). With `e` the
/// rounds a ping takes to expire: a leaf-set member or tree neighbour is
/// pinged at the first round after the crash — the second, if a message
/// it sent before crashing arrived in between — and declared `e` rounds
/// later; any other routing-table entry is pinged within
/// [`SLOW_PROBE_PERIOD`] rounds. Both limits are doubled: a node that did
/// not know the peer can still learn it (a leaf-set or row reply) from
/// one that has not declared it yet, and then runs the same course.
fn kept_corpse(fed: &Federation, ctx: &InvariantCtx) -> Option<Violation> {
    let timeout = fed.config().heartbeat_timeout;
    let expiry = timeout.as_micros() / ctx.round.as_micros().max(1) + 1;
    let hot_limit = 2 * (2 + expiry);
    let cold_limit = 2 * (SLOW_PROBE_PERIOD + 1 + expiry);
    for n in live_nodes(fed) {
        let node = fed.node(n);
        let hot = node.hot_peers();
        let known = node.pastry.known_peers();
        for corpse in (hot.iter().copied()).chain(known.iter().map(|e| e.addr)) {
            if live(fed, corpse) {
                continue;
            }
            let gone = fed.node(corpse).host.heartbeat_rounds();
            let rounds = node.host.heartbeat_rounds().saturating_sub(gone);
            let limit = if hot.binary_search(&corpse).is_ok() {
                hot_limit
            } else {
                cold_limit
            };
            if rounds > limit {
                return Some(Violation::KeptCorpse {
                    holder: n,
                    corpse,
                    rounds,
                });
            }
        }
    }
    None
}

/// `copy-owes-answer`: every query-path copy a live node keeps names a
/// peer that is not buried and still owes that node the answer to a ping
/// — so the copies are bounded in the same terms as `kept-corpse`: a ping
/// expires at the first round past the heartbeat timeout, and its copies
/// go out again or with it. Always true, so it is checked after every step
/// as well as at quiescence.
pub fn copy_owes_answer(fed: &Federation) -> Option<Violation> {
    for holder in live_nodes(fed) {
        let node = fed.node(holder);
        for (peer, copies) in node.host.kept_copies() {
            if node.pastry.is_buried(peer) || !node.host.owes_answer(peer) {
                return Some(Violation::CopyOwesAnswer {
                    holder,
                    peer,
                    copies,
                });
            }
        }
    }
    None
}

/// `site-probe-bounded`: no live node keeps a query's site probe step
/// older than the query timeout, nor one for a query it issued and has
/// completed (or retired: [`rbay_core::RbayHost::retired`]). The querier's own-site entry leaves with its site's last
/// answer or its query's completion, and a retry's entry replaces it;
/// any entry past the timeout goes when the node adds the next one. (A
/// border router whose answers were lost keeps its entry until then;
/// every shipped scenario is single-site, so each runs through the
/// querier's own-site entry.) An explored run fires events up to
/// [`WINDOW`] past the earliest pending one, so the timeout that retires
/// an entry may lag the clock by that much. Checked after every step as
/// well as at quiescence.
pub fn site_probe_bounded(fed: &Federation) -> Option<Violation> {
    let (now, bound) = (fed.sim().now(), fed.config().query_timeout + WINDOW);
    for holder in live_nodes(fed) {
        let host = &fed.node(holder).host;
        for (id, since) in host.site_probes() {
            let completed = host.retired(id)
                || host
                    .queries
                    .get(&id)
                    .is_some_and(|r| r.completed_at.is_some());
            if completed || now.saturating_since(since) > bound {
                return Some(Violation::SiteProbeBounded {
                    holder,
                    origin: id.origin(),
                    seq: id.seq(),
                });
            }
        }
    }
    None
}

/// Per-run step-invariant state: sanity conditions plus the
/// dual-attachment persistence counter.
pub struct StepTracker {
    grace: usize,
    /// Consecutive steps each live child has spent attached under more
    /// than one live parent.
    dual_streak: BTreeMap<NodeAddr, usize>,
}

impl StepTracker {
    /// A fresh tracker using the context's grace window.
    pub fn new(ctx: &InvariantCtx) -> Self {
        StepTracker {
            grace: ctx.dual_grace,
            dual_streak: BTreeMap::new(),
        }
    }

    /// Cheap after-every-step check: self-links, `copy-owes-answer`,
    /// `site-probe-bounded` and over-grace dual attachments.
    pub fn check(&mut self, fed: &Federation, ctx: &InvariantCtx) -> Option<Violation> {
        if let Some(v) = copy_owes_answer(fed).or_else(|| site_probe_bounded(fed)) {
            return Some(v);
        }
        for n in live_nodes(fed) {
            if let Some(st) = fed.node(n).scribe.topic(ctx.topic) {
                if st.parent == Some(n) || st.children.contains_key(&n) {
                    return Some(Violation::SelfLink { node: n });
                }
            }
        }
        let attached = attachment_map(fed, ctx.topic);
        self.dual_streak
            .retain(|c, _| attached.get(c).map(|ps| ps.len()).unwrap_or(0) > 1);
        for (c, parents) in &attached {
            if parents.len() > 1 {
                let streak = self.dual_streak.entry(*c).or_insert(0);
                *streak += 1;
                if *streak > self.grace {
                    return Some(Violation::DualAttachment {
                        child: *c,
                        parents: parents.clone(),
                    });
                }
            }
        }
        None
    }
}

/// The full oracle suite, valid only once the event store has drained.
/// Returns the first violation found.
pub fn check_quiescent(fed: &Federation, ctx: &InvariantCtx) -> Option<Violation> {
    let topic = ctx.topic;
    let members: Vec<NodeAddr> = live_nodes(fed)
        .filter(|n| {
            fed.node(*n)
                .scribe
                .topic(topic)
                .is_some_and(|st| st.is_member())
        })
        .collect();

    // Single live root per topic tree.
    let roots: Vec<NodeAddr> = live_nodes(fed)
        .filter(|n| {
            fed.node(*n)
                .scribe
                .topic(topic)
                .is_some_and(|st| st.is_root)
        })
        .collect();
    if roots.len() > 1 {
        return Some(Violation::MultipleRoots { roots });
    }
    if roots.is_empty() && !members.is_empty() {
        return Some(Violation::NoLiveRoot);
    }

    // Attachment exclusivity: a root has no parent.
    for n in live_nodes(fed) {
        if let Some(st) = fed.node(n).scribe.topic(topic) {
            if let (true, Some(parent)) = (st.is_root, st.parent) {
                return Some(Violation::RootWithParent { node: n, parent });
            }
        }
    }

    // Attachment consistency: no dual attachment survives quiescence,
    // and a child's parent pointer is honoured by the parent.
    let attached = attachment_map(fed, topic);
    for (c, parents) in &attached {
        if parents.len() > 1 {
            return Some(Violation::DualAttachment {
                child: *c,
                parents: parents.clone(),
            });
        }
    }
    for n in &members {
        let st = fed.node(*n).scribe.topic(topic).expect("member state");
        if let Some(p) = st.parent {
            if live(fed, p) {
                let listed = fed
                    .node(p)
                    .scribe
                    .topic(topic)
                    .is_some_and(|ps| ps.children.contains_key(n));
                if !listed {
                    return Some(Violation::DetachedAttachment {
                        child: *n,
                        parent: p,
                    });
                }
            }
        }
    }

    // No orphaned subscriber: every live subscriber reaches a live root
    // by parent pointers over live nodes (cycle ⇒ orphaned).
    let n_nodes = fed.sim().topology().node_count();
    for n in &members {
        let st = fed.node(*n).scribe.topic(topic).expect("member state");
        if !st.subscribed {
            continue;
        }
        let mut cur = *n;
        let mut hops = 0usize;
        let reached = loop {
            let Some(cst) = fed.node(cur).scribe.topic(topic) else {
                break false;
            };
            if cst.is_root {
                break true;
            }
            match cst.parent {
                Some(p) if live(fed, p) && hops <= n_nodes => {
                    cur = p;
                    hops += 1;
                }
                _ => break false,
            }
        };
        if !reached {
            return Some(Violation::OrphanedSubscriber { node: *n });
        }
    }

    // Replica consistency: a mirrored rendezvous snapshot must follow the
    // refresh/expiry discipline — never a self-mirror (a promoted root
    // consumes its replica), and never older than its TTL (the aging
    // sweep in `aggregate_tick` must have refreshed or dropped it).
    for n in live_nodes(fed) {
        for (t, rep) in fed.node(n).scribe.replicas() {
            if *t != topic {
                continue;
            }
            if rep.root == n || rep.age > scribe::REPLICA_TTL_ROUNDS {
                return Some(Violation::ReplicaDivergence {
                    holder: n,
                    root: rep.root,
                });
            }
        }
    }

    // No permanently evicted live peer.
    for n in live_nodes(fed) {
        for &p in fed.node(n).pastry.buried() {
            if live(fed, p) {
                return Some(Violation::EvictedLivePeer {
                    suspecter: n,
                    peer: p,
                });
            }
        }
    }

    // No corpse kept past the heartbeat budget, and no copy past its
    // ping.
    if fed.config().failure_detection {
        if let Some(v) = kept_corpse(fed, ctx).or_else(|| copy_owes_answer(fed)) {
            return Some(v);
        }
    }

    // No site probe step outlives its query.
    if let Some(v) = site_probe_bounded(fed) {
        return Some(v);
    }

    // Peer-set symmetry after gossip convergence.
    if ctx.check_peer_symmetry {
        let all: Vec<NodeAddr> = live_nodes(fed).collect();
        for &a in &all {
            for &b in &all {
                if a == b {
                    continue;
                }
                let a_has_b = fed.node(a).pastry.leaf_set().members().any(|i| i.addr == b);
                let b_has_a = fed.node(b).pastry.leaf_set().members().any(|i| i.addr == a);
                if b_has_a && !a_has_b {
                    return Some(Violation::AsymmetricPeers { a, b });
                }
            }
        }
    }

    // No double-counted aggregate: root count equals the live
    // subscribed membership.
    if ctx.check_aggregate {
        let expected = live_nodes(fed)
            .filter(|n| {
                fed.node(*n)
                    .scribe
                    .topic(topic)
                    .is_some_and(|st| st.subscribed)
            })
            .count() as u64;
        if expected > 0 {
            let reported = fed.tree_root_count(topic);
            if reported != Some(expected) {
                return Some(Violation::AggregateMismatch { reported, expected });
            }
        }
    }

    // No committed query lost: a query whose origin is still alive must
    // have completed (retries are bounded, so quiescence ⇒ completion).
    // Only a completed record is retired, so a retired one counts as
    // completed; with its record gone it no longer gets the
    // `unsatisfied-query` and `unheld-result` checks below. The latter
    // only bites with commits on, as in `root-crash-mid-query`.
    for (origin, id) in fed.issued_queries() {
        if !live(fed, origin) {
            continue;
        }
        let seq = id.seq();
        match fed.query_record(origin, id) {
            None if fed.node(origin).host.retired(id) => {}
            None => return Some(Violation::LostQuery { origin, seq }),
            Some(rec) => {
                if rec.completed_at.is_none() {
                    return Some(Violation::LostQuery { origin, seq });
                }
                if ctx.strict_recall && !rec.satisfied && ctx.holders.iter().all(|h| live(fed, *h))
                {
                    return Some(Violation::UnsatisfiedQuery { origin, seq });
                }
                // Satisfied means held: exactly k distinct nodes, each (if
                // alive, with commits on) committed to the query.
                let k = rec.query.k as usize;
                let nodes: BTreeSet<NodeAddr> = rec.result.iter().map(|c| c.addr).collect();
                let held =
                    |n: &NodeAddr| fed.node(*n).host.hold == Some(Hold::Committed { by: id });
                if rec.satisfied
                    && (rec.result.len() != k
                        || nodes.len() != k
                        || fed.config().commit_results
                            && !nodes.iter().filter(|n| live(fed, **n)).all(held))
                {
                    return Some(Violation::UnheldResult { origin, seq });
                }
            }
        }
    }

    None
}
