//! The RBAY node application: the key-value attribute map, the active
//! attribute runtime binding, reservations, and the [`ScribeHost`]
//! callbacks that implement the node-side of the query protocol.
//!
//! Host callbacks never send messages themselves; they queue [`Op`]s which
//! the enclosing actor drains with full access to the Pastry/Scribe state
//! (see [`crate::actor`]).

use crate::frontdoor::{query_key, Frontdoor, FrontdoorConfig, FrontdoorDecision};
use crate::naming::HybridNaming;
use crate::types::{Candidate, QueryId, QueryRecord, RbayEvent, RbayPayload, SearchState};
use aascript::analysis::{has_errors, Diagnostic, LintOptions};
use aascript::{AaInstance, Script, SharedSandbox, Value};
use pastry::NodeId;
use rbay_query::{AttrValue, Query};
use rbay_store::{Store, WalRecord};
use scribe::{AggValue, ScribeHost, TopicId, Visit};
use simnet::obs::{ObsEvent, Recorder};
use simnet::{NodeAddr, SimDuration, SimTime, SiteId, TimerToken};
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

/// Tunables of the RBAY layer.
///
/// ```
/// use rbay_core::RbayConfig;
/// use simnet::SimDuration;
///
/// let cfg = RbayConfig {
///     failure_detection: true,
///     heartbeat_timeout: SimDuration::from_millis(500),
///     ..RbayConfig::default()
/// };
/// assert!(cfg.site_isolation, "isolation is on by default");
/// ```
#[derive(Debug, Clone)]
pub struct RbayConfig {
    /// How long a reservation holds before expiring un-committed
    /// (the paper's "short time window").
    pub reserve_ttl: SimDuration,
    /// Give up waiting for probe/search answers after this long.
    pub query_timeout: SimDuration,
    /// Base slot for the truncated exponential backoff on conflicts.
    pub backoff_slot: SimDuration,
    /// Maximum query attempts before reporting a partial result.
    pub max_attempts: u32,
    /// Instruction budget per AA handler invocation.
    pub aa_budget: u64,
    /// Name under which RBAY trees are created (the "creator" of TreeIds).
    pub creator: String,
    /// Whether satisfied queries commit their chosen nodes (step 5). The
    /// latency experiments turn this off so repeated measurement queries
    /// do not exhaust the inventory ("if the customer decides not to take
    /// them, the locks are released").
    pub commit_results: bool,
    /// Administrative isolation (§III.E): when true, per-site trees route
    /// within their site (site-scoped convergence, per-site roots). When
    /// false, trees keep their per-site names but rendezvous on the global
    /// ring — the deployment measured in Fig. 11, where joins and
    /// deliveries traverse cross-region overlay hops.
    pub site_isolation: bool,
    /// Heartbeat-based failure detection: when true, each maintenance
    /// round pings this node's overlay neighbours; a peer that has not
    /// answered within `heartbeat_timeout` is declared failed, its routing
    /// entries removed, and its trees repaired. (Churn handling — the
    /// paper's future-work evaluation, §VI.)
    pub failure_detection: bool,
    /// How long an unanswered heartbeat may stay outstanding.
    pub heartbeat_timeout: SimDuration,
    /// When set, every tree also aggregates statistics of this attribute
    /// alongside its size: `Multi[Count, Mean, Min, Max]` rolled up to the
    /// root ("the average value of all nodes' attributes", §II.B.3).
    pub aggregate_attr: Option<String>,
    /// What install does with `aalint` findings on a submitted AA script.
    pub lint_policy: LintPolicy,
    /// Extra globals this deployment injects into AA environments (via
    /// `set_global`) beyond the standard `now_ms`/`attrs`/`sha1hex`; the
    /// linter treats reads of these as defined.
    pub lint_externs: Vec<String>,
    /// Front-door cache coherence: when true, every `post_resource` /
    /// `update_attr` emits an [`RbayPayload::Invalidate`] multicast over
    /// the site-local `__frontdoor` tree (plus one Direct per remote site's
    /// gateway, which re-multicasts there), so gateway result caches never
    /// serve a result whose inputs changed. Off by default — deployments
    /// without a front door should not pay the write-path fan-out.
    pub frontdoor_invalidation: bool,
}

/// Install-time enforcement level for static analysis of AA scripts
/// (RBAY accepts arbitrary client code into the information plane, so the
/// host vets it before instantiation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LintPolicy {
    /// Refuse installation when the linter reports any error-severity
    /// diagnostic (warnings still install, but are recorded).
    Deny,
    /// Install regardless, recording all diagnostics in
    /// [`RbayHost::lint_reports`]. The default: existing deployments keep
    /// working while operators gain visibility.
    #[default]
    Warn,
    /// Skip analysis entirely.
    Off,
}

/// Why an AA script was rejected at install time.
#[derive(Debug)]
pub enum InstallError {
    /// The source failed to parse or compile.
    Compile(aascript::CompileError),
    /// The linter found error-severity diagnostics and the policy is
    /// [`LintPolicy::Deny`].
    Lint(Vec<Diagnostic>),
    /// Top-level code raised while instantiating the script.
    Runtime(aascript::RuntimeError),
}

impl std::fmt::Display for InstallError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InstallError::Compile(e) => write!(f, "compile error: {e}"),
            InstallError::Lint(diags) => {
                write!(f, "rejected by lint policy:")?;
                for d in diags {
                    write!(f, "\n  {d}")?;
                }
                Ok(())
            }
            InstallError::Runtime(e) => write!(f, "instantiation error: {e}"),
        }
    }
}

impl std::error::Error for InstallError {}

/// What [`RbayHost::attach_store`] recovered from a durable store (and
/// what it refused to re-install).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RestoreSummary {
    /// Attributes restored into the key-value map.
    pub attrs: usize,
    /// Handler sources re-compiled, re-linted, and re-installed.
    pub handlers: usize,
    /// Handler sources rejected on restore and quarantined (see
    /// [`RbayHost::quarantined`]).
    pub quarantined: usize,
    /// Tree subscriptions queued for re-join.
    pub subs: usize,
    /// Committed reservations re-held.
    pub committed: usize,
    /// WAL records the store replayed at open.
    pub replay_records: u64,
    /// Wall-clock microseconds the open spent replaying.
    pub replay_micros: u64,
}

impl From<aascript::CompileError> for InstallError {
    fn from(e: aascript::CompileError) -> Self {
        InstallError::Compile(e)
    }
}

impl From<aascript::RuntimeError> for InstallError {
    fn from(e: aascript::RuntimeError) -> Self {
        InstallError::Runtime(e)
    }
}

impl Default for RbayConfig {
    fn default() -> Self {
        RbayConfig {
            reserve_ttl: SimDuration::from_millis(2_000),
            query_timeout: SimDuration::from_millis(5_000),
            backoff_slot: SimDuration::from_millis(100),
            max_attempts: 5,
            aa_budget: 10_000,
            creator: "rbay".to_owned(),
            commit_results: true,
            site_isolation: true,
            failure_detection: false,
            heartbeat_timeout: SimDuration::from_millis(1_500),
            aggregate_attr: None,
            lint_policy: LintPolicy::default(),
            lint_externs: Vec::new(),
            frontdoor_invalidation: false,
        }
    }
}

/// Name of the per-site control tree carrying front-door cache
/// invalidations (gateways subscribe on [`RbayHost::enable_frontdoor`]).
pub const FRONTDOOR_TREE: &str = "__frontdoor";

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
    /// heartbeat proves alive a peer that a false-positive failure repair
    /// may have evicted.
    LearnPeer {
        /// The peer's overlay identity.
        info: pastry::NodeInfo,
    },
}

/// Every this many heartbeat rounds, suspected peers are re-pinged once.
/// A corpse never answers, so the cost is bounded by the suspected-list
/// size; a recovered peer's Pong is the only liveness proof that can
/// reach a suspecter the peer itself does not know about.
pub const SUSPECT_PROBE_PERIOD: u64 = 4;

/// Timer token kinds (low two bits of the token).
pub const TIMER_KIND_TIMEOUT: u64 = 1;
/// Retry (backoff) timer kind.
pub const TIMER_KIND_RETRY: u64 = 2;

/// Builds a query-timer token from a query sequence number, the attempt
/// it belongs to, and the kind. Stale timers from earlier attempts are
/// recognized (and ignored) by the attempt field.
pub fn query_timer_token(seq: u32, attempt: u32, kind: u64) -> TimerToken {
    TimerToken(((seq as u64) << 10) | (((attempt as u64) & 0xFF) << 2) | kind)
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
    /// Outstanding heartbeats: peer → send time.
    pub pending_pings: BTreeMap<NodeAddr, SimTime>,
    /// Peers this node has declared failed (for diagnostics and so a
    /// node is only declared once).
    pub suspected: Vec<NodeAddr>,
    /// Peers found dead this dispatch; the actor runs the routing-layer
    /// repairs for them after the callback returns.
    pub newly_failed: Vec<NodeAddr>,
    /// Heartbeat nonce counter.
    next_nonce: u64,
    /// Heartbeat round counter, used to pace suspected-peer probes.
    hb_round: u64,
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
            pending_pings: BTreeMap::new(),
            suspected: Vec::new(),
            newly_failed: Vec::new(),
            next_nonce: 0,
            hb_round: 0,
            ops: VecDeque::new(),
            aa_denials: 0,
            aa_errors: 0,
            lint_reports: Vec::new(),
            obs: Recorder::default(),
            frontdoor: None,
            store: None,
            quarantined: Vec::new(),
        }
    }

    /// The scoped topic of the `attr=value` tree in `site`.
    pub fn tree_topic(&self, tree_name: &str, site: SiteId) -> TopicId {
        TopicId::scoped(tree_name, &self.cfg.creator, site)
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

    /// Appends one durable record — *before* the enclosing mutation is
    /// acknowledged to anyone. A no-op for in-memory hosts, and for
    /// records that would not change the durable image (the store dedupes,
    /// so per-round dynamic-tree re-joins and idempotent updates cost
    /// nothing). Store I/O errors are counted but never crash the host:
    /// the node degrades to in-memory behaviour instead of dropping live
    /// traffic.
    fn persist(&mut self, rec: WalRecord) {
        let Some(store) = self.store.as_mut() else {
            return;
        };
        let snaps_before = store.stats().snapshots;
        match store.append(&rec) {
            Ok(false) => {}
            Ok(true) => {
                let stats = store.stats();
                let node = self.addr;
                self.obs.count(node, "store_append");
                self.obs.record_with(|at| ObsEvent::StoreAppend {
                    at,
                    node,
                    kind: rec.kind(),
                    wal_records: stats.wal_records,
                });
                if stats.snapshots > snaps_before {
                    self.obs.count(node, "store_snapshot");
                    self.obs.record_with(|at| ObsEvent::StoreSnapshot {
                        at,
                        node,
                        snapshots: stats.snapshots,
                    });
                }
            }
            Err(_) => {
                let node = self.addr;
                self.obs.count(node, "store_append_err");
            }
        }
    }

    /// Adopts a durable store and restores its recovered image into this
    /// host: attributes land directly, recovered handler sources are
    /// re-compiled and **re-linted under the current policy** (a source
    /// that was admitted under `Warn` but fails under `Deny` is
    /// quarantined, not installed), subscriptions are queued as joins
    /// (the per-round retry machinery handles pre-join timing), and
    /// committed reservations are re-held. Call before the node joins the
    /// overlay.
    pub fn attach_store(&mut self, store: Box<Store>) -> RestoreSummary {
        let state = store.state().clone();
        let stats = store.stats();
        self.store = Some(store);
        let node = self.addr;
        self.obs
            .count_n(node, "store_replay_records", stats.replay_records);
        self.obs.record_with(|at| ObsEvent::StoreReplay {
            at,
            node,
            records: stats.replay_records,
            micros: stats.replay_micros,
        });
        let mut summary = RestoreSummary {
            attrs: state.attrs.len(),
            replay_records: stats.replay_records,
            replay_micros: stats.replay_micros,
            ..RestoreSummary::default()
        };
        // No invalidation multicast for restored attributes: the values
        // are not new, so any front-door entry caching them is still
        // coherent.
        self.attrs.extend(state.attrs);
        if let Some(src) = &state.node_aa {
            match self.build_aa("node", src) {
                Ok(inst) => {
                    self.node_aa = Some(inst);
                    summary.handlers += 1;
                }
                Err(e) => self.quarantine_on_restore("node", &e, &mut summary),
            }
        }
        for (attr, src) in &state.attr_aas {
            match self.build_aa(attr, src) {
                Ok(inst) => {
                    self.attr_aas.insert(attr.clone(), inst);
                    summary.handlers += 1;
                }
                Err(e) => self.quarantine_on_restore(attr, &e, &mut summary),
            }
        }
        for (topic, scope) in &state.subs {
            self.sub_requested.insert(*topic, self.now);
            self.ops.push_back(Op::Subscribe {
                topic: *topic,
                scope: *scope,
            });
            summary.subs += 1;
        }
        summary.committed = state.committed.len();
        self.committed = state.committed.iter().map(|&q| QueryId(q)).collect();
        if let Some(q) = state.reserved {
            // Commits hold their reservation far beyond the protocol
            // horizon (release is explicit); re-hold it the same way.
            self.reservation = Some((QueryId(q), self.now + SimDuration::from_secs(3_600)));
        }
        summary
    }

    /// Records one restore-time handler rejection: diagnostic kept on the
    /// host, counter surfaced through the store stats, node keeps booting.
    fn quarantine_on_restore(
        &mut self,
        label: &str,
        err: &InstallError,
        summary: &mut RestoreSummary,
    ) {
        self.quarantined.push((label.to_owned(), err.to_string()));
        if let Some(store) = self.store.as_mut() {
            store.note_relint_reject();
        }
        let node = self.addr;
        self.obs.count(node, "restore_relint_rejects");
        self.obs
            .record_with(|at| ObsEvent::RestoreRelintReject { at, node });
        summary.quarantined += 1;
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
        let topic = self.tree_topic(FRONTDOOR_TREE, self.site);
        let scope = self.routing_scope(self.site);
        self.ops.push_back(Op::Multicast {
            topic,
            scope,
            payload: RbayPayload::Invalidate {
                attr: attr.to_owned(),
                fanout: false,
            },
        });
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
                // it. Distinguish sheds issued while the local overlay is
                // repairing (suspected peers outstanding) so operators can
                // tell overload from churn-induced retry-after.
                self.obs.count(node, "fd_shed");
                if !self.suspected.is_empty() {
                    self.obs.count(node, "fd_shed_repair");
                }
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

    /// Extends an AA instance with RBAY's runtime primitives — currently
    /// `sha1hex(s)`, which enables the public/private-key authentication
    /// the paper sketches in §III.B: the AA stores `PubKey =
    /// sha1hex(secret)` and the query authenticates by presenting the
    /// secret.
    fn add_runtime_natives(inst: &AaInstance) {
        let f: aascript::NativeFn = std::rc::Rc::new(|args: &[Value]| {
            let s = match args.first() {
                Some(Value::Str(s)) => s.to_string(),
                other => aascript::display_value(other.unwrap_or(&Value::Nil)),
            };
            let digest = pastry::sha1::sha1(s.as_bytes());
            let hex: String = digest.iter().map(|b| format!("{b:02x}")).collect();
            Ok(Value::str(hex))
        });
        inst.set_global("sha1hex", Value::Native("sha1hex", f));
    }

    /// Lints a compiled script under this host's policy, recording
    /// diagnostics in [`Self::lint_reports`] under `label`. Returns the
    /// error diagnostics the installer must refuse on (empty unless the
    /// policy is [`LintPolicy::Deny`]).
    fn lint_script(&mut self, label: &str, script: &Script) -> Vec<Diagnostic> {
        if self.cfg.lint_policy == LintPolicy::Off {
            return Vec::new();
        }
        let mut externs: Vec<String> = ["now_ms", "attrs", "sha1hex"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        externs.extend(self.cfg.lint_externs.iter().cloned());
        let opts = LintOptions {
            budget: Some(self.cfg.aa_budget),
            externs,
        };
        let diags = script.analyze(&opts);
        if self.cfg.lint_policy == LintPolicy::Deny && has_errors(&diags) {
            return diags;
        }
        if !diags.is_empty() {
            self.lint_reports.push((label.to_owned(), diags));
        }
        Vec::new()
    }

    /// Compiles, lints, and instantiates one AA script.
    fn build_aa(&mut self, label: &str, src: &str) -> Result<AaInstance, InstallError> {
        let script = Script::compile(src)?;
        let rejected = self.lint_script(label, &script);
        if !rejected.is_empty() {
            return Err(InstallError::Lint(rejected));
        }
        let inst = script.instantiate(&self.sandbox, self.cfg.aa_budget)?;
        Self::add_runtime_natives(&inst);
        Ok(inst)
    }

    /// Installs the node-level policy AA from source. The script is vetted
    /// by the `aalint` static analysis first, per
    /// [`RbayConfig::lint_policy`].
    ///
    /// # Errors
    ///
    /// Compile errors, lint rejections (under [`LintPolicy::Deny`]), or
    /// instantiation-time runtime errors.
    pub fn install_node_aa(&mut self, src: &str) -> Result<(), InstallError> {
        let inst = self.build_aa("node", src)?;
        self.persist(WalRecord::NodeAaInstall {
            source: src.to_owned(),
        });
        self.node_aa = Some(inst);
        Ok(())
    }

    /// Installs a per-attribute AA from source. The script is vetted by
    /// the `aalint` static analysis first, per [`RbayConfig::lint_policy`].
    ///
    /// # Errors
    ///
    /// Compile errors, lint rejections (under [`LintPolicy::Deny`]), or
    /// instantiation-time runtime errors.
    pub fn install_attr_aa(&mut self, attr: &str, src: &str) -> Result<(), InstallError> {
        let inst = self.build_aa(attr, src)?;
        self.persist(WalRecord::AttrAaInstall {
            attr: attr.to_owned(),
            source: src.to_owned(),
        });
        self.attr_aas.insert(attr.to_owned(), inst);
        Ok(())
    }

    /// The AA consulted for a query anchored at `attr`: the attribute's own
    /// AA if present, else the node AA.
    fn aa_for(&self, attr: Option<&str>) -> Option<&AaInstance> {
        attr.and_then(|a| self.attr_aas.get(a))
            .or(self.node_aa.as_ref())
    }

    /// Refreshes the runtime globals handlers may read: `now_ms` (virtual
    /// time) enables time-window policies like the paper's "available
    /// after 10:00 PM" example, and the node's current attribute map is
    /// exposed as the `attrs` table.
    fn refresh_aa_env(&self, aa: &AaInstance) {
        aa.set_global("now_ms", Value::Num(self.now.as_millis_f64()));
        let table = Value::table();
        if let Value::Table(t) = &table {
            let mut t = t.borrow_mut();
            for (k, v) in &self.attrs {
                t.set(
                    aascript::Key::Str(k.as_str().into()),
                    Self::attr_to_script(v),
                );
            }
        }
        aa.set_global("attrs", table);
    }

    /// Invokes `onGet` (paper Table I): returns whether access is granted.
    /// A missing handler grants by default; a runtime error denies.
    pub fn check_on_get(
        &mut self,
        anchor_attr: Option<&str>,
        caller: &str,
        password: Option<&str>,
    ) -> bool {
        let budget = self.cfg.aa_budget;
        let Some(aa) = self.aa_for(anchor_attr) else {
            return true;
        };
        if !aa.has_handler("onGet") {
            return true;
        }
        self.refresh_aa_env(aa);
        let args = [
            Value::str(caller),
            password.map(Value::str).unwrap_or(Value::Nil),
        ];
        match aa.invoke("onGet", &args, budget) {
            Ok(v) if v.truthy() => true,
            Ok(_) => {
                self.aa_denials += 1;
                false
            }
            Err(_) => {
                self.aa_errors += 1;
                false
            }
        }
    }

    /// Converts an [`AttrValue`] into a script value.
    pub fn attr_to_script(v: &AttrValue) -> Value {
        match v {
            AttrValue::Bool(b) => Value::Bool(*b),
            AttrValue::Num(n) => Value::Num(*n),
            AttrValue::Str(s) => Value::str(s),
        }
    }

    /// Converts a script value back into an [`AttrValue`] (functions and
    /// tables are stringified).
    pub fn script_to_attr(v: &Value) -> Option<AttrValue> {
        match v {
            Value::Nil => None,
            Value::Bool(b) => Some(AttrValue::Bool(*b)),
            Value::Num(n) => Some(AttrValue::Num(*n)),
            other => Some(AttrValue::Str(aascript::display_value(other))),
        }
    }

    /// Whether this node currently holds an un-expired reservation for a
    /// different query.
    pub fn is_reserved_against(&self, query: QueryId) -> bool {
        match self.reservation {
            Some((by, until)) => by != query && until > self.now,
            None => false,
        }
    }

    /// Releases whatever reservation this node holds, persisting the
    /// release first so a restart does not resurrect it. Operator control
    /// path; the query protocol releases via [`RbayPayload::Release`].
    pub fn release_reservation(&mut self) {
        if let Some((by, _)) = self.reservation {
            self.persist(WalRecord::Release { query: by.0 });
            self.reservation = None;
        }
    }

    /// One step of the search walk visiting this node (protocol step 4):
    /// check the full predicate, check the reservation, consult `onGet`,
    /// then reserve and fill a slot.
    fn visit_search(&mut self, state: &mut SearchState) -> Visit {
        let k = state.query.k as usize;
        if state.slots.len() >= k {
            return Visit::Stop;
        }
        let matches = state.query.matches_all(|attr| self.attrs.get(attr));
        if !matches {
            return Visit::Continue;
        }
        if self.is_reserved_against(state.query_id) {
            return Visit::Continue;
        }
        let anchor = state.query.anchors().next().map(|p| p.attr.clone());
        let caller = format!("{}", state.reply_to);
        if !self.check_on_get(anchor.as_deref(), &caller, state.password.as_deref()) {
            return Visit::Continue;
        }
        self.reservation = Some((state.query_id, self.now + self.cfg.reserve_ttl));
        let sort_key = state
            .query
            .order_by
            .as_ref()
            .and_then(|(attr, _)| self.attrs.get(attr).cloned());
        state.slots.push(Candidate {
            id: self.id,
            addr: self.addr,
            site: self.site,
            sort_key,
        });
        if state.slots.len() >= k {
            Visit::Stop
        } else {
            Visit::Continue
        }
    }

    /// Runs the periodic AA maintenance (paper Table I `onTimer`,
    /// `onSubscribe`, `onUnsubscribe`): fires `onTimer`, then lets the
    /// node AA decide membership of each dynamic tree.
    pub fn maintenance(&mut self) {
        let budget = self.cfg.aa_budget;
        // onTimer on every installed AA.
        if let Some(aa) = &self.node_aa {
            self.refresh_aa_env(aa);
            if aa.has_handler("onTimer") {
                let _ = aa.invoke("onTimer", &[], budget);
            }
        }
        for aa in self.attr_aas.values() {
            self.refresh_aa_env(aa);
            if aa.has_handler("onTimer") {
                let _ = aa.invoke("onTimer", &[], budget);
            }
        }
        // Membership checks for dynamic trees.
        let trees: Vec<String> = self.dynamic_trees.clone();
        for tree in trees {
            let topic = self.tree_topic(&tree, self.site);
            let (mut join, mut leave) = (false, false);
            if let Some(aa) = &self.node_aa {
                if aa.has_handler("onSubscribe") {
                    match aa.invoke("onSubscribe", &[Value::Nil, Value::str(&tree)], budget) {
                        Ok(v) => join = v.truthy(),
                        Err(_) => self.aa_errors += 1,
                    }
                }
                if aa.has_handler("onUnsubscribe") {
                    match aa.invoke("onUnsubscribe", &[Value::Nil, Value::str(&tree)], budget) {
                        Ok(v) => leave = v.truthy(),
                        Err(_) => self.aa_errors += 1,
                    }
                }
            }
            if join && !leave {
                let scope = self.routing_scope(self.site);
                // Deduped by the store after the first round.
                self.persist(WalRecord::SubAdd { topic, scope });
                self.sub_requested.entry(topic).or_insert(self.now);
                self.ops.push_back(Op::Subscribe { topic, scope });
            } else if leave {
                self.persist(WalRecord::SubRemove { topic });
                self.ops.push_back(Op::Unsubscribe { topic });
            }
        }
    }

    /// Heartbeat bookkeeping for one maintenance round: expires overdue
    /// pings (declaring those peers failed), records fresh pings for
    /// `peers`, and probes suspected peers every
    /// [`SUSPECT_PROBE_PERIOD`]th round so a recovered node can prove
    /// itself alive to suspecters it does not know about. Returns the
    /// ping ops for the actor to send.
    pub fn heartbeat_round(&mut self, peers: &[NodeAddr]) {
        if !self.cfg.failure_detection {
            return;
        }
        // Any peer that owes us a pong past the deadline is dead.
        let deadline = self.cfg.heartbeat_timeout;
        let overdue: Vec<NodeAddr> = self
            .pending_pings
            .iter()
            .filter(|(_, sent)| self.now.saturating_since(**sent) > deadline)
            .map(|(p, _)| *p)
            .collect();
        for peer in overdue {
            self.pending_pings.remove(&peer);
            if !self.suspected.contains(&peer) {
                self.suspected.push(peer);
                self.newly_failed.push(peer);
                let detector = self.addr;
                self.obs.count(detector, "hb_expire");
                self.obs
                    .record_with(|at| ObsEvent::HeartbeatExpire { at, detector, peer });
            }
        }
        // Ping everyone we have not already pinged and not buried.
        for &peer in peers {
            if peer == self.addr
                || self.pending_pings.contains_key(&peer)
                || self.suspected.contains(&peer)
            {
                continue;
            }
            let nonce = self.next_nonce;
            self.next_nonce += 1;
            self.pending_pings.insert(peer, self.now);
            let from = self.addr;
            self.obs.count(from, "hb_send");
            self.obs
                .record_with(|at| ObsEvent::HeartbeatSend { at, from, to: peer });
            let info = self.self_info();
            self.ops.push_back(Op::Direct {
                to: peer,
                payload: RbayPayload::Ping { nonce, info },
            });
        }
        // Probe the suspected list at a slow cadence. Repair evicts a
        // declared peer from every table, so its suspecters stop pinging
        // it — but routing-table knowledge is asymmetric, and a recovered
        // peer that never knew its suspecter would otherwise stay buried
        // forever (gossip cannot re-insert it through the quarantine). A
        // corpse stays silent; a revived peer's Pong proves it alive.
        self.hb_round = self.hb_round.wrapping_add(1);
        if self.hb_round.is_multiple_of(SUSPECT_PROBE_PERIOD) {
            let targets: Vec<NodeAddr> = self
                .suspected
                .iter()
                .copied()
                .filter(|p| !self.pending_pings.contains_key(p))
                .collect();
            for peer in targets {
                let nonce = self.next_nonce;
                self.next_nonce += 1;
                self.pending_pings.insert(peer, self.now);
                let from = self.addr;
                self.obs.count(from, "suspect_probe");
                let info = self.self_info();
                self.ops.push_back(Op::Direct {
                    to: peer,
                    payload: RbayPayload::Ping { nonce, info },
                });
            }
        }
    }

    /// Clears any failure suspicion of `peer`: a message from the peer
    /// proves it alive, so a recovered (or falsely-declared) node must be
    /// re-pinged and re-grafted rather than stay buried forever.
    pub fn unsuspect(&mut self, peer: NodeAddr) {
        if self.suspected.is_empty() {
            return;
        }
        if let Some(i) = self.suspected.iter().position(|p| *p == peer) {
            self.suspected.swap_remove(i);
            // Drop any stale outstanding ping so the next heartbeat round
            // starts the peer with a clean slate.
            self.pending_pings.remove(&peer);
            let node = self.addr;
            self.obs.count(node, "unsuspect");
            self.obs
                .record_with(|at| ObsEvent::Unsuspect { at, node, peer });
        }
    }

    /// Total memory attributable to active attributes on this node
    /// (Fig. 8c accounting).
    pub fn aa_bytes(&self) -> usize {
        self.attr_aas
            .values()
            .map(|a| a.size_bytes())
            .sum::<usize>()
            + self.node_aa.as_ref().map(|a| a.size_bytes()).unwrap_or(0)
    }
}

impl ScribeHost<RbayPayload> for RbayHost {
    fn on_multicast(&mut self, _topic: TopicId, payload: &RbayPayload) {
        if let RbayPayload::Invalidate { attr, .. } = payload {
            if let Some(fd) = self.frontdoor.as_mut() {
                if fd.invalidate_attr(attr) > 0 {
                    let node = self.addr;
                    self.obs.count(node, "fd_invalidate");
                }
            }
            return;
        }
        let RbayPayload::Admin(cmd) = payload else {
            return;
        };
        self.events.push(RbayEvent::AdminDelivered {
            cmd_id: cmd.cmd_id,
            issued_at: cmd.issued_at,
            delivered_at: self.now,
        });
        // onDeliver: the handler may transform the delivered value before
        // it lands in the key-value map (paper Table I).
        let budget = self.cfg.aa_budget;
        let new_value = match self.aa_for(Some(&cmd.attr)) {
            Some(aa) if aa.has_handler("onDeliver") => {
                self.refresh_aa_env(aa);
                match aa.invoke(
                    "onDeliver",
                    &[Value::Nil, Self::attr_to_script(&cmd.payload)],
                    budget,
                ) {
                    Ok(v) => Self::script_to_attr(&v),
                    Err(_) => {
                        self.aa_errors += 1;
                        None
                    }
                }
            }
            _ => Some(cmd.payload.clone()),
        };
        if let Some(v) = new_value {
            self.persist(WalRecord::AttrPut {
                attr: cmd.attr.clone(),
                value: v.clone(),
            });
            self.attrs.insert(cmd.attr.clone(), v);
        }
    }

    fn on_anycast_visit(&mut self, _topic: TopicId, payload: &mut RbayPayload) -> Visit {
        match payload {
            RbayPayload::Search(state) => self.visit_search(state),
            _ => Visit::Continue,
        }
    }

    fn on_anycast_result(&mut self, _topic: TopicId, payload: RbayPayload, satisfied: bool) {
        let RbayPayload::Search(state) = payload else {
            return;
        };
        if state.reply_to == self.addr {
            // We are the querier: this was a local-site search.
            self.record_site_result(state.query_id, self.site, state.slots, satisfied);
        } else {
            // We are a gateway: echo the result to the querier.
            self.ops.push_back(Op::Direct {
                to: state.reply_to,
                payload: RbayPayload::SearchEcho {
                    query_id: state.query_id,
                    site: self.site,
                    slots: state.slots,
                    satisfied,
                },
            });
        }
    }

    fn on_probe_reply(
        &mut self,
        _topic: TopicId,
        payload: RbayPayload,
        agg: Option<AggValue>,
        exists: bool,
    ) {
        if let RbayPayload::StatsProbe { reply_to, tree } = payload {
            if reply_to == self.addr {
                self.tree_stats.insert(tree, (agg, exists, self.now));
            } else {
                self.ops.push_back(Op::Direct {
                    to: reply_to,
                    payload: RbayPayload::StatsEcho { tree, agg, exists },
                });
            }
            return;
        }
        let RbayPayload::SizeProbe {
            query_id,
            tree_idx,
            reply_to,
            site,
        } = payload
        else {
            return;
        };
        let size = agg.and_then(|a| a.as_count());
        if reply_to == self.addr {
            self.record_probe(query_id, tree_idx, site, size, exists);
        } else {
            self.ops.push_back(Op::Direct {
                to: reply_to,
                payload: RbayPayload::ProbeEcho {
                    query_id,
                    tree_idx,
                    site,
                    size,
                    exists,
                },
            });
        }
    }

    fn on_direct(&mut self, from: NodeAddr, payload: RbayPayload) {
        let _from = from;
        match payload {
            RbayPayload::ProbeEcho {
                query_id,
                tree_idx,
                site,
                size,
                exists,
            } => {
                self.record_probe(query_id, tree_idx, site, size, exists);
            }
            RbayPayload::SearchEcho {
                query_id,
                site,
                slots,
                satisfied,
            } => {
                self.record_site_result(query_id, site, slots, satisfied);
            }
            RbayPayload::RemoteProbe {
                query_id,
                reply_to,
                site,
                trees,
            } => {
                for (i, tree) in trees.iter().enumerate() {
                    let topic = self.tree_topic(tree, site);
                    self.ops.push_back(Op::Probe {
                        topic,
                        scope: self.routing_scope(site),
                        payload: RbayPayload::SizeProbe {
                            query_id,
                            tree_idx: i as u8,
                            reply_to,
                            site,
                        },
                    });
                }
            }
            RbayPayload::RemoteSearch { state, tree } => {
                let topic = self.tree_topic(&tree, self.site);
                self.ops.push_back(Op::Anycast {
                    topic,
                    scope: self.routing_scope(self.site),
                    payload: RbayPayload::Search(state),
                });
            }
            RbayPayload::Commit { query_id } => {
                if let Some((by, _)) = self.reservation {
                    if by == query_id {
                        self.persist(WalRecord::Commit { query: query_id.0 });
                        self.committed.push(query_id);
                        // Hold far beyond the protocol horizon; release is
                        // explicit from here on.
                        self.reservation =
                            Some((query_id, self.now + SimDuration::from_secs(3_600)));
                    }
                }
            }
            RbayPayload::Release { query_id } => {
                if let Some((by, _)) = self.reservation {
                    if by == query_id {
                        self.persist(WalRecord::Release { query: query_id.0 });
                        self.reservation = None;
                    }
                }
            }
            RbayPayload::StatsEcho { tree, agg, exists } => {
                self.tree_stats.insert(tree, (agg, exists, self.now));
            }
            RbayPayload::Ping { nonce, info } => {
                // The pinger may have been evicted from this node's
                // routing state by a false-positive repair; its heartbeat
                // proves it alive, so re-learn it.
                self.ops.push_back(Op::LearnPeer { info });
                let my_info = self.self_info();
                self.ops.push_back(Op::Direct {
                    to: _from,
                    payload: RbayPayload::Pong {
                        nonce,
                        info: my_info,
                    },
                });
            }
            RbayPayload::Pong { info, .. } => {
                self.pending_pings.remove(&_from);
                self.ops.push_back(Op::LearnPeer { info });
            }
            RbayPayload::Invalidate { attr, fanout } => {
                if let Some(fd) = self.frontdoor.as_mut() {
                    if fd.invalidate_attr(&attr) > 0 {
                        let node = self.addr;
                        self.obs.count(node, "fd_invalidate");
                    }
                }
                if fanout {
                    // Border-router relay: spread the invalidation to the
                    // rest of this site's gateways over the local tree.
                    let topic = self.tree_topic(FRONTDOOR_TREE, self.site);
                    let scope = self.routing_scope(self.site);
                    self.ops.push_back(Op::Multicast {
                        topic,
                        scope,
                        payload: RbayPayload::Invalidate {
                            attr,
                            fanout: false,
                        },
                    });
                }
            }
            _ => {}
        }
    }

    fn on_subscribed(&mut self, topic: TopicId) {
        if let Some(requested_at) = self.sub_requested.remove(&topic) {
            self.events.push(RbayEvent::Subscribed {
                topic,
                requested_at,
                attached_at: self.now,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbay_query::parse_query;

    fn host() -> RbayHost {
        RbayHost::new(
            Rc::new(RbayConfig::default()),
            NodeId(42),
            NodeAddr(7),
            SiteId(0),
            SharedSandbox::new(),
            vec![vec![NodeAddr(0)]],
            vec!["local".into()],
        )
    }

    fn search(k: u32, password: Option<&str>) -> SearchState {
        let q = parse_query(&format!(
            "SELECT {k} FROM * WHERE GPU = true AND CPU_utilization < 50 GROUPBY CPU_utilization ASC"
        ))
        .unwrap();
        SearchState {
            query_id: QueryId(99),
            reply_to: NodeAddr(1),
            query: Rc::new(q),
            password: password.map(str::to_owned),
            slots: Vec::new(),
        }
    }

    #[test]
    fn visit_fills_slot_when_predicates_hold() {
        let mut h = host();
        h.update_attr("GPU", AttrValue::Bool(true));
        h.update_attr("CPU_utilization", AttrValue::Num(10.0));
        let mut s = search(2, None);
        assert_eq!(h.visit_search(&mut s), Visit::Continue, "k=2 needs more");
        assert_eq!(s.slots.len(), 1);
        assert_eq!(s.slots[0].id, NodeId(42));
        assert_eq!(
            s.slots[0].sort_key,
            Some(AttrValue::Num(10.0)),
            "GROUPBY key captured"
        );
        assert!(h.reservation.is_some());
    }

    #[test]
    fn visit_stops_when_buffer_full() {
        let mut h = host();
        h.update_attr("GPU", AttrValue::Bool(true));
        h.update_attr("CPU_utilization", AttrValue::Num(10.0));
        let mut s = search(1, None);
        assert_eq!(h.visit_search(&mut s), Visit::Stop);
    }

    #[test]
    fn visit_skips_on_failed_predicate() {
        let mut h = host();
        h.update_attr("GPU", AttrValue::Bool(true));
        h.update_attr("CPU_utilization", AttrValue::Num(90.0));
        let mut s = search(1, None);
        assert_eq!(h.visit_search(&mut s), Visit::Continue);
        assert!(s.slots.is_empty());
        assert!(h.reservation.is_none());
    }

    #[test]
    fn visit_respects_foreign_reservation_until_expiry() {
        let mut h = host();
        h.update_attr("GPU", AttrValue::Bool(true));
        h.update_attr("CPU_utilization", AttrValue::Num(10.0));
        h.reservation = Some((QueryId(1), SimTime::from_millis(500)));
        h.now = SimTime::from_millis(100);
        let mut s = search(1, None);
        assert_eq!(h.visit_search(&mut s), Visit::Continue, "still locked");
        h.now = SimTime::from_millis(600);
        assert_eq!(h.visit_search(&mut s), Visit::Stop, "lock expired");
    }

    #[test]
    fn password_aa_gates_access() {
        let mut h = host();
        h.update_attr("GPU", AttrValue::Bool(true));
        h.update_attr("CPU_utilization", AttrValue::Num(10.0));
        h.install_node_aa(
            r#"
            AA = {Password = "sesame"}
            function onGet(caller, password)
                if password == AA.Password then
                    return true
                end
                return nil
            end
        "#,
        )
        .unwrap();
        let mut wrong = search(1, Some("guess"));
        assert_eq!(h.visit_search(&mut wrong), Visit::Continue);
        assert_eq!(h.aa_denials, 1);
        let mut right = search(1, Some("sesame"));
        assert_eq!(h.visit_search(&mut right), Visit::Stop);
    }

    #[test]
    fn commit_and_release_lifecycle() {
        let mut h = host();
        h.reservation = Some((QueryId(5), SimTime::from_millis(100)));
        h.on_direct(
            NodeAddr(0),
            RbayPayload::Commit {
                query_id: QueryId(5),
            },
        );
        assert_eq!(h.committed, vec![QueryId(5)]);
        // Commit from the wrong query does nothing.
        h.on_direct(
            NodeAddr(0),
            RbayPayload::Commit {
                query_id: QueryId(6),
            },
        );
        assert_eq!(h.committed.len(), 1);
        h.on_direct(
            NodeAddr(0),
            RbayPayload::Release {
                query_id: QueryId(5),
            },
        );
        assert!(h.reservation.is_none());
    }

    #[test]
    fn admin_multicast_updates_attribute_via_on_deliver() {
        let mut h = host();
        h.update_attr("price", AttrValue::Num(10.0));
        h.install_attr_aa(
            "price",
            r#"
            function onDeliver(caller, value)
                -- admins deliver a multiplier, not an absolute price
                return value * 2
            end
        "#,
        )
        .unwrap();
        h.now = SimTime::from_millis(50);
        h.on_multicast(
            TopicId::new("price", "rbay"),
            &RbayPayload::Admin(crate::types::AdminCommand {
                cmd_id: 1,
                attr: "price".into(),
                payload: AttrValue::Num(21.0),
                issued_at: SimTime::from_millis(10),
            }),
        );
        assert_eq!(h.attrs["price"], AttrValue::Num(42.0));
        assert!(matches!(
            h.events.last(),
            Some(RbayEvent::AdminDelivered { cmd_id: 1, .. })
        ));
    }

    #[test]
    fn admin_multicast_without_handler_sets_value_directly() {
        let mut h = host();
        h.on_multicast(
            TopicId::new("expiry", "rbay"),
            &RbayPayload::Admin(crate::types::AdminCommand {
                cmd_id: 2,
                attr: "expiry".into(),
                payload: AttrValue::str("22:00"),
                issued_at: SimTime::ZERO,
            }),
        );
        assert_eq!(h.attrs["expiry"], AttrValue::str("22:00"));
    }

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
    fn dynamic_tree_membership_follows_on_subscribe() {
        let mut h = host();
        h.dynamic_trees.push("CPU_utilization<10".into());
        h.update_attr("CPU_utilization", AttrValue::Num(5.0));
        h.install_node_aa(
            r#"
            function onSubscribe(caller, topic)
                return utilization < 10
            end
            function onUnsubscribe(caller, topic)
                return utilization >= 10
            end
        "#,
        )
        .unwrap();
        // Expose the live reading to the script.
        h.node_aa
            .as_ref()
            .unwrap()
            .set_global("utilization", Value::Num(5.0));
        h.maintenance();
        assert!(matches!(h.ops.back(), Some(Op::Subscribe { .. })));
        h.ops.clear();
        h.node_aa
            .as_ref()
            .unwrap()
            .set_global("utilization", Value::Num(50.0));
        h.maintenance();
        assert!(matches!(h.ops.back(), Some(Op::Unsubscribe { .. })));
    }

    #[test]
    fn aa_bytes_counts_installed_handlers() {
        let mut h = host();
        assert_eq!(h.aa_bytes(), 0);
        h.install_attr_aa("a", "AA = {Password = \"x\"}").unwrap();
        let one = h.aa_bytes();
        assert!(one > 0);
        h.install_attr_aa("b", "AA = {Password = \"y\"}").unwrap();
        assert!(h.aa_bytes() > one);
    }
}

#[cfg(test)]
mod heartbeat_tests {
    use super::*;
    use aascript::SharedSandbox;
    use pastry::NodeId;
    use rbay_query::AttrValue;

    fn host() -> RbayHost {
        let cfg = RbayConfig {
            failure_detection: true,
            heartbeat_timeout: SimDuration::from_millis(400),
            aggregate_attr: Some("CPU_utilization".into()),
            ..RbayConfig::default()
        };
        RbayHost::new(
            Rc::new(cfg),
            NodeId(1),
            NodeAddr(0),
            SiteId(0),
            SharedSandbox::new(),
            vec![vec![NodeAddr(0), NodeAddr(1), NodeAddr(2)]],
            vec!["local".into()],
        )
    }

    fn peer_info(a: u32) -> pastry::NodeInfo {
        pastry::NodeInfo {
            id: NodeId(a as u128),
            addr: NodeAddr(a),
            site: SiteId(0),
        }
    }

    #[test]
    fn heartbeat_round_pings_new_peers_once() {
        let mut h = host();
        h.heartbeat_round(&[NodeAddr(5), NodeAddr(6)]);
        let pings: Vec<NodeAddr> = h
            .ops
            .iter()
            .filter_map(|op| match op {
                Op::Direct {
                    to,
                    payload: RbayPayload::Ping { .. },
                } => Some(*to),
                _ => None,
            })
            .collect();
        assert_eq!(pings, vec![NodeAddr(5), NodeAddr(6)]);
        h.ops.clear();
        // Outstanding peers are not re-pinged.
        h.heartbeat_round(&[NodeAddr(5), NodeAddr(6)]);
        assert!(h.ops.is_empty());
    }

    #[test]
    fn pong_clears_the_outstanding_ping() {
        use scribe::ScribeHost;
        let mut h = host();
        h.heartbeat_round(&[NodeAddr(5)]);
        h.on_direct(
            NodeAddr(5),
            RbayPayload::Pong {
                nonce: 0,
                info: peer_info(5),
            },
        );
        assert!(h.pending_pings.is_empty());
        // The peer can be pinged again later.
        h.ops.clear();
        h.heartbeat_round(&[NodeAddr(5)]);
        assert_eq!(h.ops.len(), 1);
    }

    #[test]
    fn overdue_pings_declare_failures_exactly_once() {
        let mut h = host();
        h.now = SimTime::from_millis(0);
        h.heartbeat_round(&[NodeAddr(5)]);
        h.now = SimTime::from_millis(1_000);
        h.heartbeat_round(&[]);
        assert_eq!(h.suspected, vec![NodeAddr(5)]);
        assert_eq!(h.newly_failed, vec![NodeAddr(5)]);
        h.newly_failed.clear();
        h.ops.clear();
        // A suspected peer is not re-declared and is dropped from the
        // regular ping set (it only gets the slow-cadence probe).
        h.heartbeat_round(&[NodeAddr(5)]);
        assert!(h.newly_failed.is_empty());
        assert!(h.ops.iter().all(|op| !matches!(
            op,
            Op::Direct {
                payload: RbayPayload::Ping { .. },
                ..
            }
        )));
    }

    #[test]
    fn unsuspect_restores_a_recovered_peer() {
        let mut h = host();
        h.now = SimTime::from_millis(0);
        h.heartbeat_round(&[NodeAddr(5)]);
        h.now = SimTime::from_millis(1_000);
        h.heartbeat_round(&[]);
        assert_eq!(h.suspected, vec![NodeAddr(5)]);
        // Any message from the peer proves it alive: it is un-suspected
        // and eligible for pinging again.
        h.unsuspect(NodeAddr(5));
        assert!(h.suspected.is_empty());
        assert!(h.pending_pings.is_empty());
        h.ops.clear();
        h.newly_failed.clear();
        h.heartbeat_round(&[NodeAddr(5)]);
        assert!(
            h.ops.iter().any(|op| matches!(
                op,
                Op::Direct {
                    to: NodeAddr(5),
                    payload: RbayPayload::Ping { .. },
                }
            )),
            "recovered peer must be pinged again"
        );
        // Un-suspecting a never-suspected peer is a no-op.
        h.unsuspect(NodeAddr(9));
        assert!(h.suspected.is_empty());
    }

    #[test]
    fn suspected_peers_are_probed_at_the_slow_cadence() {
        use crate::host::SUSPECT_PROBE_PERIOD;
        let mut h = host();
        h.now = SimTime::from_millis(0);
        h.heartbeat_round(&[NodeAddr(5)]);
        h.now = SimTime::from_millis(1_000);
        h.heartbeat_round(&[]);
        assert_eq!(h.suspected, vec![NodeAddr(5)]);
        h.ops.clear();
        h.newly_failed.clear();
        // Rounds up to the probe period send nothing to the corpse; the
        // period-th round re-pings it so a revived peer can answer and
        // clear the quarantine even on suspecters it never knew about.
        let mut probed_at = None;
        for round in 1..=SUSPECT_PROBE_PERIOD {
            h.now = SimTime::from_millis(1_000 + round * 1_000);
            h.heartbeat_round(&[]);
            if h.ops.iter().any(|op| {
                matches!(
                    op,
                    Op::Direct {
                        to: NodeAddr(5),
                        payload: RbayPayload::Ping { .. },
                    }
                )
            }) {
                probed_at = Some(round);
                break;
            }
        }
        assert!(
            probed_at.is_some_and(|r| r <= SUSPECT_PROBE_PERIOD),
            "suspected peer was never probed within a full period"
        );
        // The probe never re-declares the peer.
        assert!(h.newly_failed.is_empty());
    }

    #[test]
    fn ping_messages_are_answered_with_pongs() {
        use scribe::ScribeHost;
        let mut h = host();
        h.on_direct(
            NodeAddr(9),
            RbayPayload::Ping {
                nonce: 42,
                info: peer_info(9),
            },
        );
        // The pinger is re-learned (false-positive healing) and answered.
        assert!(matches!(
            h.ops.front(),
            Some(Op::LearnPeer { info }) if info.addr == NodeAddr(9)
        ));
        assert!(h.ops.iter().any(|op| matches!(
            op,
            Op::Direct {
                to: NodeAddr(9),
                payload: RbayPayload::Pong { nonce: 42, .. },
            }
        )));
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
        let mut h = host();
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

#[cfg(test)]
mod lint_tests {
    use super::*;
    use aascript::analysis::LintId;

    fn host_with_policy(policy: LintPolicy) -> RbayHost {
        let cfg = RbayConfig {
            lint_policy: policy,
            ..RbayConfig::default()
        };
        RbayHost::new(
            Rc::new(cfg),
            NodeId(1),
            NodeAddr(0),
            SiteId(0),
            SharedSandbox::new(),
            vec![vec![NodeAddr(0)]],
            vec!["local".into()],
        )
    }

    #[test]
    fn deny_refuses_unknown_handler_name() {
        let mut h = host_with_policy(LintPolicy::Deny);
        let err = h
            .install_node_aa("AA = { onGte = function(q) return true end }")
            .unwrap_err();
        match err {
            InstallError::Lint(diags) => {
                assert!(diags.iter().any(|d| d.id == LintId::UnknownHandler));
                // Spanned: the diagnostic points into the source.
                assert!(diags.iter().all(|d| d.pos.line >= 1));
            }
            other => panic!("expected lint rejection, got {other}"),
        }
        assert!(h.node_aa.is_none(), "rejected script must not be installed");
    }

    #[test]
    fn deny_refuses_undefined_global_read() {
        let mut h = host_with_policy(LintPolicy::Deny);
        let src = "AA = { onGet = function(q) return threshhold < 10 end }";
        let err = h.install_attr_aa("GPU", src).unwrap_err();
        match err {
            InstallError::Lint(diags) => {
                assert!(diags.iter().any(|d| d.id == LintId::UndefinedGlobal));
            }
            other => panic!("expected lint rejection, got {other}"),
        }
        assert!(h.attr_aas.is_empty());
    }

    #[test]
    fn deny_refuses_over_budget_handler() {
        let cfg = RbayConfig {
            lint_policy: LintPolicy::Deny,
            aa_budget: 50,
            ..RbayConfig::default()
        };
        let mut h = RbayHost::new(
            Rc::new(cfg),
            NodeId(1),
            NodeAddr(0),
            SiteId(0),
            SharedSandbox::new(),
            vec![vec![NodeAddr(0)]],
            vec!["local".into()],
        );
        let src = "AA = { onGet = function(q)\n\
                   local s = 0\n\
                   for i = 1, 1000 do s = s + i end\n\
                   return s > 0 end }";
        let err = h.install_node_aa(src).unwrap_err();
        match err {
            InstallError::Lint(diags) => {
                assert!(diags.iter().any(|d| d.id == LintId::CostExceedsBudget));
            }
            other => panic!("expected lint rejection, got {other}"),
        }
    }

    #[test]
    fn warn_installs_and_surfaces_diagnostics() {
        let mut h = host_with_policy(LintPolicy::Warn);
        h.install_node_aa("AA = { onGte = function(q) return true end }")
            .unwrap();
        assert!(h.node_aa.is_some(), "Warn policy still installs");
        assert_eq!(h.lint_reports.len(), 1);
        let (label, diags) = &h.lint_reports[0];
        assert_eq!(label, "node");
        assert!(diags.iter().any(|d| d.id == LintId::UnknownHandler));
    }

    #[test]
    fn off_skips_analysis_entirely() {
        let mut h = host_with_policy(LintPolicy::Off);
        h.install_node_aa("AA = { onGte = function(q) return true end }")
            .unwrap();
        assert!(h.node_aa.is_some());
        assert!(h.lint_reports.is_empty());
    }

    #[test]
    fn clean_script_installs_under_deny_with_host_externs() {
        let mut h = host_with_policy(LintPolicy::Deny);
        // Reads now_ms (host-injected) and sha1hex (runtime native):
        // both are linted as externs, so Deny accepts this.
        let src = "AA = { onGet = function(q)\n\
                   if now_ms < 0 then return false end\n\
                   return sha1hex(\"x\") ~= \"\" end }";
        h.install_node_aa(src).unwrap();
        assert!(h.node_aa.is_some());
        assert!(h.lint_reports.is_empty(), "clean script: nothing to report");
    }

    #[test]
    fn deploy_specific_externs_suppress_undefined_global() {
        let cfg = RbayConfig {
            lint_policy: LintPolicy::Deny,
            lint_externs: vec!["utilization".into()],
            ..RbayConfig::default()
        };
        let mut h = RbayHost::new(
            Rc::new(cfg),
            NodeId(1),
            NodeAddr(0),
            SiteId(0),
            SharedSandbox::new(),
            vec![vec![NodeAddr(0)]],
            vec!["local".into()],
        );
        let src = "AA = { onGet = function(q) return utilization < 90 end }";
        h.install_node_aa(src).unwrap();
        assert!(h.node_aa.is_some());
    }

    #[test]
    fn compile_errors_are_typed() {
        let mut h = host_with_policy(LintPolicy::Warn);
        let err = h.install_node_aa("AA = {").unwrap_err();
        assert!(matches!(err, InstallError::Compile(_)));
    }
}

#[cfg(test)]
mod store_tests {
    use super::*;
    use rbay_store::FsyncPolicy;
    use std::path::{Path, PathBuf};

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("rbay-host-store-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn fresh_host(policy: LintPolicy) -> RbayHost {
        let cfg = RbayConfig {
            lint_policy: policy,
            ..RbayConfig::default()
        };
        RbayHost::new(
            Rc::new(cfg),
            NodeId(1),
            NodeAddr(0),
            SiteId(0),
            SharedSandbox::new(),
            vec![vec![NodeAddr(0)]],
            vec!["local".into()],
        )
    }

    /// Boots a host against `dir`: the same `attach_store` call serves
    /// both first boot (empty store, no-op restore) and recovery.
    fn durable_host(dir: &Path, policy: LintPolicy) -> (RbayHost, RestoreSummary) {
        let mut h = fresh_host(policy);
        let (store, _) = rbay_store::Store::open(dir, FsyncPolicy::Never).unwrap();
        let summary = h.attach_store(Box::new(store));
        (h, summary)
    }

    #[test]
    fn restore_recovers_attrs_handlers_subs_and_commits() {
        let dir = tmp_dir("roundtrip");
        let committed_query = QueryId::new(NodeAddr(7), 3);
        {
            let (mut h, summary) = durable_host(&dir, LintPolicy::Warn);
            assert_eq!(
                (summary.attrs, summary.subs, summary.replay_records),
                (0, 0, 0)
            );
            h.post_resource("GPU", AttrValue::str("A100"));
            h.update_attr("CPU_utilization", AttrValue::Num(40.0));
            h.install_node_aa("AA = { onGet = function(q) return true end }")
                .unwrap();
            h.install_attr_aa("GPU", "AA = { onGet = function(q) return true end }")
                .unwrap();
            // A committed reservation, as the query protocol would leave it.
            h.reservation = Some((committed_query, SimTime::ZERO));
            h.on_direct(
                NodeAddr(7),
                RbayPayload::Commit {
                    query_id: committed_query,
                },
            );
        }
        let (mut h, summary) = durable_host(&dir, LintPolicy::Warn);
        assert_eq!(summary.attrs, 2);
        assert_eq!(summary.handlers, 2);
        assert_eq!(summary.quarantined, 0);
        assert_eq!(summary.subs, 1, "GPU=A100 tree re-joined");
        assert_eq!(summary.committed, 1);
        assert!(summary.replay_records >= 5);
        assert_eq!(h.attrs.get("GPU"), Some(&AttrValue::str("A100")));
        assert!(h.node_aa.is_some());
        assert!(h.attr_aas.contains_key("GPU"));
        assert_eq!(h.committed, vec![committed_query]);
        assert!(
            matches!(h.reservation, Some((q, _)) if q == committed_query),
            "committed reservation re-held"
        );
        // The restored subscription is queued as a join and tracked for
        // retry until attached.
        assert!(matches!(h.ops.pop_front(), Some(Op::Subscribe { .. })));
        assert_eq!(h.sub_requested.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Satellite: a handler admitted under `Warn` must be quarantined —
    /// not re-installed — when the node restarts under `Deny`, with the
    /// diagnostic recorded and boot completing normally.
    #[test]
    fn restore_relints_under_current_policy_and_quarantines() {
        let dir = tmp_dir("quarantine");
        // `onGte` is a typo'd handler name: UnknownHandler, a warning
        // under Warn but an error under Deny.
        let src = "AA = { onGte = function(q) return true end }";
        {
            let (mut h, _) = durable_host(&dir, LintPolicy::Warn);
            h.install_node_aa(src).unwrap();
            assert!(h.node_aa.is_some(), "Warn admits the handler");
        }
        let (mut h, summary) = durable_host(&dir, LintPolicy::Deny);
        assert!(h.node_aa.is_none(), "Deny restore must not re-install");
        assert_eq!(summary.quarantined, 1);
        assert_eq!(summary.handlers, 0);
        assert_eq!(h.quarantined.len(), 1);
        let (label, diag) = &h.quarantined[0];
        assert_eq!(label, "node");
        assert!(
            diag.contains("lint"),
            "diagnostic names the lint rejection: {diag}"
        );
        assert_eq!(h.store.as_ref().unwrap().stats().relint_rejects, 1);
        // The node still boots and serves: queries fall through to the
        // default-grant path with no handler installed.
        assert!(h.check_on_get(None, "caller", None));
        // The source stays durable: rebooting back under Warn re-installs.
        drop(h);
        let (h, summary) = durable_host(&dir, LintPolicy::Warn);
        assert!(h.node_aa.is_some(), "policy rollback restores the handler");
        assert_eq!(summary.quarantined, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn per_round_dynamic_joins_do_not_bloat_the_wal() {
        let dir = tmp_dir("dedupe");
        let (mut h, _) = durable_host(&dir, LintPolicy::Off);
        h.install_node_aa("AA = { onSubscribe = function(q, tree) return true end }")
            .unwrap();
        h.dynamic_trees.push("spot=idle".into());
        let before = h.store.as_ref().unwrap().stats().appends;
        for _ in 0..5 {
            h.maintenance();
        }
        let appends = h.store.as_ref().unwrap().stats().appends - before;
        assert_eq!(appends, 1, "five identical joins, one WAL record");
        assert!(h.store.as_ref().unwrap().stats().dedup_skips >= 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
