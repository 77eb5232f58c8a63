//! The federation harness: brings up a whole RBAY deployment over the
//! simulator and offers the admin/customer API the paper describes —
//! post resources with policies, multicast policy changes, and issue
//! composite queries.

use crate::actor::RbayNode;
use crate::frontdoor::{lowest_rtt_site, FrontdoorConfig, FrontdoorResponse, FrontdoorStats};
use crate::host::{Op, RbayConfig, RbayHost};
use crate::types::{AdminCommand, Candidate, QueryId, QueryRecord, RbayEvent, RbayPayload};
use aascript::SharedSandbox;
use pastry::{seed_overlay, NodeId, NodeInfo, PastryNode};
use rbay_query::{parse_query, AttrValue, ParseQueryError, Query};
use scribe::{ScribeLayer, TopicId};
use simnet::obs::Recorder;
use simnet::{NodeAddr, SimDuration, SimTime, Simulation, SiteId, Topology};
use std::collections::BTreeMap;
use std::rc::Rc;

/// A running federation: every topology node hosts a full RBAY stack over
/// a pre-converged Pastry overlay.
///
/// ```
/// use rbay_core::Federation;
/// use rbay_query::AttrValue;
/// use simnet::{NodeAddr, Topology};
///
/// let mut fed = Federation::new(Topology::single_site(32, 0.5), 42);
/// fed.post_resource(NodeAddr(3), "GPU", AttrValue::Bool(true));
/// fed.settle();
/// let q = fed.issue_query(NodeAddr(9), "SELECT 1 FROM * WHERE GPU = true", None).unwrap();
/// fed.settle();
/// let rec = fed.query_record(NodeAddr(9), q).unwrap();
/// assert!(rec.satisfied);
/// ```
pub struct Federation {
    sim: Simulation<RbayNode>,
    cfg: Rc<RbayConfig>,
    /// Mirror of each node's query counter (so ids are known at issue
    /// time).
    issued: BTreeMap<NodeAddr, u32>,
    next_cmd: u64,
    /// Shared observability recorder; disabled until
    /// [`Federation::enable_obs`].
    obs: Recorder,
}

impl Federation {
    /// Builds a federation over `topology` with default configuration.
    pub fn new(topology: Topology, seed: u64) -> Self {
        Federation::with_config(topology, seed, RbayConfig::default())
    }

    /// Builds a federation with a custom [`RbayConfig`].
    pub fn with_config(topology: Topology, seed: u64, cfg: RbayConfig) -> Self {
        let cfg = Rc::new(cfg);
        let sandbox = SharedSandbox::new();
        // Border routers per site: the three lowest addresses (retries
        // rotate through them, so one failed gateway is survivable).
        let gateways: Vec<Vec<NodeAddr>> = (0..topology.site_count() as u16)
            .map(|s| {
                let mut nodes = topology.nodes_of_site(SiteId(s));
                nodes.sort();
                nodes.truncate(3);
                assert!(!nodes.is_empty(), "every site has nodes");
                nodes
            })
            .collect();
        let site_names: Vec<String> = (0..topology.site_count() as u16)
            .map(|s| topology.site(SiteId(s)).name.clone())
            .collect();

        let cfg2 = Rc::clone(&cfg);
        let topo2 = topology.clone();
        let mut sim = Simulation::new(topology, seed, move |addr| {
            let info = NodeInfo {
                id: NodeId::hash_of(format!("rbay-node:{}", addr.0).as_bytes()),
                addr,
                site: topo2.site_of(addr),
            };
            RbayNode {
                pastry: PastryNode::new(info),
                scribe: ScribeLayer::new(),
                host: RbayHost::new(
                    Rc::clone(&cfg2),
                    info.id,
                    addr,
                    info.site,
                    sandbox.clone(),
                    gateways.clone(),
                    site_names.clone(),
                ),
            }
        });

        // Seed the converged overlay (protocol joins remain available and
        // are tested separately; the evaluation runs over a stable
        // overlay, §IV.A).
        let mut nodes: Vec<PastryNode> = sim
            .actors()
            .map(|(_, a)| PastryNode::new(a.pastry.info()))
            .collect();
        let rtts = sim.topology().clone();
        seed_overlay(&mut nodes, |a, b| rtts.rtt_ms(a, b));
        for (i, n) in nodes.into_iter().enumerate() {
            sim.actor_mut(NodeAddr(i as u32)).pastry = n;
        }

        Federation {
            sim,
            cfg,
            issued: BTreeMap::new(),
            next_cmd: 0,
            obs: Recorder::default(),
        }
    }

    /// Turns on the observability plane for the whole federation: one
    /// shared [`Recorder`] (event buffer capped at `capacity`) is installed
    /// into the engine and every node's Pastry, Scribe, and host layers.
    /// Returns a handle onto the shared buffer.
    pub fn enable_obs(&mut self, capacity: usize) -> Recorder {
        let rec = Recorder::enabled(capacity);
        self.sim.set_recorder(rec.clone());
        for i in 0..self.sim.topology().node_count() as u32 {
            let a = self.sim.actor_mut(NodeAddr(i));
            a.pastry.set_recorder(rec.clone());
            a.scribe.set_recorder(rec.clone());
            a.host.obs = rec.clone();
        }
        self.obs = rec.clone();
        rec
    }

    /// The federation's observability recorder (disabled until
    /// [`Federation::enable_obs`]).
    pub fn recorder(&self) -> &Recorder {
        &self.obs
    }

    /// Membership of `topic` as the tree itself sees it: the number of
    /// parent→child edges (the sum of all `children` sets) over non-failed
    /// nodes. In a consistent tree this equals the number of attached
    /// non-root members; double-counted children inflate it.
    pub fn tree_edge_count(&self, topic: TopicId) -> usize {
        self.sim
            .actors()
            .filter(|(addr, _)| !self.sim.is_failed(*addr))
            .filter_map(|(_, a)| a.scribe.topic(topic))
            .map(|st| st.children.len())
            .sum()
    }

    /// The root's current aggregate count for `topic`, read from any live
    /// node that believes it is the tree's root (`None` when no live root
    /// exists or the root has no aggregate yet).
    pub fn tree_root_count(&self, topic: TopicId) -> Option<u64> {
        self.sim
            .actors()
            .filter(|(addr, _)| !self.sim.is_failed(*addr))
            .find(|(_, a)| a.scribe.topic(topic).is_some_and(|st| st.is_root))
            .and_then(|(_, a)| a.scribe.root_aggregate(topic))
            .and_then(|v| v.as_count())
    }

    /// Maximum depth of `topic`'s tree over live nodes: the longest
    /// parent-pointer chain from any member up to a root (capped at the
    /// node count to stay finite under transient parent cycles).
    pub fn tree_max_depth(&self, topic: TopicId) -> usize {
        let n = self.sim.topology().node_count();
        let parent_of: BTreeMap<NodeAddr, Option<NodeAddr>> = self
            .sim
            .actors()
            .filter(|(addr, _)| !self.sim.is_failed(*addr))
            .filter_map(|(addr, a)| a.scribe.topic(topic).map(|st| (addr, st.parent)))
            .collect();
        let mut max = 0usize;
        for start in parent_of.keys() {
            let mut depth = 0usize;
            let mut cur = *start;
            while depth < n {
                match parent_of.get(&cur).copied().flatten() {
                    Some(p) => {
                        depth += 1;
                        cur = p;
                    }
                    None => break,
                }
            }
            max = max.max(depth);
        }
        max
    }

    /// The underlying simulation (topology, clock, stats, actors).
    pub fn sim(&self) -> &Simulation<RbayNode> {
        &self.sim
    }

    /// Mutable access to the underlying simulation.
    pub fn sim_mut(&mut self) -> &mut Simulation<RbayNode> {
        &mut self.sim
    }

    /// The shared configuration.
    pub fn config(&self) -> &RbayConfig {
        &self.cfg
    }

    /// Runs `f` against `node`'s host at virtual time `at`, inside
    /// [`RbayNode::control`]: the host's clock is stamped first and every
    /// operation `f` queues is executed before the call returns. All of
    /// the admin and customer API below is this one scheduled call.
    pub fn control_at(
        &mut self,
        at: SimTime,
        node: NodeAddr,
        f: impl FnOnce(&mut RbayHost) + 'static,
    ) {
        self.sim.schedule_call(at, node, move |a, ctx| {
            a.control(ctx, |n, _| f(&mut n.host));
        });
    }

    /// Admin API: posts a resource on `node` — sets the attribute and
    /// joins the site-scoped `attr=value` tree.
    pub fn post_resource(&mut self, node: NodeAddr, attr: &str, value: AttrValue) {
        let attr = attr.to_owned();
        self.control_at(self.sim.now(), node, move |h| h.post_resource(&attr, value));
    }

    /// Admin API: updates an attribute reading without changing
    /// membership (e.g. a fresh utilization sample). Under
    /// [`RbayConfig::frontdoor_invalidation`] the update multicasts a
    /// cache invalidation.
    pub fn update_attr(&mut self, node: NodeAddr, attr: &str, value: AttrValue) {
        let attr = attr.to_owned();
        self.control_at(self.sim.now(), node, move |h| h.update_attr(&attr, value));
    }

    /// Admin API: installs the node-level policy AA. Compile errors panic
    /// the scheduled call (use valid scripts; the aascript crate exposes
    /// fallible compilation directly for validation).
    pub fn install_node_aa(&mut self, node: NodeAddr, src: &str) {
        let src = src.to_owned();
        self.control_at(self.sim.now(), node, move |h| {
            h.install_node_aa(&src)
                .expect("node AA script must compile and run");
        });
    }

    /// Admin API: installs a per-attribute AA.
    pub fn install_attr_aa(&mut self, node: NodeAddr, attr: &str, src: &str) {
        let (attr, src) = (attr.to_owned(), src.to_owned());
        self.control_at(self.sim.now(), node, move |h| {
            h.install_attr_aa(&attr, &src)
                .expect("attribute AA script must compile and run");
        });
    }

    /// Admin API: registers a dynamic tree on `node`, whose membership the
    /// node AA's `onSubscribe`/`onUnsubscribe` decide each maintenance
    /// round.
    pub fn register_dynamic_tree(&mut self, node: NodeAddr, tree: &str) {
        let tree = tree.to_owned();
        self.control_at(self.sim.now(), node, move |h| h.dynamic_trees.push(tree));
    }

    /// Admin API: multicasts a policy command to every member of
    /// `tree_name` in `site`; each member's `onDeliver` decides the new
    /// attribute value (Fig. 11 onDeliver). Returns the command id.
    pub fn admin_multicast(
        &mut self,
        admin: NodeAddr,
        site: SiteId,
        tree_name: &str,
        attr: &str,
        payload: AttrValue,
    ) -> u64 {
        let cmd_id = self.next_cmd;
        self.next_cmd += 1;
        let (tree_name, attr) = (tree_name.to_owned(), attr.to_owned());
        self.control_at(self.sim.now(), admin, move |h| {
            let cmd = AdminCommand {
                cmd_id,
                attr,
                payload,
                issued_at: h.now,
            };
            h.ops.push_back(Op::Multicast {
                topic: h.tree_topic(&tree_name, site),
                scope: h.routing_scope(site),
                payload: RbayPayload::Admin(cmd),
            });
        });
        cmd_id
    }

    /// Admin API: probes the root of `tree_name` in `site` for its global
    /// view (size plus attribute statistics when
    /// [`crate::RbayConfig::aggregate_attr`] is configured). The answer
    /// lands in the probing node's [`RbayHost::tree_stats`] after
    /// [`Federation::settle`].
    pub fn probe_tree_stats(&mut self, node: NodeAddr, tree_name: &str, site: SiteId) {
        let tree = tree_name.to_owned();
        self.control_at(self.sim.now(), node, move |h| {
            h.ops.push_back(Op::Probe {
                topic: h.tree_topic(&tree, site),
                scope: h.routing_scope(site),
                payload: RbayPayload::StatsProbe {
                    reply_to: h.addr,
                    tree,
                },
            });
        });
    }

    /// Customer API: parses and issues a query from `node`. The returned
    /// id can be resolved with [`Federation::query_record`] once the
    /// simulation settles.
    ///
    /// # Errors
    ///
    /// Returns the parse error for malformed query text.
    pub fn issue_query(
        &mut self,
        node: NodeAddr,
        query: &str,
        password: Option<&str>,
    ) -> Result<QueryId, ParseQueryError> {
        let q = parse_query(query)?;
        Ok(self.issue_parsed_query(node, q, password))
    }

    /// Customer API: issues an already-parsed query.
    pub fn issue_parsed_query(
        &mut self,
        node: NodeAddr,
        query: Query,
        password: Option<&str>,
    ) -> QueryId {
        let seq = self.issued.entry(node).or_insert(0);
        let id = QueryId::new(node, *seq);
        *seq += 1;
        let password = password.map(str::to_owned);
        self.control_at(self.sim.now(), node, move |h| {
            let got = h.issue_query(query, password);
            debug_assert_eq!(got, id, "federation id mirror out of sync");
        });
        id
    }

    /// Enables the query front door on every gateway of every site (the
    /// three lowest addresses per site) with the given tunables, and
    /// subscribes each to its site's `__frontdoor` invalidation tree.
    /// Build the federation with [`RbayConfig::frontdoor_invalidation`]
    /// set so writes keep those caches coherent; call `settle()` (or let
    /// traffic flow) so the tree joins complete.
    pub fn enable_frontdoor(&mut self, fcfg: FrontdoorConfig) {
        let sites = self.sim.topology().site_count() as u16;
        for s in 0..sites {
            let gws = self.sim.actor(NodeAddr(0)).host.gateways[s as usize].clone();
            for gw in gws {
                let fcfg = fcfg.clone();
                self.control_at(self.sim.now(), gw, move |h| h.enable_frontdoor(fcfg));
            }
        }
    }

    /// Geo-aware redirection: the site whose front door a client should
    /// talk to — the lowest-RTT site by the topology's matrix (for the
    /// AWS-8 preset, the paper's Table II numbers).
    pub fn frontdoor_site_for(&self, client: NodeAddr) -> SiteId {
        let topo = self.sim.topology();
        let client_site = topo.site_of(client);
        let all: Vec<SiteId> = (0..topo.site_count() as u16).map(SiteId).collect();
        lowest_rtt_site(client_site, &all, |a, b| topo.rtt_ms(a, b)).unwrap_or(client_site)
    }

    /// Customer API via the front door: redirects `client` to its
    /// lowest-RTT site's first gateway, then routes the query through
    /// that gateway's cache / single-flight / admission state. `Pending`
    /// outcomes resolve on the *gateway* — poll
    /// [`Federation::query_record`] with the returned gateway and id after
    /// [`Federation::settle`].
    ///
    /// # Errors
    ///
    /// Returns the parse error for malformed query text.
    pub fn frontdoor_query(
        &mut self,
        client: NodeAddr,
        query: &str,
        password: Option<&str>,
    ) -> Result<FrontdoorOutcome, ParseQueryError> {
        let q = parse_query(query)?;
        let site = self.frontdoor_site_for(client);
        let gateway = self.sim.actor(client).host.gateways[site.0 as usize][0];
        let now = self.sim.now();
        let password = password.map(str::to_owned);
        // The one stamp outside `RbayNode::control`: the response must be
        // returned to the caller now, and a scheduled call cannot return.
        let response = {
            let a = self.sim.actor_mut(gateway);
            a.host.now = now;
            a.host.frontdoor_query(q, password)
        };
        // A new walk issued ops (probes, timers) synchronously into the
        // gateway's queue; an empty control closure at the same instant
        // executes them in-context. Keep the federation's per-node id
        // mirror in step with the gateway's sequence counter.
        if let FrontdoorResponse::Pending {
            coalesced: false, ..
        } = &response
        {
            *self.issued.entry(gateway).or_insert(0) += 1;
            self.control_at(now, gateway, |_| {});
        }
        Ok(match response {
            FrontdoorResponse::Cached { result, satisfied } => {
                FrontdoorOutcome::Cached { result, satisfied }
            }
            FrontdoorResponse::Pending { id, coalesced } => FrontdoorOutcome::Pending {
                gateway,
                id,
                coalesced,
            },
            FrontdoorResponse::Shed { retry_after } => FrontdoorOutcome::Shed { retry_after },
        })
    }

    /// The front-door counters of `node` (`None` when it has no front
    /// door).
    pub fn frontdoor_stats(&self, node: NodeAddr) -> Option<FrontdoorStats> {
        self.sim
            .actor(node)
            .host
            .frontdoor
            .as_ref()
            .map(|fd| fd.stats)
    }

    /// Schedules one maintenance round on every node at `at`.
    fn sweep_at(&mut self, at: SimTime) {
        for i in 0..self.sim.topology().node_count() as u32 {
            self.sim.schedule_call(at, NodeAddr(i), |a, ctx| {
                a.maintenance_round_via(ctx);
            });
        }
    }

    /// Runs `rounds` maintenance rounds (AA timers + aggregation ticks) on
    /// every node, separated by `interval` so each round's messages land
    /// before the next.
    pub fn run_maintenance(&mut self, rounds: u32, interval: SimDuration) {
        for _ in 0..rounds {
            self.sweep_at(self.sim.now());
            self.sim.run_for(interval);
        }
    }

    /// Schedules `rounds` maintenance rounds on every node, `interval`
    /// apart, WITHOUT running the simulation. Under exploration mode the
    /// scheduled calls land in the exploration store, so the checker —
    /// not virtual time — decides how round work interleaves with
    /// queries, repairs, and faults.
    pub fn schedule_maintenance(&mut self, rounds: u32, interval: SimDuration) {
        let mut at = self.sim.now();
        for _ in 0..rounds {
            self.sweep_at(at);
            at += interval;
        }
    }

    /// Lets all in-flight work drain (tree joins, queries, echoes).
    pub fn settle(&mut self) {
        self.sim.run_until_idle();
    }

    /// Runs until `deadline` (for experiments with open-loop load).
    pub fn run_until(&mut self, deadline: SimTime) {
        self.sim.run_until(deadline);
    }

    /// The query record kept by the issuing node.
    pub fn query_record(&self, node: NodeAddr, id: QueryId) -> Option<&QueryRecord> {
        self.sim.actor(node).host.queries.get(&id)
    }

    /// Every query id issued through the federation API, in issue order
    /// per node. The committed-query oracle walks this list: a query
    /// whose origin is still alive must eventually complete.
    pub fn issued_queries(&self) -> Vec<(NodeAddr, QueryId)> {
        self.issued
            .iter()
            .flat_map(|(&node, &count)| (0..count).map(move |seq| (node, QueryId::new(node, seq))))
            .collect()
    }

    /// All measurement events recorded by `node`.
    pub fn events(&self, node: NodeAddr) -> &[RbayEvent] {
        &self.sim.actor(node).host.events
    }

    /// Direct access to a node (attributes, AAs, scribe state) for tests
    /// and harnesses.
    pub fn node(&self, addr: NodeAddr) -> &RbayNode {
        self.sim.actor(addr)
    }
}

/// Outcome of a [`Federation::frontdoor_query`].
#[derive(Debug, Clone)]
pub enum FrontdoorOutcome {
    /// Answered from the gateway cache, no overlay traffic.
    Cached {
        /// The cached candidate set.
        result: Vec<Candidate>,
        /// Whether the cached walk found its `k` nodes.
        satisfied: bool,
    },
    /// A walk (new or shared) will answer on `gateway`; poll
    /// [`Federation::query_record`] after settling.
    Pending {
        /// Which gateway runs the walk.
        gateway: NodeAddr,
        /// The walk to poll.
        id: QueryId,
        /// Whether this query attached to an already-running walk.
        coalesced: bool,
    },
    /// Refused by admission control.
    Shed {
        /// Suggested client backoff.
        retry_after: SimDuration,
    },
}

impl std::fmt::Debug for Federation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Federation({} nodes, {} sites, t={})",
            self.sim.topology().node_count(),
            self.sim.topology().site_count(),
            self.sim.now()
        )
    }
}
