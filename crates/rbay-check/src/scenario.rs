//! Checkable scenarios: small, fully deterministic federations whose
//! event interleavings the explorer enumerates.
//!
//! The canonical scenario is **subscribe-fail-repair**: a single-site
//! federation builds the `GPU=true` tree on the fast path, then
//! exploration takes over a window of maintenance rounds with one query
//! in flight and a bounded fault budget (message drops and node crashes
//! early in the window, repair rounds after). The fault *horizon* is the
//! false-positive discipline: all faults land before the first possible
//! failure declaration completes, so the scheduled rounds that follow are
//! guaranteed (for correct code) to repair, expire stale state, and
//! converge — making the quiescence oracles exact. Its twin
//! **root-crash-mid-query** spends the crash on the tree's root at the
//! instant the query is issued, so the explored runs take the path where
//! the probe is lost with the root and routed again at its declaration.
//!
//! The `bench:churn` scenario is the deterministic core of the churn
//! bench (`rbay-bench/src/bin/churn.rs` drives the same [`ChurnState`]),
//! so a seed that trips an invariant in the bench replays through
//! `rbay-check replay` byte-identically.

use crate::invariants::InvariantCtx;
use rand::rngs::SmallRng;
use rand::{seq::SliceRandom, Rng, SeedableRng};
use rbay_core::{Federation, QueryId, RbayConfig};
use rbay_query::AttrValue;
use rbay_workloads::WORKLOAD_PASSWORD;
use scribe::TopicId;
use simnet::{FaultOpts, NodeAddr, SimDuration, SiteId, Topology};

/// Which scenario a spec (or `.schedule` file) refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioKind {
    /// The canonical explorable 3–5-node subscribe/fail/repair window.
    SubscribeFailRepair,
    /// The same window with the tree's root crashed the instant the query
    /// is issued: its probe meets the corpse, and only the re-route at the
    /// root's declaration answers it before the query timeout.
    RootCrashMidQuery,
    /// The churn bench's deterministic core (replay only — too large to
    /// explore exhaustively).
    BenchChurn,
    /// The fig8 probe-routing core (replay only): every routed probe must
    /// be delivered exactly once.
    BenchFig8,
}

impl ScenarioKind {
    /// Stable name used in `.schedule` files and on the CLI.
    pub fn name(&self) -> &'static str {
        match self {
            ScenarioKind::SubscribeFailRepair => "subscribe-fail-repair",
            ScenarioKind::RootCrashMidQuery => "root-crash-mid-query",
            ScenarioKind::BenchChurn => "bench:churn",
            ScenarioKind::BenchFig8 => "bench:fig8",
        }
    }

    /// Parses a scenario name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "subscribe-fail-repair" => Some(ScenarioKind::SubscribeFailRepair),
            "root-crash-mid-query" => Some(ScenarioKind::RootCrashMidQuery),
            "bench:churn" => Some(ScenarioKind::BenchChurn),
            "bench:fig8" => Some(ScenarioKind::BenchFig8),
            _ => None,
        }
    }

    /// Whether the explorer can drive it step by step (the bench
    /// scenarios only replay end to end).
    pub fn is_explorable(&self) -> bool {
        matches!(
            self,
            ScenarioKind::SubscribeFailRepair | ScenarioKind::RootCrashMidQuery
        )
    }
}

/// Everything needed to rebuild a run from scratch — the identity of a
/// schedule file minus its decision trace.
#[derive(Debug, Clone)]
pub struct CheckSpec {
    /// Scenario family.
    pub kind: ScenarioKind,
    /// Federation size.
    pub nodes: usize,
    /// Base seed (fixes topology jitter and the setup phase).
    pub seed: u64,
    /// Maintenance rounds scheduled into the explored window
    /// (subscribe-fail-repair) or per crash epoch (bench:churn).
    pub rounds: u32,
    /// Fault budget: deliveries droppable per run.
    pub max_drops: usize,
    /// Fault budget: nodes crashable per run.
    pub max_crashes: usize,
    /// Fault horizon as an offset from exploration start.
    pub horizon: SimDuration,
    /// Arm the strict-recall oracle (ROADMAP-1 hunting mode).
    pub strict_recall: bool,
    /// bench:churn only — fraction of live nodes crashed per epoch.
    pub churn_frac: f64,
    /// bench:churn only — crash epochs.
    pub epochs: u32,
    /// bench:fig8 only — probes routed over the overlay.
    pub queries: usize,
}

impl CheckSpec {
    /// The canonical subscribe-fail-repair spec: `nodes` nodes, two
    /// droppable deliveries, one crashable node, faults confined to the
    /// first heartbeat round of a 10-round window. The 450 ms horizon is
    /// load-bearing: the earliest failure declaration lands at the
    /// second round (t0 + 500 ms), so every repair-era message (Leave to
    /// the old parent, rejoin traffic) is past the horizon and
    /// undroppable — a dual attachment that persists can only come from
    /// broken repair code, never from an explored fault.
    pub fn subscribe_fail_repair(nodes: usize, seed: u64) -> Self {
        CheckSpec {
            kind: ScenarioKind::SubscribeFailRepair,
            nodes,
            seed,
            rounds: 10,
            max_drops: 2,
            max_crashes: 1,
            horizon: SimDuration::from_millis(450),
            strict_recall: false,
            churn_frac: 0.0,
            epochs: 0,
            queries: 0,
        }
    }

    /// The root-crash-mid-query spec: [`CheckSpec::subscribe_fail_repair`]'s
    /// window and drop budget, with the crash spent on the tree's root at
    /// the instant the query is issued.
    pub fn root_crash_mid_query(nodes: usize, seed: u64) -> Self {
        CheckSpec {
            kind: ScenarioKind::RootCrashMidQuery,
            max_crashes: 0,
            ..CheckSpec::subscribe_fail_repair(nodes, seed)
        }
    }

    /// A bench:churn spec mirroring `churn.rs`'s per-level parameters.
    pub fn bench_churn(nodes: usize, churn_frac: f64, epochs: u32, seed: u64) -> Self {
        CheckSpec {
            kind: ScenarioKind::BenchChurn,
            nodes,
            seed,
            rounds: 8,
            max_drops: 0,
            max_crashes: 0,
            horizon: SimDuration::ZERO,
            strict_recall: false,
            churn_frac,
            epochs,
            queries: 0,
        }
    }

    /// A bench:fig8 spec: `queries` probes routed over an `nodes`-node
    /// overlay, all of which must be delivered.
    pub fn bench_fig8(nodes: usize, queries: usize, seed: u64) -> Self {
        CheckSpec {
            kind: ScenarioKind::BenchFig8,
            nodes,
            seed,
            rounds: 0,
            max_drops: 0,
            max_crashes: 0,
            horizon: SimDuration::ZERO,
            strict_recall: false,
            churn_frac: 0.0,
            epochs: 0,
            queries,
        }
    }

    /// Builds the scenario to the explored window's start: federation
    /// settled, exploration enabled, maintenance + query scheduled, fault
    /// budget resolved. Only meaningful for explorable kinds.
    pub fn prepare(&self) -> Prepared {
        assert!(
            self.kind.is_explorable(),
            "{} is not explorable; bench scenarios replay via run_churn_default",
            self.kind.name()
        );
        let cfg = RbayConfig {
            failure_detection: true,
            heartbeat_timeout: SimDuration::from_millis(400),
            commit_results: false,
            ..RbayConfig::default()
        };
        let mut fed =
            Federation::with_config(Topology::single_site(self.nodes, 0.5), self.seed, cfg);
        let topic = fed.node(NodeAddr(0)).host.tree_topic("GPU=true", SiteId(0));
        // Node 0 is the querier (never crashed); everyone else holds the
        // resource and subscribes to the tree.
        let holders: Vec<NodeAddr> = (1..self.nodes as u32).map(NodeAddr).collect();
        for &h in &holders {
            fed.post_resource(h, "GPU", AttrValue::Bool(true));
        }
        fed.settle();
        fed.run_maintenance(2, SimDuration::from_millis(250));
        fed.settle();

        // Exploration takes over: rounds and the query land in the event
        // store instead of executing.
        fed.sim_mut().enable_exploration();
        let round = SimDuration::from_millis(500);
        fed.schedule_maintenance(self.rounds, round);
        let origin = NodeAddr(0);
        let query = fed
            .issue_query(origin, "SELECT 1 FROM * WHERE GPU = true", None)
            .expect("static query parses");
        if self.kind == ScenarioKind::RootCrashMidQuery {
            let root = (holders.iter().copied())
                .find(|h| fed.node(*h).scribe.topic(topic).is_some_and(|t| t.is_root))
                .unwrap_or_else(|| panic!("seed {}: the querier roots the tree", self.seed));
            fed.sim_mut().fail_node(root);
        }

        let horizon = fed.sim().now() + self.horizon;
        let faults = FaultOpts {
            max_drops: self.max_drops,
            max_crashes: self.max_crashes,
            crashable: holders.clone(),
            horizon,
        };
        let mut ctx = InvariantCtx::new(topic, holders);
        ctx.strict_recall = self.strict_recall;
        ctx.round = round;
        Prepared {
            fed,
            ctx,
            faults,
            origin,
            query,
        }
    }
}

/// A scenario built to the start of its explored window.
pub struct Prepared {
    /// The federation, with exploration mode enabled.
    pub fed: Federation,
    /// Invariant-oracle context for this run.
    pub ctx: InvariantCtx,
    /// Resolved fault budget (absolute horizon).
    pub faults: FaultOpts,
    /// The querying node (excluded from crashes).
    pub origin: NodeAddr,
    /// The in-flight query's id.
    pub query: QueryId,
}

/// Parameters of the churn bench's deterministic core.
#[derive(Debug, Clone)]
pub struct ChurnParams {
    /// Federation size.
    pub nodes: usize,
    /// Fraction of live nodes crashed per epoch.
    pub frac: f64,
    /// Crash epochs.
    pub epochs: u32,
    /// Seed (federation uses it directly; churn decisions use
    /// `seed ^ 0xC0FFEE`, matching the bench).
    pub seed: u64,
}

/// The churn bench's deterministic state: federation, topic, holders,
/// and the churn RNG. `churn.rs` drives this directly so bench runs and
/// `rbay-check replay` runs make identical decisions.
pub struct ChurnState {
    /// The federation.
    pub fed: Federation,
    /// The `GPU=true` tree.
    pub topic: TopicId,
    /// Live resource holders (crashed ones are retained out).
    pub holders: Vec<NodeAddr>,
    /// Liveness bitmap.
    pub alive: Vec<bool>,
    rng: SmallRng,
}

impl ChurnState {
    /// Builds and settles the churn federation exactly as
    /// `churn.rs::run_level` does.
    pub fn new(p: &ChurnParams) -> Self {
        Self::with_setup(p, |_| {})
    }

    /// Like [`ChurnState::new`], but runs `setup` on the freshly built
    /// federation before anything else happens — the hook the bench uses
    /// to enable observability without perturbing the shared schedule.
    pub fn with_setup(p: &ChurnParams, setup: impl FnOnce(&mut Federation)) -> Self {
        let cfg = RbayConfig {
            failure_detection: true,
            heartbeat_timeout: SimDuration::from_millis(400),
            commit_results: false,
            ..RbayConfig::default()
        };
        let mut fed = Federation::with_config(Topology::single_site(p.nodes, 0.5), p.seed, cfg);
        setup(&mut fed);
        let topic = fed.node(NodeAddr(0)).host.tree_topic("GPU=true", SiteId(0));
        let rng = SmallRng::seed_from_u64(p.seed ^ 0xC0FFEE);
        let holders: Vec<NodeAddr> = (0..(p.nodes / 3) as u32).map(NodeAddr).collect();
        for &h in &holders {
            fed.post_resource(h, "GPU", AttrValue::Bool(true));
        }
        fed.settle();
        fed.run_maintenance(3, SimDuration::from_millis(250));
        fed.settle();
        ChurnState {
            alive: vec![true; p.nodes],
            fed,
            topic,
            holders,
            rng,
        }
    }

    /// Crashes `frac` of the currently-alive nodes (sparing the querier
    /// corner, addresses 0–3) and returns the victims. Consumes the
    /// churn RNG identically to the bench.
    pub fn crash_epoch(&mut self, frac: f64) -> Vec<NodeAddr> {
        let n_nodes = self.alive.len();
        let victims: Vec<u32> = (4..n_nodes as u32)
            .filter(|i| self.alive[*i as usize])
            .collect::<Vec<_>>()
            .choose_multiple(&mut self.rng, ((n_nodes as f64) * frac) as usize)
            .copied()
            .collect();
        for v in &victims {
            self.alive[*v as usize] = false;
            self.fed.sim_mut().fail_node(NodeAddr(*v));
        }
        self.holders.retain(|h| self.alive[h.index()]);
        victims.into_iter().map(NodeAddr).collect()
    }

    /// The live queriers (addresses 0–3).
    pub fn live_queriers(&self) -> Vec<u32> {
        (0..4u32).filter(|i| self.alive[*i as usize]).collect()
    }

    /// Picks the recall-query origin, consuming the churn RNG
    /// identically to the bench. `None` when no querier survives.
    pub fn recall_origin(&mut self) -> Option<NodeAddr> {
        let live = self.live_queriers();
        if live.is_empty() {
            return None;
        }
        Some(NodeAddr(live[self.rng.gen_range(0..live.len())]))
    }

    /// The invariant context for the churn tree.
    pub fn invariant_ctx(&self) -> InvariantCtx {
        let mut ctx = InvariantCtx::new(self.topic, self.holders.clone());
        // Convergence after a 10–20% crash epoch can legitimately take
        // more rounds than the bench schedules; only the structural and
        // liveness oracles are regression gates here.
        ctx.check_aggregate = false;
        ctx.check_peer_symmetry = false;
        ctx
    }
}

/// Replays the churn bench's non-metrics measurement loop end to end
/// (the default schedule: no divergent decisions). Returns the final
/// state for invariant evaluation.
pub fn run_churn_default(p: &ChurnParams) -> ChurnState {
    let mut st = ChurnState::new(p);
    for _ in 0..p.epochs {
        st.crash_epoch(p.frac);
        st.fed.run_maintenance(8, SimDuration::from_millis(250));
        st.fed.settle();

        let live_queriers = st.live_queriers();
        if live_queriers.is_empty() || st.holders.is_empty() {
            break;
        }
        for q in 0..3 {
            let origin = NodeAddr(live_queriers[q % live_queriers.len()]);
            st.fed
                .issue_query(
                    origin,
                    "SELECT 1 FROM * WHERE GPU = true",
                    Some(WORKLOAD_PASSWORD),
                )
                .expect("static query parses");
            st.fed.settle();
            let horizon = st.fed.sim().now() + SimDuration::from_millis(2_500);
            st.fed.run_until(horizon);
        }
        let origin = st.recall_origin().expect("checked non-empty");
        st.fed
            .issue_query(
                origin,
                &format!("SELECT {} FROM * WHERE GPU = true", st.holders.len().max(1)),
                Some(WORKLOAD_PASSWORD),
            )
            .expect("static query parses");
        st.fed.settle();
        let horizon = st.fed.sim().now() + SimDuration::from_secs(4);
        st.fed.run_until(horizon);
    }
    st.fed.settle();
    st
}

/// Outcome of the fig8 probe-routing core: how many of the routed probes
/// arrived.
#[derive(Debug, Clone, Copy)]
pub struct Fig8Outcome {
    /// Probes delivered to their key's responsible node.
    pub delivered: usize,
    /// Probes routed.
    pub expected: usize,
}

/// Replays the fig8 benches' probe-routing core: a seeded `nodes`-node
/// overlay over which `queries` probes are routed, each to a unique
/// attribute key (the fig8a schedule; fig8b differs only in key choice,
/// which routing-delivery loss does not depend on). The invariant is
/// exactly-once delivery.
pub fn run_fig8_default(nodes: usize, queries: usize, seed: u64) -> Fig8Outcome {
    use pastry::{seed_overlay, NodeId, NodeInfo, PastryApp, PastryMsg, PastryNode};
    use simnet::{Actor, Context, MessageSize, SimTime, Simulation};

    #[derive(Debug, Clone, Copy)]
    struct Probe;
    impl MessageSize for Probe {}

    #[derive(Default)]
    struct Counter {
        delivered: usize,
    }
    impl PastryApp<Probe> for Counter {
        fn deliver<N: pastry::Net<Probe>>(
            &mut self,
            _node: &mut PastryNode,
            _net: &mut N,
            _key: NodeId,
            _payload: Probe,
            _hops: u16,
        ) {
            self.delivered += 1;
        }
        fn receive_direct<N: pastry::Net<Probe>>(
            &mut self,
            _node: &mut PastryNode,
            _net: &mut N,
            _from: NodeAddr,
            _payload: Probe,
        ) {
        }
    }

    struct Agent {
        node: PastryNode,
        app: Counter,
    }
    impl Actor for Agent {
        type Msg = PastryMsg<Probe>;
        fn on_message(&mut self, ctx: &mut Context<'_, Self::Msg>, from: NodeAddr, msg: Self::Msg) {
            let Agent { node, app } = self;
            node.on_message(ctx, app, from, msg);
        }
    }

    let mut nodes_v: Vec<PastryNode> = (0..nodes as u32)
        .map(|i| {
            PastryNode::new(NodeInfo {
                id: NodeId::hash_of(format!("agent:{i}").as_bytes()),
                addr: NodeAddr(i),
                site: SiteId(0),
            })
        })
        .collect();
    seed_overlay(&mut nodes_v, |_, _| 0.0);
    let mut seeded = nodes_v.into_iter();
    let mut sim = Simulation::new(Topology::single_site(nodes, 0.5), seed, |_| Agent {
        node: seeded.next().expect("one node per address"),
        app: Counter::default(),
    });
    for q in 0..queries {
        let key = NodeId::hash_of(format!("attr:{seed}:{q}").as_bytes());
        let src = NodeAddr(((q * 7919 + seed as usize) % nodes) as u32);
        sim.schedule_call(SimTime::ZERO, src, move |a, ctx| {
            let Agent { node, app } = a;
            node.route(ctx, app, key, Probe, None);
        });
    }
    sim.run_until_idle();
    let delivered = sim.actors().map(|(_, a)| a.app.delivered).sum();
    Fig8Outcome {
        delivered,
        expected: queries,
    }
}
