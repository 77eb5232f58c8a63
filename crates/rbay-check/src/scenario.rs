//! Checkable scenarios: small, fully deterministic federations whose
//! event interleavings the explorer enumerates, and the cores of the
//! experiments whose failing seeds replay as `.schedule` files.
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
//! The two bench scenarios are experiments' own code, not copies of it:
//! `bench:churn` is [`ChurnState`], whose measured epochs
//! `rbay-bench/src/bin/experiments/churn.rs` runs, and `bench:fig8` is
//! [`Fig8Params`], whose overlay and probe schedules `experiments fig8a`
//! and `fig8b` route. A seed that trips an invariant there dumps its
//! [`Scenario`], and `rbay-check replay` runs the same core again.

use crate::invariants::{InvariantCtx, Violation};
use pastry::{seed_overlay, NodeId, NodeInfo, PastryApp, PastryMsg, PastryNode};
use rand::rngs::SmallRng;
use rand::{seq::SliceRandom, Rng, SeedableRng};
use rbay_core::{Federation, QueryId, RbayConfig};
use rbay_query::AttrValue;
use rbay_wire::Wire;
use rbay_workloads::WORKLOAD_PASSWORD;
use scribe::TopicId;
use simnet::{
    Actor, Context, FaultOpts, NodeAddr, SimDuration, SimTime, Simulation, SiteId, Topology,
};

/// Which explorable window a [`CheckSpec`] builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioKind {
    /// The canonical explorable 3–5-node subscribe/fail/repair window.
    SubscribeFailRepair,
    /// The same window with the tree's root crashed the instant the query
    /// is issued: its probe meets the corpse, and only the re-route at the
    /// root's declaration answers it before the query timeout. Commits are
    /// on, so the answered query must leave its holder committed to it.
    RootCrashMidQuery,
}

impl ScenarioKind {
    /// Stable name used in `.schedule` files and on the CLI.
    pub fn name(&self) -> &'static str {
        match self {
            ScenarioKind::SubscribeFailRepair => "subscribe-fail-repair",
            ScenarioKind::RootCrashMidQuery => "root-crash-mid-query",
        }
    }

    /// Parses a scenario name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "subscribe-fail-repair" => Some(ScenarioKind::SubscribeFailRepair),
            "root-crash-mid-query" => Some(ScenarioKind::RootCrashMidQuery),
            _ => None,
        }
    }
}

/// What a `.schedule` file rebuilds.
#[derive(Debug, Clone, PartialEq)]
pub enum Scenario {
    /// An explorable window, replayed step by step.
    Explored(CheckSpec),
    /// The churn experiment's core (`bench:churn`), replayed end to end.
    Churn(ChurnParams),
    /// The fig8 experiments' core (`bench:fig8`), replayed end to end.
    Fig8(Fig8Params),
}

impl Scenario {
    /// The name, federation size and seed every scenario has.
    pub fn identity(&self) -> (&'static str, usize, u64) {
        match self {
            Scenario::Explored(s) => (s.kind.name(), s.nodes, s.seed),
            Scenario::Churn(p) => ("bench:churn", p.nodes, p.seed),
            Scenario::Fig8(p) => ("bench:fig8", p.nodes, p.seed),
        }
    }
}

/// Everything needed to rebuild an explorable window from scratch — the
/// identity of a schedule file minus its decision trace.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckSpec {
    /// Scenario family.
    pub kind: ScenarioKind,
    /// Federation size.
    pub nodes: usize,
    /// Base seed (fixes topology jitter and the setup phase).
    pub seed: u64,
    /// Maintenance rounds scheduled into the explored window.
    pub rounds: u32,
    /// Fault budget: deliveries droppable per run.
    pub max_drops: usize,
    /// Fault budget: nodes crashable per run.
    pub max_crashes: usize,
    /// Fault horizon as an offset from exploration start.
    pub horizon: SimDuration,
    /// Arm the strict-recall oracle (ROADMAP-1 hunting mode).
    pub strict_recall: bool,
}

/// The configuration every checked federation runs under: heartbeat
/// failure detection with a 400 ms timeout, and commits off, so a
/// satisfied query's finds lapse instead of staying reserved.
fn checked_config() -> RbayConfig {
    RbayConfig {
        failure_detection: true,
        heartbeat_timeout: SimDuration::from_millis(400),
        commit_results: false,
        ..RbayConfig::default()
    }
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

    /// Builds the scenario to the explored window's start: federation
    /// settled, exploration enabled, maintenance + query scheduled, fault
    /// budget resolved. The kind decides whether the query commits.
    pub fn prepare(&self) -> Prepared {
        let cfg = RbayConfig {
            commit_results: self.kind == ScenarioKind::RootCrashMidQuery,
            ..checked_config()
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

/// Parameters of the churn experiment's core.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnParams {
    /// Federation size.
    pub nodes: usize,
    /// Fraction of live nodes crashed per epoch.
    pub frac: f64,
    /// Crash epochs.
    pub epochs: u32,
    /// Seed (the federation uses it directly; churn decisions use
    /// `seed ^ 0xC0FFEE`).
    pub seed: u64,
}

/// Maintenance rounds a measured epoch runs between its crash and its
/// queries.
const REPAIR_ROUNDS: u32 = 8;

/// What one measured churn epoch saw.
#[derive(Debug)]
pub struct Epoch {
    /// When the victims crashed.
    pub crashed_at: SimTime,
    /// The nodes crashed.
    pub victims: Vec<NodeAddr>,
    /// The first repair round after which the caller's convergence probe
    /// held (1-based).
    pub converged_after: Option<u32>,
    /// The latency of each `SELECT 1` query; `None` for one that came back
    /// unsatisfied.
    pub latencies: Vec<Option<SimDuration>>,
    /// The share of the live holders the recall query found; `None` when
    /// no querier or no holder survived the crash, so nothing was asked
    /// and the run ends with this epoch.
    pub recall: Option<f64>,
}

/// The churn experiment's deterministic state: federation, topic,
/// holders, and the churn RNG. `experiments churn`, `rbay-check replay`
/// and the `sim_churn` benchmark all build it here, so they make
/// identical decisions.
pub struct ChurnState {
    /// The federation.
    pub fed: Federation,
    /// The `GPU=true` tree.
    pub topic: TopicId,
    /// Live resource holders (crashed ones are retained out).
    pub holders: Vec<NodeAddr>,
    /// Liveness bitmap.
    pub alive: Vec<bool>,
    /// The churn RNG, seeded `seed ^ 0xC0FFEE`: victims and recall
    /// origins are drawn from it.
    pub rng: SmallRng,
}

impl ChurnState {
    /// Builds and settles the churn federation: a third of the nodes post
    /// `GPU=true`, then three maintenance rounds warm the tree.
    pub fn new(p: &ChurnParams) -> Self {
        Self::with_setup(p, |_| {})
    }

    /// Like [`ChurnState::new`], but runs `setup` on the freshly built
    /// federation before anything else happens — the hook the tools use
    /// to enable observability without perturbing the shared schedule.
    pub fn with_setup(p: &ChurnParams, setup: impl FnOnce(&mut Federation)) -> Self {
        let mut fed = Federation::with_config(
            Topology::single_site(p.nodes, 0.5),
            p.seed,
            checked_config(),
        );
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
    /// corner, addresses 0–3) and returns the victims.
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

    /// Picks the recall-query origin from the churn RNG. `None` when no
    /// querier survives.
    pub fn recall_origin(&mut self) -> Option<NodeAddr> {
        let live = self.live_queriers();
        if live.is_empty() {
            return None;
        }
        Some(NodeAddr(live[self.rng.gen_range(0..live.len())]))
    }

    /// One measured epoch: crash `frac`, let heartbeats detect and repair
    /// over eight maintenance rounds — asking `converged` after
    /// each until it holds — then ask three `SELECT 1` queries and one
    /// for every live holder.
    pub fn epoch(&mut self, frac: f64, mut converged: impl FnMut(&Self) -> bool) -> Epoch {
        let crashed_at = self.fed.sim().now();
        let victims = self.crash_epoch(frac);
        let mut converged_after = None;
        for round in 1..=REPAIR_ROUNDS {
            self.fed.run_maintenance(1, SimDuration::from_millis(250));
            if converged_after.is_none() && converged(self) {
                converged_after = Some(round);
            }
        }
        self.fed.settle();
        let mut epoch = Epoch {
            crashed_at,
            victims,
            converged_after,
            latencies: Vec::new(),
            recall: None,
        };
        let queriers = self.live_queriers();
        if queriers.is_empty() || self.holders.is_empty() {
            return epoch;
        }
        for q in 0..3 {
            let origin = NodeAddr(queriers[q % queriers.len()]);
            let (latency, _) = self.ask(origin, 1, SimDuration::from_millis(2_500));
            epoch.latencies.push(latency);
        }
        let origin = self.recall_origin().expect("checked non-empty");
        let all = self.holders.len();
        let (_, found) = self.ask(origin, all, SimDuration::from_secs(4));
        epoch.recall = Some(found as f64 / all as f64);
        epoch
    }

    /// Issues `SELECT k … GPU = true` from `origin`, settles, and lets
    /// `pause` pass so its reservations lapse. Returns its latency, if
    /// satisfied, and how many it found.
    fn ask(
        &mut self,
        origin: NodeAddr,
        k: usize,
        pause: SimDuration,
    ) -> (Option<SimDuration>, usize) {
        let query = format!("SELECT {k} FROM * WHERE GPU = true");
        let id = (self.fed)
            .issue_query(origin, &query, Some(WORKLOAD_PASSWORD))
            .expect("static query parses");
        self.fed.settle();
        let rec = self.fed.query_record(origin, id).expect("issued query");
        let latency = (rec.completed_at)
            .filter(|_| rec.satisfied)
            .map(|done| done.saturating_since(rec.issued_at));
        let found = rec.result.len();
        let resume = self.fed.sim().now() + pause;
        self.fed.run_until(resume);
        (latency, found)
    }

    /// Runs `epochs` measured epochs of `frac` churn — ending early after
    /// one that found nobody to ask — then settles.
    pub fn run(
        &mut self,
        frac: f64,
        epochs: u32,
        mut converged: impl FnMut(&Self) -> bool,
    ) -> Vec<Epoch> {
        let mut seen = Vec::new();
        for _ in 0..epochs {
            let epoch = self.epoch(frac, &mut converged);
            let asked = epoch.recall.is_some();
            seen.push(epoch);
            if !asked {
                break;
            }
        }
        self.fed.settle();
        seen
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

/// Runs the churn experiment's epochs under `p` with nothing observing
/// them — the `bench:churn` replay. Returns the final state for invariant
/// evaluation.
pub fn run_churn_default(p: &ChurnParams) -> ChurnState {
    let mut st = ChurnState::new(p);
    st.run(p.frac, p.epochs, |_| false);
    st
}

/// The routed payload of the fig8 overlay: the figures measure the route,
/// not the content.
#[derive(Debug, Clone, Copy)]
pub struct Probe;
rbay_wire::wire_struct!(Probe {});

/// Records the hop count of every probe delivered at its member.
#[derive(Default)]
pub struct HopRecorder {
    /// One entry per delivered probe.
    pub hops: Vec<u16>,
}

impl PastryApp<Probe> for HopRecorder {
    fn deliver<N: pastry::Net<Probe>>(
        &mut self,
        _node: &mut PastryNode,
        _net: &mut N,
        _key: NodeId,
        _payload: Probe,
        hops: u16,
    ) {
        self.hops.push(hops);
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

/// One fig8 overlay member: a bare Pastry node, no RBAY layer on top, and
/// its hop recorder.
pub struct Agent {
    /// The Pastry node.
    pub node: PastryNode,
    /// What was delivered here.
    pub app: HopRecorder,
}

impl Actor for Agent {
    type Msg = PastryMsg<Probe>;
    fn wire_size(msg: &Self::Msg) -> usize {
        msg.encoded_len()
    }
    fn on_message(&mut self, ctx: &mut Context<'_, Self::Msg>, from: NodeAddr, msg: Self::Msg) {
        let Agent { node, app } = self;
        node.on_message(ctx, app, from, msg);
    }
}

/// Which probes a fig8 run routes, all sent at time zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probes {
    /// Fig. 8a: this many probes, each to an attribute key of its own.
    Unique(usize),
    /// Fig. 8b: `per_key` probes to each of `keys` query keys.
    PerKey {
        /// Distinct query keys.
        keys: usize,
        /// Probes routed to each.
        per_key: usize,
    },
}

/// Parameters of the fig8 probe-routing core: a seeded overlay and the
/// probes routed over it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig8Params {
    /// Overlay size.
    pub nodes: usize,
    /// What is routed.
    pub probes: Probes,
    /// Seed of the simulation and of the probe keys.
    pub seed: u64,
}

impl Fig8Params {
    /// Probes routed.
    pub fn expected(&self) -> usize {
        match self.probes {
            Probes::Unique(n) => n,
            Probes::PerKey { keys, per_key } => keys * per_key,
        }
    }

    /// The distinct keys probed, in routing order.
    pub fn keys(&self) -> Vec<NodeId> {
        let seed = self.seed;
        let key = |name: String| NodeId::hash_of(name.as_bytes());
        match self.probes {
            Probes::Unique(n) => (0..n).map(|q| key(format!("attr:{seed}:{q}"))).collect(),
            Probes::PerKey { keys, .. } => {
                (1..=keys).map(|k| key(format!("Q{k}:{seed}"))).collect()
            }
        }
    }

    /// Builds an overlay of `nodes` members with converged routing state
    /// and no join traffic, lets `setup` see it, routes every probe from
    /// its source and runs until idle.
    pub fn run(&self, setup: impl FnOnce(&mut Simulation<Agent>)) -> Simulation<Agent> {
        let n = self.nodes;
        // Seed the overlay before the simulation exists so each (large)
        // PastryNode is constructed exactly once and moved into its actor.
        let mut members: Vec<PastryNode> = (0..n as u32)
            .map(|i| {
                PastryNode::new(NodeInfo {
                    id: NodeId::hash_of(format!("agent:{i}").as_bytes()),
                    addr: NodeAddr(i),
                    site: SiteId(0),
                })
            })
            .collect();
        seed_overlay(&mut members, |_, _| 0.0);
        let mut seeded = members.into_iter();
        let mut sim = Simulation::new(Topology::single_site(n, 0.5), self.seed, |_| Agent {
            node: seeded.next().expect("one node per address"),
            app: HopRecorder::default(),
        });
        setup(&mut sim);
        let keys = self.keys();
        let probes: Vec<(usize, NodeId)> = match self.probes {
            Probes::Unique(_) => (keys.into_iter().enumerate())
                .map(|(q, key)| ((q * 7919 + self.seed as usize) % n, key))
                .collect(),
            Probes::PerKey { per_key, .. } => (keys.into_iter().enumerate())
                .flat_map(|(k, key)| (0..per_key).map(move |q| ((q * 6007 + k * 97 + 13) % n, key)))
                .collect(),
        };
        for (src, key) in probes {
            sim.schedule_call(SimTime::ZERO, NodeAddr(src as u32), move |a, ctx| {
                let Agent { node, app } = a;
                node.route(ctx, app, key, Probe, None);
            });
        }
        sim.run_until_idle();
        sim
    }

    /// Exactly-once delivery, the routing invariant: `ProbeLoss` unless
    /// `sim` delivered every probe once.
    pub fn check(&self, sim: &Simulation<Agent>) -> Option<Violation> {
        let delivered = sim.actors().map(|(_, a)| a.app.hops.len()).sum();
        let expected = self.expected();
        (delivered != expected).then_some(Violation::ProbeLoss {
            delivered,
            expected,
        })
    }
}
