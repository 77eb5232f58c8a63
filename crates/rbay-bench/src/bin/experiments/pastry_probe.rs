//! The Pastry-only overlay Fig. 8a and Fig. 8b route their probes
//! through: bare [`PastryNode`]s with seeded routing state, one hop
//! recorder each, no RBAY layer on top.

use pastry::{seed_overlay, NodeId, NodeInfo, PastryApp, PastryMsg, PastryNode};
use rbay_bench::{emit_schedule, HarnessOpts};
use rbay_check::{CheckSpec, ScheduleFile, Violation};
use simnet::{Actor, Context, MessageSize, NodeAddr, Simulation, SiteId, Topology};

/// The routed payload: the figures measure the route, not the content.
#[derive(Debug, Clone, Copy)]
pub struct Probe;
impl MessageSize for Probe {}

/// Records the hop count of every probe delivered at its member.
#[derive(Default)]
pub struct HopRecorder {
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

/// One overlay member: a Pastry node and its recorder.
pub struct Agent {
    pub node: PastryNode,
    pub app: HopRecorder,
}

impl Agent {
    /// Routes one probe from this member toward `key`.
    pub fn route(&mut self, ctx: &mut Context<'_, PastryMsg<Probe>>, key: NodeId) {
        let Agent { node, app } = self;
        node.route(ctx, app, key, Probe, None);
    }
}

impl Actor for Agent {
    type Msg = PastryMsg<Probe>;
    fn on_message(&mut self, ctx: &mut Context<'_, Self::Msg>, from: NodeAddr, msg: Self::Msg) {
        let Agent { node, app } = self;
        node.on_message(ctx, app, from, msg);
    }
}

/// A single-site simulation of `n_nodes` agents with converged routing
/// state and no join traffic.
pub fn seeded_overlay(n_nodes: usize, seed: u64) -> Simulation<Agent> {
    // Seed the overlay before the simulation exists so each (large)
    // PastryNode is constructed exactly once and moved into its actor.
    let mut nodes: Vec<PastryNode> = (0..n_nodes as u32)
        .map(|i| {
            PastryNode::new(NodeInfo {
                id: NodeId::hash_of(format!("agent:{i}").as_bytes()),
                addr: NodeAddr(i),
                site: SiteId(0),
            })
        })
        .collect();
    seed_overlay(&mut nodes, |_, _| 0.0);
    let mut seeded = nodes.into_iter();
    Simulation::new(Topology::single_site(n_nodes, 0.5), seed, |_| Agent {
        node: seeded.next().expect("one node per address"),
        app: HopRecorder::default(),
    })
}

/// Exactly-once delivery is the routing invariant. Each `(seed,
/// delivered)` run that delivered other than `expected` probes dumps a
/// schedule replayable through `rbay-check replay`, and the experiment
/// fails.
pub fn require_exactly_once(
    opts: &HarnessOpts,
    n_nodes: usize,
    expected: usize,
    runs: impl Iterator<Item = (u64, usize)>,
) {
    let mut lost = false;
    for (seed, delivered) in runs.filter(|&(_, delivered)| delivered != expected) {
        let v = Violation::ProbeLoss {
            delivered,
            expected,
        };
        eprintln!("INVARIANT VIOLATION ({n_nodes} nodes, seed {seed}): {v}");
        emit_schedule(
            opts,
            &ScheduleFile {
                spec: CheckSpec::bench_fig8(n_nodes, expected, seed),
                violation: Some(v.kind().to_string()),
                directives: Vec::new(),
            },
        );
        lost = true;
    }
    if lost {
        crate::fail("probes were lost or duplicated in routing");
    }
}

/// Simulation-loop throughput: events per wall-clock second (0 when the
/// loop took no measurable time).
pub fn events_per_sec(events: u64, wall_secs: f64) -> f64 {
    if wall_secs > 0.0 {
        events as f64 / wall_secs
    } else {
        0.0
    }
}

/// The `[engine]` throughput line, on stderr: it is wall clock, and
/// stdout stays deterministic.
pub fn report_engine(events: u64, wall_secs: f64) {
    eprintln!(
        "\n[engine] {events} events in {wall_secs:.3}s of simulation loop = {:.0} events/sec",
        events_per_sec(events, wall_secs)
    );
}
