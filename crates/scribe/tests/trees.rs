//! End-to-end Scribe tests over simnet: tree construction from join paths,
//! multicast coverage, anycast DFS, aggregation convergence, and scoped
//! (per-site) trees.

use pastry::{seed_overlay, NodeId, NodeInfo, PastryMsg, PastryNode};
use scribe::{AggValue, ScribeApp, ScribeHost, ScribeLayer, ScribeMsg, TopicId, Visit};
use simnet::{Actor, Context, MessageSize, NodeAddr, SimDuration, Simulation, SiteId, Topology};
use std::collections::HashSet;

#[derive(Debug, Clone, PartialEq)]
struct P(u64);
impl MessageSize for P {}

#[derive(Default)]
struct Host {
    multicasts: Vec<(TopicId, P)>,
    accept: bool,
    visits: u64,
    results: Vec<(TopicId, P, bool)>,
    probes: Vec<(TopicId, Option<AggValue>, bool)>,
    subscribed: Vec<TopicId>,
}

impl ScribeHost<P> for Host {
    fn on_multicast(&mut self, topic: TopicId, payload: &P) {
        self.multicasts.push((topic, payload.clone()));
    }
    fn on_anycast_visit(&mut self, _topic: TopicId, payload: &mut P) -> Visit {
        self.visits += 1;
        payload.0 += 1; // count visits in the payload as RBAY fills buffers
        if self.accept {
            Visit::Stop
        } else {
            Visit::Continue
        }
    }
    fn on_anycast_result(&mut self, topic: TopicId, payload: P, satisfied: bool) {
        self.results.push((topic, payload, satisfied));
    }
    fn on_probe_reply(&mut self, topic: TopicId, _payload: P, agg: Option<AggValue>, exists: bool) {
        self.probes.push((topic, agg, exists));
    }
    fn on_direct(&mut self, _from: NodeAddr, _payload: P) {}
    fn on_subscribed(&mut self, topic: TopicId) {
        self.subscribed.push(topic);
    }
}

struct Node {
    pastry: PastryNode,
    scribe: ScribeLayer,
    host: Host,
}

impl Actor for Node {
    type Msg = PastryMsg<ScribeMsg<P>>;
    fn on_message(&mut self, ctx: &mut Context<'_, Self::Msg>, from: NodeAddr, msg: Self::Msg) {
        let Node {
            pastry,
            scribe,
            host,
        } = self;
        let mut app = ScribeApp {
            layer: scribe,
            host,
        };
        pastry.on_message(ctx, &mut app, from, msg);
    }
}

fn build_sim(topo: Topology, seed: u64) -> Simulation<Node> {
    let t2 = topo.clone();
    let mut sim = Simulation::new(topo, seed, move |addr| Node {
        pastry: PastryNode::new(NodeInfo {
            id: NodeId::hash_of(format!("node:{}", addr.0).as_bytes()),
            addr,
            site: t2.site_of(addr),
        }),
        scribe: ScribeLayer::new(),
        host: Host::default(),
    });
    let mut nodes: Vec<PastryNode> = sim
        .actors()
        .map(|(_, a)| PastryNode::new(a.pastry.info()))
        .collect();
    let rtts = sim.topology().clone();
    seed_overlay(&mut nodes, |a, b| rtts.rtt_ms(a, b));
    for (i, n) in nodes.into_iter().enumerate() {
        sim.actor_mut(NodeAddr(i as u32)).pastry = n;
    }
    sim
}

fn subscribe_all(sim: &mut Simulation<Node>, topic: TopicId, members: &[NodeAddr]) {
    for &m in members {
        let now = sim.now();
        sim.schedule_call(now, m, move |a, ctx| {
            let Node {
                pastry,
                scribe,
                host,
            } = a;
            scribe.subscribe(pastry, ctx, host, topic, None);
            scribe.set_local_value(topic, AggValue::Count(1));
        });
    }
    sim.run_until_idle();
}

/// The tree spans exactly the subscribers: every subscriber is attached and
/// following parents always reaches the root.
#[test]
fn join_paths_form_a_spanning_tree() {
    let mut sim = build_sim(Topology::single_site(120, 0.5), 1);
    let topic = TopicId::new("GPU", "rbay");
    let members: Vec<NodeAddr> = (0..60).map(|i| NodeAddr(i * 2)).collect();
    subscribe_all(&mut sim, topic, &members);

    // Exactly one root, and it is a tree member.
    let roots: Vec<NodeAddr> = sim
        .actors()
        .filter(|(_, a)| a.scribe.topic(topic).is_some_and(|s| s.is_root))
        .map(|(addr, _)| addr)
        .collect();
    assert_eq!(roots.len(), 1, "exactly one root, got {roots:?}");
    let root = roots[0];

    // The root is the node whose id is closest to the topic key.
    let infos: Vec<NodeInfo> = sim.actors().map(|(_, a)| a.pastry.info()).collect();
    let oracle = infos
        .iter()
        .map(|e| e.id)
        .reduce(|best, id| {
            if id.closer_to(topic.key(), best) {
                id
            } else {
                best
            }
        })
        .unwrap();
    assert_eq!(sim.actor(root).pastry.id(), oracle);

    // Every subscriber reaches the root by following parent pointers, with
    // no cycles.
    for &m in &members {
        let mut cur = m;
        let mut seen = HashSet::new();
        loop {
            assert!(seen.insert(cur), "cycle through {cur}");
            let st = sim.actor(cur).scribe.topic(topic).expect("member state");
            if st.is_root {
                break;
            }
            cur = st.parent.expect("attached member has a parent");
        }
    }

    // Parent/child tables are consistent.
    for (addr, a) in sim.actors() {
        if let Some(st) = a.scribe.topic(topic) {
            if let Some(p) = st.parent {
                assert!(
                    sim.actor(p)
                        .scribe
                        .topic(topic)
                        .is_some_and(|ps| ps.children.contains(&addr)),
                    "{addr} not in its parent's children table"
                );
            }
        }
    }
}

#[test]
fn multicast_reaches_every_subscriber_exactly_once() {
    let mut sim = build_sim(Topology::single_site(80, 0.5), 2);
    let topic = TopicId::new("Matlab", "rbay");
    let members: Vec<NodeAddr> = (0..40).map(NodeAddr).collect();
    subscribe_all(&mut sim, topic, &members);

    let now = sim.now();
    sim.schedule_call(now, NodeAddr(70), move |a, ctx| {
        let Node {
            pastry,
            scribe,
            host,
        } = a;
        scribe.multicast(pastry, ctx, host, topic, None, P(99));
    });
    sim.run_until_idle();

    for &m in &members {
        let got = &sim.actor(m).host.multicasts;
        assert_eq!(got.len(), 1, "{m} got {} copies", got.len());
        assert_eq!(got[0], (topic, P(99)));
    }
    // Non-subscribers saw nothing.
    for (addr, a) in sim.actors() {
        if !members.contains(&addr) {
            assert!(a.host.multicasts.is_empty(), "{addr} is not a subscriber");
        }
    }
}

#[test]
fn anycast_stops_at_first_accepting_member() {
    let mut sim = build_sim(Topology::single_site(60, 0.5), 3);
    let topic = TopicId::new("CPU<10%", "rbay");
    let members: Vec<NodeAddr> = (10..30).map(NodeAddr).collect();
    subscribe_all(&mut sim, topic, &members);
    for &m in &members {
        sim.actor_mut(m).host.accept = true;
    }
    let now = sim.now();
    sim.schedule_call(now, NodeAddr(0), move |a, ctx| {
        let Node {
            pastry,
            scribe,
            host,
        } = a;
        scribe.anycast(pastry, ctx, host, topic, None, P(0));
    });
    sim.run_until_idle();
    let origin = sim.actor(NodeAddr(0));
    assert_eq!(origin.host.results.len(), 1);
    let (t, p, satisfied) = &origin.host.results[0];
    assert_eq!(*t, topic);
    assert!(*satisfied);
    assert_eq!(p.0, 1, "exactly one visit before acceptance");
    let total_visits: u64 = sim.actors().map(|(_, a)| a.host.visits).sum();
    assert_eq!(total_visits, 1);
}

#[test]
fn anycast_exhausts_tree_when_nobody_accepts() {
    let mut sim = build_sim(Topology::single_site(40, 0.5), 4);
    let topic = TopicId::new("GPU", "rbay");
    let members: Vec<NodeAddr> = (0..12).map(NodeAddr).collect();
    subscribe_all(&mut sim, topic, &members);
    // accept stays false everywhere.
    let now = sim.now();
    sim.schedule_call(now, NodeAddr(30), move |a, ctx| {
        let Node {
            pastry,
            scribe,
            host,
        } = a;
        scribe.anycast(pastry, ctx, host, topic, None, P(0));
    });
    sim.run_until_idle();
    let origin = sim.actor(NodeAddr(30));
    assert_eq!(origin.host.results.len(), 1);
    let (_, p, satisfied) = &origin.host.results[0];
    assert!(!*satisfied);
    // Every subscriber was visited exactly once (forwarder-only nodes are
    // walked through but not "visited" by the host).
    assert_eq!(p.0, members.len() as u64, "all subscribers visited");
}

#[test]
fn anycast_into_missing_tree_is_unsatisfied() {
    let mut sim = build_sim(Topology::single_site(20, 0.5), 5);
    let topic = TopicId::new("nonexistent", "rbay");
    let now = sim.now();
    sim.schedule_call(now, NodeAddr(3), move |a, ctx| {
        let Node {
            pastry,
            scribe,
            host,
        } = a;
        scribe.anycast(pastry, ctx, host, topic, None, P(0));
    });
    sim.run_until_idle();
    let origin = sim.actor(NodeAddr(3));
    assert_eq!(origin.host.results.len(), 1);
    assert!(!origin.host.results[0].2);
}

#[test]
fn aggregation_converges_to_tree_size() {
    let mut sim = build_sim(Topology::single_site(100, 0.5), 6);
    let topic = TopicId::new("m3.large", "rbay");
    let members: Vec<NodeAddr> = (0..37).map(NodeAddr).collect();
    subscribe_all(&mut sim, topic, &members);

    // Run several aggregation rounds: every member pushes up once per round.
    for _ in 0..6 {
        for (addr, _) in sim
            .actors()
            .map(|(a, n)| (a, n.pastry.info()))
            .collect::<Vec<_>>()
        {
            let now = sim.now();
            sim.schedule_call(now, addr, |a, ctx| {
                let Node {
                    pastry,
                    scribe,
                    host,
                } = a;
                scribe.aggregate_tick(pastry, ctx, host);
            });
        }
        sim.run_for(SimDuration::from_millis(200));
    }
    sim.run_until_idle();

    let root = sim
        .actors()
        .find(|(_, a)| a.scribe.topic(topic).is_some_and(|s| s.is_root))
        .expect("root exists");
    let agg = root.1.scribe.root_aggregate(topic).expect("aggregate");
    assert_eq!(agg.as_count(), Some(37), "root sees the exact tree size");
}

#[test]
fn probe_root_returns_tree_size_and_existence() {
    let mut sim = build_sim(Topology::single_site(50, 0.5), 7);
    let topic = TopicId::new("c3.8xlarge", "rbay");
    let members: Vec<NodeAddr> = (5..25).map(NodeAddr).collect();
    subscribe_all(&mut sim, topic, &members);
    for _ in 0..5 {
        for i in 0..50u32 {
            let now = sim.now();
            sim.schedule_call(now, NodeAddr(i), |a, ctx| {
                let Node {
                    pastry,
                    scribe,
                    host,
                } = a;
                scribe.aggregate_tick(pastry, ctx, host);
            });
        }
        sim.run_for(SimDuration::from_millis(100));
    }
    sim.run_until_idle();

    let now = sim.now();
    sim.schedule_call(now, NodeAddr(49), move |a, ctx| {
        let Node {
            pastry,
            scribe,
            host,
        } = a;
        scribe.probe_root(pastry, ctx, host, topic, None, P(0));
    });
    // Probe a tree that does not exist, too.
    let missing = TopicId::new("no-such-tree", "rbay");
    sim.schedule_call(now, NodeAddr(49), move |a, ctx| {
        let Node {
            pastry,
            scribe,
            host,
        } = a;
        scribe.probe_root(pastry, ctx, host, missing, None, P(1));
    });
    sim.run_until_idle();

    let probes = &sim.actor(NodeAddr(49)).host.probes;
    assert_eq!(probes.len(), 2);
    let by_topic = |t: TopicId| probes.iter().find(|(pt, _, _)| *pt == t).unwrap();
    let (_, agg, exists) = by_topic(topic);
    assert!(*exists);
    assert_eq!(agg.as_ref().unwrap().as_count(), Some(20));
    let (_, agg2, exists2) = by_topic(missing);
    assert!(!*exists2);
    assert!(agg2.is_none());
}

#[test]
fn scoped_trees_use_per_site_rendezvous() {
    let mut sim = build_sim(Topology::aws_ec2_8_sites(10), 8);
    // A site-1 scoped tree: all members and the root stay in site 1.
    let topic = TopicId::scoped("t2.micro", "rbay", SiteId(1));
    let members: Vec<NodeAddr> = sim.topology().nodes_of_site(SiteId(1));
    for &m in &members {
        let now = sim.now();
        sim.schedule_call(now, m, move |a, ctx| {
            let Node {
                pastry,
                scribe,
                host,
            } = a;
            scribe.subscribe(pastry, ctx, host, topic, Some(SiteId(1)));
        });
    }
    sim.run_until_idle();
    // All participants of the topic are site-1 nodes.
    for (addr, a) in sim.actors() {
        if a.scribe.topic(topic).is_some() {
            assert_eq!(
                sim.topology().site_of(addr),
                SiteId(1),
                "{addr} participates but is outside the scope"
            );
        }
    }
    // Exactly one root among the site's nodes.
    let roots = sim
        .actors()
        .filter(|(_, a)| a.scribe.topic(topic).is_some_and(|s| s.is_root))
        .count();
    assert_eq!(roots, 1);
}
