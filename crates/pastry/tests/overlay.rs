//! End-to-end Pastry overlay tests over the simnet simulator: protocol
//! joins, routing correctness against a brute-force oracle, failure repair,
//! and property-based routing invariants.

use pastry::{seed_overlay, NodeId, NodeInfo, PastryApp, PastryMsg, PastryNode};
use proptest::prelude::*;
use simnet::{Actor, Context, NodeAddr, Simulation, SiteId, Topology};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Payload(u64);

/// Records every delivery so tests can check who became the root.
#[derive(Default)]
struct Recorder {
    delivered: Vec<(NodeId, Payload, u16)>,
}

impl PastryApp<Payload> for Recorder {
    fn deliver<N: pastry::Net<Payload>>(
        &mut self,
        _node: &mut PastryNode,
        _net: &mut N,
        key: NodeId,
        payload: Payload,
        hops: u16,
    ) {
        self.delivered.push((key, payload, hops));
    }
    fn receive_direct<N: pastry::Net<Payload>>(
        &mut self,
        _node: &mut PastryNode,
        _net: &mut N,
        _from: NodeAddr,
        payload: Payload,
    ) {
        self.delivered.push((NodeId(0), payload, 0));
    }
}

struct OverlayActor {
    node: PastryNode,
    app: Recorder,
}

impl Actor for OverlayActor {
    type Msg = PastryMsg<Payload>;
    fn on_message(&mut self, ctx: &mut Context<'_, Self::Msg>, from: NodeAddr, msg: Self::Msg) {
        let OverlayActor { node, app } = self;
        node.on_message(ctx, app, from, msg);
    }
}

fn make_actor(addr: NodeAddr, topo: &Topology) -> OverlayActor {
    OverlayActor {
        node: PastryNode::new(NodeInfo {
            id: NodeId::hash_of(format!("node:{}", addr.0).as_bytes()),
            addr,
            site: topo.site_of(addr),
        }),
        app: Recorder::default(),
    }
}

/// The id numerically closest to `key` among `infos` (the routing oracle).
fn oracle_root(infos: &[NodeInfo], key: NodeId) -> NodeId {
    infos
        .iter()
        .map(|e| e.id)
        .reduce(|best, id| if id.closer_to(key, best) { id } else { best })
        .expect("non-empty")
}

fn seeded_sim(n: usize, seed: u64) -> Simulation<OverlayActor> {
    let topo = Topology::single_site(n, 0.5);
    let t2 = topo.clone();
    let mut sim = Simulation::new(topo, seed, move |addr| make_actor(addr, &t2));
    // Seed converged state out-of-band.
    let mut nodes: Vec<PastryNode> = (0..n as u32)
        .map(|i| {
            PastryNode::new(NodeInfo {
                id: NodeId::hash_of(format!("node:{i}").as_bytes()),
                addr: NodeAddr(i),
                site: SiteId(0),
            })
        })
        .collect();
    seed_overlay(&mut nodes, |_, _| 0.0);
    for (i, n) in nodes.into_iter().enumerate() {
        sim.actor_mut(NodeAddr(i as u32)).node = n;
    }
    sim
}

#[test]
fn protocol_join_converges_and_routes_correctly() {
    let n = 24usize;
    let topo = Topology::single_site(n, 0.5);
    let t2 = topo.clone();
    let mut sim = Simulation::new(topo, 11, move |addr| make_actor(addr, &t2));
    // Node 0 is the bootstrap; others join one at a time through it.
    let id0 = sim.actor(NodeAddr(0)).node.id();
    sim.actor_mut(NodeAddr(0)).node.seed_state(
        pastry::RoutingTable::new(id0),
        pastry::LeafSet::new(id0),
        pastry::RoutingTable::new(id0),
        pastry::LeafSet::new(id0),
    );
    for i in 1..n as u32 {
        let now = sim.now();
        sim.schedule_call(now, NodeAddr(i), |a, ctx| {
            a.node.join(ctx, NodeAddr(0));
        });
        sim.run_until_idle();
    }
    assert!(sim.actors().all(|(_, a)| a.node.is_joined()));

    let infos: Vec<NodeInfo> = sim.actors().map(|(_, a)| a.node.info()).collect();
    // Route 50 random keys from node 3 and check each lands on the oracle
    // root.
    for k in 0..50u64 {
        let key = NodeId::hash_of(format!("key:{k}").as_bytes());
        let now = sim.now();
        sim.schedule_call(now, NodeAddr(3), move |a, ctx| {
            let OverlayActor { node, app } = a;
            node.route(ctx, app, key, Payload(k), None);
        });
        sim.run_until_idle();
        let root = oracle_root(&infos, key);
        let (addr, actor) = sim
            .actors()
            .find(|(_, a)| {
                a.app
                    .delivered
                    .iter()
                    .any(|(dk, p, _)| *dk == key && *p == Payload(k))
            })
            .expect("someone delivered the key");
        assert_eq!(actor.node.id(), root, "key {k} landed on wrong node {addr}");
    }
}

#[test]
fn seeded_overlay_routes_all_keys_to_oracle_root() {
    let mut sim = seeded_sim(200, 7);
    let infos: Vec<NodeInfo> = sim.actors().map(|(_, a)| a.node.info()).collect();
    for k in 0..100u64 {
        let key = NodeId::hash_of(format!("probe:{k}").as_bytes());
        let src = NodeAddr((k % 200) as u32);
        let now = sim.now();
        sim.schedule_call(now, src, move |a, ctx| {
            let OverlayActor { node, app } = a;
            node.route(ctx, app, key, Payload(k), None);
        });
        sim.run_until_idle();
        let root = oracle_root(&infos, key);
        let delivered_at: Vec<NodeId> = sim
            .actors()
            .filter(|(_, a)| {
                a.app
                    .delivered
                    .iter()
                    .any(|(dk, p, _)| *dk == key && *p == Payload(k))
            })
            .map(|(_, a)| a.node.id())
            .collect();
        assert_eq!(delivered_at, vec![root], "key {k}");
    }
}

#[test]
fn hop_counts_are_logarithmic() {
    let mut sim = seeded_sim(512, 3);
    for k in 0..50u64 {
        let key = NodeId::hash_of(format!("hops:{k}").as_bytes());
        let src = NodeAddr((k * 7 % 512) as u32);
        let now = sim.now();
        sim.schedule_call(now, src, move |a, ctx| {
            let OverlayActor { node, app } = a;
            node.route(ctx, app, key, Payload(k), None);
        });
    }
    sim.run_until_idle();
    let max_hops = sim
        .actors()
        .flat_map(|(_, a)| a.app.delivered.iter().map(|(_, _, h)| *h))
        .max()
        .expect("deliveries happened");
    // ceil(log16 512) = 3, allow slack for leaf-set hops.
    assert!(max_hops <= 5, "max hops {max_hops} too large for 512 nodes");
}

#[test]
fn failure_repair_keeps_routing_correct() {
    let mut sim = seeded_sim(64, 9);
    let infos: Vec<NodeInfo> = sim.actors().map(|(_, a)| a.node.info()).collect();
    // Kill node 10 and tell every other node about it (as its failure
    // detector would).
    let dead = NodeAddr(10);
    sim.fail_node(dead);
    for i in 0..64u32 {
        if i == 10 {
            continue;
        }
        let now = sim.now();
        sim.schedule_call(now, NodeAddr(i), move |a, ctx| {
            a.node.handle_failure(ctx, dead);
        });
    }
    sim.run_until_idle();
    let live: Vec<NodeInfo> = infos.iter().filter(|e| e.addr != dead).copied().collect();
    for k in 0..30u64 {
        let key = NodeId::hash_of(format!("post-fail:{k}").as_bytes());
        let now = sim.now();
        sim.schedule_call(now, NodeAddr(1), move |a, ctx| {
            let OverlayActor { node, app } = a;
            node.route(ctx, app, key, Payload(1_000 + k), None);
        });
        sim.run_until_idle();
        let root = oracle_root(&live, key);
        let delivered_at: Vec<NodeId> = sim
            .actors()
            .filter(|(_, a)| {
                a.app
                    .delivered
                    .iter()
                    .any(|(dk, p, _)| *dk == key && *p == Payload(1_000 + k))
            })
            .map(|(_, a)| a.node.id())
            .collect();
        assert_eq!(delivered_at, vec![root], "key {k} after failure");
    }
}

#[test]
fn site_scoped_routing_stays_in_site() {
    let topo = Topology::aws_ec2_8_sites(12);
    let t2 = topo.clone();
    let mut sim = Simulation::new(topo, 5, move |addr| make_actor(addr, &t2));
    let mut nodes: Vec<PastryNode> = sim
        .actors()
        .map(|(_, a)| PastryNode::new(a.node.info()))
        .collect();
    seed_overlay(&mut nodes, |_, _| 0.0);
    for (i, n) in nodes.into_iter().enumerate() {
        sim.actor_mut(NodeAddr(i as u32)).node = n;
    }
    let infos: Vec<NodeInfo> = sim.actors().map(|(_, a)| a.node.info()).collect();
    // Route keys scoped to site 2 from a site-2 node; the delivering node
    // must always be in site 2 and be the in-site oracle root.
    let site2: Vec<NodeInfo> = infos
        .iter()
        .filter(|e| e.site == SiteId(2))
        .copied()
        .collect();
    for k in 0..30u64 {
        let key = NodeId::hash_of(format!("scoped:{k}").as_bytes());
        let src = site2[(k % site2.len() as u64) as usize].addr;
        let now = sim.now();
        sim.schedule_call(now, src, move |a, ctx| {
            let OverlayActor { node, app } = a;
            node.route(ctx, app, key, Payload(k), Some(SiteId(2)));
        });
        sim.run_until_idle();
        let root = site2
            .iter()
            .map(|e| e.id)
            .reduce(|best, id| if id.closer_to(key, best) { id } else { best })
            .unwrap();
        let delivered_at: Vec<NodeInfo> = sim
            .actors()
            .filter(|(_, a)| {
                a.app
                    .delivered
                    .iter()
                    .any(|(dk, p, _)| *dk == key && *p == Payload(k))
            })
            .map(|(_, a)| a.node.info())
            .collect();
        assert_eq!(delivered_at.len(), 1, "key {k}");
        assert_eq!(delivered_at[0].site, SiteId(2), "left the site for key {k}");
        assert_eq!(delivered_at[0].id, root, "wrong in-site root for key {k}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Routing from any source lands every key on the oracle root.
    #[test]
    fn prop_routing_delivers_to_oracle(seed in 0u64..1000, n in 4usize..80, keys in proptest::collection::vec(any::<u128>(), 1..8)) {
        let mut sim = seeded_sim(n, seed);
        let infos: Vec<NodeInfo> = sim.actors().map(|(_, a)| a.node.info()).collect();
        for (i, raw) in keys.iter().enumerate() {
            let key = NodeId(*raw);
            let src = NodeAddr(((seed as usize + i) % n) as u32);
            let payload = Payload(i as u64);
            let now = sim.now();
            sim.schedule_call(now, src, move |a, ctx| {
                let OverlayActor { node, app } = a;
                node.route(ctx, app, key, payload, None);
            });
            sim.run_until_idle();
            let root = oracle_root(&infos, key);
            let delivered_at: Vec<NodeId> = sim
                .actors()
                .filter(|(_, a)| a.app.delivered.iter().any(|(dk, p, _)| *dk == key && *p == payload))
                .map(|(_, a)| a.node.id())
                .collect();
            prop_assert_eq!(delivered_at, vec![root]);
        }
    }

    /// Joining never produces unjoined nodes and deliveries always occur.
    #[test]
    fn prop_join_then_route(seed in 0u64..500, n in 2usize..16) {
        let topo = Topology::single_site(n, 0.3);
        let t2 = topo.clone();
        let mut sim = Simulation::new(topo, seed, move |addr| make_actor(addr, &t2));
        let id0 = sim.actor(NodeAddr(0)).node.id();
        sim.actor_mut(NodeAddr(0)).node.seed_state(
            pastry::RoutingTable::new(id0),
            pastry::LeafSet::new(id0),
            pastry::RoutingTable::new(id0),
            pastry::LeafSet::new(id0),
        );
        for i in 1..n as u32 {
            let now = sim.now();
            sim.schedule_call(now, NodeAddr(i), |a, ctx| {
                a.node.join(ctx, NodeAddr(0));
            });
            sim.run_until_idle();
        }
        prop_assert!(sim.actors().all(|(_, a)| a.node.is_joined()));
        let key = NodeId::hash_of(&seed.to_be_bytes());
        let now = sim.now();
        sim.schedule_call(now, NodeAddr(0), move |a, ctx| {
            let OverlayActor { node, app } = a;
            node.route(ctx, app, key, Payload(seed), None);
        });
        sim.run_until_idle();
        let total: usize = sim.actors().map(|(_, a)| a.app.delivered.len()).sum();
        prop_assert_eq!(total, 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Leaf-set invariant: after arbitrary insertions, each side holds the
    /// nearest ids on its arc, sorted by distance, capped at the side size.
    #[test]
    fn prop_leaf_set_keeps_nearest_per_side(
        self_id in any::<u128>(),
        ids in proptest::collection::btree_set(any::<u128>(), 1..64),
    ) {
        use pastry::LeafSet;
        let me = NodeId(self_id);
        let mut ls = LeafSet::new(me);
        for id in &ids {
            ls.insert(NodeInfo {
                id: NodeId(*id),
                addr: NodeAddr((id % u32::MAX as u128) as u32),
                site: SiteId(0),
            });
        }
        let others: Vec<NodeId> = ids
            .iter()
            .map(|i| NodeId(*i))
            .filter(|i| *i != me)
            .collect();
        prop_assert!(ls.len() <= 16);
        // Every member is distinct and not self.
        let mut seen = std::collections::HashSet::new();
        for m in ls.members() {
            prop_assert!(m.id != me);
            prop_assert!(seen.insert(m.id));
        }
        // If fewer than 16 candidates exist, all are members.
        if others.len() <= 16 {
            prop_assert_eq!(ls.len(), others.len());
        }
        // The immediate clockwise successor is always present (it is the
        // nearest node on the cw arc).
        if !others.is_empty() {
            let succ = others
                .iter()
                .min_by_key(|o| me.cw_distance(**o))
                .copied()
                .unwrap();
            prop_assert!(
                ls.members().any(|m| m.id == succ),
                "successor {:?} missing", succ
            );
        }
    }

    /// The routing-oracle root agrees across all observers: whoever you
    /// ask, the closest node to a key is the same (total order).
    #[test]
    fn prop_closest_is_consistent(key in any::<u128>(), ids in proptest::collection::btree_set(any::<u128>(), 2..40)) {
        let key = NodeId(key);
        let nodes: Vec<NodeId> = ids.iter().map(|i| NodeId(*i)).collect();
        let best = nodes
            .iter()
            .copied()
            .reduce(|a, b| if b.closer_to(key, a) { b } else { a })
            .unwrap();
        // best beats every other node from any starting order.
        for n in &nodes {
            if *n != best {
                prop_assert!(best.closer_to(key, *n));
                prop_assert!(!n.closer_to(key, best));
            }
        }
    }
}
