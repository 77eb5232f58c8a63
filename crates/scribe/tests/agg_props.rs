//! Property tests for the aggregation extension: for arbitrary membership
//! sets and arbitrary per-member contributions of any composable kind, the
//! root's aggregate after convergence equals the direct fold over the
//! members.

use pastry::{seed_overlay, NodeId, NodeInfo, PastryMsg, PastryNode};
use proptest::prelude::*;
use scribe::{AggValue, ScribeApp, ScribeHost, ScribeLayer, ScribeMsg, TopicId, Visit};
use simnet::{Actor, Context, MessageSize, NodeAddr, SimDuration, Simulation, Topology};

#[derive(Debug, Clone, PartialEq)]
struct P;
impl MessageSize for P {}

struct NullHost;
impl ScribeHost<P> for NullHost {
    fn on_multicast(&mut self, _t: TopicId, _p: &P) {}
    fn on_anycast_visit(&mut self, _t: TopicId, _p: &mut P) -> Visit {
        Visit::Continue
    }
    fn on_anycast_result(&mut self, _t: TopicId, _p: P, _s: bool) {}
    fn on_probe_reply(&mut self, _t: TopicId, _p: P, _a: Option<AggValue>, _e: bool) {}
    fn on_direct(&mut self, _f: NodeAddr, _p: P) {}
}

struct Node {
    pastry: PastryNode,
    scribe: ScribeLayer,
    host: NullHost,
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

fn converged_root_aggregate(
    n_nodes: usize,
    members: &[(usize, AggValue)],
    seed: u64,
) -> Option<AggValue> {
    let topo = Topology::single_site(n_nodes, 0.3);
    let mut sim = Simulation::new(topo, seed, |addr| Node {
        pastry: PastryNode::new(NodeInfo {
            id: NodeId::hash_of(format!("agg:{}", addr.0).as_bytes()),
            addr,
            site: simnet::SiteId(0),
        }),
        scribe: ScribeLayer::new(),
        host: NullHost,
    });
    let mut nodes: Vec<PastryNode> = sim
        .actors()
        .map(|(_, a)| PastryNode::new(a.pastry.info()))
        .collect();
    seed_overlay(&mut nodes, |_, _| 0.0);
    for (i, n) in nodes.into_iter().enumerate() {
        sim.actor_mut(NodeAddr(i as u32)).pastry = n;
    }
    let topic = TopicId::new("prop-tree", "agg");
    for (m, v) in members.iter().cloned() {
        let now = sim.now();
        sim.schedule_call(now, NodeAddr(m as u32), move |a, ctx| {
            let Node {
                pastry,
                scribe,
                host,
            } = a;
            scribe.subscribe(pastry, ctx, host, topic, None);
            scribe.set_local_value(topic, v);
        });
    }
    sim.run_until_idle();
    // Enough tick rounds to cover any tree depth.
    for _ in 0..8 {
        for i in 0..n_nodes as u32 {
            let now = sim.now();
            sim.schedule_call(now, NodeAddr(i), |a, ctx| {
                a.scribe.aggregate_tick(&mut a.pastry, ctx, &mut a.host);
            });
        }
        sim.run_for(SimDuration::from_millis(50));
    }
    sim.run_until_idle();
    let agg = sim
        .actors()
        .find(|(_, a)| a.scribe.topic(topic).is_some_and(|s| s.is_root))
        .and_then(|(_, a)| a.scribe.root_aggregate(topic));
    agg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Count aggregation: the root sees exactly the subscriber count.
    #[test]
    fn root_count_equals_membership(
        seed in 0u64..500,
        n in 8usize..60,
        member_bits in proptest::collection::vec(any::<bool>(), 8..60),
    ) {
        let members: Vec<(usize, AggValue)> = member_bits
            .iter()
            .enumerate()
            .filter(|(i, b)| **b && *i < n)
            .map(|(i, _)| (i, AggValue::Count(1)))
            .collect();
        prop_assume!(!members.is_empty());
        let agg = converged_root_aggregate(n, &members, seed).expect("root exists");
        prop_assert_eq!(agg.as_count(), Some(members.len() as u64));
    }

    /// Sum aggregation matches the direct fold over contributions.
    #[test]
    fn root_sum_equals_direct_fold(
        seed in 0u64..500,
        vals in proptest::collection::vec(-1000i32..1000, 2..20),
    ) {
        let n = 40usize;
        let members: Vec<(usize, AggValue)> = vals
            .iter()
            .enumerate()
            .map(|(i, v)| (i * 2 % n, AggValue::Sum(*v as f64)))
            .collect();
        // Dedup node indices (later assignments overwrite local values).
        let mut seen = std::collections::BTreeMap::new();
        for (m, v) in members {
            seen.insert(m, v);
        }
        let members: Vec<(usize, AggValue)> = seen.into_iter().collect();
        let expect: f64 = members
            .iter()
            .map(|(_, v)| match v {
                AggValue::Sum(x) => *x,
                _ => unreachable!(),
            })
            .sum();
        let agg = converged_root_aggregate(n, &members, seed).expect("root exists");
        prop_assert!((agg.as_f64() - expect).abs() < 1e-9);
    }

    /// Min/Max aggregation matches the direct fold.
    #[test]
    fn root_extrema_match_direct_fold(
        seed in 0u64..500,
        vals in proptest::collection::vec(-1e6f64..1e6, 2..16),
    ) {
        let n = 32usize;
        let min_members: Vec<(usize, AggValue)> = vals
            .iter()
            .enumerate()
            .map(|(i, v)| (i, AggValue::Min(*v)))
            .collect();
        let expect = vals.iter().cloned().fold(f64::INFINITY, f64::min);
        let agg = converged_root_aggregate(n, &min_members, seed).expect("root exists");
        prop_assert_eq!(agg.as_f64(), expect);
    }
}
