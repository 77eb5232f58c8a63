//! Churn tests: heartbeat failure detection discovers crashed nodes
//! without any external notification, repairs the overlay and the trees,
//! and queries keep working — the evaluation the paper lists as future
//! work (§VI).

use rbay_core::{Federation, RbayConfig};
use rbay_query::AttrValue;
use simnet::{NodeAddr, SimDuration, Topology};

fn churn_config() -> RbayConfig {
    RbayConfig {
        failure_detection: true,
        heartbeat_timeout: SimDuration::from_millis(400),
        ..RbayConfig::default()
    }
}

fn maintain(fed: &mut Federation, rounds: u32) {
    fed.run_maintenance(rounds, SimDuration::from_millis(250));
    fed.settle();
}

#[test]
fn heartbeats_detect_silent_crashes() {
    let mut fed = Federation::with_config(Topology::single_site(40, 0.5), 31, churn_config());
    for n in [5u32, 9, 14] {
        fed.post_resource(NodeAddr(n), "GPU", AttrValue::Bool(true));
    }
    fed.settle();
    maintain(&mut fed, 3);

    // Crash node 9 with NO notification to anyone.
    fed.sim_mut().fail_node(NodeAddr(9));
    // Heartbeat rounds: pings to 9 go unanswered past the timeout.
    maintain(&mut fed, 8);

    // Some live node must have declared 9 failed.
    let suspecters = (0..40u32)
        .filter(|i| *i != 9)
        .filter(|i| fed.node(NodeAddr(*i)).pastry.is_buried(NodeAddr(9)))
        .count();
    assert!(suspecters > 0, "nobody detected the crash");

    // And the GPU tree no longer references the dead node anywhere.
    let topic = fed
        .node(NodeAddr(0))
        .host
        .tree_topic("GPU=true", simnet::SiteId(0));
    for i in (0..40u32).filter(|i| *i != 9) {
        if let Some(st) = fed.node(NodeAddr(i)).scribe.topic(topic) {
            assert!(
                !st.children.contains(&NodeAddr(9)),
                "node {i} still lists the dead node as a child"
            );
        }
    }
}

#[test]
fn queries_survive_churn_without_manual_repair() {
    let mut fed = Federation::with_config(Topology::single_site(60, 0.5), 33, churn_config());
    let holders: Vec<NodeAddr> = (10..22).map(NodeAddr).collect();
    for &h in &holders {
        fed.post_resource(h, "SSD", AttrValue::Bool(true));
    }
    fed.settle();
    maintain(&mut fed, 3);

    // Crash three holders silently.
    for n in [11u32, 15, 19] {
        fed.sim_mut().fail_node(NodeAddr(n));
    }
    maintain(&mut fed, 8);

    // Ask for all nine survivors.
    let id = fed
        .issue_query(NodeAddr(50), "SELECT 9 FROM * WHERE SSD = true", None)
        .unwrap();
    fed.settle();
    let rec = fed.query_record(NodeAddr(50), id).unwrap();
    assert!(rec.completed_at.is_some());
    assert!(
        rec.result.len() >= 8,
        "expected ~9 live holders, got {}",
        rec.result.len()
    );
    for c in &rec.result {
        assert!(
            ![11u32, 15, 19].contains(&c.addr.0),
            "dead node {} returned as a candidate",
            c.addr
        );
    }
}

#[test]
fn tree_parent_failure_triggers_automatic_rejoin() {
    let mut fed = Federation::with_config(Topology::single_site(50, 0.5), 35, churn_config());
    let holders: Vec<NodeAddr> = (0..16).map(NodeAddr).collect();
    for &h in &holders {
        fed.post_resource(h, "NVMe", AttrValue::Bool(true));
    }
    fed.settle();
    maintain(&mut fed, 3);

    let topic = fed
        .node(NodeAddr(0))
        .host
        .tree_topic("NVMe=true", simnet::SiteId(0));
    // Find an interior node of the tree (has children and a parent) and
    // kill it; its children must re-attach automatically.
    let interior = (0..50u32)
        .map(NodeAddr)
        .find(|n| {
            fed.node(*n)
                .scribe
                .topic(topic)
                .is_some_and(|st| !st.children.is_empty() && st.parent.is_some())
        })
        .expect("tree has interior nodes");
    let orphans: Vec<NodeAddr> = fed
        .node(interior)
        .scribe
        .topic(topic)
        .unwrap()
        .children
        .iter()
        .copied()
        .collect();
    fed.sim_mut().fail_node(interior);
    maintain(&mut fed, 10);

    // Every orphan that still subscribes is re-attached (or became root).
    for o in orphans {
        let st = fed.node(o).scribe.topic(topic).expect("orphan keeps state");
        assert!(
            st.is_root || st.parent.is_some_and(|p| p != interior),
            "orphan {o} still points at the dead parent"
        );
    }
    // The tree still answers queries for every live subscriber.
    let id = fed
        .issue_query(NodeAddr(40), "SELECT 15 FROM * WHERE NVMe = true", None)
        .unwrap();
    fed.settle();
    let rec = fed.query_record(NodeAddr(40), id).unwrap();
    let live_expected = holders.iter().filter(|h| **h != interior).count();
    assert!(
        rec.result.len() >= live_expected - 1,
        "repair lost subscribers: {} of {}",
        rec.result.len(),
        live_expected
    );
}

/// A failed border router costs one timed-out attempt: the retry rotates
/// to the site's next gateway and the cross-site query still succeeds.
#[test]
fn gateway_failover_rotates_border_routers() {
    let mut fed = Federation::with_config(
        Topology::aws_ec2_8_sites(10),
        37,
        RbayConfig {
            query_timeout: SimDuration::from_millis(1_500),
            ..churn_config()
        },
    );
    // A resource in Tokyo (site 5).
    let tokyo = fed.sim().topology().nodes_of_site(simnet::SiteId(5));
    fed.post_resource(tokyo[5], "GPU", AttrValue::Bool(true));
    fed.settle();
    maintain(&mut fed, 3);

    // Kill Tokyo's primary gateway (its lowest address).
    fed.sim_mut().fail_node(tokyo[0]);

    // A Virginia user queries Tokyo: attempt 0 times out against the dead
    // gateway, the retry reaches gateway #1.
    let id = fed
        .issue_query(
            NodeAddr(2),
            r#"SELECT 1 FROM "Tokyo" WHERE GPU = true"#,
            None,
        )
        .unwrap();
    fed.settle();
    let rec = fed.query_record(NodeAddr(2), id).unwrap();
    assert!(rec.satisfied, "failover must succeed: {rec:?}");
    assert!(rec.attempts >= 1, "first attempt should have timed out");
    assert_eq!(rec.result[0].addr, tokyo[5]);
}

/// A tree whose root crashes on a round boundary, and a `SELECT 1` issued
/// 10 ms later from a node that is not the root's leaf-set neighbour. The
/// federation, the crashed root, the querier and the query's id.
struct RootBlackout {
    fed: Federation,
    root: NodeAddr,
    querier: NodeAddr,
    id: rbay_core::QueryId,
    /// Copies routed again by the root's detectors.
    reroutes: u64,
}

const ROUND: SimDuration = SimDuration::from_millis(250);

/// Builds [`RootBlackout`]; `late_answer` runs on the crashed root's actor
/// at the round that declares it (t0 + 500 ms), before anything else it
/// could do then.
fn root_blackout(late_answer: bool) -> RootBlackout {
    let mut fed = Federation::with_config(Topology::single_site(60, 0.5), 41, churn_config());
    for h in (10..30).map(NodeAddr) {
        fed.post_resource(h, "GPU", AttrValue::Bool(true));
    }
    fed.settle();
    maintain(&mut fed, 3);
    let topic = (fed.node(NodeAddr(0)).host).tree_topic("GPU=true", simnet::SiteId(0));
    let root = (0..60)
        .map(NodeAddr)
        .find(|n| fed.node(*n).scribe.topic(topic).is_some_and(|t| t.is_root))
        .expect("the tree has a root");
    let neighbour = |n: NodeAddr| {
        fed.node(n)
            .pastry
            .leaf_set()
            .members()
            .any(|e| e.addr == root)
    };
    let querier = (10..30)
        .map(NodeAddr)
        .find(|n| *n != root && !neighbour(*n))
        .expect("a holder outside the root's leaf set");

    let obs = fed.enable_obs(1 << 16);
    let t0 = fed.sim().now();
    fed.sim_mut().fail_node(root);
    fed.schedule_maintenance(8, ROUND);
    fed.run_until(t0 + SimDuration::from_millis(10));
    let id = (fed.issue_query(querier, "SELECT 1 FROM * WHERE GPU = true", None)).unwrap();
    if late_answer {
        // A false positive: the root was only slow. It answers the probe
        // it swallowed right after its detectors declared it, so the
        // querier hears from it and from the re-routed copy.
        let probe: rbay_core::RbayMsg = pastry::PastryMsg::Route {
            key: topic.key(),
            payload: scribe::ScribeMsg::ProbeRoot {
                topic,
                scope: Some(simnet::SiteId(0)),
                payload: rbay_core::RbayPayload::SizeProbe {
                    query_id: id,
                    tree_idx: 0,
                    reply_to: querier,
                    site: simnet::SiteId(0),
                },
                origin: querier,
            },
            hops: 2,
            scope: Some(simnet::SiteId(0)),
        };
        let declared = t0 + ROUND.saturating_mul(2);
        fed.run_until(declared);
        fed.sim_mut().revive_node(root);
        fed.sim_mut()
            .schedule_call(declared, root, move |node, ctx| {
                node.on_message_via(ctx, querier, probe);
            });
    }
    fed.settle();
    RootBlackout {
        fed,
        root,
        querier,
        id,
        reroutes: obs.snapshot().count("reroute"),
    }
}

/// What the crashed root swallowed in the 500 ms before its detectors
/// declared it is routed again when they do: the query is answered then,
/// not after its 5 s timeout.
#[test]
fn a_query_sent_into_a_root_blackout_is_answered_when_the_root_is_declared() {
    let b = root_blackout(false);
    let cfg = b.fed.config();
    let rec = b.fed.query_record(b.querier, b.id).unwrap();
    assert!(rec.satisfied, "{rec:?}");
    let took = rec.completed_at.unwrap().saturating_since(rec.issued_at);
    assert!(
        took < cfg.heartbeat_timeout + ROUND.saturating_mul(2),
        "took {took} (the query timeout is {})",
        cfg.query_timeout
    );
    assert_eq!(rec.attempts, 0, "no attempt timed out");
    assert!(b.reroutes >= 1);
    assert!(rec.result.iter().all(|c| c.addr != b.root));
}

/// The re-route is safe to repeat: a root declared dead that answers the
/// probe after all is one more answer for the same site, and the query
/// completes once, with `k` distinct candidates.
#[test]
fn a_false_positive_root_answers_twice_and_the_query_completes_once() {
    let b = root_blackout(true);
    let rec = b.fed.query_record(b.querier, b.id).unwrap();
    assert!(rec.satisfied, "{rec:?}");
    let k = rec.query.k as usize;
    let distinct: std::collections::BTreeSet<NodeAddr> =
        rec.result.iter().map(|c| c.addr).collect();
    assert_eq!((rec.result.len(), distinct.len()), (k, k));
    let done = b.fed.events(b.querier).iter().filter(
        |e| matches!(e, rbay_core::RbayEvent::QueryDone { query_id, .. } if *query_id == b.id),
    );
    assert_eq!(done.count(), 1);
    assert!(b.reroutes >= 1, "the copy went out as well");
    let took = rec.completed_at.unwrap().saturating_since(rec.issued_at);
    assert!(took < b.fed.config().query_timeout, "took {took}");
}
