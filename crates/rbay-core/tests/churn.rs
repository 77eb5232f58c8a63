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
