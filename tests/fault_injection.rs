//! Fault-injection tests: the whole stack under message loss. Joins,
//! aggregation, and queries recover through maintenance retries and
//! query-attempt retries — no protocol ever hangs on a lost packet.

use rbay::core::{Federation, RbayConfig};
use rbay::query::AttrValue;
use rbay::simnet::{NodeAddr, SimDuration, Topology};

fn lossy_federation(nodes: usize, loss: f64, seed: u64) -> Federation {
    let mut topo = Topology::single_site(nodes, 0.5);
    topo.set_loss_prob(loss);
    let cfg = RbayConfig {
        commit_results: false,
        query_timeout: SimDuration::from_millis(1_500),
        ..RbayConfig::default()
    };
    Federation::with_config(topo, seed, cfg)
}

#[test]
fn tree_joins_survive_message_loss() {
    // 10% of all messages vanish; maintenance re-issues lost joins.
    let mut fed = lossy_federation(60, 0.10, 61);
    let holders: Vec<NodeAddr> = (5..25).map(NodeAddr).collect();
    for &h in &holders {
        fed.post_resource(h, "GPU", AttrValue::Bool(true));
    }
    fed.settle();
    // Enough maintenance rounds for lost joins to be retried.
    fed.run_maintenance(10, SimDuration::from_millis(300));
    fed.settle();

    let topic = fed
        .node(NodeAddr(0))
        .host
        .tree_topic("GPU=true", rbay::simnet::SiteId(0));
    let attached = holders
        .iter()
        .filter(|h| {
            fed.node(**h)
                .scribe
                .topic(topic)
                .is_some_and(|st| st.is_attached())
        })
        .count();
    assert_eq!(
        attached,
        holders.len(),
        "every subscriber eventually attached"
    );
}

#[test]
fn queries_complete_under_loss() {
    let mut fed = lossy_federation(50, 0.05, 63);
    for n in [7u32, 11, 13] {
        fed.post_resource(NodeAddr(n), "SSD", AttrValue::Bool(true));
    }
    fed.settle();
    fed.run_maintenance(8, SimDuration::from_millis(300));
    fed.settle();

    let mut satisfied = 0;
    let attempts = 6;
    for i in 0..attempts {
        let origin = NodeAddr(30 + i);
        let id = fed
            .issue_query(origin, "SELECT 1 FROM * WHERE SSD = true", None)
            .unwrap();
        fed.settle();
        let rec = fed.query_record(origin, id).unwrap();
        assert!(rec.completed_at.is_some(), "query {i} must terminate");
        if rec.satisfied {
            satisfied += 1;
        }
        let horizon = fed.sim().now() + SimDuration::from_secs(6);
        fed.run_until(horizon);
    }
    // With 5% loss and per-attempt retries, the vast majority succeed.
    assert!(
        satisfied >= attempts - 1,
        "only {satisfied}/{attempts} queries satisfied under loss"
    );
    // Drops really happened (the fault injection is active).
    assert!(fed.sim().stats().dropped() > 0);
}

#[test]
fn zero_loss_is_the_default() {
    let topo = Topology::single_site(4, 0.5);
    assert_eq!(topo.loss_prob(), 0.0);
}
