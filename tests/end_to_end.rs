//! Workspace-level integration tests: the facade crate driving the whole
//! stack, checked against brute-force oracles, under churn, and across
//! administrative boundaries.

use rbay::core::Federation;
use rbay::query::{parse_query, AttrValue};
use rbay::simnet::{NodeAddr, SimDuration, SiteId, Topology};
use rbay::workloads::{
    populate_ec2_federation, QueryGen, ScenarioConfig, EC2_INSTANCE_TYPES, WORKLOAD_PASSWORD,
};

fn maintain(fed: &mut Federation, rounds: u32) {
    fed.run_maintenance(rounds, SimDuration::from_millis(200));
    fed.settle();
}

/// Query answers agree with a brute-force scan over every node's
/// attribute map.
#[test]
fn query_results_match_brute_force_oracle() {
    let mut fed = Federation::new(Topology::aws_ec2_8_sites(10), 21);
    let cfg = ScenarioConfig {
        extra_attrs_per_node: 4,
        password_policy: false,
        ..ScenarioConfig::default()
    };
    let assigned = populate_ec2_federation(&mut fed, 22, &cfg);
    maintain(&mut fed, 5);

    for (qi, itype) in ["t2.micro", "c3.8xlarge", "m3.large"].iter().enumerate() {
        let text =
            format!("SELECT 50 FROM * WHERE instance = \"{itype}\" AND CPU_utilization < 60");
        let parsed = parse_query(&text).unwrap();
        // Oracle: scan the ground truth.
        let oracle: Vec<NodeAddr> = (0..fed.sim().topology().node_count() as u32)
            .map(NodeAddr)
            .filter(|n| {
                let host = &fed.node(*n).host;
                assigned[n.index()] == *itype && parsed.matches_all(|a| host.attrs.get(a))
            })
            .collect();
        let origin = NodeAddr(7 + qi as u32);
        let id = fed.issue_query(origin, &text, None).unwrap();
        fed.settle();
        let rec = fed.query_record(origin, id).unwrap();
        let mut got: Vec<NodeAddr> = rec.result.iter().map(|c| c.addr).collect();
        got.sort();
        let mut want = oracle.clone();
        want.sort();
        // k=50 exceeds any tree here, so the query must find exactly the
        // oracle set.
        assert_eq!(got, want, "{itype}");
        // Wait out reservations before the next query so candidates are
        // free again.
        let horizon = fed.sim().now() + SimDuration::from_secs(8);
        fed.run_until(horizon);
    }
}

/// Node failure mid-operation: queries still terminate, and repaired
/// trees keep answering afterwards.
#[test]
fn churn_during_queries_is_survivable() {
    let mut fed = Federation::new(Topology::single_site(80, 0.5), 23);
    let holders: Vec<NodeAddr> = (10..20).map(NodeAddr).collect();
    for &h in &holders {
        fed.post_resource(h, "GPU", AttrValue::Bool(true));
    }
    fed.settle();
    maintain(&mut fed, 4);

    // Fail one holder plus one random non-holder, notify the overlay.
    let dead = [NodeAddr(15), NodeAddr(55)];
    for &d in &dead {
        fed.sim_mut().fail_node(d);
    }
    for i in 0..80u32 {
        let n = NodeAddr(i);
        if dead.contains(&n) {
            continue;
        }
        let now = fed.sim().now();
        fed.sim_mut().schedule_call(now, n, move |a, ctx| {
            for d in dead {
                a.pastry.handle_failure(ctx, d);
            }
            for d in dead {
                a.scribe.handle_failure(&mut a.pastry, ctx, &mut a.host, d);
            }
        });
    }
    fed.settle();
    maintain(&mut fed, 4);

    // 9 live holders remain; ask for all of them.
    let id = fed
        .issue_query(NodeAddr(70), "SELECT 9 FROM * WHERE GPU = true", None)
        .unwrap();
    fed.settle();
    let rec = fed.query_record(NodeAddr(70), id).unwrap();
    assert!(
        rec.completed_at.is_some(),
        "query must terminate under churn"
    );
    assert!(
        rec.result.len() >= 8,
        "most live holders reachable after repair: {:?}",
        rec.result.len()
    );
    assert!(rec.result.iter().all(|c| c.addr != NodeAddr(15)));
}

/// Site-scoped queries never touch nodes outside the requested sites, and
/// per-site trees have per-site roots (administrative isolation).
#[test]
fn administrative_isolation_holds() {
    let mut fed = Federation::new(Topology::aws_ec2_8_sites(12), 25);
    for s in 0..8u16 {
        for off in 2..6usize {
            let n = fed.sim().topology().nodes_of_site(SiteId(s))[off];
            fed.post_resource(n, "SSD", AttrValue::Bool(true));
        }
    }
    fed.settle();
    maintain(&mut fed, 4);

    let id = fed
        .issue_query(
            NodeAddr(1),
            r#"SELECT 4 FROM "Ireland" WHERE SSD = true"#,
            None,
        )
        .unwrap();
    fed.settle();
    let rec = fed.query_record(NodeAddr(1), id).unwrap();
    assert!(rec.satisfied);
    assert!(
        rec.result.iter().all(|c| c.site == SiteId(3)),
        "all results from Ireland: {:?}",
        rec.result
    );

    // The SSD trees are distinct per site: each site's scoped topic has
    // its own root inside that site.
    for s in 0..8u16 {
        let topic = fed.node(NodeAddr(0)).host.tree_topic("SSD=true", SiteId(s));
        let roots: Vec<NodeAddr> = (0..fed.sim().topology().node_count() as u32)
            .map(NodeAddr)
            .filter(|n| {
                fed.node(*n)
                    .scribe
                    .topic(topic)
                    .is_some_and(|st| st.is_root)
            })
            .collect();
        assert_eq!(roots.len(), 1, "site {s}");
        assert_eq!(fed.sim().topology().site_of(roots[0]), SiteId(s));
    }
}

/// The full EC2 workload on all eight sites answers the paper's composite
/// query mix with the password policy active.
#[test]
fn ec2_workload_composite_queries_succeed() {
    let mut fed = Federation::new(Topology::aws_ec2_8_sites(16), 27);
    let cfg = ScenarioConfig {
        extra_attrs_per_node: 5,
        ..ScenarioConfig::default()
    };
    populate_ec2_federation(&mut fed, 28, &cfg);
    maintain(&mut fed, 5);

    let mut qg = QueryGen::new(29, rbay::workloads::aws8_site_names(), 5);
    let mut satisfied = 0;
    let total = 12;
    for i in 0..total {
        let home = SiteId((i % 8) as u16);
        let origin = fed.sim().topology().nodes_of_site(home)[4];
        let text = qg.composite(home, 1 + (i % 8), 1);
        let id = fed
            .issue_query(origin, &text, Some(WORKLOAD_PASSWORD))
            .unwrap();
        fed.settle();
        let rec = fed.query_record(origin, id).unwrap();
        assert!(rec.completed_at.is_some(), "{text}");
        if rec.satisfied {
            satisfied += 1;
        }
        let horizon = fed.sim().now() + SimDuration::from_secs(6);
        fed.run_until(horizon);
    }
    // With 128 nodes over 23 types, a Gaussian-center type exists in most
    // site subsets; the overwhelming majority of queries must succeed.
    assert!(
        satisfied >= total * 3 / 4,
        "only {satisfied}/{total} composite queries satisfied"
    );
}

/// Every instance tree's root aggregate converges to the true tree size.
#[test]
fn aggregation_converges_for_the_instance_trees() {
    let mut fed = Federation::new(Topology::single_site(120, 0.5), 31);
    let cfg = ScenarioConfig {
        extra_attrs_per_node: 0,
        password_policy: false,
        ..ScenarioConfig::default()
    };
    let assigned = populate_ec2_federation(&mut fed, 32, &cfg);
    maintain(&mut fed, 8);

    for itype in EC2_INSTANCE_TYPES {
        let truth = assigned.iter().filter(|t| **t == itype).count() as u64;
        if truth == 0 {
            continue;
        }
        let topic = fed
            .node(NodeAddr(0))
            .host
            .tree_topic(&format!("instance={itype}"), SiteId(0));
        let root_agg = (0..120u32)
            .map(NodeAddr)
            .find_map(|n| {
                let node = fed.node(n);
                let st = node.scribe.topic(topic)?;
                if st.is_root {
                    node.scribe.root_aggregate(topic)
                } else {
                    None
                }
            })
            .unwrap_or_else(|| panic!("no root aggregate for {itype}"));
        assert_eq!(
            root_agg.as_count(),
            Some(truth),
            "{itype} tree size at root"
        );
    }
}

/// The paper's full "global view" aggregate (§II.B.3): the tree root
/// learns not just the tree size but the average/min/max of a configured
/// attribute, and an admin anywhere can probe it.
#[test]
fn tree_stats_probe_returns_size_and_utilization_stats() {
    use rbay::core::RbayConfig;
    let cfg = RbayConfig {
        aggregate_attr: Some("CPU_utilization".into()),
        ..RbayConfig::default()
    };
    let mut fed = rbay::core::Federation::with_config(Topology::single_site(50, 0.5), 51, cfg);
    let utils = [10.0, 20.0, 30.0, 40.0];
    for (i, u) in utils.iter().enumerate() {
        let n = NodeAddr(5 + i as u32);
        fed.update_attr(n, "CPU_utilization", AttrValue::Num(*u));
        fed.post_resource(n, "GPU", AttrValue::Bool(true));
    }
    fed.settle();
    maintain(&mut fed, 6);

    fed.probe_tree_stats(NodeAddr(40), "GPU=true", SiteId(0));
    fed.settle();
    let stats = &fed.node(NodeAddr(40)).host.tree_stats;
    let (agg, exists, _) = stats.get("GPU=true").expect("probe answered");
    assert!(*exists);
    let agg = agg.as_ref().expect("aggregate present");
    assert_eq!(agg.as_count(), Some(4), "tree size");
    let mean = agg.component(1).unwrap().as_f64();
    assert!((mean - 25.0).abs() < 1e-9, "mean utilization, got {mean}");
    assert_eq!(agg.component(2).unwrap().as_f64(), 10.0, "min");
    assert_eq!(agg.component(3).unwrap().as_f64(), 40.0, "max");
}

/// Attribute updates are reflected in the aggregate after the next
/// maintenance rounds (each member refreshes its contribution).
#[test]
fn tree_stats_track_attribute_updates() {
    use rbay::core::RbayConfig;
    let cfg = RbayConfig {
        aggregate_attr: Some("CPU_utilization".into()),
        ..RbayConfig::default()
    };
    let mut fed = rbay::core::Federation::with_config(Topology::single_site(40, 0.5), 53, cfg);
    for i in 0..4u32 {
        fed.update_attr(NodeAddr(i), "CPU_utilization", AttrValue::Num(50.0));
        fed.post_resource(NodeAddr(i), "SSD", AttrValue::Bool(true));
    }
    fed.settle();
    maintain(&mut fed, 6);
    fed.probe_tree_stats(NodeAddr(30), "SSD=true", SiteId(0));
    fed.settle();
    let first = fed.node(NodeAddr(30)).host.tree_stats["SSD=true"]
        .0
        .as_ref()
        .unwrap()
        .component(1)
        .unwrap()
        .as_f64();
    assert!((first - 50.0).abs() < 1e-9);

    // Everyone's utilization drops to 10.
    for i in 0..4u32 {
        fed.update_attr(NodeAddr(i), "CPU_utilization", AttrValue::Num(10.0));
    }
    fed.settle();
    maintain(&mut fed, 6);
    fed.probe_tree_stats(NodeAddr(30), "SSD=true", SiteId(0));
    fed.settle();
    let second = fed.node(NodeAddr(30)).host.tree_stats["SSD=true"]
        .0
        .as_ref()
        .unwrap()
        .component(1)
        .unwrap()
        .as_f64();
    assert!((second - 10.0).abs() < 1e-9, "got {second}");
}
