//! End-to-end federation tests: the full stack (simnet → pastry → scribe →
//! rbay) exercised through the public `Federation` API.

use rbay_core::{Federation, QueryId, RbayEvent};
use rbay_query::AttrValue;
use simnet::{NodeAddr, SimDuration, SiteId, SiteSpec, Topology};

fn maintain(fed: &mut Federation, rounds: u32) {
    fed.run_maintenance(rounds, SimDuration::from_millis(200));
    fed.settle();
}

#[test]
fn single_site_query_finds_posted_resource() {
    let mut fed = Federation::new(Topology::single_site(50, 0.5), 1);
    fed.post_resource(NodeAddr(10), "GPU", AttrValue::Bool(true));
    fed.post_resource(NodeAddr(20), "GPU", AttrValue::Bool(true));
    fed.settle();
    maintain(&mut fed, 4);

    let q = fed
        .issue_query(NodeAddr(5), "SELECT 2 FROM * WHERE GPU = true", None)
        .unwrap();
    fed.settle();
    let rec = fed.query_record(NodeAddr(5), q).unwrap();
    assert!(rec.satisfied, "query unsatisfied: {rec:?}");
    let mut addrs: Vec<u32> = rec.result.iter().map(|c| c.addr.0).collect();
    addrs.sort();
    assert_eq!(addrs, vec![10, 20]);
}

#[test]
fn composite_predicates_filter_during_walk() {
    let mut fed = Federation::new(Topology::single_site(60, 0.5), 2);
    // Ten GPU nodes, but only three with low utilization.
    for i in 0..10u32 {
        fed.post_resource(NodeAddr(i), "GPU", AttrValue::Bool(true));
        let util = if i < 3 { 5.0 } else { 80.0 };
        fed.update_attr(NodeAddr(i), "CPU_utilization", AttrValue::Num(util));
    }
    fed.settle();
    maintain(&mut fed, 4);

    let q = fed
        .issue_query(
            NodeAddr(40),
            "SELECT 3 FROM * WHERE GPU = true AND CPU_utilization < 10",
            None,
        )
        .unwrap();
    fed.settle();
    let rec = fed.query_record(NodeAddr(40), q).unwrap();
    assert!(rec.satisfied);
    let mut addrs: Vec<u32> = rec.result.iter().map(|c| c.addr.0).collect();
    addrs.sort();
    assert_eq!(addrs, vec![0, 1, 2]);
}

#[test]
fn cross_site_queries_search_sites_in_parallel() {
    let mut fed = Federation::new(Topology::aws_ec2_8_sites(12), 3);
    // One Matlab node per site.
    let holders: Vec<NodeAddr> = (0..8u16)
        .map(|s| fed.sim().topology().nodes_of_site(SiteId(s))[3])
        .collect();
    for &h in &holders {
        fed.post_resource(h, "Matlab", AttrValue::str("8.0"));
    }
    fed.settle();
    maintain(&mut fed, 4);

    // Ask for 8 nodes from all sites: one per site must be found.
    let q = fed
        .issue_query(NodeAddr(0), r#"SELECT 8 FROM * WHERE Matlab = "8.0""#, None)
        .unwrap();
    fed.settle();
    let rec = fed.query_record(NodeAddr(0), q).unwrap();
    assert!(rec.satisfied, "{rec:?}");
    let mut sites: Vec<u16> = rec.result.iter().map(|c| c.site.0).collect();
    sites.sort();
    assert_eq!(sites, (0..8).collect::<Vec<u16>>(), "one hit per site");
}

#[test]
fn from_clause_restricts_sites() {
    let mut fed = Federation::new(Topology::aws_ec2_8_sites(10), 4);
    for s in 0..8u16 {
        let n = fed.sim().topology().nodes_of_site(SiteId(s))[2];
        fed.post_resource(n, "GPU", AttrValue::Bool(true));
    }
    fed.settle();
    maintain(&mut fed, 4);

    let q = fed
        .issue_query(
            NodeAddr(0),
            r#"SELECT 8 FROM "Virginia", "Tokyo" WHERE GPU = true"#,
            None,
        )
        .unwrap();
    fed.settle();
    let rec = fed.query_record(NodeAddr(0), q).unwrap();
    // Only two sites are allowed → only two candidates can exist.
    assert!(!rec.satisfied);
    assert_eq!(rec.result.len(), 2);
    let mut sites: Vec<u16> = rec.result.iter().map(|c| c.site.0).collect();
    sites.sort();
    assert_eq!(sites, vec![0, 5], "Virginia=0, Tokyo=5");
}

#[test]
fn password_policy_enforced_end_to_end() {
    let mut fed = Federation::new(Topology::single_site(40, 0.5), 5);
    fed.post_resource(NodeAddr(7), "GPU", AttrValue::Bool(true));
    fed.install_node_aa(
        NodeAddr(7),
        r#"
        AA = {Password = "3053482032"}
        function onGet(caller, password)
            if password == AA.Password then
                return true
            end
            return nil
        end
    "#,
    );
    fed.settle();
    maintain(&mut fed, 4);

    let denied = fed
        .issue_query(
            NodeAddr(30),
            "SELECT 1 FROM * WHERE GPU = true",
            Some("wrong"),
        )
        .unwrap();
    fed.settle();
    let rec = fed.query_record(NodeAddr(30), denied).unwrap();
    assert!(!rec.satisfied, "wrong password must be denied");
    assert!(rec.result.is_empty());
    assert!(rec.attempts >= 1, "denial forced retries");

    let granted = fed
        .issue_query(
            NodeAddr(30),
            "SELECT 1 FROM * WHERE GPU = true",
            Some("3053482032"),
        )
        .unwrap();
    fed.settle();
    let rec = fed.query_record(NodeAddr(30), granted).unwrap();
    assert!(rec.satisfied);
    assert_eq!(rec.result[0].addr, NodeAddr(7));
}

#[test]
fn concurrent_queries_conflict_then_backoff_resolves() {
    let mut fed = Federation::new(Topology::single_site(50, 0.5), 6);
    // Exactly one matching node: two concurrent queries race for it.
    fed.post_resource(NodeAddr(9), "FPGA", AttrValue::Bool(true));
    fed.settle();
    maintain(&mut fed, 4);

    let a = fed
        .issue_query(NodeAddr(1), "SELECT 1 FROM * WHERE FPGA = true", None)
        .unwrap();
    let b = fed
        .issue_query(NodeAddr(2), "SELECT 1 FROM * WHERE FPGA = true", None)
        .unwrap();
    fed.settle();
    let ra = fed.query_record(NodeAddr(1), a).unwrap().clone();
    let rb = fed.query_record(NodeAddr(2), b).unwrap().clone();
    // Exactly one query holds the committed node; the loser either
    // retried until the reservation TTL freed it (then the winner had
    // committed, so the node stays visible but reserved) or gave up.
    let winner_count = [&ra, &rb].iter().filter(|r| r.satisfied).count();
    assert!(
        winner_count >= 1,
        "at least one query must win: {ra:?} {rb:?}"
    );
    let committed = &fed.node(NodeAddr(9)).host.committed;
    assert_eq!(committed.len(), winner_count, "commits match winners");
}

#[test]
fn released_reservations_are_reusable() {
    let mut fed = Federation::new(Topology::single_site(30, 0.5), 7);
    fed.post_resource(NodeAddr(4), "TPU", AttrValue::Bool(true));
    fed.settle();
    maintain(&mut fed, 4);

    // Query wants 2 but only 1 exists → retries then completes partial,
    // releasing the reservation.
    let q1 = fed
        .issue_query(NodeAddr(11), "SELECT 2 FROM * WHERE TPU = true", None)
        .unwrap();
    fed.settle();
    let r1 = fed.query_record(NodeAddr(11), q1).unwrap();
    assert!(!r1.satisfied);
    // The node must be free again for the next customer.
    let q2 = fed
        .issue_query(NodeAddr(12), "SELECT 1 FROM * WHERE TPU = true", None)
        .unwrap();
    fed.settle();
    let r2 = fed.query_record(NodeAddr(12), q2).unwrap();
    assert!(r2.satisfied, "reservation must have been released: {r2:?}");
}

#[test]
fn admin_multicast_reaches_all_members_and_updates_attrs() {
    let mut fed = Federation::new(Topology::single_site(40, 0.5), 8);
    let members: Vec<NodeAddr> = (0..12).map(NodeAddr).collect();
    for &m in &members {
        fed.post_resource(m, "instance", AttrValue::str("m3.large"));
    }
    fed.settle();
    let cmd = fed.admin_multicast(
        NodeAddr(30),
        SiteId(0),
        "instance=m3.large",
        "price",
        AttrValue::Num(0.13),
    );
    fed.settle();
    for &m in &members {
        assert_eq!(
            fed.node(m).host.attrs.get("price"),
            Some(&AttrValue::Num(0.13)),
            "{m} missed the admin command"
        );
        assert!(
            fed.events(m)
                .iter()
                .any(|e| matches!(e, RbayEvent::AdminDelivered { cmd_id, .. } if *cmd_id == cmd)),
            "{m} has no delivery event"
        );
    }
}

#[test]
fn site_scoped_trees_isolate_admin_traffic() {
    let mut fed = Federation::new(Topology::aws_ec2_8_sites(8), 9);
    // Same tree name in two sites — separate scoped trees.
    let v_nodes = fed.sim().topology().nodes_of_site(SiteId(0));
    let t_nodes = fed.sim().topology().nodes_of_site(SiteId(5));
    fed.post_resource(v_nodes[1], "instance", AttrValue::str("c3.large"));
    fed.post_resource(t_nodes[1], "instance", AttrValue::str("c3.large"));
    fed.settle();
    // Multicast only into Virginia's tree.
    fed.admin_multicast(
        v_nodes[0],
        SiteId(0),
        "instance=c3.large",
        "maintenance",
        AttrValue::Bool(true),
    );
    fed.settle();
    assert_eq!(
        fed.node(v_nodes[1]).host.attrs.get("maintenance"),
        Some(&AttrValue::Bool(true))
    );
    assert_eq!(
        fed.node(t_nodes[1]).host.attrs.get("maintenance"),
        None,
        "Tokyo member must not see Virginia's site-scoped command"
    );
}

#[test]
fn dynamic_tree_membership_tracks_utilization() {
    let mut fed = Federation::new(Topology::single_site(30, 0.5), 10);
    let node = NodeAddr(3);
    fed.register_dynamic_tree(node, "CPU_utilization<10");
    fed.install_node_aa(
        node,
        r#"
        function onSubscribe(caller, topic)
            return utilization ~= nil and utilization < 10
        end
        function onUnsubscribe(caller, topic)
            return utilization ~= nil and utilization >= 10
        end
    "#,
    );
    fed.settle();
    // Low utilization: the maintenance round joins the tree.
    let now = fed.sim().now();
    fed.sim_mut().schedule_call(now, node, |a, _| {
        a.host
            .node_aa
            .as_ref()
            .unwrap()
            .set_global("utilization", aascript::Value::Num(4.0));
    });
    maintain(&mut fed, 2);
    let topic = fed
        .node(node)
        .host
        .tree_topic("CPU_utilization<10", SiteId(0));
    assert!(
        fed.node(node).scribe.topic(topic).is_some(),
        "node should have joined the low-utilization tree"
    );
    // The node becomes overloaded: next rounds leave the tree.
    let now = fed.sim().now();
    fed.sim_mut().schedule_call(now, node, |a, _| {
        a.host
            .node_aa
            .as_ref()
            .unwrap()
            .set_global("utilization", aascript::Value::Num(95.0));
    });
    maintain(&mut fed, 2);
    let st = fed.node(node).scribe.topic(topic);
    assert!(
        st.is_none() || !st.unwrap().subscribed,
        "overloaded node must have unsubscribed"
    );
}

#[test]
fn hybrid_naming_links_minor_attributes_to_major_trees() {
    let mut fed = Federation::new(Topology::single_site(40, 0.5), 11);
    // Link GPU_model to the major GPU tree on every node.
    for i in 0..40u32 {
        let now = fed.sim().now();
        fed.sim_mut().schedule_call(now, NodeAddr(i), |a, _| {
            a.host.naming.link("GPU_model", "GPU=true");
        });
    }
    fed.settle();
    // The posting node has a specific model; it lands in the major tree.
    fed.post_resource(NodeAddr(6), "GPU_model", AttrValue::str("K80"));
    fed.update_attr(NodeAddr(6), "GPU", AttrValue::Bool(true));
    fed.settle();
    maintain(&mut fed, 4);
    // Querying by the minor attribute routes to the major tree and filters
    // residually.
    let q = fed
        .issue_query(
            NodeAddr(22),
            r#"SELECT 1 FROM * WHERE GPU_model = "K80""#,
            None,
        )
        .unwrap();
    fed.settle();
    let rec = fed.query_record(NodeAddr(22), q).unwrap();
    assert!(rec.satisfied, "{rec:?}");
    assert_eq!(rec.result[0].addr, NodeAddr(6));
}

#[test]
fn tree_subscription_events_are_recorded() {
    let mut fed = Federation::new(Topology::single_site(30, 0.5), 12);
    fed.post_resource(NodeAddr(8), "SSD", AttrValue::Bool(true));
    fed.settle();
    let evs = fed.events(NodeAddr(8));
    assert!(
        evs.iter().any(|e| matches!(
            e,
            RbayEvent::Subscribed { requested_at, attached_at, .. }
                if attached_at >= requested_at
        )),
        "no subscription event recorded: {evs:?}"
    );
}

#[test]
fn queries_complete_even_when_nothing_matches() {
    let mut fed = Federation::new(Topology::single_site(20, 0.5), 13);
    fed.settle();
    let q = fed
        .issue_query(
            NodeAddr(0),
            "SELECT 1 FROM * WHERE Unobtainium = true",
            None,
        )
        .unwrap();
    fed.settle();
    let rec = fed.query_record(NodeAddr(0), q).unwrap();
    assert!(rec.completed_at.is_some(), "must terminate");
    assert!(!rec.satisfied);
    assert!(rec.result.is_empty());
}

#[test]
fn query_ids_match_federation_mirror() {
    let mut fed = Federation::new(Topology::single_site(10, 0.5), 14);
    fed.settle();
    let ids: Vec<QueryId> = (0..3)
        .map(|_| {
            fed.issue_query(NodeAddr(1), "SELECT 1 FROM * WHERE x = 1", None)
                .unwrap()
        })
        .collect();
    fed.settle();
    for id in ids {
        assert!(fed.query_record(NodeAddr(1), id).is_some());
    }
}

/// The paper's §III.B enhancement: public/private key pairs instead of
/// plaintext passwords. The AA stores the public key (`sha1hex(secret)`);
/// the query authenticates by presenting the secret, which the handler
/// hashes and compares.
#[test]
fn keypair_policy_via_sha1hex_native() {
    let mut fed = Federation::new(Topology::single_site(40, 0.5), 16);
    fed.post_resource(NodeAddr(8), "GPU", AttrValue::Bool(true));
    // sha1("secret-key-joe") precomputed by the admin when issuing Joe his
    // credential.
    let pubkey: String = pastry::sha1::sha1(b"secret-key-joe")
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect();
    fed.install_node_aa(
        NodeAddr(8),
        &format!(
            r#"AA = {{PubKey = "{pubkey}"}}
               function onGet(caller, secret)
                   if secret ~= nil and sha1hex(secret) == AA.PubKey then
                       return true
                   end
                   return nil
               end"#
        ),
    );
    fed.settle();
    fed.run_maintenance(4, SimDuration::from_millis(200));
    fed.settle();

    let bad = fed
        .issue_query(
            NodeAddr(20),
            "SELECT 1 FROM * WHERE GPU = true",
            Some("stolen-pubkey"),
        )
        .unwrap();
    fed.settle();
    assert!(!fed.query_record(NodeAddr(20), bad).unwrap().satisfied);

    let good = fed
        .issue_query(
            NodeAddr(20),
            "SELECT 1 FROM * WHERE GPU = true",
            Some("secret-key-joe"),
        )
        .unwrap();
    fed.settle();
    let rec = fed.query_record(NodeAddr(20), good).unwrap();
    assert!(rec.satisfied, "{rec:?}");
    assert_eq!(rec.result[0].addr, NodeAddr(8));
}

/// Grace's policy from the paper's Fig. 1: "resources available to others
/// only after 10:00 PM". The handler reads the injected virtual clock
/// (`now_ms`), so the same query is denied before the window opens and
/// granted after.
#[test]
fn time_window_policy_follows_the_virtual_clock() {
    let mut fed = Federation::new(Topology::single_site(30, 0.5), 17);
    fed.post_resource(NodeAddr(6), "GPU", AttrValue::Bool(true));
    fed.install_node_aa(
        NodeAddr(6),
        r#"
        -- Shareable only after t = 60 s of simulation time.
        AA = {OpensAtMs = 60000}
        function onGet(caller, password)
            if now_ms >= AA.OpensAtMs then
                return true
            end
            return nil
        end
    "#,
    );
    fed.settle();
    fed.run_maintenance(4, SimDuration::from_millis(200));
    fed.settle();

    let early = fed
        .issue_query(NodeAddr(20), "SELECT 1 FROM * WHERE GPU = true", None)
        .unwrap();
    fed.settle();
    assert!(
        !fed.query_record(NodeAddr(20), early).unwrap().satisfied,
        "window not yet open"
    );

    // Advance the virtual clock past the opening time and retry.
    fed.run_until(simnet::SimTime::from_secs(61));
    let late = fed
        .issue_query(NodeAddr(20), "SELECT 1 FROM * WHERE GPU = true", None)
        .unwrap();
    fed.settle();
    let rec = fed.query_record(NodeAddr(20), late).unwrap();
    assert!(rec.satisfied, "window open: {rec:?}");
    assert_eq!(rec.result[0].addr, NodeAddr(6));
}

/// Handlers can read the node's own key-value map through the injected
/// `attrs` table — e.g. refusing access while the node is busy.
#[test]
fn handlers_read_the_attribute_map() {
    let mut fed = Federation::new(Topology::single_site(30, 0.5), 18);
    fed.post_resource(NodeAddr(4), "GPU", AttrValue::Bool(true));
    fed.update_attr(NodeAddr(4), "CPU_utilization", AttrValue::Num(95.0));
    fed.install_node_aa(
        NodeAddr(4),
        r#"
        function onGet(caller, password)
            -- Refuse while this node is loaded, whatever the query asks.
            if attrs.CPU_utilization ~= nil and attrs.CPU_utilization > 90 then
                return nil
            end
            return true
        end
    "#,
    );
    fed.settle();
    fed.run_maintenance(4, SimDuration::from_millis(200));
    fed.settle();

    let busy = fed
        .issue_query(NodeAddr(15), "SELECT 1 FROM * WHERE GPU = true", None)
        .unwrap();
    fed.settle();
    assert!(!fed.query_record(NodeAddr(15), busy).unwrap().satisfied);

    fed.update_attr(NodeAddr(4), "CPU_utilization", AttrValue::Num(10.0));
    fed.settle();
    let horizon = fed.sim().now() + SimDuration::from_secs(8);
    fed.run_until(horizon);
    let idle = fed
        .issue_query(NodeAddr(15), "SELECT 1 FROM * WHERE GPU = true", None)
        .unwrap();
    fed.settle();
    assert!(fed.query_record(NodeAddr(15), idle).unwrap().satisfied);
}

/// With administrative isolation off (the Fig. 11 deployment: per-site
/// tree names, global rendezvous), the query protocol still answers
/// cross-site composite queries correctly.
#[test]
fn queries_work_without_site_isolation() {
    use rbay_core::RbayConfig;
    let cfg = RbayConfig {
        site_isolation: false,
        commit_results: false, // this test re-queries the same inventory
        ..RbayConfig::default()
    };
    let mut fed = Federation::with_config(Topology::aws_ec2_8_sites(10), 57, cfg);
    for s in 0..8u16 {
        let n = fed.sim().topology().nodes_of_site(SiteId(s))[3];
        fed.post_resource(n, "GPU", AttrValue::Bool(true));
    }
    fed.settle();
    maintain(&mut fed, 5);

    let q = fed
        .issue_query(NodeAddr(1), "SELECT 8 FROM * WHERE GPU = true", None)
        .unwrap();
    fed.settle();
    let rec = fed.query_record(NodeAddr(1), q).unwrap();
    assert!(rec.satisfied, "{rec:?}");
    let mut sites: Vec<u16> = rec.result.iter().map(|c| c.site.0).collect();
    sites.sort();
    assert_eq!(sites, (0..8).collect::<Vec<u16>>());

    // Wait out the released reservations, then check that site-restricted
    // FROM clauses still filter correctly even though routing is global.
    let horizon = fed.sim().now() + SimDuration::from_secs(8);
    fed.run_until(horizon);
    let q = fed
        .issue_query(
            NodeAddr(1),
            r#"SELECT 8 FROM "Ireland" WHERE GPU = true"#,
            None,
        )
        .unwrap();
    fed.settle();
    let rec = fed.query_record(NodeAddr(1), q).unwrap();
    assert_eq!(rec.result.len(), 1);
    assert_eq!(rec.result[0].site, SiteId(3));
}

/// A query satisfied at the timeout holds what it reports: the remote
/// site is silent (all three of its border routers are down), the local
/// holder is enough for `k`, and the timeout commits it rather than
/// releasing it.
#[test]
fn timeout_with_k_found_commits_the_holder() {
    let site = |name: &str| SiteSpec {
        name: name.to_owned(),
        nodes: 8,
        instability: 1.0,
    };
    let topology = Topology::new(
        vec![site("here"), site("there")],
        vec![vec![0.5, 80.0], vec![80.0, 0.5]],
    );
    let mut fed = Federation::new(topology, 7);
    let holder = NodeAddr(5);
    fed.post_resource(holder, "GPU", AttrValue::Bool(true));
    fed.settle();
    maintain(&mut fed, 4);
    let mut remote = fed.sim().topology().nodes_of_site(SiteId(1));
    remote.sort();
    for &gw in &remote[..3] {
        fed.sim_mut().fail_node(gw);
    }

    let issued = fed.sim().now();
    let q = fed
        .issue_query(NodeAddr(6), "SELECT 1 FROM * WHERE GPU = true", None)
        .unwrap();
    fed.settle();
    let rec = fed.query_record(NodeAddr(6), q).unwrap();
    assert!(rec.satisfied, "{rec:?}");
    assert_eq!(
        rec.completed_at.unwrap().saturating_since(issued),
        fed.config().query_timeout,
        "completed by the timeout, on the first attempt"
    );
    assert_eq!(rec.result.len(), 1);
    assert_eq!(rec.result[0].addr, holder);
    assert_eq!(fed.node(holder).host.committed, vec![q]);
    assert!(fed
        .node(holder)
        .host
        .reservation
        .is_some_and(|(by, _)| by == q));
}
