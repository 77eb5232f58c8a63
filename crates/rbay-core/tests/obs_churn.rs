//! Integration tests pinning the tree-repair bugfixes through the
//! observability plane: a fail→recover cycle re-converging the tree
//! (un-suspect on message receipt, NotChild-driven orphan recovery),
//! false-positive failure declarations under message loss with an
//! aggressive heartbeat timeout, and a combined
//! crash+loss churn scenario whose re-convergence is asserted through the
//! tree metrics.

use rbay_core::{Federation, RbayConfig};
use rbay_query::AttrValue;
use simnet::{NodeAddr, SimDuration, SiteId, Topology};

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

/// Live nodes currently attached to `topic` (holding a parent pointer).
fn attached_count(fed: &Federation, topic: scribe::TopicId, n: u32) -> usize {
    (0..n)
        .map(NodeAddr)
        .filter(|a| !fed.sim().is_failed(*a))
        .filter(|a| {
            fed.node(*a)
                .scribe
                .topic(topic)
                .is_some_and(|st| st.parent.is_some())
        })
        .count()
}

/// Bugfix 3 integration: a node that crashes and comes back is
/// un-suspected by every peer on its first message, re-attaches to the
/// tree, and the root aggregate returns to the full holder count.
#[test]
fn fail_recover_cycle_reconverges_the_tree() {
    let n = 40u32;
    let mut fed =
        Federation::with_config(Topology::single_site(n as usize, 0.5), 31, churn_config());
    fed.enable_obs(1 << 16);
    let holders: Vec<NodeAddr> = (0..12).map(NodeAddr).collect();
    for &h in &holders {
        fed.post_resource(h, "GPU", AttrValue::Bool(true));
    }
    fed.settle();
    maintain(&mut fed, 3);

    let topic = fed.node(NodeAddr(0)).host.tree_topic("GPU=true", SiteId(0));
    assert_eq!(fed.tree_root_count(topic), Some(holders.len() as u64));

    // Crash a holder; heartbeats detect it and the tree repairs around it.
    let victim = NodeAddr(9);
    fed.sim_mut().fail_node(victim);
    maintain(&mut fed, 8);
    assert_eq!(
        fed.tree_root_count(topic),
        Some(holders.len() as u64 - 1),
        "tree did not repair around the crashed holder"
    );
    let suspecters = (0..n)
        .filter(|i| *i != victim.0)
        .filter(|i| fed.node(NodeAddr(*i)).pastry.is_buried(victim))
        .count();
    assert!(suspecters > 0, "nobody detected the crash");

    // Revive it. Its next messages (heartbeat pings, aggregate pushes)
    // prove it alive: peers must clear the suspicion, and its stale
    // parent pointer must be NACKed back into a fresh join.
    fed.sim_mut().revive_node(victim);
    maintain(&mut fed, 10);

    for i in (0..n).filter(|i| *i != victim.0) {
        assert!(
            !fed.node(NodeAddr(i)).pastry.is_buried(victim),
            "node {i} still suspects the recovered peer"
        );
    }
    assert_eq!(
        fed.tree_root_count(topic),
        Some(holders.len() as u64),
        "recovered holder is not counted at the root again"
    );
    // The revived node is attached through a consistent edge.
    let st = fed.node(victim).scribe.topic(topic).expect("holder state");
    if let Some(p) = st.parent {
        assert!(
            fed.node(p)
                .scribe
                .topic(topic)
                .is_some_and(|ps| ps.children.contains(&victim)),
            "revived node's parent does not list it as a child"
        );
    } else {
        assert!(st.is_root, "revived holder neither attached nor root");
    }
    // The plane saw the recovery: at least one un-suspicion was recorded.
    assert!(
        fed.recorder().global_count("unsuspect") > 0,
        "no unsuspect events recorded across the fail/recover cycle"
    );
    // And the stale parent pointer was cleared by a NotChild NACK.
    assert!(
        fed.recorder().global_count("orphan_rejoin") > 0,
        "the revived node never re-joined via NotChild"
    );
}

/// Bugfix 2 integration: with lossy links and an aggressive heartbeat
/// timeout, false-positive failure declarations evict live peers and may
/// orphan live subtrees; the root aggregate must keep re-converging to
/// the true holder count. (Any message settles a ping, and tree
/// neighbours exchange pings both ways and an aggregate every round, so
/// the declarations of this window fall on routing-table entries; the
/// NotChild NACK itself is pinned by the fail/recover test above.)
#[test]
fn false_positives_under_loss_leave_the_tree_converging() {
    let n = 30u32;
    let cfg = RbayConfig {
        failure_detection: true,
        heartbeat_timeout: SimDuration::from_millis(300),
        ..RbayConfig::default()
    };
    let mut fed = Federation::with_config(Topology::single_site(n as usize, 0.5), 47, cfg);
    fed.enable_obs(1 << 18);
    let holders: Vec<NodeAddr> = (0..10).map(NodeAddr).collect();
    for &h in &holders {
        fed.post_resource(h, "GPU", AttrValue::Bool(true));
    }
    fed.settle();
    maintain(&mut fed, 6);

    let topic = fed.node(NodeAddr(0)).host.tree_topic("GPU=true", SiteId(0));
    assert_eq!(fed.tree_root_count(topic), Some(holders.len() as u64));

    // Open a lossy window: with pings every 250 ms and a 300 ms timeout,
    // dropped heartbeat traffic produces false-positive failure
    // declarations. Nobody actually crashes.
    fed.sim_mut().set_loss_prob(0.20);
    maintain(&mut fed, 8);
    fed.sim_mut().set_loss_prob(0.0);

    let expirations = fed.recorder().global_count("hb_expire");
    assert!(
        expirations > 0,
        "lossy window produced no false-positive declarations; the scenario \
         does not exercise the orphan-recovery path"
    );

    // Clean recovery phase: an orphan's next aggregate push is NACKed
    // with NotChild, it re-joins, and the root count returns to exact.
    let mut converged_at = None;
    for round in 1..=15u32 {
        maintain(&mut fed, 1);
        if fed.tree_root_count(topic) == Some(holders.len() as u64) {
            converged_at = Some(round);
            break;
        }
    }
    assert!(
        converged_at.is_some(),
        "root aggregate never recovered the full holder count after the \
         lossy window: {:?} (want {}), {} expirations, {} rejoins",
        fed.tree_root_count(topic),
        holders.len(),
        expirations,
        fed.recorder().global_count("orphan_rejoin"),
    );
}

/// Churn scenario: crashes and message loss together. Membership (the sum
/// of all `children` sets) and the root aggregate must re-converge to the
/// live holder population within a bounded number of maintenance rounds,
/// asserted through the metrics helpers the observability plane exposes.
#[test]
fn crash_plus_loss_churn_reconverges_within_bounded_rounds() {
    let n = 40u32;
    let mut fed =
        Federation::with_config(Topology::single_site(n as usize, 0.5), 53, churn_config());
    fed.enable_obs(1 << 18);
    let holders: Vec<NodeAddr> = (0..12).map(NodeAddr).collect();
    for &h in &holders {
        fed.post_resource(h, "GPU", AttrValue::Bool(true));
    }
    fed.settle();
    maintain(&mut fed, 6);

    let topic = fed.node(NodeAddr(0)).host.tree_topic("GPU=true", SiteId(0));
    assert_eq!(fed.tree_root_count(topic), Some(holders.len() as u64));

    // Crash three holders and two forwarders, all silently, while links
    // start dropping 5% of messages at the same moment. With pings every
    // 250 ms against a 400 ms timeout, sustained loss also produces a
    // steady stream of false-positive declarations, so the storm phase
    // exercises crash repair, orphan recovery, and stale-edge expiry all
    // at once; the loss window then closes and re-convergence is measured.
    fed.sim_mut().set_loss_prob(0.05);
    let victims = [
        NodeAddr(3),
        NodeAddr(7),
        NodeAddr(11),
        NodeAddr(20),
        NodeAddr(33),
    ];
    for v in victims {
        fed.sim_mut().fail_node(v);
    }
    let live_holders = holders.iter().filter(|h| !victims.contains(h)).count();
    maintain(&mut fed, 10);
    fed.sim_mut().set_loss_prob(0.0);

    const BOUND: u32 = 15;
    let mut converged_at = None;
    for round in 1..=BOUND {
        maintain(&mut fed, 1);
        let root_ok = fed.tree_root_count(topic) == Some(live_holders as u64);
        // Membership consistency: every attached live node contributes
        // exactly one parent→child edge — no double-counted children, no
        // edges to the dead.
        let membership_ok = fed.tree_edge_count(topic) == attached_count(&fed, topic, n);
        if root_ok && membership_ok {
            converged_at = Some(round);
            break;
        }
    }
    let converged_at = converged_at.unwrap_or_else(|| {
        panic!(
            "membership and root aggregate did not re-converge within {BOUND} \
             rounds: edges={} attached={} root={:?} (want {live_holders})",
            fed.tree_edge_count(topic),
            attached_count(&fed, topic, n),
            fed.tree_root_count(topic),
        )
    });
    assert!(converged_at <= BOUND);
    // Tree shape stays sane and the plane recorded the repair.
    assert!(
        fed.tree_max_depth(topic) < n as usize,
        "parent cycle detected"
    );
    let snap = fed.recorder().snapshot();
    assert!(snap.events_recorded > 0, "observability plane saw nothing");
    assert!(
        snap.count("hb_expire") > 0,
        "no failure declarations recorded"
    );
    // Queries still find every live holder.
    let id = fed
        .issue_query(
            NodeAddr(39),
            &format!("SELECT {live_holders} FROM * WHERE GPU = true"),
            None,
        )
        .unwrap();
    fed.settle();
    let rec = fed.query_record(NodeAddr(39), id).unwrap();
    assert!(
        rec.result.len() >= live_holders - 1,
        "churn lost holders: {} of {live_holders}",
        rec.result.len()
    );
}
