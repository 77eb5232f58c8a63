//! Replays the PR-8 `no-live-root` counterexample: the 20% churn
//! schedule that used to leave the GPU tree rootless mid-repair. With
//! k-replicated rendezvous state and warm promotion the schedule must
//! now pass every quiescence oracle, including the new
//! replica-consistency invariant.

use rbay_check::invariants;
use rbay_check::scenario::{run_churn_default, ChurnParams, ChurnState};
use rbay_workloads::WORKLOAD_PASSWORD;
use simnet::{NodeAddr, SimDuration};
use std::collections::BTreeSet;

/// At bench scale (120 nodes) the routing tables, not the leaf set, carry
/// most routes — so a dead routing-table entry that failure detection
/// never probes silently blackholes every rejoin routed through it,
/// leaving orphaned tree fragments. Guards the known-peers heartbeat
/// coverage.
#[test]
fn full_scale_churn_leaves_no_orphaned_fragments() {
    let st = run_churn_default(&ChurnParams {
        nodes: 120,
        frac: 0.05,
        epochs: 4,
        seed: 42,
    });
    let ctx = st.invariant_ctx();
    let violation = invariants::check_quiescent(&st.fed, &ctx);
    if violation.is_some() {
        dump_tree(&st, 120);
    }
    assert!(violation.is_none(), "quiescence violation: {violation:?}");
}

#[test]
fn pr8_no_live_root_schedule_replays_clean() {
    let st = run_churn_default(&ChurnParams {
        nodes: 30,
        frac: 0.20,
        epochs: 4,
        seed: 43,
    });
    let ctx = st.invariant_ctx();
    let violation = invariants::check_quiescent(&st.fed, &ctx);
    if violation.is_some() {
        dump_tree(&st, 30);
    }
    assert!(violation.is_none(), "quiescence violation: {violation:?}");
}

/// The benchmark's `sim_churn` epochs without their open-loop queries:
/// 5 % of 1,000 nodes plus the tree's root crash, twelve rounds repair,
/// then one query must find every live holder. Routing-table entries
/// outside the leaf sets are not pinged every round; verified on use
/// only, corpses pile up in the rows nothing routes through, a later
/// epoch's rejoin `Join` burns two rounds on each one it meets, and seed
/// 42 is one holder short at its sixth probe. Guards the slow cadence.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "1,000 nodes: release builds only; run by the CI churn-recall job"
)]
fn unused_routing_rows_do_not_cost_the_recall_probe_a_holder() {
    for seed in [1, 42] {
        let mut st = ChurnState::new(&ChurnParams {
            nodes: 1_000,
            frac: 0.05,
            epochs: 6,
            seed,
        });
        for epoch in 1..=6 {
            st.crash_epoch(0.05);
            let root = (st.holders.iter().copied())
                .find(|h| (st.fed.node(*h).scribe.topic(st.topic)).is_some_and(|t| t.is_root));
            if let Some(root) = root.filter(|r| r.0 >= 4) {
                st.alive[root.index()] = false;
                st.holders.retain(|h| *h != root);
                st.fed.sim_mut().fail_node(root);
            }
            st.fed.run_maintenance(12, SimDuration::from_millis(250));
            st.fed.settle();

            let origin = st.recall_origin().expect("queriers are never crashed");
            let all = format!("SELECT {} FROM * WHERE GPU = true", st.holders.len());
            let id = (st.fed)
                .issue_query(origin, &all, Some(WORKLOAD_PASSWORD))
                .expect("static query parses");
            st.fed.settle();
            let rec = st.fed.query_record(origin, id).expect("issued query");
            let found: BTreeSet<NodeAddr> = rec.result.iter().map(|c| c.addr).collect();
            let live: BTreeSet<NodeAddr> = st.holders.iter().copied().collect();
            let missed: Vec<&NodeAddr> = live.difference(&found).collect();
            assert!(
                missed.is_empty() && found.len() == live.len(),
                "seed {seed} epoch {epoch}: {} of {} live holders, missed {missed:?}",
                found.len(),
                live.len()
            );
            // Let the probe's reservations lapse before the next epoch.
            let lapse = st.fed.sim().now() + SimDuration::from_secs(4);
            st.fed.run_until(lapse);
        }
    }
}

/// Prints every live node's tree and replica state so a regression is
/// diagnosable straight from CI logs.
fn dump_tree(st: &rbay_check::scenario::ChurnState, nodes: u32) {
    let alive: Vec<u32> = (0..nodes)
        .filter(|n| !st.fed.sim().is_failed(simnet::NodeAddr(*n)))
        .collect();
    eprintln!("alive: {alive:?}");
    for &n in &alive {
        let addr = simnet::NodeAddr(n);
        if let Some(ts) = st.fed.node(addr).scribe.topic(st.topic) {
            eprintln!(
                "node {n}: root={} parent={:?} children={:?} subscribed={}",
                ts.is_root, ts.parent, ts.children, ts.subscribed
            );
        }
        for (t, rep) in st.fed.node(addr).scribe.replicas() {
            if *t == st.topic {
                eprintln!("node {n}: replica of {:?} age {}", rep.root, rep.age);
            }
        }
        eprintln!("node {n}: buried={:?}", st.fed.node(addr).pastry.buried());
    }
}
