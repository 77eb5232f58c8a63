//! Replays the PR-8 `no-live-root` counterexample: the 20% churn
//! schedule that used to leave the GPU tree rootless mid-repair. With
//! k-replicated rendezvous state and warm promotion the schedule must
//! now pass every quiescence oracle, including the new
//! replica-consistency invariant.

use rbay_check::invariants;
use rbay_check::scenario::{run_churn_default, ChurnParams};

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
