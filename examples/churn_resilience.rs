//! Churn resilience (the paper's §VI future work, implemented): nodes
//! crash silently, heartbeat failure detection repairs the overlay and
//! the trees, and discovery keeps working.
//!
//! ```sh
//! cargo run --example churn_resilience
//! ```

use rbay::core::{Federation, RbayConfig};
use rbay::query::AttrValue;
use rbay::simnet::{NodeAddr, SimDuration, Topology};

fn main() {
    let cfg = RbayConfig {
        failure_detection: true,
        heartbeat_timeout: SimDuration::from_millis(400),
        // This demo re-queries the same inventory, so don't hold the
        // found nodes committed between measurements.
        commit_results: false,
        ..RbayConfig::default()
    };
    let mut fed = Federation::with_config(Topology::single_site(80, 0.5), 7, cfg);

    // Twenty nodes advertise GPUs.
    let holders: Vec<NodeAddr> = (10..30).map(NodeAddr).collect();
    for &h in &holders {
        fed.post_resource(h, "GPU", AttrValue::Bool(true));
    }
    fed.settle();
    fed.run_maintenance(3, SimDuration::from_millis(250));
    fed.settle();

    let count_found = |fed: &mut Federation, label: &str| {
        let id = fed
            .issue_query(NodeAddr(70), "SELECT 20 FROM * WHERE GPU = true", None)
            .unwrap();
        fed.settle();
        let rec = fed.query_record(NodeAddr(70), id).unwrap().clone();
        println!("{label}: found {} GPU nodes", rec.result.len());
        let horizon = fed.sim().now() + SimDuration::from_secs(6);
        fed.run_until(horizon);
        rec.result.len()
    };

    let before = count_found(&mut fed, "before churn");
    assert_eq!(before, holders.len());

    // Five holders crash — nobody is told.
    println!("crashing nodes 12, 15, 18, 21, 24 (silently) ...");
    for n in [12u32, 15, 18, 21, 24] {
        fed.sim_mut().fail_node(NodeAddr(n));
    }

    // Heartbeats detect the crashes and repair trees within a few rounds.
    fed.run_maintenance(8, SimDuration::from_millis(250));
    fed.settle();

    let after = count_found(&mut fed, "after heartbeat repair");
    assert!(after >= 14, "expected ~15 live holders, got {after}");

    let detectors = (0..80u32)
        .filter(|i| !fed.node(NodeAddr(*i)).pastry.buried().is_empty())
        .count();
    println!("{detectors} nodes participated in failure detection");
    println!("done: discovery survives churn with no manual notification.");
}
