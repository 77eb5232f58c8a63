#![allow(clippy::needless_range_loop)] // index used for both reads and address math

//! Ablation: aggregation interval vs root-view staleness.
//!
//! DESIGN.md calls out periodic lazy aggregation as a design choice: each
//! maintenance round pushes subtree aggregates one level rootward, so the
//! root's view converges within `O(depth)` rounds but is stale in
//! between. This harness measures the trade-off: under steady membership
//! churn, how far is the root's tree-size estimate from the truth as a
//! function of the aggregation interval?

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rbay_bench::HarnessOpts;
use rbay_core::{Federation, RbayConfig};
use rbay_query::AttrValue;
use simnet::{NodeAddr, SimDuration, SiteId, Topology};

/// Runs churning membership with the given aggregation interval; returns
/// (mean |size error| in members, messages per node per virtual second).
fn run_interval(interval_ms: u64, seed: u64, n_nodes: usize) -> (f64, f64) {
    let mut fed = Federation::with_config(
        Topology::single_site(n_nodes, 0.5),
        seed,
        RbayConfig::default(),
    );
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x517A1E);
    // Half the fleet starts in the tree.
    let mut member: Vec<bool> = (0..n_nodes).map(|i| i % 2 == 0).collect();
    for (i, m) in member.iter().enumerate() {
        if *m {
            fed.post_resource(NodeAddr(i as u32), "GPU", AttrValue::Bool(true));
        }
    }
    fed.settle();
    fed.run_maintenance(6, SimDuration::from_millis(interval_ms));
    fed.settle();
    let topic = fed.node(NodeAddr(0)).host.tree_topic("GPU=true", SiteId(0));

    let start_msgs = fed.sim().stats().sent();
    let start_time = fed.sim().now();
    let mut err_sum = 0.0;
    let mut samples = 0u32;
    // Fixed churn *rate*: 5% of the fleet flips per virtual second, so a
    // longer aggregation interval accumulates proportionally more churn
    // between rounds.
    let p_flip = (0.05 * interval_ms as f64 / 1_000.0).min(0.9);
    for _ in 0..12 {
        for i in 0..n_nodes {
            if rng.gen_bool(p_flip) {
                let addr = NodeAddr(i as u32);
                if member[i] {
                    let now = fed.sim().now();
                    fed.sim_mut().schedule_call(now, addr, move |a, ctx| {
                        let topic = a.host.tree_topic("GPU=true", SiteId(0));
                        a.scribe.unsubscribe::<rbay_core::RbayPayload, _>(
                            &mut a.pastry,
                            ctx,
                            topic,
                        );
                    });
                    member[i] = false;
                } else {
                    fed.post_resource(addr, "GPU", AttrValue::Bool(true));
                    member[i] = true;
                }
            }
        }
        fed.settle();
        // Sample the root's view right after the churn lands: this is the
        // staleness a query would observe between aggregation rounds.
        // (One aggregation round runs after sampling, i.e. every
        // `interval_ms` of churn activity.)
        let truth = member.iter().filter(|m| **m).count() as f64;
        let root_view = (0..n_nodes as u32)
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
            .map(|a| a.as_count().unwrap_or(0) as f64)
            .unwrap_or(0.0);
        err_sum += (root_view - truth).abs();
        samples += 1;
        fed.run_maintenance(1, SimDuration::from_millis(interval_ms));
        fed.settle();
    }
    let msgs = (fed.sim().stats().sent() - start_msgs) as f64;
    let secs = fed.sim().now().saturating_since(start_time).as_millis_f64() / 1_000.0;
    (
        err_sum / samples as f64,
        msgs / n_nodes as f64 / secs.max(1e-9),
    )
}

pub fn run(opts: &HarnessOpts) {
    let n_nodes = opts.scaled(100, 30);
    println!("Ablation: aggregation interval vs root-view staleness");
    println!("({n_nodes} nodes, ~5% membership churn per epoch)\n");
    println!(
        "{:>14} {:>18} {:>22}",
        "interval (ms)", "mean |size error|", "msgs/node/virt-sec"
    );
    for &interval in &[100u64, 250, 500, 1_000, 2_000] {
        let (err, rate) = run_interval(interval, opts.seed, n_nodes);
        println!("{:>14} {:>18.2} {:>22.2}", interval, err, rate);
    }
    println!("\n(longer intervals cost accuracy at the root but proportionally less");
    println!(" maintenance traffic — the O(depth)-rounds convergence trade-off)");
}
