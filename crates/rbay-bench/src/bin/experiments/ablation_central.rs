//! Ablation: RBAY's decentralized trees vs the Ganglia-style centralized
//! master the paper argues against (§II.A).
//!
//! Sweeps the fleet size and reports (a) the hottest node's incoming
//! message count during monitoring/update traffic and (b) end-to-end query
//! latency. Expectation: the central master's load grows linearly with
//! the fleet while RBAY's hottest node stays near-flat (load spread over
//! tree roots); both answer queries in comparable time at small scale.

use rbay_baselines::CentralPlane;
use rbay_bench::{stats, HarnessOpts};
use rbay_core::{Federation, RbayConfig};
use rbay_query::AttrValue;
use rbay_workloads::{populate_ec2_federation, ScenarioConfig, WORKLOAD_PASSWORD};
use simnet::{NodeAddr, SimDuration, SiteId, Topology};

/// One poll round + a handful of queries on the centralized design.
fn run_central(nodes_per_site: usize, seed: u64) -> (u64, f64) {
    let mut cp = CentralPlane::new(Topology::aws_ec2_8_sites(nodes_per_site), seed);
    // Give a handful of nodes a queryable attribute.
    for s in 0..8u16 {
        let n = cp.sim().topology().nodes_of_site(SiteId(s))[2];
        cp.set_attr(n, "GPU", AttrValue::Bool(true));
    }
    cp.settle();
    cp.poll_round();
    let mut lats = Vec::new();
    for i in 0..10u32 {
        let origin = NodeAddr(3 + i % (nodes_per_site as u32 - 3));
        let seq = cp.query(origin, "GPU", AttrValue::Bool(true), 1);
        cp.settle();
        let rec = &cp.queries(origin)[seq as usize];
        if let Some(done) = rec.completed_at {
            lats.push(done.saturating_since(rec.issued_at).as_millis_f64());
        }
    }
    let (msgs, _) = cp.master_load();
    (msgs, stats(&lats).map(|s| s.mean).unwrap_or(f64::NAN))
}

/// The same population + queries on RBAY; hottest node = max delivered
/// messages at any single node.
fn run_rbay(nodes_per_site: usize, seed: u64) -> (u64, f64) {
    let cfg = RbayConfig {
        commit_results: false,
        ..RbayConfig::default()
    };
    let mut fed = Federation::with_config(Topology::aws_ec2_8_sites(nodes_per_site), seed, cfg);
    let scenario = ScenarioConfig {
        extra_attrs_per_node: 2,
        ..ScenarioConfig::default()
    };
    populate_ec2_federation(&mut fed, seed, &scenario);
    fed.run_maintenance(3, SimDuration::from_millis(250));
    fed.settle();
    let mut lats = Vec::new();
    for i in 0..10u32 {
        let origin = NodeAddr(3 + i % (nodes_per_site as u32 - 3));
        // Local-site query, apples-to-apples with the master answering
        // from its colocated snapshot.
        let id = fed
            .issue_query(
                origin,
                "SELECT 1 FROM \"Virginia\" WHERE instance = \"c3.8xlarge\"",
                Some(WORKLOAD_PASSWORD),
            )
            .unwrap();
        fed.settle();
        let rec = fed.query_record(origin, id).unwrap();
        if let Some(done) = rec.completed_at {
            lats.push(done.saturating_since(rec.issued_at).as_millis_f64());
        }
        let horizon = fed.sim().now() + SimDuration::from_secs(4);
        fed.run_until(horizon);
    }
    // Hottest node by protocol work: forwards + deliveries at the Pastry
    // layer (the analogue of the master's message load).
    let hottest = fed
        .sim()
        .actors()
        .map(|(_, a)| a.pastry.stats.forwards + a.pastry.stats.delivered)
        .max()
        .unwrap_or(0);
    (hottest, stats(&lats).map(|s| s.mean).unwrap_or(f64::NAN))
}

pub fn run(opts: &HarnessOpts) {
    println!("Ablation: centralized master vs RBAY decentralized trees");
    println!("(hottest-node incoming load during population + 10 queries)\n");
    println!(
        "{:>8} {:>10} {:>18} {:>16} {:>18} {:>16}",
        "nodes", "per-site", "central max-load", "central q-lat", "rbay max-load", "rbay q-lat"
    );
    for &per_site in &[5usize, 10, 20, 40] {
        let per_site = opts.scaled(per_site, 4);
        let (cm, cl) = run_central(per_site, opts.seed);
        let (rm, rl) = run_rbay(per_site, opts.seed);
        println!(
            "{:>8} {:>10} {:>18} {:>16.1} {:>18} {:>16.1}",
            per_site * 8,
            per_site,
            cm,
            cl,
            rm,
            rl
        );
    }
    println!("\n(the central column grows ~linearly with fleet size; RBAY's hottest");
    println!(" node grows with log N and the per-tree membership instead)");
}
