//! Peak memory of a built federation. This file holds one test, so the
//! test runs in a process of its own and the high-water mark it reads is
//! its own.

#![cfg(target_os = "linux")]

use rbay::core::{Federation, RbayConfig};
use rbay::simnet::{SimDuration, Topology};
use rbay::workloads::{populate_ec2_federation, ScenarioConfig};

/// Members per site: 8 sites make 4,000 nodes, the `sim_geo` federation.
const NODES_PER_SITE: usize = 500;

/// The process's peak resident set so far (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .expect("a VmHWM line in kB");
    kib.trim().parse::<f64>().expect("a number of kB") / 1024.0
}

/// Building, populating and settling the 8-site EC2 federation the way
/// the latency benchmarks do stays within a budget. A routing table that
/// allocates all 32 rows from birth costs 48 KiB per node in its two
/// tables alone and lands near 400 MiB; tables sized to the rows they
/// fill land near 90.
#[test]
fn ec2_federation_stays_within_its_memory_budget() {
    const BUDGET_MIB: f64 = 200.0;
    let cfg = RbayConfig {
        commit_results: false,
        ..RbayConfig::default()
    };
    let mut fed = Federation::with_config(Topology::aws_ec2_8_sites(NODES_PER_SITE), 42, cfg);
    let scenario = ScenarioConfig {
        extra_attrs_per_node: 5,
        ..ScenarioConfig::default()
    };
    populate_ec2_federation(&mut fed, 42 ^ 0xA5A5, &scenario);
    fed.run_maintenance(5, SimDuration::from_millis(250));
    fed.settle();
    let peak = peak_rss_mib();
    assert!(
        peak <= BUDGET_MIB,
        "peak RSS {peak:.1} MiB over the {BUDGET_MIB} MiB budget for {} nodes",
        fed.sim().topology().node_count()
    );
}
