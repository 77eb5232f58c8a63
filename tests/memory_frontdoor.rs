//! Peak memory of the front-door federation's setup burst. This file holds
//! one test, so the test runs in a process of its own and the high-water
//! mark it reads is its own.

#![cfg(target_os = "linux")]

use rbay::core::{Federation, RbayConfig};
use rbay::simnet::{SimDuration, Topology};
use rbay::workloads::{populate_ec2_federation, ScenarioConfig};

/// Members per site: 8 sites make 4,000 nodes, the `sim_zipf_rw` federation.
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

/// Populating the federation with front-door invalidation on sends a
/// routed `MulticastReq` and seven fan-out `Direct`s per attribute write,
/// and up to ~228k events are pending at the peak: every one is a slot of
/// the simulator's event slab, as wide as an `RbayMsg` plus two addresses.
/// With 224-byte slots and 16-byte-aligned ids the build peaked at
/// 138 MiB; with 128-byte slots and 8-byte-aligned ids it peaks at 105.
/// The budget is that plus 10 MiB.
#[test]
fn frontdoor_setup_burst_stays_within_its_memory_budget() {
    const BUDGET_MIB: f64 = 115.0;
    let cfg = RbayConfig {
        commit_results: false,
        frontdoor_invalidation: true,
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
