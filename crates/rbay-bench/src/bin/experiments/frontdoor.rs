//! Front-door result cache: closed-loop Zipf workload with the cache
//! off vs on, same seed and op sequence, at equal recall.
//!
//! A popularity-ranked population of instance queries (Zipf-skewed, so
//! hot queries repeat) runs through [`Federation::frontdoor_query`]
//! twice: once with no gateway cache (every query walks the aggregation
//! trees) and once with the front door enabled (repeats are served from
//! the gateway). A small write stream updates attributes between
//! queries — one that cached queries depend on (exercising the
//! invalidation multicast) and a monitoring reading that none do.
//!
//! With `--json` each pass prints a row with the run parameters (query
//! count, duration, query mix, warmup), latency percentiles, throughput,
//! and the front-door counters. The run fails when the two passes differ
//! in recall.

use rbay_bench::{percentile, HarnessOpts, JsonRecord};
use rbay_core::{Federation, FrontdoorConfig, FrontdoorOutcome, FrontdoorStats, RbayConfig};
use rbay_workloads::{
    instance_query_population, populate_ec2_federation, ScenarioConfig, WorkloadOp, ZipfWorkload,
    WORKLOAD_PASSWORD,
};
use simnet::{NodeAddr, SimDuration, Topology};

/// Distinct queries in the Zipf population.
const DISTINCT: usize = 16;
/// Zipf skew.
const SKEW: f64 = 1.1;
/// Fraction of closed-loop ops that are queries (the rest are writes).
const READ_RATIO: f64 = 0.995;

struct PassResult {
    lats_ms: Vec<f64>,
    duration_s: f64,
    satisfied: usize,
    queries: usize,
    writes: usize,
    fd: FrontdoorStats,
}

pub fn run(opts: &HarnessOpts) {
    let nodes_per_site = opts.scaled_nodes(25, 8);
    let ops = opts.scaled(2000, 400);
    let warmup = DISTINCT;

    println!(
        "Front-door cache: {ops} closed-loop ops (Zipf s={SKEW} over {DISTINCT} queries, \
         {:.1}% reads), {nodes_per_site} nodes/site x 8 sites",
        100.0 * READ_RATIO
    );

    let off = run_pass(opts, nodes_per_site, ops, warmup, false);
    let on = run_pass(opts, nodes_per_site, ops, warmup, true);

    let report = |name: &str, r: &PassResult| {
        let mut lats = r.lats_ms.clone();
        lats.sort_by(f64::total_cmp);
        let qps = r.queries as f64 / r.duration_s;
        println!(
            "{name}: {} queries ({} satisfied) + {} writes in {:.3} sim-s -> {:.1} q/s, \
             p50 {:.2} ms, p99 {:.2} ms",
            r.queries,
            r.satisfied,
            r.writes,
            r.duration_s,
            qps,
            percentile(&lats, 0.50),
            percentile(&lats, 0.99),
        );
        qps
    };
    println!();
    let qps_off = report("cache off", &off);
    let qps_on = report("cache on ", &on);
    println!(
        "cache on : {} hit(s), {} miss(es), {} invalidation(s)",
        on.fd.hits, on.fd.misses, on.fd.invalidations
    );
    println!(
        "\nspeedup: {:.1}x q/s at recall {}/{} (off) vs {}/{} (on)",
        qps_on / qps_off,
        off.satisfied,
        off.queries,
        on.satisfied,
        on.queries
    );
    if off.satisfied != on.satisfied || off.queries != on.queries {
        crate::fail("recall differs between the cache-off and cache-on passes");
    }

    if opts.json {
        for (cache, r) in [(0u64, &off), (1u64, &on)] {
            let mut lats = r.lats_ms.clone();
            lats.sort_by(f64::total_cmp);
            JsonRecord::new("frontdoor")
                .int("cache", cache)
                .int("seed", opts.seed)
                .int("nodes_per_site", nodes_per_site as u64)
                .int("sites", 8)
                .int("queries", r.queries as u64)
                .int("writes", r.writes as u64)
                .int("distinct_queries", DISTINCT as u64)
                .num("zipf_s", SKEW)
                .num("read_ratio", READ_RATIO)
                .int("warmup_queries", warmup as u64)
                .text(
                    "query_mix",
                    "zipf over instance queries; writes: attr13 + CPU_utilization",
                )
                .num("duration_sim_s", r.duration_s)
                .num("queries_per_sec", r.queries as f64 / r.duration_s)
                .num("p50_ms", percentile(&lats, 0.50))
                .num("p99_ms", percentile(&lats, 0.99))
                .int("satisfied", r.satisfied as u64)
                .int("fd_hits", r.fd.hits)
                .int("fd_misses", r.fd.misses)
                .int("fd_coalesced", r.fd.coalesced)
                .int("fd_shed", r.fd.shed)
                .int("fd_invalidations", r.fd.invalidations)
                .emit();
        }
    }
}

/// One full pass: fresh federation, same seeds, cache off or on.
fn run_pass(
    opts: &HarnessOpts,
    nodes_per_site: usize,
    ops: usize,
    warmup: usize,
    cache: bool,
) -> PassResult {
    let cfg = RbayConfig {
        commit_results: false,
        frontdoor_invalidation: true,
        ..RbayConfig::default()
    };
    let mut fed =
        Federation::with_config(Topology::aws_ec2_8_sites(nodes_per_site), opts.seed, cfg);
    let scenario = ScenarioConfig {
        extra_attrs_per_node: DISTINCT,
        ..ScenarioConfig::default()
    };
    populate_ec2_federation(&mut fed, opts.seed ^ 0xA5A5, &scenario);
    fed.run_maintenance(5, SimDuration::from_millis(250));
    fed.settle();

    if cache {
        fed.enable_frontdoor(FrontdoorConfig {
            cache_ttl: SimDuration::from_secs(24 * 3600),
            cache_capacity: 256,
            max_pending: 64,
            retry_after: SimDuration::from_millis(5),
        });
        fed.settle();
    }

    // Population ranked by popularity; each rank keys a distinct cache
    // entry. attr13 appears in exactly one rank's residual clause, so a
    // write to it purges one entry; CPU_utilization appears in none.
    let queries = instance_query_population(DISTINCT, DISTINCT);
    let mut wl = ZipfWorkload::new(
        opts.seed ^ 0x51F7,
        queries.clone(),
        SKEW,
        READ_RATIO,
        vec!["attr13".into(), "CPU_utilization".into()],
    );
    let total_nodes = nodes_per_site * 8;

    // Warmup: every distinct query once (fills the cache when enabled).
    for q in queries.iter().take(warmup) {
        issue(&mut fed, NodeAddr(7), q);
    }

    let start = fed.sim().now();
    let mut lats_ms = Vec::new();
    let mut satisfied = 0usize;
    let mut writes = 0usize;
    for i in 0..ops {
        // Clients rotate across sites; index 5 skips each site's gateways.
        let client = NodeAddr(((i % 8) * nodes_per_site + 5 + (i / 8) % 3) as u32);
        match wl.next_op() {
            WorkloadOp::Query(q) => {
                let (lat, sat) = issue(&mut fed, client, &q);
                lats_ms.push(lat);
                satisfied += sat as usize;
            }
            WorkloadOp::Update { attr, value } => {
                writes += 1;
                let holder = NodeAddr((i * 13 % total_nodes) as u32);
                fed.update_attr(holder, &attr, value);
                fed.settle();
            }
        }
    }
    let duration_s = fed.sim().now().saturating_since(start).as_millis_f64() / 1e3;

    let mut fd = FrontdoorStats::default();
    for n in 0..total_nodes {
        if let Some(s) = fed.frontdoor_stats(NodeAddr(n as u32)) {
            fd.merge(&s);
        }
    }
    PassResult {
        queries: lats_ms.len(),
        lats_ms,
        duration_s,
        satisfied,
        writes,
        fd,
    }
}

/// Issues one query through the front door and waits for its answer;
/// returns (latency ms, satisfied).
fn issue(fed: &mut Federation, client: NodeAddr, q: &str) -> (f64, bool) {
    match fed
        .frontdoor_query(client, q, Some(WORKLOAD_PASSWORD))
        .expect("population queries parse")
    {
        FrontdoorOutcome::Cached { satisfied, .. } => (0.0, satisfied),
        FrontdoorOutcome::Pending { gateway, id, .. } => {
            fed.settle();
            let rec = fed.query_record(gateway, id).expect("walk recorded");
            let done = rec.completed_at.expect("walk completed after settle");
            (
                done.saturating_since(rec.issued_at).as_millis_f64(),
                rec.satisfied,
            )
        }
        FrontdoorOutcome::Shed { .. } => unreachable!("closed loop never sheds"),
    }
}
