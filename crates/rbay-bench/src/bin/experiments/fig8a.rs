//! Fig. 8a: scalability with the number of nodes.
//!
//! Paper setup (§IV.B.1): 10,000 RBAY agents with 10 attributes each (10%
//! exposed), 1,000 atomic queries each asking for one unique attribute;
//! the plotted quantity is the average number of DHT hops per query as the
//! datacenter size grows exponentially. Expectation: hops grow linearly in
//! log(N) — `O(log N)` routing.

use crate::pastry_probe::{events_per_sec, report_engine, require_exactly_once, seeded_overlay};
use pastry::NodeId;
use rbay_bench::{default_threads, emit_json, run_seeds, stats, HarnessOpts, JsonRecord};
use simnet::{NodeAddr, SimTime};

struct Cell {
    mean_hops: f64,
    max_hops: f64,
    /// Probes delivered — the routing invariant is `delivered == queries`.
    delivered: usize,
    events: u64,
    wall_secs: f64,
}

fn avg_hops(n_nodes: usize, n_queries: usize, seed: u64) -> Cell {
    let mut sim = seeded_overlay(n_nodes, seed);
    // Each query targets one unique attribute key from a random source.
    for q in 0..n_queries {
        let key = NodeId::hash_of(format!("attr:{seed}:{q}").as_bytes());
        let src = NodeAddr(((q * 7919 + seed as usize) % n_nodes) as u32);
        sim.schedule_call(SimTime::ZERO, src, move |a, ctx| a.route(ctx, key));
    }
    sim.run_until_idle();
    let hops: Vec<f64> = sim
        .actors()
        .flat_map(|(_, a)| a.app.hops.iter().map(|h| *h as f64))
        .collect();
    let s = stats(&hops).expect("queries delivered");
    Cell {
        mean_hops: s.mean,
        max_hops: s.max,
        delivered: hops.len(),
        events: sim.stats().events(),
        wall_secs: sim.wall_time().as_secs_f64(),
    }
}

pub fn run(opts: &HarnessOpts) {
    let queries = opts.scaled(1_000, 100);
    let seeds = opts.seed_list();
    println!("Fig. 8a: average DHT hops per atomic query vs datacenter size");
    println!(
        "({queries} queries per point, {} seed(s); expectation: linear in log16 N)\n",
        seeds.len()
    );
    println!(
        "{:>8} {:>12} {:>10} {:>10}",
        "nodes", "log16(N)", "avg hops", "max hops"
    );
    let mut total_events = 0u64;
    let mut total_wall = 0.0f64;
    for &n in &[10usize, 50, 100, 500, 1_000, 5_000, 10_000] {
        let n = opts.scaled_nodes(n, 4);
        // One independent simulation per seed; merge deterministically in
        // seed order (mean of per-seed means, max of maxes).
        let cells = run_seeds(&seeds, default_threads(), |seed| avg_hops(n, queries, seed));
        let delivered = cells.iter().map(|c| c.delivered);
        require_exactly_once(opts, n, queries, seeds.iter().copied().zip(delivered));
        let mean = cells.iter().map(|c| c.mean_hops).sum::<f64>() / cells.len() as f64;
        let max = cells.iter().map(|c| c.max_hops).fold(0.0, f64::max);
        let events: u64 = cells.iter().map(|c| c.events).sum();
        let wall: f64 = cells.iter().map(|c| c.wall_secs).sum();
        total_events += events;
        total_wall += wall;
        println!(
            "{:>8} {:>12.2} {:>10.2} {:>10.0}",
            n,
            (n as f64).log(16.0),
            mean,
            max
        );
        emit_json(
            opts,
            &JsonRecord::new("fig8a")
                .int("nodes", n as u64)
                .int("queries", queries as u64)
                .int("seeds", seeds.len() as u64)
                .num("mean_hops", mean)
                .num("max_hops", max)
                .int("events", events)
                .num("sim_wall_secs", wall)
                .num("events_per_sec", events_per_sec(events, wall)),
        );
    }
    report_engine(total_events, total_wall);
}
