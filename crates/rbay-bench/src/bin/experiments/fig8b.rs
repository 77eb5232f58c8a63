//! Fig. 8b: scalability with the number of queries — load balance of the
//! lookup service.
//!
//! Paper setup (§IV.B.2): the 1,000 atomic queries of Fig. 8a are tracked
//! by the NodeIds of the intermediate forwarders. Queries Q1…Q10 (ten
//! distinct keys, 100 queries each) should spread across different
//! NodeIds, with each key's last-hop forwarder seeing about 100 forwards —
//! the keys map to independent overlay locations, dividing the central
//! lookup load.

use crate::pastry_probe::{events_per_sec, report_engine, require_exactly_once, seeded_overlay};
use pastry::NodeId;
use rbay_bench::{default_threads, emit_json, run_seeds, HarnessOpts, JsonRecord};
use simnet::{NodeAddr, SimTime};

/// Per-key forwarding-load summary of one seed's run.
struct KeyCell {
    total_fwds: u64,
    distinct_forwarders: u32,
    max_fwds: u64,
}

/// One seed's full result: a row per query key plus run totals.
struct Cell {
    keys: Vec<KeyCell>,
    distinct_top_forwarders: usize,
    /// Probes delivered — the routing invariant is
    /// `delivered == queries_per_key * n_keys`.
    delivered: usize,
    events: u64,
    wall_secs: f64,
}

fn run_one(n_nodes: usize, queries_per_key: usize, n_keys: usize, seed: u64) -> Cell {
    let mut sim = seeded_overlay(n_nodes, seed);
    for i in 0..n_nodes as u32 {
        sim.actor_mut(NodeAddr(i)).node.enable_forward_log();
    }

    let keys: Vec<NodeId> = (0..n_keys)
        .map(|k| NodeId::hash_of(format!("Q{}:{}", k + 1, seed).as_bytes()))
        .collect();
    for (ki, key) in keys.iter().enumerate() {
        let key = *key;
        for q in 0..queries_per_key {
            let src = NodeAddr(((q * 6007 + ki * 97 + 13) % n_nodes) as u32);
            sim.schedule_call(SimTime::ZERO, src, move |a, ctx| a.route(ctx, key));
        }
    }
    sim.run_until_idle();

    let mut out = Vec::with_capacity(n_keys);
    let mut top_forwarders = Vec::new();
    for key in &keys {
        let mut total = 0u64;
        let mut max = 0u64;
        let mut distinct = 0u32;
        let mut top = None;
        for (addr, a) in sim.actors() {
            if let Some(log) = a.node.forward_log() {
                if let Some(c) = log.get(key) {
                    total += c;
                    distinct += 1;
                    if *c > max {
                        max = *c;
                        top = Some(addr);
                    }
                }
            }
        }
        if let Some(addr) = top {
            top_forwarders.push(addr);
        }
        out.push(KeyCell {
            total_fwds: total,
            distinct_forwarders: distinct,
            max_fwds: max,
        });
    }
    top_forwarders.sort();
    top_forwarders.dedup();
    Cell {
        keys: out,
        distinct_top_forwarders: top_forwarders.len(),
        delivered: sim.actors().map(|(_, a)| a.app.hops.len()).sum(),
        events: sim.stats().events(),
        wall_secs: sim.wall_time().as_secs_f64(),
    }
}

pub fn run(opts: &HarnessOpts) {
    let n_nodes = opts.scaled_nodes(10_000, 100);
    let queries_per_key = opts.scaled(100, 10);
    let n_keys = 10usize;
    let seeds = opts.seed_list();

    // One independent simulation per seed; merge deterministically in seed
    // order (per-key means across seeds).
    let cells = run_seeds(&seeds, default_threads(), |seed| {
        run_one(n_nodes, queries_per_key, n_keys, seed)
    });
    let delivered = cells.iter().map(|c| c.delivered);
    require_exactly_once(
        opts,
        n_nodes,
        queries_per_key * n_keys,
        seeds.iter().copied().zip(delivered),
    );

    println!(
        "Fig. 8b: forwarding load per query key ({n_nodes} nodes, {queries_per_key} queries/key, {} seed(s))",
        seeds.len()
    );
    println!("(the max-loaded forwarder of each key carries ~queries_per_key forwards;");
    println!(" distinct keys land on distinct forwarders, balancing the lookup load)\n");
    println!(
        "{:>5} {:>14} {:>12} {:>14}",
        "key", "total fwds", "forwarders", "max fwds/node"
    );
    for ki in 0..n_keys {
        let total = cells
            .iter()
            .map(|c| c.keys[ki].total_fwds as f64)
            .sum::<f64>()
            / cells.len() as f64;
        let distinct = cells
            .iter()
            .map(|c| c.keys[ki].distinct_forwarders as f64)
            .sum::<f64>()
            / cells.len() as f64;
        let max = cells
            .iter()
            .map(|c| c.keys[ki].max_fwds as f64)
            .sum::<f64>()
            / cells.len() as f64;
        println!(
            "{:>5} {:>14.1} {:>12.1} {:>14.1}",
            format!("Q{}", ki + 1),
            total,
            distinct,
            max
        );
        emit_json(
            opts,
            &JsonRecord::new("fig8b")
                .int("nodes", n_nodes as u64)
                .int("queries_per_key", queries_per_key as u64)
                .int("seeds", seeds.len() as u64)
                .int("key", ki as u64 + 1)
                .num("mean_total_fwds", total)
                .num("mean_distinct_forwarders", distinct)
                .num("mean_max_fwds", max),
        );
    }
    let distinct_top = cells
        .iter()
        .map(|c| c.distinct_top_forwarders as f64)
        .sum::<f64>()
        / cells.len() as f64;
    let events: u64 = cells.iter().map(|c| c.events).sum();
    let wall: f64 = cells.iter().map(|c| c.wall_secs).sum();
    println!(
        "\ndistinct top-forwarders across the {} keys: {:.1} (load balanced ⇔ close to {})",
        n_keys, distinct_top, n_keys
    );
    emit_json(
        opts,
        &JsonRecord::new("fig8b")
            .int("nodes", n_nodes as u64)
            .int("queries_per_key", queries_per_key as u64)
            .int("seeds", seeds.len() as u64)
            .text("row", "summary")
            .num("mean_distinct_top_forwarders", distinct_top)
            .int("events", events)
            .num("sim_wall_secs", wall)
            .num("events_per_sec", events_per_sec(events, wall)),
    );
    report_engine(events, wall);
}
