//! Open-loop load: composite queries arrive at a fixed rate from every
//! site concurrently, as in the paper's setup ("we sent queries in a
//! speed of 1000 per second to different sites", §IV.A). Unlike the
//! closed-loop latency harnesses, queries overlap: reservations conflict
//! and the truncated exponential backoff earns its keep.

use rbay_bench::{build_ec2_federation, percentile, stats, HarnessOpts};
use rbay_core::QueryId;
use rbay_workloads::{aws8_site_names, QueryGen, WORKLOAD_PASSWORD};
use simnet::{NodeAddr, SimDuration, SiteId};

pub fn run(opts: &HarnessOpts) {
    let nodes_per_site = opts.scaled_nodes(60, 12);
    let total_queries = opts.scaled(400, 40);
    let rate_per_sec = 100.0 * opts.scale.max(0.1);

    println!("Open-loop load: {total_queries} composite queries at {rate_per_sec:.0}/s");
    println!("({nodes_per_site} nodes/site, queries overlap; conflicts resolved by backoff)\n");

    let mut fed = build_ec2_federation(nodes_per_site, opts.seed);

    let mut qg = QueryGen::new(opts.seed ^ 0x0123, aws8_site_names(), 5).focus_popular(7, 15);
    let gap_us = (1_000_000.0 / rate_per_sec) as u64;
    let start = fed.sim().now();

    // Schedule the whole arrival process up front, then let it run.
    let mut issued: Vec<(NodeAddr, QueryId)> = Vec::with_capacity(total_queries);
    for i in 0..total_queries {
        let home = SiteId((i % 8) as u16);
        let origins = fed.sim().topology().nodes_of_site(home);
        let origin = origins[2 + (i / 8) % (origins.len() - 2)];
        let n_sites = 1 + i % 8;
        let text = qg.composite(home, n_sites, 1);
        let at = start + SimDuration::from_micros(gap_us * i as u64);
        // issue_parsed_query schedules at `now`; schedule the call
        // ourselves at the arrival instant instead.
        let parsed = rbay_query::parse_query(&text).expect("generated query parses");
        let id = {
            // Mirror the per-node sequence the host will assign.
            let seq_so_far = issued.iter().filter(|(o, _)| *o == origin).count() as u32;
            QueryId::new(origin, seq_so_far)
        };
        issued.push((origin, id));
        let password = WORKLOAD_PASSWORD.to_owned();
        fed.control_at(at, origin, move |h| {
            h.issue_query(parsed, Some(password));
        });
    }
    fed.settle();

    let mut lats = Vec::new();
    let mut satisfied = 0usize;
    let mut retried = 0usize;
    for (origin, id) in &issued {
        let rec = fed.query_record(*origin, *id).expect("record exists");
        if let Some(done) = rec.completed_at {
            lats.push(done.saturating_since(rec.issued_at).as_millis_f64());
        }
        if rec.satisfied {
            satisfied += 1;
        }
        if rec.attempts > 0 {
            retried += 1;
        }
    }
    lats.sort_by(f64::total_cmp);
    let st = stats(&lats).expect("queries completed");
    println!("completed: {}/{}", lats.len(), issued.len());
    println!(
        "satisfied: {satisfied} ({:.0}%)",
        100.0 * satisfied as f64 / issued.len() as f64
    );
    println!("retried (conflict/backoff): {retried}");
    println!(
        "latency ms: mean={:.1} p50={:.1} p90={:.1} p99={:.1} max={:.1}",
        st.mean,
        percentile(&lats, 0.50),
        percentile(&lats, 0.90),
        percentile(&lats, 0.99),
        st.max,
    );
    println!("\n(mean stays in the same regime as the closed-loop Fig. 9/10 numbers;");
    println!(" conflicts appear as retried queries with backoff-inflated tails)");
}
