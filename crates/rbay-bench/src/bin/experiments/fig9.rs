//! Fig. 9: CDFs of composite-query latency for users in Virginia,
//! Singapore, and São Paulo, as the location predicate grows from the
//! local site to all eight sites.
//!
//! Paper setup (§IV.C): eight EC2 sites federated into one pool; every
//! site issues composite queries (three attributes, one instance type,
//! password-checked `onGet`); the location predicate varies from 1 to 8
//! sites. Expectations: single-site queries complete locally (<200 ms);
//! multi-site latency is bounded by the RTT to the farthest requested
//! site; Singapore users see the highest multi-site latencies.

use crate::latency_grid::run_grid;
use rbay_bench::{
    default_threads, emit_json, percentile, print_cdf_row, run_seeds, HarnessOpts, JsonRecord,
};

// Virginia (site 0), Singapore (site 4), São Paulo (site 7).
const LOCALES: [(&str, u16); 3] = [("Virginia", 0), ("Singapore", 4), ("SaoPaulo", 7)];

pub fn run(opts: &HarnessOpts) {
    let nodes_per_site = opts.scaled_nodes(100, 12);
    let queries_per_cell = opts.scaled(30, 5);
    let seeds = opts.seed_list();

    println!(
        "Fig. 9: composite-query latency CDFs ({} nodes/site, {} queries per point, {} seed(s))\n",
        nodes_per_site,
        queries_per_cell,
        seeds.len()
    );
    // One full grid per seed, in parallel; merge samples in seed order.
    let grids = run_seeds(&seeds, default_threads(), |seed| {
        run_grid(
            LOCALES.map(|(_, site)| site),
            0x5151,
            seed,
            nodes_per_site,
            queries_per_cell,
        )
    });

    for (l, (name, _)) in LOCALES.iter().enumerate() {
        println!("--- users in {name} ---");
        for n_sites in 1..=8usize {
            let mut lats: Vec<f64> = grids
                .iter()
                .flat_map(|g| g[l][n_sites - 1].iter().copied())
                .collect();
            print_cdf_row(&format!("{name} {n_sites}-site"), &mut lats);
            lats.sort_by(f64::total_cmp);
            emit_json(
                opts,
                &JsonRecord::new("fig9")
                    .text("locale", name)
                    .int("n_sites", n_sites as u64)
                    .int("seeds", seeds.len() as u64)
                    .int("samples", lats.len() as u64)
                    .num("p50_ms", percentile(&lats, 0.50))
                    .num("p90_ms", percentile(&lats, 0.90))
                    .num("p99_ms", percentile(&lats, 0.99)),
            );
        }
        println!();
    }
}
