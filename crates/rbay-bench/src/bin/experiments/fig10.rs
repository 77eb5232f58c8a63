//! Fig. 10: average query latency and standard deviation for users in
//! every locale, as the number of requesting sites grows 1 → 8.
//!
//! Expectations (paper §IV.C): latency rises roughly linearly from 1 to 5
//! sites, then plateaus for 6–8 sites (the max-RTT site is already
//! included); local-site discovery stays under ~200 ms; multi-site
//! searches land around 600 ms.

use crate::latency_grid::run_grid;
use rbay_bench::{default_threads, emit_json, run_seeds, stats, HarnessOpts, JsonRecord};
use simnet::topology::AWS8_SITE_NAMES;

pub fn run(opts: &HarnessOpts) {
    let nodes_per_site = opts.scaled_nodes(100, 12);
    let queries_per_cell = opts.scaled(25, 5);
    let seeds = opts.seed_list();

    println!("Fig. 10: avg ± stddev of composite-query latency (ms) vs requesting sites");
    println!(
        "({} nodes/site, {} queries per cell, {} seed(s))\n",
        nodes_per_site,
        queries_per_cell,
        seeds.len()
    );
    // One full grid per seed, in parallel; merge samples in seed order.
    let grids = run_seeds(&seeds, default_threads(), |seed| {
        run_grid(
            0..AWS8_SITE_NAMES.len() as u16,
            0xF00D,
            seed,
            nodes_per_site,
            queries_per_cell,
        )
    });

    print!("{:<14}", "locale");
    for n in 1..=8 {
        print!("{:>16}", format!("{n}-site"));
    }
    println!();
    for (s, name) in AWS8_SITE_NAMES.iter().enumerate() {
        print!("{name:<14}");
        // The row's records follow its text line, so each starts a line.
        let mut records = Vec::new();
        for n_sites in 1..=8usize {
            let lats: Vec<f64> = grids
                .iter()
                .flat_map(|g| g[s][n_sites - 1].iter().copied())
                .collect();
            match stats(&lats) {
                Some(st) => {
                    print!("{:>16}", format!("{:.0}±{:.0}", st.mean, st.stddev));
                    records.push(
                        JsonRecord::new("fig10")
                            .text("locale", name)
                            .int("n_sites", n_sites as u64)
                            .int("seeds", seeds.len() as u64)
                            .int("samples", st.n as u64)
                            .num("mean_ms", st.mean)
                            .num("stddev_ms", st.stddev),
                    );
                }
                None => print!("{:>16}", "-"),
            }
        }
        println!();
        for record in &records {
            emit_json(opts, record);
        }
    }
}
