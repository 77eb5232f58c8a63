//! The locale × predicate-width latency grid Fig. 9 and Fig. 10 both
//! measure.

use rbay_bench::{build_ec2_federation, measure_query_latencies};
use rbay_workloads::{aws8_site_names, QueryGen};
use simnet::SiteId;

/// Runs the full locale × predicate-width grid on one seeded federation:
/// from each site of `locales`, `queries_per_cell` composite queries at
/// every width 1..=8, generated from `seed ^ seed_salt`. Returns per-cell
/// latency samples as `[locale][n_sites - 1]`.
pub fn run_grid(
    locales: impl IntoIterator<Item = u16>,
    seed_salt: u64,
    seed: u64,
    nodes_per_site: usize,
    queries_per_cell: usize,
) -> Vec<Vec<Vec<f64>>> {
    let mut fed = build_ec2_federation(nodes_per_site, seed);
    let mut qg = QueryGen::new(seed ^ seed_salt, aws8_site_names(), 5).focus_popular(7, 15);
    locales
        .into_iter()
        .map(|site| {
            (1..=8usize)
                .map(|n_sites| {
                    measure_query_latencies(
                        &mut fed,
                        &mut qg,
                        SiteId(site),
                        n_sites,
                        queries_per_cell,
                    )
                })
                .collect()
        })
        .collect()
}
