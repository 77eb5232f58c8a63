//! Fig. 11: latencies for constructing admin-specified on-demand trees
//! (onSubscribe) and for delivering admin commands to tree members
//! (onDeliver), per site.
//!
//! Expectations (paper §IV.D): tree construction stabilizes around tens of
//! milliseconds (a join only pings its neighbour set / nearby overlay
//! hops); command delivery costs O(log N) tree-depth hops of cross-region
//! RTT and fluctuates — noticeably worse for the unstable Asia /
//! South-America sites.

use rbay_bench::{
    build_ec2_federation_with, delivery_latencies_by_site, stats, subscribe_latencies_by_site,
    HarnessOpts,
};
use rbay_query::AttrValue;
use rbay_workloads::EC2_INSTANCE_TYPES;
use simnet::topology::AWS8_SITE_NAMES;
use simnet::SiteId;

pub fn run(opts: &HarnessOpts) {
    let nodes_per_site = opts.scaled_nodes(40, 8);
    println!("Fig. 11: tree construction (onSubscribe) and command delivery (onDeliver)");
    println!(
        "per-site latency in ms ({} nodes/site, 23 instance trees/site)\n",
        nodes_per_site
    );

    // Building the federation constructs all 23 instance trees per site;
    // subscription events were recorded along the way. The paper's Fig. 11
    // deployment routes tree traffic over the *global* overlay (per-site
    // tree names, global rendezvous), so isolation is off here.
    let mut fed = build_ec2_federation_with(nodes_per_site, opts.seed, false);
    let sub = subscribe_latencies_by_site(&fed);

    // Admins (one per site) deliver a command down every instance tree of
    // their site.
    let mut cmd_ids = Vec::new();
    for s in 0..8u16 {
        let admin = fed.sim().topology().nodes_of_site(SiteId(s))[1];
        for itype in EC2_INSTANCE_TYPES {
            let id = fed.admin_multicast(
                admin,
                SiteId(s),
                &format!("instance={itype}"),
                "valid_until",
                AttrValue::str("22:00"),
            );
            cmd_ids.push(id);
        }
    }
    fed.settle();
    let del = delivery_latencies_by_site(&fed, &cmd_ids);

    println!(
        "{:<12} {:>8} {:>26} {:>8} {:>26}",
        "site", "joins", "onSubscribe avg±sd (max)", "delivs", "onDeliver avg±sd (max)"
    );
    for (s, name) in AWS8_SITE_NAMES.iter().enumerate() {
        let sub_stats = stats(&sub[s]);
        let del_stats = stats(&del[s]);
        let fmt = |st: &Option<rbay_bench::Stats>| match st {
            Some(st) => format!("{:.1}±{:.1} ({:.1})", st.mean, st.stddev, st.max),
            None => "-".to_owned(),
        };
        println!(
            "{:<12} {:>8} {:>26} {:>8} {:>26}",
            name,
            sub_stats.as_ref().map(|s| s.n).unwrap_or(0),
            fmt(&sub_stats),
            del_stats.as_ref().map(|s| s.n).unwrap_or(0),
            fmt(&del_stats),
        );
    }
    println!("\n(onSubscribe is intra-site and flat across locales; onDeliver");
    println!(" fluctuates with tree depth and the site's network instability)");
}
