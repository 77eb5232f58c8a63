//! Shape-regression tests: the qualitative claims of each figure, checked
//! automatically at reduced scale so `cargo test` guards the
//! reproduction.

use rbay_bench::{
    build_ec2_federation, build_ec2_federation_with, delivery_latencies_by_site,
    measure_query_latencies, stats, subscribe_latencies_by_site,
};
use rbay_query::AttrValue;
use rbay_workloads::{aws8_site_names, QueryGen, EC2_INSTANCE_TYPES};
use simnet::SiteId;

/// Fig. 8a's claim: hops grow like log16(N) — doubling N many times adds
/// only a constant number of hops.
#[test]
fn fig8a_shape_hops_are_logarithmic() {
    use pastry::{seed_overlay, NodeId, NodeInfo, PastryNode};
    use simnet::NodeAddr;

    let avg_route_hops = |n: usize| -> f64 {
        let mut nodes: Vec<PastryNode> = (0..n)
            .map(|i| {
                PastryNode::new(NodeInfo {
                    id: NodeId::hash_of(format!("n{i}").as_bytes()),
                    addr: NodeAddr(i as u32),
                    site: SiteId(0),
                })
            })
            .collect();
        seed_overlay(&mut nodes, |_, _| 0.0);
        // Count hops by walking next_hop decisions directly (no sim
        // needed for the hop metric).
        let mut total = 0u32;
        let probes = 200;
        for k in 0..probes {
            let key = NodeId::hash_of(format!("k{k}").as_bytes());
            let mut cur = k % n;
            let mut hops = 0u32;
            while let Some(next) = nodes[cur].next_hop(key, None) {
                cur = next.addr.0 as usize;
                hops += 1;
                assert!(hops < 64, "routing loop");
            }
            total += hops;
        }
        total as f64 / probes as f64
    };

    let h100 = avg_route_hops(100);
    let h1600 = avg_route_hops(1_600);
    // 16x more nodes ≈ one more base-16 digit ≈ one more hop.
    let delta = h1600 - h100;
    assert!(
        (0.5..=1.6).contains(&delta),
        "expected ~+1 hop per 16x nodes, got {h100} -> {h1600}"
    );
}

/// Fig. 8b's accounting: the forwards its table sums come from the
/// `RouteForward` events, one per forwarding hop. A probe delivered after
/// `hops` hops was forwarded `hops - 1` times — the origin's send is hop 1
/// and is not a forward.
#[test]
fn fig8b_forward_events_account_for_every_hop() {
    use rbay_check::{Fig8Params, Probes};
    use simnet::{NodeAddr, ObsEvent, Recorder};

    let params = Fig8Params {
        nodes: 300,
        probes: Probes::PerKey {
            keys: 4,
            per_key: 25,
        },
        seed: 42,
    };
    let obs = Recorder::enabled(1 << 16);
    let sim = params.run(|sim| {
        for i in 0..params.nodes as u32 {
            sim.actor_mut(NodeAddr(i)).node.set_recorder(obs.clone());
        }
    });
    assert_eq!(params.check(&sim), None, "every probe delivered once");
    assert_eq!(obs.snapshot().events_dropped, 0);
    let keys: Vec<u128> = params.keys().iter().map(|k| k.as_u128()).collect();
    let forwards = obs
        .events()
        .iter()
        .filter(|e| matches!(e, ObsEvent::RouteForward { key, .. } if keys.contains(key)))
        .count() as u64;
    let hops: u64 = (sim.actors())
        .flat_map(|(_, a)| a.app.hops.iter())
        .map(|&h| u64::from(h.saturating_sub(1)))
        .sum();
    assert!(forwards > 0, "a 300-node overlay forwards");
    assert_eq!(forwards, hops);
}

/// Fig. 9/10's claims: local queries are much faster than multi-site
/// ones; latency is non-decreasing-ish in sites and plateaus once the
/// farthest site is included; and it is bounded by the RTT to that site.
/// From Virginia, five sites and eight both reach Singapore, the farthest:
/// each query crosses the WAN to it once and back once — the border
/// router there probes and walks its own trees — so it completes within
/// 1.25 × that RTT plus 25 ms of intra-site work.
#[test]
fn fig9_shape_latency_rises_then_plateaus() {
    use rbay_core::Federation;
    use simnet::SimDuration;

    let mut fed = build_ec2_federation(16, 99);
    // Guarantee the probed type exists in *every* site (at this tiny test
    // scale the Gaussian mix can miss a site, which would skew the
    // latency shape with not-found retries).
    let home_nodes = fed.sim().topology().nodes_of_site(SiteId(0));
    let itype = "c3.8xlarge".to_owned();
    for s in 0..8u16 {
        let n = fed.sim().topology().nodes_of_site(SiteId(s))[9];
        fed.post_resource(n, "instance", AttrValue::str(&itype));
    }
    fed.settle();
    fed.run_maintenance(4, simnet::SimDuration::from_millis(250));
    fed.settle();
    let names = aws8_site_names();
    let latencies = |fed: &mut Federation, n_sites: usize| {
        let sites: Vec<String> = (0..n_sites).map(|i| format!("\"{}\"", names[i])).collect();
        let from = if n_sites == 8 {
            "*".into()
        } else {
            sites.join(", ")
        };
        let mut lats = Vec::new();
        for i in 0..6 {
            let origin = home_nodes[3 + i % 8];
            let q = format!("SELECT 1 FROM {from} WHERE instance = \"{itype}\"");
            let id = fed
                .issue_query(origin, &q, Some(rbay_workloads::WORKLOAD_PASSWORD))
                .unwrap();
            fed.settle();
            let rec = fed.query_record(origin, id).unwrap();
            lats.push(
                rec.completed_at
                    .unwrap()
                    .saturating_since(rec.issued_at)
                    .as_millis_f64(),
            );
            let horizon = fed.sim().now() + SimDuration::from_millis(2_500);
            fed.run_until(horizon);
        }
        lats
    };
    let mean = |lats: &[f64]| stats(lats).unwrap().mean;
    let local = mean(&latencies(&mut fed, 1));
    let (five, eight) = (latencies(&mut fed, 5), latencies(&mut fed, 8));
    let farthest = fed.sim().topology().rtt_ms(SiteId(0), SiteId(4));
    let bound = 1.25 * farthest + 25.0;
    for took in five.iter().chain(&eight) {
        assert!(
            *took < bound,
            "{took:.1} ms over the {bound:.1} ms bound ({farthest} ms RTT)"
        );
    }
    let (five, eight) = (mean(&five), mean(&eight));
    assert!(local < 50.0, "local-site queries are local: {local}");
    assert!(
        five > local * 5.0,
        "multi-site adds cross-site RTTs: {five}"
    );
    // Plateau: adding sites 6-8 barely moves the mean (all already
    // bounded by the farthest RTT).
    assert!(
        (eight - five).abs() < five * 0.5,
        "expected plateau, got 5-site={five} 8-site={eight}"
    );
}

/// Fig. 9's locale claim: Singapore's multi-site queries are slower than
/// Virginia's (worse RTTs to the rest of the world).
#[test]
fn fig9_shape_singapore_is_worst_positioned() {
    let mut fed = build_ec2_federation(16, 101);
    let mut qg = QueryGen::new(8, aws8_site_names(), 5).focus_popular(7, 15);
    let mut mean = |home| {
        let cell = measure_query_latencies(&mut fed, &mut qg, home, 8, 6);
        assert_eq!(cell.missed, 0, "every findable query is found");
        stats(&cell.found).unwrap().mean
    };
    let virginia = mean(SiteId(0));
    let singapore = mean(SiteId(4));
    assert!(
        singapore > virginia,
        "Singapore {singapore} must exceed Virginia {virginia}"
    );
}

/// Fig. 11's claims: tree construction is much cheaper than command
/// delivery, and the unstable sites deliver slower than Virginia.
#[test]
fn fig11_shape_subscribe_cheap_deliver_rtt_bound() {
    let mut fed = build_ec2_federation_with(16, 103, false);
    let sub = subscribe_latencies_by_site(&fed);
    let mut cmd_ids = Vec::new();
    for s in 0..8u16 {
        let admin = fed.sim().topology().nodes_of_site(SiteId(s))[1];
        for itype in EC2_INSTANCE_TYPES.iter().take(8) {
            cmd_ids.push(fed.admin_multicast(
                admin,
                SiteId(s),
                &format!("instance={itype}"),
                "valid_until",
                AttrValue::str("22:00"),
            ));
        }
    }
    fed.settle();
    let del = delivery_latencies_by_site(&fed, &cmd_ids);

    let all_sub: Vec<f64> = sub.iter().flatten().copied().collect();
    let all_del: Vec<f64> = del.iter().flatten().copied().collect();
    let sub_mean = stats(&all_sub).unwrap().mean;
    let del_mean = stats(&all_del).unwrap().mean;
    assert!(
        del_mean > sub_mean * 2.0,
        "delivery ({del_mean}) must dominate construction ({sub_mean})"
    );
}

/// The §II.A ablation claim: the central master's byte load grows with
/// the fleet, faster than RBAY's hottest node.
#[test]
fn ablation_shape_central_master_is_the_bottleneck() {
    use rbay_baselines::CentralPlane;
    use simnet::Topology;

    let central_bytes = |per_site: usize| {
        let mut cp = CentralPlane::new(Topology::aws_ec2_8_sites(per_site), 5);
        for i in 0..(per_site * 8) as u32 {
            cp.set_attr(simnet::NodeAddr(i), "load", AttrValue::Num(1.0));
        }
        cp.settle();
        cp.poll_round();
        cp.master_load().1
    };
    let small = central_bytes(5);
    let large = central_bytes(20);
    assert!(
        large as f64 > small as f64 * 3.0,
        "master bytes must grow ~linearly: {small} -> {large}"
    );
}

/// The names in the `experiments` table, read off the usage text an
/// unknown subcommand prints (which must exit 2).
fn experiment_table() -> Vec<String> {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_experiments"))
        .arg("no-such-experiment")
        .output()
        .expect("run experiments");
    assert_eq!(out.status.code(), Some(2), "unknown subcommand exits 2");
    let usage = String::from_utf8(out.stderr).expect("utf-8 usage");
    assert!(usage.contains("usage: experiments <name|all>"), "{usage}");
    usage
        .lines()
        .skip_while(|l| *l != "experiments:")
        .skip(1)
        .filter_map(|l| l.split_whitespace().next().map(str::to_owned))
        .collect()
}

/// The whole evaluation runs end to end at small scale, every gate met:
/// `all` covers every entry of the table — the front-door and AA-engine
/// experiments included.
#[test]
fn every_experiment_runs_at_small_scale() {
    let table = experiment_table();
    assert!(table.len() >= 13, "usage lists the table: {table:?}");
    for name in ["frontdoor", "aa_exec"] {
        assert!(table.iter().any(|t| t == name), "{name} missing: {table:?}");
    }
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["all", "--scale", "0.1", "--seed", "42"])
        .output()
        .expect("run experiments");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "exit {:?}\n{stdout}\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    for name in &table {
        let banner = format!("==== {name} ====");
        assert_eq!(stdout.matches(&banner).count(), 1, "one banner for {name}");
    }
    assert!(stdout.contains(&format!("all {} experiments completed", table.len())));
}
