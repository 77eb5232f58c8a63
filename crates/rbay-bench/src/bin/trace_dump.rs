//! Trace-dump tool — reconstructs, from the structured observability
//! trace, (a) the overlay route one query's probe took hop by hop and
//! (b) the repair timeline of a resource tree after a node crash.
//!
//! Runs a small canned federation (deterministic under `--seed`), so the
//! output doubles as a worked example of what the trace records. The same
//! reconstruction is available on real runs through
//! `experiments churn --trace`.

use rand::rngs::SmallRng;
use rand::{seq::SliceRandom, SeedableRng};
use rbay_bench::{cluster, HarnessOpts};
use rbay_core::{Federation, LintPolicy, RbayConfig};
use rbay_query::AttrValue;
use rbay_store::{FsyncPolicy, Store};
use rbay_workloads::WORKLOAD_PASSWORD;
use simnet::obs::Recorder;
use simnet::{NodeAddr, ObsEvent, SimDuration, SimTime, SiteId, Topology};

fn main() {
    let opts = HarnessOpts::from_args(std::env::args().skip(1));
    let n_nodes = opts.scaled(40, 16);

    let cfg = RbayConfig {
        failure_detection: true,
        heartbeat_timeout: SimDuration::from_millis(400),
        commit_results: false,
        ..RbayConfig::default()
    };
    let mut fed = Federation::with_config(Topology::single_site(n_nodes, 0.5), opts.seed, cfg);
    let rec = fed.enable_obs(1 << 16);
    let topic = fed.node(NodeAddr(0)).host.tree_topic("GPU=true", SiteId(0));
    let key = topic.key().as_u128();

    // A third of the fleet holds the resource; warm the tree.
    let holders: Vec<NodeAddr> = (0..(n_nodes / 3) as u32).map(NodeAddr).collect();
    for &h in &holders {
        fed.post_resource(h, "GPU", AttrValue::Bool(true));
    }
    fed.settle();
    fed.run_maintenance(3, SimDuration::from_millis(250));
    fed.settle();

    // ---- Part 1: one query's route path ------------------------------
    let origin = NodeAddr(n_nodes as u32 - 1);
    let issued_at = fed.sim().now();
    let id = fed
        .issue_query(
            origin,
            "SELECT 1 FROM * WHERE GPU = true",
            Some(WORKLOAD_PASSWORD),
        )
        .expect("query parses");
    fed.settle();
    let rec_q = fed.query_record(origin, id).expect("record exists");
    let satisfied = rec_q.satisfied;
    let completed = rec_q.completed_at;

    println!("Query route path ({n_nodes} nodes, seed {}):", opts.seed);
    println!("  query from {origin:?} towards tree key {key:#034x}");
    for ev in rec.events() {
        if ev.at() < issued_at {
            continue;
        }
        match ev {
            ObsEvent::QueryAttempt {
                at, node, attempt, ..
            } if node == origin => {
                println!("  {}  attempt #{attempt} issued", fmt_at(at, issued_at));
            }
            ObsEvent::RouteForward {
                at,
                node,
                key: k,
                hops,
            } if k == key => {
                println!(
                    "  {}  hop {hops}: forwarded by {node:?}",
                    fmt_at(at, issued_at)
                );
            }
            ObsEvent::RouteDeliver {
                at,
                node,
                key: k,
                hops,
            } if k == key => {
                println!(
                    "  {}  delivered at {node:?} after {hops} hop(s)",
                    fmt_at(at, issued_at)
                );
            }
            ObsEvent::QueryDone {
                at,
                node,
                satisfied,
                ..
            } if node == origin => {
                println!(
                    "  {}  query done, satisfied={satisfied}",
                    fmt_at(at, issued_at)
                );
            }
            _ => {}
        }
    }
    match completed {
        Some(done) => println!(
            "  => satisfied={satisfied} in {:.1} ms",
            done.saturating_since(issued_at).as_millis_f64()
        ),
        None => println!("  => still pending at settle"),
    }
    if !rec_q.unknown_sites.is_empty() {
        println!("  !! unknown sites in FROM: {:?}", rec_q.unknown_sites);
    }

    // A FROM clause naming a site the federation has never heard of is no
    // longer silently narrowed: the unresolved names are kept on the
    // record and surfaced here.
    let typo_id = fed
        .issue_query(
            origin,
            r#"SELECT 1 FROM "Atlantis" WHERE GPU = true"#,
            Some(WORKLOAD_PASSWORD),
        )
        .expect("query parses");
    fed.settle();
    let typo_rec = fed.query_record(origin, typo_id).expect("record exists");
    println!(
        "  misspelled FROM check: satisfied={} unknown sites {:?}",
        typo_rec.satisfied, typo_rec.unknown_sites
    );

    // ---- Part 2: the tree's repair timeline --------------------------
    // Crash a mid-tree holder and replay the repair events.
    let mut rng = SmallRng::seed_from_u64(opts.seed ^ 0xC0FFEE);
    let victim = *holders[1..].choose(&mut rng).expect("at least two holders");
    let crash_at = fed.sim().now();
    fed.sim_mut().fail_node(victim);
    fed.run_maintenance(8, SimDuration::from_millis(250));
    fed.settle();

    println!("\nTree repair timeline after crashing {victim:?}:");
    // Only the victim's failure declarations belong to this repair.
    let about_victim =
        |ev: &ObsEvent| !matches!(ev, ObsEvent::HeartbeatExpire { peer, .. } if *peer != victim);
    rbay_bench::print_repair_timeline(rec.events().into_iter().filter(about_victim), crash_at, key);
    let live_holders = holders.iter().filter(|h| **h != victim).count();
    println!(
        "  => root count {:?} (live holders: {live_holders}), {} tree edges, max depth {}",
        fed.tree_root_count(topic),
        fed.tree_edge_count(topic),
        fed.tree_max_depth(topic)
    );

    // ---- Part 3: a member's durable-store timeline -------------------
    // A standalone member journals to a WAL, compacts, dies, and a fresh
    // process restores from disk under a *stricter* lint policy — per
    // member, this is exactly what `rbay-node --data-dir` does.
    let dir = std::env::temp_dir().join(format!("rbay-trace-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("store dir");
    let store_rec = Recorder::enabled(1 << 12);

    println!("\nDurable store timeline ({}):", dir.display());
    {
        // Default policy: Warn — the unknown-handler script installs.
        let mut node = cluster::build_node(0, 2, 1, RbayConfig::default());
        node.host.obs = store_rec.clone();
        let (store, _) = Store::open(&dir, FsyncPolicy::Never).expect("open store");
        node.host.attach_store(Box::new(store));
        node.host
            .install_node_aa("AA = { onGte = function(q) return true end }")
            .expect("installs under Warn");
        node.host.post_resource("GPU", AttrValue::Bool(true));
        node.host
            .update_attr("CPU_utilization", AttrValue::Num(35.0));
        if let Some(s) = node.host.store.as_mut() {
            s.set_snapshot_thresholds(4, u64::MAX);
        }
        // Crosses the (lowered) compaction threshold.
        node.host
            .update_attr("CPU_utilization", AttrValue::Num(20.0));
    }
    {
        // "Restart" under Deny: the journaled handler source re-lints
        // dirty and is quarantined; everything else restores.
        let deny = RbayConfig {
            lint_policy: LintPolicy::Deny,
            ..RbayConfig::default()
        };
        let mut revived = cluster::build_node(0, 2, 1, deny);
        revived.host.obs = store_rec.clone();
        let (store, _) = Store::open(&dir, FsyncPolicy::Never).expect("reopen store");
        let summary = revived.host.attach_store(Box::new(store));
        for ev in store_rec.events() {
            match ev {
                ObsEvent::StoreAppend {
                    node,
                    kind,
                    wal_records,
                    ..
                } => println!("  {node:?} append {kind} (wal record #{wal_records})"),
                ObsEvent::StoreSnapshot {
                    node, snapshots, ..
                } => println!("  {node:?} snapshot compaction #{snapshots}"),
                ObsEvent::StoreReplay {
                    node,
                    records,
                    micros,
                    ..
                } => println!("  {node:?} replayed {records} record(s) in {micros} us"),
                ObsEvent::RestoreRelintReject { node, .. } => {
                    println!("  {node:?} quarantined a journaled handler on re-lint")
                }
                _ => {}
            }
        }
        println!(
            "  => restored {} attr(s), {} handler(s), {} quarantined: {:?}",
            summary.attrs,
            summary.handlers,
            summary.quarantined,
            revived
                .host
                .quarantined
                .iter()
                .map(|(label, _)| label.as_str())
                .collect::<Vec<_>>()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);

    let snap = rec.snapshot();
    println!(
        "\nRecorder: {} events ({} dropped), mean route hops {:.2}",
        snap.events_recorded,
        snap.events_dropped,
        snap.mean_hops()
    );
}

fn fmt_at(at: SimTime, base: SimTime) -> String {
    format!("+{:>8.1} ms", at.saturating_since(base).as_millis_f64())
}
