//! Trace-dump tool — reconstructs, from the structured observability
//! trace, (a) the overlay route one query's probe took hop by hop and
//! (b) the repair timeline of a resource tree after a node crash.
//!
//! Runs a small canned federation (deterministic under `--seed`), so the
//! output doubles as a worked example of what the trace records. The same
//! reconstruction is available on real runs through
//! `experiments churn --trace`.

use rand::seq::SliceRandom;
use rbay_bench::{cluster, HarnessOpts};
use rbay_check::{ChurnParams, ChurnState};
use rbay_core::{LintPolicy, RbayConfig};
use rbay_query::AttrValue;
use rbay_store::{DurableState, FsyncPolicy, Store};
use rbay_workloads::WORKLOAD_PASSWORD;
use simnet::obs::Recorder;
use simnet::{NodeAddr, ObsEvent, SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

fn main() {
    let opts = HarnessOpts::from_args(std::env::args().skip(1));
    let n_nodes = opts.scaled(40, 16);

    // The churn experiment's federation: a third of the fleet holds the
    // resource, and the tree is warm.
    let params = ChurnParams {
        nodes: n_nodes,
        frac: 0.0,
        epochs: 0,
        seed: opts.seed,
    };
    let st = ChurnState::with_setup(&params, |fed| {
        fed.enable_obs(1 << 16);
    });
    let rec = st.fed.recorder().clone();
    let ChurnState {
        mut fed,
        topic,
        holders,
        mut rng,
        ..
    } = st;
    let key = topic.key().as_u128();

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
    // process restores from disk under a *stricter* lint policy — for
    // each member it packs, this is exactly what `rbay-node --data-dir`
    // does.
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
        let store = Rc::new(RefCell::new(store));
        node.host
            .attach_journal(Rc::clone(&store), DurableState::default());
        node.host
            .install_node_aa("AA = { onGte = function(q) return true end }")
            .expect("installs under Warn");
        node.host.post_resource("GPU", AttrValue::Bool(true));
        node.host
            .update_attr("CPU_utilization", AttrValue::Num(35.0));
        store.borrow_mut().set_snapshot_thresholds(4, u64::MAX);
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
        let (store, mut report) = Store::open(&dir, FsyncPolicy::Never).expect("reopen store");
        let state = report.members.remove(&revived.host.addr);
        revived
            .host
            .attach_journal(Rc::new(RefCell::new(store)), state.unwrap_or_default());
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
        let host = &revived.host;
        println!(
            "  => restored {} attr(s), {} handler(s), {} quarantined: {:?}",
            host.attrs.len(),
            host.attr_aas.len() + usize::from(host.node_aa.is_some()),
            host.quarantined.len(),
            host.quarantined
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
