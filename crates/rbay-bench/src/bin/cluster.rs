//! `cluster` — spawns a local RBAY federation as real OS processes and
//! runs end-to-end queries through it.
//!
//! The harness launches `--agents` federation members packed
//! `--agents-per-proc` to an `rbay-node` daemon (so
//! `--agents 16000 --agents-per-proc 100` is 160 OS processes on
//! loopback TCP), waits for the Pastry overlay to converge, posts
//! `GPU = true` on evenly spaced members (~1% of the fleet, floor `k+1`,
//! with the password `onGet` guard installed, so AAScript runs
//! in-process too), waits for
//! the aggregation trees to attach, then issues
//! `SELECT k FROM * WHERE GPU = true` from the last member and verifies
//! that `k` candidates were found **and committed** on the holders. A
//! final throughput phase runs `--qps-queries` back-to-back queries
//! (releasing reservations between them) to measure queries/sec.
//!
//! Exit status 0 only on a fully verified run — CI's cluster jobs run
//! exactly this binary and judge nothing themselves. A packed run
//! (`--agents-per-proc > 1`) also fails when the fleet dropped more
//! than [`DROPPED_FRAME_BUDGET`] frames. With `--json` the run prints a
//! `{"bench": "cluster", agents, agents_per_proc, converge_ms,
//! queries_per_sec, dropped_frames, ...}` line on stdout.
//!
//! With `--rolling-restart` the harness then restarts every daemon once,
//! one process at a time, while closed-loop queries keep running: the
//! daemons journal to `--data-dir` (a fresh temp directory by default)
//! and the run fails if any committed query is lost across a restart,
//! the restart-window success rate drops below 0.95, or no restart
//! replayed a WAL record. With `--json` the restart phase prints a
//! second line, `{"bench": "rolling_restart", committed_query_loss,
//! success_rate, restart_window_p99_ms, replay_records, ...}`.
//!
//! ```text
//! cluster [--agents 5] [--agents-per-proc 1] [--k 3] [--base-port 21100]
//!         [--num-sites 1] [--tick-ms <ms>] [--qps-queries 10]
//!         [--rolling-restart] [--restart-queries 3] [--data-dir <dir>] [--json]
//! ```

use rbay_bench::cluster::{
    proc_of, proc_sock, site_of, to, Ctrl, CtrlMsg, Daemon, DEFAULT_BASE_PORT,
};
use rbay_bench::{flag_value, JsonRecord};
use rbay_core::{Candidate, FrontdoorStats};
use rbay_store::StoreStats;
use rbay_wire::DropStats;
use rbay_workloads::{password_aa_script, WORKLOAD_PASSWORD};
use simnet::NodeAddr;
use std::process::Command;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Frames the whole fleet may drop on a packed run. The transport
/// retries connects and stages frames, so a sustained drop count signals
/// a regression in the event-loop bus.
const DROPPED_FRAME_BUDGET: u64 = 10;

struct Args {
    agents: u32,
    per: u32,
    k: usize,
    base_port: u16,
    num_sites: u16,
    tick_ms: u64,
    qps_queries: u32,
    json: bool,
    frontdoor: bool,
    fd_max_pending: u32,
    rolling_restart: bool,
    restart_queries: u32,
    data_dir: Option<std::path::PathBuf>,
}

fn parse_args() -> Args {
    let mut args = Args {
        agents: 5,
        per: 1,
        k: 3,
        base_port: DEFAULT_BASE_PORT,
        num_sites: 1,
        tick_ms: 0, // 0 = pick by scale below
        qps_queries: 10,
        json: false,
        frontdoor: false,
        fd_max_pending: 2,
        rolling_restart: false,
        restart_queries: 3,
        data_dir: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--agents" => args.agents = flag_value(&argv, i),
            "--agents-per-proc" => args.per = flag_value(&argv, i),
            "--k" => args.k = flag_value(&argv, i),
            "--base-port" => args.base_port = flag_value(&argv, i),
            "--num-sites" => args.num_sites = flag_value(&argv, i),
            "--tick-ms" => args.tick_ms = flag_value(&argv, i),
            "--qps-queries" => args.qps_queries = flag_value(&argv, i),
            "--fd-max-pending" => args.fd_max_pending = flag_value(&argv, i),
            "--restart-queries" => args.restart_queries = flag_value(&argv, i),
            "--data-dir" => {
                args.data_dir = Some(std::path::PathBuf::from(flag_value::<String>(&argv, i)))
            }
            "--json" => {
                args.json = true;
                i += 1;
                continue;
            }
            "--frontdoor" => {
                args.frontdoor = true;
                i += 1;
                continue;
            }
            "--rolling-restart" => {
                args.rolling_restart = true;
                i += 1;
                continue;
            }
            other => {
                eprintln!(
                    "unknown flag {other}\nusage: cluster [--agents <n>] [--agents-per-proc <m>] \
                     [--k <k>] [--base-port <p>] [--num-sites <s>] [--tick-ms <ms>] \
                     [--qps-queries <q>] [--frontdoor] [--fd-max-pending <n>] \
                     [--rolling-restart] [--restart-queries <q>] [--data-dir <dir>] [--json]"
                );
                std::process::exit(2);
            }
        }
        i += 2;
    }
    if args.agents < 2 || args.k + 1 >= args.agents as usize {
        eprintln!("need --agents >= 2 and --k + 1 < --agents (k holders plus a querier)");
        std::process::exit(2);
    }
    if args.per == 0 {
        eprintln!("--agents-per-proc must be >= 1");
        std::process::exit(2);
    }
    if args.tick_ms == 0 {
        // Big fleets tick slower: maintenance is O(members) per tick and
        // convergence is gated on join retries, not tick frequency.
        args.tick_ms = if args.agents >= 2000 { 500 } else { 150 };
    }
    if args.rolling_restart {
        if args.agents.div_ceil(args.per) < 2 {
            eprintln!("--rolling-restart needs at least 2 daemon processes");
            std::process::exit(2);
        }
        // Zero-loss restarts require durable members; default to a fresh
        // per-run directory when the operator did not name one.
        if args.data_dir.is_none() {
            args.data_dir =
                Some(std::env::temp_dir().join(format!("rbay-cluster-{}", std::process::id())));
        }
    }
    if let Some(dir) = &args.data_dir {
        let _ = std::fs::remove_dir_all(dir);
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create --data-dir {}: {e}", dir.display());
            std::process::exit(2);
        }
    }
    args
}

/// The spawned daemons. Global so [`fail`] can kill them before
/// `exit(1)` — `std::process::exit` runs no destructors, and a leaked
/// 160-process fleet keeps squatting on the port range.
static FLEET: Mutex<Vec<Daemon>> = Mutex::new(Vec::new());

/// Kills and reaps every spawned daemon.
fn kill_fleet() {
    if let Ok(mut daemons) = FLEET.lock() {
        daemons.clear();
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("cluster: FAIL: {msg}");
    kill_fleet();
    std::process::exit(1);
}

/// Launches daemon process `i` with the run's flags. Used for the
/// initial fleet and again by the rolling-restart phase, so a respawned
/// daemon comes back with exactly the configuration (and `--data-dir`)
/// it died with.
fn spawn_daemon(daemon: &std::path::Path, args: &Args, i: u32) -> Daemon {
    let mut cmd = Command::new(daemon);
    cmd.args(["--index", &i.to_string()])
        .args(["--agents", &args.agents.to_string()])
        .args(["--agents-per-proc", &args.per.to_string()])
        .args(["--base-port", &args.base_port.to_string()])
        .args(["--num-sites", &args.num_sites.to_string()])
        .args(["--tick-ms", &args.tick_ms.to_string()]);
    if args.frontdoor {
        cmd.arg("--frontdoor");
    }
    if let Some(dir) = &args.data_dir {
        cmd.arg("--data-dir").arg(dir);
        // Benchmark runs journal without per-append fsync: process kills
        // (the durability model here) never lose page-cache writes.
        cmd.args(["--fsync", "never"]);
    }
    Daemon(
        cmd.spawn()
            .unwrap_or_else(|e| fail(&format!("spawn daemon {i}: {e}"))),
    )
}

/// The dropped-frame gate: a packed run must be essentially loss-free.
fn frame_budget(drops: &DropStats, packed: bool) -> Result<(), String> {
    if packed && drops.total() > DROPPED_FRAME_BUDGET {
        return Err(format!(
            "{} frame(s) dropped fleet-wide, budget {DROPPED_FRAME_BUDGET}: {drops:?}",
            drops.total()
        ));
    }
    Ok(())
}

fn main() {
    let args = parse_args();
    let procs = args.agents.div_ceil(args.per);
    let daemon = std::env::current_exe()
        .expect("own path")
        .with_file_name("rbay-node");
    if !daemon.exists() {
        fail(&format!("daemon binary not found at {}", daemon.display()));
    }

    println!(
        "cluster: spawning {} member(s) across {} process(es) (x{} packed, base port {}, \
         {} site(s), tick {}ms)",
        args.agents, procs, args.per, args.base_port, args.num_sites, args.tick_ms
    );
    let spawn_start = Instant::now();
    for i in 0..procs {
        let child = spawn_daemon(&daemon, &args, i);
        FLEET.lock().unwrap().push(child);
    }

    // Control connections to every daemon. On a loaded single-core host
    // a 160-process fleet takes a while to get everyone listening.
    let deadline = Instant::now() + Duration::from_secs(30 + procs as u64);
    let mut ctrls: Vec<Ctrl> = (0..procs)
        .map(|i| {
            Ctrl::connect(proc_sock(args.base_port, i), deadline)
                .unwrap_or_else(|e| fail(&format!("ctrl connect to daemon {i}: {e}")))
        })
        .collect();

    // Phase 1: overlay convergence — every member joined. Small runs keep
    // the stricter full-membership check (Pastry state is O(log n), so at
    // scale a member legitimately knows only a fraction of its peers).
    let strict_peers = args.agents <= 32;
    let converge_budget = Duration::from_secs(120 + args.agents as u64 / 20);
    wait_until(converge_budget, "overlay convergence", || {
        let mut joined = 0;
        let mut min_peers = u32::MAX;
        let mut dropped = 0u64;
        for reply in proc_statuses(&mut ctrls) {
            joined += reply.joined;
            min_peers = min_peers.min(reply.min_known_peers);
            dropped += reply.dropped_frames;
        }
        println!(
            "cluster: {} of {} members joined (min known peers {}, {} dropped)",
            joined,
            args.agents,
            if min_peers == u32::MAX { 0 } else { min_peers },
            dropped
        );
        joined == args.agents && (!strict_peers || min_peers >= args.agents - 1)
    });
    let converge_ms = spawn_start.elapsed().as_secs_f64() * 1e3;
    println!("cluster: overlay converged in {converge_ms:.0} ms");

    // Front door: enable the cache on every gateway (each site's three
    // lowest members — the layout build_node computes on every daemon).
    let mut gateways: Vec<NodeAddr> = Vec::new();
    if args.frontdoor {
        let mut per_site = vec![0u32; args.num_sites as usize];
        for i in 0..args.agents {
            let s = site_of(i, args.agents, args.num_sites).0 as usize;
            if per_site[s] < 3 {
                per_site[s] += 1;
                gateways.push(NodeAddr(i));
            }
        }
        for &g in &gateways {
            let enable = CtrlMsg::EnableFrontdoor {
                ttl_ms: 600_000,
                capacity: 1024,
                max_pending: args.fd_max_pending,
            };
            expect_ok(&mut ctrls, &args, g, "enable frontdoor", enable);
        }
        println!(
            "cluster: front door enabled on {} gateway(s): {gateways:?}",
            gateways.len()
        );
    }

    // Phase 2: evenly spaced holders post the resource behind the
    // password guard. Inventory scales with the fleet (~1% of members,
    // floor k+1) so queries never hinge on a handful of tree paths — at
    // rolling-restart scale a single downed process must not take every
    // holder's subtree with it.
    let holder_count = (args.k as u32 + 1).max(args.agents / 100);
    let holders: Vec<NodeAddr> = (0..holder_count)
        .map(|i| NodeAddr(i * args.agents / holder_count))
        .collect();
    for &h in &holders {
        let install = CtrlMsg::InstallNodeAa {
            src: password_aa_script(),
        };
        expect_ok(&mut ctrls, &args, h, "install AA", install);
        expect_ok(&mut ctrls, &args, h, "post", post_gpu(true));
    }
    println!(
        "cluster: posted GPU=true on {} members: {holders:?}",
        holders.len()
    );

    // Phase 3: every holder attached to its aggregation tree.
    wait_until(Duration::from_secs(120), "tree attachment", || {
        let mut attached = 0;
        for &h in &holders {
            let ctrl = &mut ctrls[proc_of(h, args.per) as usize];
            match ctrl.request(&to(h, CtrlMsg::Status), Duration::from_secs(10)) {
                Ok(CtrlMsg::StatusReply { attached: a, .. }) if a >= 1 => attached += 1,
                Ok(CtrlMsg::StatusReply { .. }) => {}
                other => fail(&format!("status from member {h:?}: {other:?}")),
            }
        }
        println!(
            "cluster: {attached} of {} holders attached to the tree",
            holders.len()
        );
        attached == holders.len()
    });

    // Phase 4: the last member runs the query; retry while trees settle.
    let querier = NodeAddr(args.agents - 1);
    let results = run_query(&mut ctrls, &args, querier, 5)
        .unwrap_or_else(|| fail(&format!("query never committed {} results", args.k)));
    println!("cluster: query satisfied with {} result(s):", results.len());
    for c in &results {
        println!("  node {:?} at {:?} (site {:?})", c.id, c.addr, c.site);
    }

    // Phase 5: the commits really landed on the chosen members. The
    // QueryDone reply races the commit messages still in flight to the
    // holders, so poll rather than check once.
    wait_until(Duration::from_secs(30), "commit verification", || {
        let mut committed = 0;
        for c in &results {
            let ctrl = &mut ctrls[proc_of(c.addr, args.per) as usize];
            match ctrl.request(&to(c.addr, CtrlMsg::Status), Duration::from_secs(10)) {
                Ok(CtrlMsg::StatusReply { committed: n, .. }) if n >= 1 => committed += 1,
                Ok(_) => {}
                Err(e) => fail(&format!("status from member {:?}: {e}", c.addr)),
            }
        }
        println!(
            "cluster: {committed} of {} commits verified on the chosen members",
            results.len()
        );
        committed == results.len()
    });
    release_results(&mut ctrls, &args, &results);

    // Phase 6: query throughput — back-to-back queries from the same
    // member, releasing each round's reservations so inventory is not
    // depleted.
    let mut queries_per_sec = 0.0;
    if args.qps_queries > 0 {
        let qps_start = Instant::now();
        let mut satisfied = 0u32;
        for _ in 0..args.qps_queries {
            match run_query(&mut ctrls, &args, querier, 3) {
                Some(results) => {
                    satisfied += 1;
                    release_results(&mut ctrls, &args, &results);
                }
                None => fail("throughput query never satisfied"),
            }
        }
        queries_per_sec = satisfied as f64 / qps_start.elapsed().as_secs_f64();
        println!(
            "cluster: {} queries in {:.2} s -> {:.2} queries/sec",
            satisfied,
            qps_start.elapsed().as_secs_f64(),
            queries_per_sec
        );
    }

    // Phase 7 (with --frontdoor): cache hits under repetition, zero stale
    // reads after the invalidation multicast, and shedding under a burst.
    let mut stale_reads = 0u64;
    if args.frontdoor {
        // A gateway that holds no inventory, so its queries walk the tree.
        let gateway = gateways
            .iter()
            .copied()
            .find(|g| !holders.contains(g))
            .unwrap_or(gateways[0]);

        // 7a: the same query repeated through the gateway front door. The
        // first walk fills the cache; repeats must produce hits.
        let warm = run_query(&mut ctrls, &args, gateway, 5)
            .unwrap_or_else(|| fail("frontdoor warmup query never satisfied"));
        release_results(&mut ctrls, &args, &warm);
        for _ in 0..8 {
            let cached = run_query(&mut ctrls, &args, gateway, 3)
                .unwrap_or_else(|| fail("repeat query through the front door"));
            release_results(&mut ctrls, &args, &cached);
        }
        let (fd, _, _) = fleet_stats(&mut ctrls);
        println!(
            "cluster: front door warm: {} hit(s), {} miss(es), {} coalesced",
            fd.hits, fd.misses, fd.coalesced
        );
        if fd.hits == 0 {
            fail("no cache hits after repeating an identical query");
        }

        // 7b: flip one holder's attribute; the invalidation multicast must
        // purge the cached entry and the next query must re-walk.
        let flipped = holders[0];
        let misses_before = fd.misses;
        expect_ok(&mut ctrls, &args, flipped, "flip GPU", post_gpu(false));
        wait_until(Duration::from_secs(60), "invalidation multicast", || {
            let (fd, _, _) = fleet_stats(&mut ctrls);
            println!("cluster: {} invalidation(s) observed", fd.invalidations);
            fd.invalidations > 0
        });
        let fresh = run_query(&mut ctrls, &args, gateway, 5)
            .unwrap_or_else(|| fail("post-invalidation query never satisfied"));
        if fresh.iter().any(|c| c.addr == flipped) {
            stale_reads += 1;
        }
        let (fd, _, _) = fleet_stats(&mut ctrls);
        if fd.misses <= misses_before {
            stale_reads += 1; // served from cache instead of re-walking
        }
        release_results(&mut ctrls, &args, &fresh);
        if stale_reads > 0 {
            fail("stale result served after invalidation");
        }
        println!("cluster: zero stale reads after invalidation (fresh walk excluded {flipped:?})");

        // 7c: a burst of distinct queries beyond the admission bound must
        // shed with retry-after rather than queue without limit.
        let burst = args.fd_max_pending + 6;
        let mut shed = 0u64;
        'rounds: for round in 0..3 {
            let ctrl = &mut ctrls[proc_of(gateway, args.per) as usize];
            for i in 0..burst {
                let zql = format!("SELECT 1 FROM * WHERE fdshed_r{round}_q{i} = true");
                ctrl.send(&to(
                    gateway,
                    CtrlMsg::IssueQuery {
                        zql,
                        password: None,
                    },
                ))
                .unwrap_or_else(|e| fail(&format!("burst send: {e}")));
            }
            for _ in 0..burst {
                match ctrl.recv(Duration::from_secs(90)) {
                    Ok(CtrlMsg::QueryShed { .. }) => shed += 1,
                    Ok(CtrlMsg::QueryDone { .. }) => {}
                    Ok(other) => fail(&format!("burst reply: {other:?}")),
                    Err(e) => fail(&format!("burst reply: {e}")),
                }
            }
            println!("cluster: burst round {round}: {shed} shed so far");
            if shed > 0 {
                break 'rounds;
            }
        }
        if shed == 0 {
            fail("admission control never shed under a query burst");
        }
    }

    // Phase 8 (with --rolling-restart): restart every daemon once, one at
    // a time, under closed-loop query load. Two gates: no query commit
    // observed durable before a restart may vanish after it
    // (committed_query_loss == 0), and the query plane must keep
    // answering through the restart windows (success rate >= 0.95).
    let mut restart_window_p99_ms = 0.0;
    let mut restart_success_rate = 1.0;
    let mut committed_query_loss = 0u64;
    let mut restart_issued = 0u32;
    let mut restart_satisfied = 0u32;
    if args.rolling_restart {
        let base = proc_committed(&mut ctrls);
        let mut add = vec![0u64; procs as usize];
        let mut lat_ms: Vec<f64> = Vec::new();
        for p in 0..procs {
            println!("cluster: rolling restart: daemon {p}");
            match ctrls[p as usize].request(&CtrlMsg::Shutdown, Duration::from_secs(10)) {
                Ok(CtrlMsg::Ok) => {}
                other => println!("cluster: graceful shutdown of daemon {p}: {other:?}"),
            }
            // Reap the old process (bounded: a daemon that ignores the
            // graceful path gets killed — the WAL must cover that too).
            let reap_deadline = Instant::now() + Duration::from_secs(10);
            loop {
                let mut fleet = FLEET.lock().unwrap();
                match fleet[p as usize].0.try_wait() {
                    Ok(None) if Instant::now() < reap_deadline => {
                        drop(fleet);
                        std::thread::sleep(Duration::from_millis(50));
                    }
                    // Exited, or out of patience: replacing the slot
                    // below kills and reaps whatever is left.
                    _ => break,
                }
            }
            FLEET.lock().unwrap()[p as usize] = spawn_daemon(&daemon, &args, p);
            ctrls[p as usize] = Ctrl::connect(
                proc_sock(args.base_port, p),
                Instant::now() + Duration::from_secs(30),
            )
            .unwrap_or_else(|e| fail(&format!("reconnect daemon {p}: {e}")));

            // Closed-loop load through the restart window, issued from a
            // member hosted elsewhere so the querier itself is up.
            let window_querier = if proc_of(querier, args.per) == p {
                NodeAddr(0)
            } else {
                querier
            };
            // Closed-loop clients keep retrying through the repair; the
            // attempt budget (~30 s) covers failure detection plus tree
            // re-convergence after 1/procs of the fleet departs at once,
            // and the recorded latency charges the full wait to p99.
            for _ in 0..args.restart_queries {
                restart_issued += 1;
                let t0 = Instant::now();
                match run_query(&mut ctrls, &args, window_querier, 10) {
                    Some(rs) => {
                        restart_satisfied += 1;
                        lat_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                        for c in &rs {
                            add[proc_of(c.addr, args.per) as usize] += 1;
                        }
                        // The QueryDone ack races the commit messages
                        // still in flight; wait for the ledger to land
                        // before holding the fleet to it.
                        wait_until(Duration::from_secs(30), "restart-phase commits", || {
                            let actual = proc_committed(&mut ctrls);
                            (0..procs as usize).all(|i| actual[i] >= base[i] + add[i])
                        });
                        release_results(&mut ctrls, &args, &rs);
                    }
                    None => {
                        lat_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                        println!("cluster: restart-window query unsatisfied after retries");
                    }
                }
            }
            // Full strength before taking the next daemon down.
            wait_until(converge_budget, "post-restart re-convergence", || {
                let joined: u32 = proc_statuses(&mut ctrls).iter().map(|r| r.joined).sum();
                println!("cluster: {} of {} members re-joined", joined, args.agents);
                joined == args.agents
            });
        }
        let actual = proc_committed(&mut ctrls);
        committed_query_loss = (0..procs as usize)
            .map(|i| (base[i] + add[i]).saturating_sub(actual[i]))
            .sum();
        restart_success_rate = f64::from(restart_satisfied) / f64::from(restart_issued.max(1));
        lat_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        if !lat_ms.is_empty() {
            let idx = ((lat_ms.len() as f64 * 0.99).ceil() as usize).clamp(1, lat_ms.len()) - 1;
            restart_window_p99_ms = lat_ms[idx];
        }
        println!(
            "cluster: rolling restart: {} restart(s), {} of {} window queries satisfied, \
             committed-query loss {}, window p99 {:.0} ms",
            procs, restart_satisfied, restart_issued, committed_query_loss, restart_window_p99_ms
        );
        if committed_query_loss > 0 {
            fail(&format!(
                "{committed_query_loss} committed quer(ies) lost across rolling restarts"
            ));
        }
        if restart_success_rate < 0.95 {
            fail(&format!(
                "restart-window success rate {restart_success_rate:.2} below 0.95"
            ));
        }
    }

    // Final sweep: frames dropped anywhere in the fleet, by cause, plus
    // fleet-wide front-door and durable-store counters.
    let (fd, drops, store) = fleet_stats(&mut ctrls);
    let dropped_frames = drops.total();
    println!(
        "cluster: {dropped_frames} frame(s) dropped fleet-wide \
         (staging full {}, write cap {}, connect exhausted {}, conn closed {}, unresolvable {})",
        drops.outbound_full,
        drops.write_cap,
        drops.connect_exhausted,
        drops.conn_closed,
        drops.unresolvable
    );
    if args.frontdoor {
        println!(
            "cluster: front door totals: {} hit(s), {} miss(es), {} coalesced, {} shed, \
             {} invalidation(s), {} stale read(s)",
            fd.hits, fd.misses, fd.coalesced, fd.shed, fd.invalidations, stale_reads
        );
    }
    if args.data_dir.is_some() {
        println!(
            "cluster: durable store totals: {} append(s), {} dedup skip(s), {} snapshot(s), \
             {} record(s) replayed in {} us, {} re-lint reject(s)",
            store.appends,
            store.dedup_skips,
            store.snapshots,
            store.replay_records,
            store.replay_micros,
            store.relint_rejects
        );
    }
    if let Err(e) = frame_budget(&drops, args.per > 1) {
        fail(&e);
    }
    if args.rolling_restart && store.replay_records == 0 {
        fail("rolling restart replayed no WAL record");
    }
    let run_s = spawn_start.elapsed().as_secs_f64();

    for (i, ctrl) in ctrls.iter_mut().enumerate() {
        if let Err(e) = ctrl.request(&CtrlMsg::Shutdown, Duration::from_secs(5)) {
            eprintln!("cluster: shutdown daemon {i}: {e}");
        }
    }
    kill_fleet();

    if args.json {
        let mut rec = JsonRecord::new("cluster")
            .int("agents", args.agents as u64)
            .int("agents_per_proc", args.per as u64)
            .int("num_sites", args.num_sites as u64)
            .int("k", args.k as u64)
            .int("tick_ms", args.tick_ms)
            .int("qps_queries", args.qps_queries as u64)
            .text("query_mix", "SELECT k FROM * WHERE GPU = true")
            .int("warmup_queries", 1)
            .num("run_s", run_s)
            .num("converge_ms", converge_ms)
            .num("queries_per_sec", queries_per_sec)
            .int("dropped_frames", dropped_frames)
            .int("drop_outbound_full", drops.outbound_full)
            .int("drop_write_cap", drops.write_cap)
            .int("drop_connect_exhausted", drops.connect_exhausted)
            .int("drop_conn_closed", drops.conn_closed)
            .int("drop_unresolvable", drops.unresolvable)
            .int("frontdoor", args.frontdoor as u64);
        if args.frontdoor {
            rec = rec
                .int("fd_hits", fd.hits)
                .int("fd_misses", fd.misses)
                .int("fd_coalesced", fd.coalesced)
                .int("fd_shed", fd.shed)
                .int("fd_invalidations", fd.invalidations)
                .int("stale_reads", stale_reads);
        }
        rec.emit();
    }
    if args.json && args.rolling_restart {
        JsonRecord::new("rolling_restart")
            .int("agents", args.agents as u64)
            .int("agents_per_proc", args.per as u64)
            .int("procs", procs as u64)
            .int("restarts", procs as u64)
            .int("window_queries", restart_issued as u64)
            .int("window_satisfied", restart_satisfied as u64)
            .num("success_rate", restart_success_rate)
            .int("committed_query_loss", committed_query_loss)
            .num("restart_window_p99_ms", restart_window_p99_ms)
            .int("replay_records", store.replay_records)
            .int("replay_micros", store.replay_micros)
            .int("wal_appends", store.appends)
            .int("snapshots", store.snapshots)
            .int("relint_rejects", store.relint_rejects)
            .emit();
    }
    println!("cluster: PASS");
}

/// Issues `SELECT k FROM * WHERE GPU = true` from `querier` with up to
/// `attempts` retries; returns the committed candidates on success.
fn run_query(
    ctrls: &mut [Ctrl],
    args: &Args,
    querier: NodeAddr,
    attempts: u32,
) -> Option<Vec<Candidate>> {
    let zql = format!("SELECT {} FROM * WHERE GPU = true", args.k);
    let proc = proc_of(querier, args.per) as usize;
    for attempt in 1..=attempts {
        println!("cluster: issuing `{zql}` from member {querier:?} (attempt {attempt})");
        let res = ctrls[proc].request(
            &to(
                querier,
                CtrlMsg::IssueQuery {
                    zql: zql.clone(),
                    password: Some(WORKLOAD_PASSWORD.into()),
                },
            ),
            Duration::from_secs(90),
        );
        match res {
            Ok(CtrlMsg::QueryDone {
                satisfied,
                results,
                unknown_sites,
            }) => {
                if !unknown_sites.is_empty() {
                    fail(&format!("unexpected unknown sites: {unknown_sites:?}"));
                }
                if satisfied && results.len() == args.k {
                    return Some(results);
                }
                println!(
                    "cluster: attempt {attempt}: satisfied={satisfied}, {} result(s); retrying",
                    results.len()
                );
            }
            Ok(other) => fail(&format!("query answer: {other:?}")),
            Err(e) => {
                println!("cluster: attempt {attempt}: {e}; reconnecting");
                ctrls[proc] = Ctrl::connect(
                    proc_sock(args.base_port, proc as u32),
                    Instant::now() + Duration::from_secs(10),
                )
                .unwrap_or_else(|e| fail(&format!("reconnect: {e}")));
            }
        }
        std::thread::sleep(Duration::from_secs(1));
    }
    None
}

/// What the harness reads of one daemon's `ProcStatusReply`.
struct ProcReport {
    joined: u32,
    committed: u64,
    min_known_peers: u32,
    dropped_frames: u64,
    drops: DropStats,
    frontdoor: FrontdoorStats,
    store: StoreStats,
}

/// One `ProcStatus` sweep: every daemon's answer, in process order.
fn proc_statuses(ctrls: &mut [Ctrl]) -> Vec<ProcReport> {
    let sweep = ctrls.iter_mut().enumerate().map(|(i, ctrl)| {
        match ctrl.request(&CtrlMsg::ProcStatus, Duration::from_secs(10)) {
            Ok(CtrlMsg::ProcStatusReply {
                joined,
                committed,
                min_known_peers,
                dropped_frames,
                drops,
                frontdoor,
                store,
                ..
            }) => ProcReport {
                joined,
                committed: committed as u64,
                min_known_peers,
                dropped_frames,
                drops,
                frontdoor,
                store,
            },
            other => fail(&format!("proc status from daemon {i}: {other:?}")),
        }
    });
    sweep.collect()
}

/// Front-door, per-cause drop, and durable-store counters fleet-wide.
fn fleet_stats(ctrls: &mut [Ctrl]) -> (FrontdoorStats, DropStats, StoreStats) {
    let mut fd = FrontdoorStats::default();
    let mut drops = DropStats::default();
    let mut store = StoreStats::default();
    for reply in proc_statuses(ctrls) {
        drops.merge(&reply.drops);
        fd.merge(&reply.frontdoor);
        store.merge(&reply.store);
    }
    (fd, drops, store)
}

/// Every daemon's process-level committed-query counter (the
/// rolling-restart phase's durability ledger).
fn proc_committed(ctrls: &mut [Ctrl]) -> Vec<u64> {
    let sweep = proc_statuses(ctrls);
    sweep.iter().map(|r| r.committed).collect()
}

/// Clears the reservation each committed candidate holds, so the next
/// query finds free inventory again.
fn release_results(ctrls: &mut [Ctrl], args: &Args, results: &[Candidate]) {
    for c in results {
        expect_ok(ctrls, args, c.addr, "release", CtrlMsg::Release);
    }
}

/// The request posting (or withdrawing) the resource every query asks for.
fn post_gpu(value: bool) -> CtrlMsg {
    CtrlMsg::Post {
        attr: "GPU".into(),
        value: rbay_query::AttrValue::Bool(value),
    }
}

/// Sends `msg` to `member` through its daemon and fails the run unless
/// the daemon acknowledges it.
fn expect_ok(ctrls: &mut [Ctrl], args: &Args, member: NodeAddr, what: &str, msg: CtrlMsg) {
    let ctrl = &mut ctrls[proc_of(member, args.per) as usize];
    match ctrl.request(&to(member, msg), Duration::from_secs(10)) {
        Ok(CtrlMsg::Ok) => {}
        other => fail(&format!("{what} on member {member:?}: {other:?}")),
    }
}

/// Polls `check` (roughly twice a second) until it returns true, failing
/// the run after `timeout`.
fn wait_until(timeout: Duration, what: &str, mut check: impl FnMut() -> bool) {
    let deadline = Instant::now() + timeout;
    loop {
        if check() {
            return;
        }
        if Instant::now() >= deadline {
            fail(&format!("timed out waiting for {what}"));
        }
        std::thread::sleep(Duration::from_millis(500));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_budget_holds_packed_runs_to_ten_drops() {
        let drops = |n| DropStats {
            conn_closed: n,
            ..DropStats::default()
        };
        assert!(frame_budget(&drops(10), true).is_ok());
        assert!(frame_budget(&drops(11), true).is_err());
        assert!(
            frame_budget(&drops(11), false).is_ok(),
            "unpacked: no budget"
        );
    }
}
