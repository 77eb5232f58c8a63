//! `tcp_pack`: the real-socket path — two `rbay-node` daemons, 500 agents
//! each, loopback TCP, every commit and release journalled.
//!
//! Eight trees (`res0 … res7 = true`) with exactly k+1 = 4 holders each,
//! two per process, so every `SELECT 3` must cross the process boundary:
//! the `rbay-wire` codec, `TcpBus`, `Pack` loopback and demux, the ctrl
//! protocol and the `rbay-store` WAL are all on the path, which no
//! simulator workload exercises. One closed-loop client drives the two
//! ctrl connections. An operation is `IssueQuery → QueryDone` (the latency
//! sample), then a `Status` round-trip per chosen holder proving the commit
//! landed, then the `Release` round-trips; all of it counts toward
//! throughput. Traffic crosses the host's loopback interface, not a link;
//! `msgs_per_query`, `bytes_per_query` and `idle_bytes_per_node_round` are
//! that interface's packet and byte counters (ctrl traffic, TCP/IP headers
//! and ACKs included), since the daemons report no message counts.

use crate::harness::{self, TRACE_LAPS};
use crate::json::Value;
use crate::procfs::{self, Proc};
use crate::report::{Outcome, RunCfg};
use crate::trace::Tracer;
use rbay_bench::cluster::{proc_of, proc_sock, CtrlMsg};
use rbay_core::Candidate;
use rbay_query::AttrValue;
use rbay_wire::{decode_frame, encode_frame, read_frame, write_frame, DropStats, Hello};
use rbay_workloads::{password_aa_script, WORKLOAD_PASSWORD};
use simnet::NodeAddr;
use std::collections::{BTreeSet, HashMap};
use std::io;
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Federation members.
pub const AGENTS: u32 = 1_000;
/// Members per daemon process.
pub const PER_PROC: u32 = 500;
/// Daemon tick.
pub const TICK_MS: u64 = 150;
/// Resource trees.
pub const TREES: u32 = 8;
/// Nodes each query asks for.
pub const K: usize = 3;
/// Holders per tree: k+1, so a query needs holders of both processes.
pub const HOLDERS_PER_TREE: u32 = K as u32 + 1;
/// Set-up attempts to get one committed query out of a tree.
pub const VERIFY_ATTEMPTS: u32 = 10;
/// Seconds of load before the first timed lap. The daemons slow down by
/// about half during their first five seconds under load — every query
/// arms a 5 s timeout, and the main loop scans all armed timers — and are
/// steady after that; laps measure the steady state.
pub const STEADY_S: f64 = 5.5;
/// Quiet maintenance sweeps watched after the traced lap. A sweep is ten
/// ticks: the daemon maintains a tenth of its members per tick.
pub const IDLE_SWEEPS: usize = 4;
/// Seconds one sweep takes.
pub const SWEEP_S: f64 = TICK_MS as f64 * 10.0 / 1e3;
/// Operations per lap, frozen: about a quarter second on the reference host.
pub const OPS_PER_LAP: usize = 375;
/// Longest wait for any single ctrl reply.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);
/// Seconds into a run after which no further boot is started. A boot that
/// fails, or whose overlay fails an operation during the warm-up laps, is
/// thrown away and replaced for as long as this allows; a usual run takes
/// under a minute, the driver allows three.
const BOOT_BUDGET_S: f64 = 110.0;
/// Longest a boot waits for the daemons to accept ctrl connections, for
/// every member to join, and for every holder to attach: several times
/// what each takes on the reference host (a whole boot takes 6 s there).
const CONNECT_TIMEOUT: Duration = Duration::from_secs(10);
const JOIN_TIMEOUT: Duration = Duration::from_secs(40);
const ATTACH_TIMEOUT: Duration = Duration::from_secs(20);

fn procs() -> u32 {
    AGENTS.div_ceil(PER_PROC)
}

/// Holder `j` of tree `i`: spaced a quarter of the fleet apart, so two
/// live in each process, and offset per tree, so trees share no holder.
pub fn holder(tree: u32, j: u32) -> NodeAddr {
    NodeAddr(j * (AGENTS / HOLDERS_PER_TREE) + 20 + tree * 25)
}

/// The member that issues query `n`.
pub fn querier(n: u64) -> NodeAddr {
    NodeAddr(((37 * n + 5) % u64::from(AGENTS)) as u32)
}

fn daemon_path() -> io::Result<PathBuf> {
    Ok(std::env::current_exe()?.with_file_name("rbay-node"))
}

/// Builds the `rbay-node` binary of this package next to the running
/// `bench` binary. `cargo run` builds only the binary it runs, so the
/// benchmark asks for the daemon itself; when it is fresh this takes a
/// fraction of a second.
pub fn ensure_daemon_built() -> Result<(), String> {
    // `cargo run` exports the path of the cargo that is running us.
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let mut cmd = Command::new(cargo);
    cmd.args(["build", "--offline", "--quiet", "--bin", "rbay-node"])
        .arg("--manifest-path")
        .arg(concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml"));
    if !cfg!(debug_assertions) {
        cmd.arg("--release");
    }
    let status = cmd
        .status()
        .map_err(|e| format!("cannot run cargo to build rbay-node: {e}"))?;
    let path = daemon_path().map_err(|e| e.to_string())?;
    if !status.success() || !path.exists() {
        return Err(format!(
            "building rbay-node failed ({status}); expected it at {}",
            path.display()
        ));
    }
    Ok(())
}

/// One control connection to a daemon.
struct Ctrl {
    stream: TcpStream,
}

impl Ctrl {
    fn connect(port: u16, proc: u32, deadline: Instant) -> io::Result<Ctrl> {
        let addr = proc_sock(port, proc);
        loop {
            match TcpStream::connect_timeout(&addr, Duration::from_millis(500)) {
                Ok(mut stream) => {
                    stream.set_nodelay(true)?;
                    stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
                    write_frame(&mut stream, &encode_frame(&Hello::Ctrl))?;
                    return Ok(Ctrl { stream });
                }
                Err(_) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn send(&mut self, msg: &CtrlMsg) -> io::Result<()> {
        write_frame(&mut self.stream, &encode_frame(msg))
    }

    fn recv(&mut self) -> io::Result<CtrlMsg> {
        let frame = read_frame(&mut self.stream, rbay_wire::MAX_FRAME_LEN)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "daemon closed ctrl"))?;
        decode_frame::<CtrlMsg>(&frame).map_err(io::Error::other)
    }

    fn request(&mut self, msg: &CtrlMsg) -> io::Result<CtrlMsg> {
        self.send(msg)?;
        self.recv()
    }
}

fn to(member: NodeAddr, msg: CtrlMsg) -> CtrlMsg {
    CtrlMsg::To {
        member,
        msg: Box::new(msg),
    }
}

fn unexpected(what: &str, got: io::Result<CtrlMsg>) -> String {
    match got {
        Ok(msg) => format!("{what}: unexpected reply {msg:?}"),
        Err(e) => format!("{what}: {e}"),
    }
}

/// A free contiguous port pair, found by binding both; tried from a
/// process-specific offset so concurrent runs do not chase each other.
fn free_port_pair(attempt: u32) -> Option<u16> {
    let start = 20_000 + (std::process::id() * 7 + attempt * 101) % 10_000;
    (0..200u32).map(|i| (start + 2 * i) as u16).find(|&base| {
        (0..procs() as u16).all(|p| TcpListener::bind(("127.0.0.1", base + p)).is_ok())
    })
}

/// Process-level counters of the whole fleet.
#[derive(Debug, Default, Clone)]
struct FleetStatus {
    joined: u32,
    dropped_frames: u64,
    drops: DropStats,
    wal_appends: u64,
}

/// Two running daemons, their ctrl connections and their data directory.
/// Dropping it kills and reaps the daemons and removes the directory.
pub struct Fleet {
    children: Vec<Child>,
    ctrls: Vec<Ctrl>,
    port: u16,
    data_dir: PathBuf,
    /// `committed` count last seen on each member.
    ledger: HashMap<NodeAddr, u32>,
    /// Seconds from spawn to every member joined.
    converge_s: f64,
    /// Set-up queries issued until every tree had one verified commit.
    setup_query_attempts: u32,
}

impl Drop for Fleet {
    fn drop(&mut self) {
        self.ctrls.clear();
        for c in &mut self.children {
            let _ = c.kill();
            let _ = c.wait();
        }
        let _ = std::fs::remove_dir_all(&self.data_dir);
    }
}

impl Fleet {
    /// Spawns the daemons and brings the federation to the point where
    /// every tree has answered one committed query.
    fn boot(out_dir: &Path, boot_no: u32) -> Result<Fleet, String> {
        let port = free_port_pair(boot_no).ok_or("no free port pair on loopback")?;
        let data_dir = out_dir.join(format!("tmp/tcp_pack-{}-{boot_no}", std::process::id()));
        let _ = std::fs::remove_dir_all(&data_dir);
        std::fs::create_dir_all(&data_dir)
            .map_err(|e| format!("cannot create {}: {e}", data_dir.display()))?;
        let daemon = daemon_path().map_err(|e| e.to_string())?;
        let mut fleet = Fleet {
            children: Vec::new(),
            ctrls: Vec::new(),
            port,
            data_dir,
            ledger: HashMap::new(),
            converge_s: 0.0,
            setup_query_attempts: 0,
        };
        let spawned = Instant::now();
        for i in 0..procs() {
            let log = std::fs::File::create(out_dir.join(format!("rbay-node-{i}.log")))
                .map_err(|e| format!("cannot create daemon log: {e}"))?;
            let mut cmd = Command::new(&daemon);
            cmd.args(["--index", &i.to_string()])
                .args(["--agents", &AGENTS.to_string()])
                .args(["--agents-per-proc", &PER_PROC.to_string()])
                .args(["--base-port", &port.to_string()])
                .args(["--num-sites", "1"])
                .args(["--tick-ms", &TICK_MS.to_string()])
                .arg("--data-dir")
                .arg(&fleet.data_dir)
                .args(["--fsync", "never"])
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(log);
            procfs::die_with_parent(&mut cmd);
            let child = cmd
                .spawn()
                .map_err(|e| format!("cannot spawn {}: {e}", daemon.display()))?;
            fleet.children.push(child);
        }
        let deadline = Instant::now() + CONNECT_TIMEOUT;
        for i in 0..procs() {
            let ctrl = Ctrl::connect(port, i, deadline)
                .map_err(|e| format!("ctrl connect to daemon {i}: {e}"))?;
            fleet.ctrls.push(ctrl);
        }
        fleet.wait_until(JOIN_TIMEOUT, "every member joined", |f| {
            Ok(f.status()?.joined == AGENTS)
        })?;
        fleet.converge_s = spawned.elapsed().as_secs_f64();
        fleet.post_inventory()?;
        fleet.verify_trees()?;
        Ok(fleet)
    }

    fn ctrl_of(&mut self, member: NodeAddr) -> &mut Ctrl {
        &mut self.ctrls[proc_of(member, PER_PROC) as usize]
    }

    fn wait_until(
        &mut self,
        timeout: Duration,
        what: &str,
        mut check: impl FnMut(&mut Fleet) -> Result<bool, String>,
    ) -> Result<(), String> {
        let deadline = Instant::now() + timeout;
        loop {
            if check(self)? {
                return Ok(());
            }
            if Instant::now() >= deadline {
                return Err(format!("timed out waiting until {what}"));
            }
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    /// One `ProcStatus` sweep over the daemons.
    fn status(&mut self) -> Result<FleetStatus, String> {
        let mut s = FleetStatus::default();
        for (i, ctrl) in self.ctrls.iter_mut().enumerate() {
            match ctrl.request(&CtrlMsg::ProcStatus) {
                Ok(CtrlMsg::ProcStatusReply {
                    joined,
                    dropped_frames,
                    drops,
                    store,
                    ..
                }) => {
                    s.joined += joined;
                    s.dropped_frames += dropped_frames;
                    s.drops.merge(&drops);
                    s.wal_appends += store.appends;
                }
                other => return Err(unexpected(&format!("proc status of daemon {i}"), other)),
            }
        }
        Ok(s)
    }

    /// `committed` count of one member.
    fn committed_on(&mut self, member: NodeAddr) -> Result<u32, String> {
        match self.ctrl_of(member).request(&to(member, CtrlMsg::Status)) {
            Ok(CtrlMsg::StatusReply { committed, .. }) => Ok(committed),
            other => Err(unexpected(&format!("status of {member:?}"), other)),
        }
    }

    /// Installs the password guard and posts `res<i> = true` on every
    /// holder, then waits until each is attached to its tree.
    fn post_inventory(&mut self) -> Result<(), String> {
        let holders: Vec<(u32, NodeAddr)> = (0..TREES)
            .flat_map(|t| (0..HOLDERS_PER_TREE).map(move |j| (t, holder(t, j))))
            .collect();
        for &(tree, h) in &holders {
            let install = to(
                h,
                CtrlMsg::InstallNodeAa {
                    src: password_aa_script(),
                },
            );
            let post = to(
                h,
                CtrlMsg::Post {
                    attr: format!("res{tree}"),
                    value: AttrValue::Bool(true),
                },
            );
            for (what, msg) in [("install onGet", install), ("post resource", post)] {
                match self.ctrl_of(h).request(&msg) {
                    Ok(CtrlMsg::Ok) => {}
                    other => return Err(unexpected(&format!("{what} on {h:?}"), other)),
                }
            }
        }
        self.wait_until(ATTACH_TIMEOUT, "every holder attached", |f| {
            for &(_, h) in &holders {
                match f.ctrl_of(h).request(&to(h, CtrlMsg::Status)) {
                    Ok(CtrlMsg::StatusReply { attached, .. }) if attached >= 1 => {}
                    Ok(CtrlMsg::StatusReply { .. }) => return Ok(false),
                    other => return Err(unexpected(&format!("status of {h:?}"), other)),
                }
            }
            Ok(true)
        })
    }

    /// One committed, verified and released query per tree, retried while
    /// the trees settle.
    fn verify_trees(&mut self) -> Result<(), String> {
        for tree in 0..TREES {
            let mut verified = false;
            for attempt in 0..VERIFY_ATTEMPTS {
                self.setup_query_attempts += 1;
                let mut idle = Tracer::off();
                match self.op(u64::from(tree), &mut idle) {
                    Ok(_) => {
                        verified = true;
                        break;
                    }
                    Err(why) => {
                        eprintln!("tcp_pack: set-up query on res{tree}, attempt {attempt}: {why}");
                        std::thread::sleep(Duration::from_secs(1));
                    }
                }
            }
            if !verified {
                return Err(format!(
                    "tree res{tree} never committed a query in {VERIFY_ATTEMPTS} attempts"
                ));
            }
        }
        Ok(())
    }

    /// Operation `n`: query tree `n mod 8` from a rotating member, check
    /// the answer, see each commit on its holder, release. Returns the
    /// query latency and the time spent after `QueryDone`, milliseconds.
    fn op(&mut self, n: u64, tracer: &mut Tracer) -> Result<OpTimes, String> {
        let tree = (n % u64::from(TREES)) as u32;
        let from = querier(n);
        let zql = format!("SELECT {K} FROM * WHERE res{tree} = true");
        let ask = to(
            from,
            CtrlMsg::IssueQuery {
                zql,
                password: Some(WORKLOAD_PASSWORD.into()),
            },
        );
        let t0 = Instant::now();
        let reply = tracer.span("ctrl_issue_query", n, || self.ctrl_of(from).request(&ask));
        let query_ms = t0.elapsed().as_secs_f64() * 1e3;
        let results = match reply {
            Ok(CtrlMsg::QueryDone {
                satisfied: true,
                results,
                unknown_sites,
            }) if unknown_sites.is_empty() => results,
            Ok(CtrlMsg::QueryDone {
                satisfied, results, ..
            }) => {
                // Whatever a partial walk committed must not stay held.
                self.release(&results, n, tracer)?;
                return Err(format!(
                    "satisfied={satisfied} with {} of {K} candidates",
                    results.len()
                ));
            }
            other => return Err(unexpected("query", other)),
        };
        let checked = check_candidates(tree, &results);
        let mut polls = 0;
        if checked.is_ok() {
            for c in &results {
                polls += self.await_commit(c.addr, n, tracer)?;
            }
        }
        self.release(&results, n, tracer)?;
        checked?;
        Ok(OpTimes {
            query_ms,
            after_ms: t0.elapsed().as_secs_f64() * 1e3 - query_ms,
            commit_polls: polls,
        })
    }

    /// Waits until `member`'s committed count has grown past the ledger;
    /// returns the extra `Status` polls that took. `QueryDone` can overtake
    /// the commit frames still on their way to a holder in the other
    /// process, so one look is not always enough.
    fn await_commit(
        &mut self,
        member: NodeAddr,
        n: u64,
        tracer: &mut Tracer,
    ) -> Result<u32, String> {
        let seen = self.ledger.get(&member).copied().unwrap_or(0);
        for poll in 0..200 {
            let now = tracer.span("ctrl_status", n, || self.committed_on(member))?;
            if now > seen {
                self.ledger.insert(member, now);
                return Ok(poll);
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Err(format!("commit never became visible on {member:?}"))
    }

    fn release(
        &mut self,
        results: &[Candidate],
        n: u64,
        tracer: &mut Tracer,
    ) -> Result<(), String> {
        for c in results {
            let msg = to(c.addr, CtrlMsg::Release);
            match tracer.span("ctrl_release", n, || self.ctrl_of(c.addr).request(&msg)) {
                Ok(CtrlMsg::Ok) => {}
                other => return Err(unexpected(&format!("release on {:?}", c.addr), other)),
            }
        }
        Ok(())
    }

    fn watched(&self) -> Vec<Proc> {
        self.children.iter().map(|c| Proc::pid(c.id())).collect()
    }
}

/// Timings of one operation.
struct OpTimes {
    query_ms: f64,
    after_ms: f64,
    commit_polls: u32,
}

/// `k` distinct candidates, each one of the queried tree's holders.
fn check_candidates(tree: u32, results: &[Candidate]) -> Result<(), String> {
    if results.len() != K {
        return Err(format!("{} candidates, wanted {K}", results.len()));
    }
    let distinct: BTreeSet<NodeAddr> = results.iter().map(|c| c.addr).collect();
    if distinct.len() != K {
        return Err("duplicate candidate".into());
    }
    let holders: BTreeSet<NodeAddr> = (0..HOLDERS_PER_TREE).map(|j| holder(tree, j)).collect();
    match distinct.difference(&holders).next() {
        Some(stranger) => Err(format!("{stranger:?} does not hold res{tree}")),
        None => Ok(()),
    }
}

/// What the laps add to the run's samples.
#[derive(Default)]
struct Samples {
    lat_ms: Vec<f64>,
    after_ms: f64,
    commit_polls: u64,
}

/// The closed loop: `count` operations; returns those that succeeded.
fn lap(
    fleet: &mut Fleet,
    next_op: &mut u64,
    count: usize,
    tracer: &mut Tracer,
    out: &mut Outcome,
    s: &mut Samples,
) -> u64 {
    let mut ok = 0;
    for _ in 0..count {
        let n = *next_op;
        *next_op += 1;
        out.tally.attempt();
        match fleet.op(n, tracer) {
            Ok(t) => {
                s.lat_ms.push(t.query_ms);
                s.after_ms += t.after_ms;
                s.commit_polls += u64::from(t.commit_polls);
                ok += 1;
            }
            Err(why) => out
                .tally
                .fail(format!("op {n} on res{}: {why}", n % u64::from(TREES))),
        }
    }
    ok
}

/// A booted fleet under steady load, ready for timed laps.
struct Loaded {
    fleet: Fleet,
    watched: Vec<Proc>,
    next_op: u64,
}

/// What carries over from one boot of a run to the next.
struct Boots {
    out_dir: PathBuf,
    started: Instant,
    booted: u32,
    reboots: u32,
    setup_walls: Vec<f64>,
}

impl Boots {
    /// Boots a fleet (timed as a set-up) and runs untimed warm-up laps on
    /// it until it has been under load for [`STEADY_S`]. The warm-up laps
    /// ask every (querier, tree) pair the timed laps will ask, several
    /// times, so an overlay that came up with a routing hole — a member
    /// that cannot reach one tree's root, which maintenance does not
    /// repair — shows here, not in the measurement.
    ///
    /// A boot that fails, or whose warm-up fails an operation, is thrown
    /// away (counted in `tcp.reboots`, its set-up time not reported) and
    /// replaced while [`BOOT_BUDGET_S`] allows. After that the run fails
    /// loudly: no result is printed.
    fn next_loaded(&mut self) -> Loaded {
        loop {
            self.booted += 1;
            let why = match self.try_loaded() {
                Ok(loaded) => return loaded,
                Err(why) => why,
            };
            let spent = self.started.elapsed().as_secs_f64();
            if spent > BOOT_BUDGET_S {
                panic!("tcp_pack: cannot bring a fleet up ({spent:.0} s into the run): {why}");
            }
            eprintln!("tcp_pack: boot {} thrown away ({why}); booting again", self.booted);
            self.reboots += 1;
        }
    }

    fn try_loaded(&mut self) -> Result<Loaded, String> {
        let t = Instant::now();
        let mut fleet = Fleet::boot(&self.out_dir, self.booted)?;
        let setup_wall = t.elapsed().as_secs_f64();
        let watched = fleet.watched();
        let mut next_op = u64::from(TREES); // set-up used ops 0..8
        let mut warmup = Outcome::new("warmup", "wall");
        let loaded = Instant::now();
        let every_pair = u64::from(TREES + AGENTS); // the pair repeats every AGENTS ops
        while loaded.elapsed().as_secs_f64() < STEADY_S || next_op < every_pair {
            lap(
                &mut fleet,
                &mut next_op,
                OPS_PER_LAP,
                &mut Tracer::off(),
                &mut warmup,
                &mut Samples::default(),
            );
            if let Some(first) = warmup.tally.listed.first() {
                return Err(format!("warm-up {first}"));
            }
        }
        self.setup_walls.push(setup_wall);
        Ok(Loaded {
            fleet,
            watched,
            next_op,
        })
    }
}

/// Runs the workload.
pub fn run(cfg: &RunCfg, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::new("tcp_pack", "wall");
    let out_dir = crate::out_dir();
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        panic!("cannot create {}: {e}", out_dir.display());
    }
    out.facts.extend([
        ("agents", AGENTS.into()),
        ("agents_per_proc", PER_PROC.into()),
        ("tick_ms", TICK_MS.into()),
        ("trees", TREES.into()),
        ("holders_per_tree", HOLDERS_PER_TREE.into()),
        ("k", K.into()),
        ("fsync", "never".into()),
        ("network", "loopback".into()),
        ("steady_s", STEADY_S.into()),
        ("ops_per_lap", OPS_PER_LAP.into()),
        ("loop", "closed, 1 client, 2 ctrl connections".into()),
    ]);
    let mut boots = Boots {
        out_dir,
        started: Instant::now(),
        booted: 0,
        reboots: 0,
        setup_walls: Vec::new(),
    };
    let mut s = Samples::default();
    let n = OPS_PER_LAP;

    if !cfg.trace {
        // Every set-up is also measured: a freshly converged overlay differs
        // from boot to boot (tree shapes, routing tables) by more than one
        // boot's laps differ among themselves, so the laps are spread over
        // the boots; throughput and CPU cost are those of the fastest lap of
        // any boot. Latency samples are kept per boot.
        let mut laps = harness::LapStats::default();
        let mut boot_lat_ms: Vec<Vec<f64>> = Vec::new();
        let (mut bytes, mut packets, mut peak_rss) = (0, 0, 0f64);
        for _ in 0..harness::SETUP_REPS {
            let mut l = boots.next_loaded();
            let w0 = procfs::loopback_traffic();
            laps.extend(harness::timed_laps(
                cfg,
                harness::laps(cfg).div_ceil(harness::SETUP_REPS),
                &l.watched,
                |_| lap(&mut l.fleet, &mut l.next_op, n, tracer, &mut out, &mut s),
            ));
            boot_lat_ms.push(std::mem::take(&mut s.lat_ms));
            let w1 = procfs::loopback_traffic();
            bytes += w1.0 - w0.0;
            packets += w1.1 - w0.1;
            peak_rss = peak_rss.max(l.watched.iter().map(Proc::peak_rss_mib).sum());
        }
        out.facts.push(("boots", harness::SETUP_REPS.into()));
        harness::put_common(&mut out, &boots.setup_walls, &laps);
        // The median and the mean are those of the boot with the lowest mean
        // latency, pooled over its laps; the tail is the quietest lap's.
        let quietest = (0..boot_lat_ms.len())
            .min_by(|a, b| {
                harness::mean(&boot_lat_ms[*a]).total_cmp(&harness::mean(&boot_lat_ms[*b]))
            })
            .expect("SETUP_REPS >= 1");
        let mut all: Vec<f64> = boot_lat_ms.concat();
        harness::put_wall_latency(&mut out, &mut boot_lat_ms[quietest], &mut all, n);
        out.facts.push(("latency_from_boot", quietest.into()));
        // Beside them, never gating anything: the tail pooled over each
        // boot's laps and over all of them.
        let p99 =
            |xs: &mut [f64]| crate::stats::p50_and_tail(xs).map_or(f64::NAN, |(_, t)| t.value);
        let boot_p99: Vec<Value> = boot_lat_ms.iter_mut().map(|b| p99(b).into()).collect();
        out.facts.push(("boot_p99_ms", boot_p99.into()));
        out.facts.push(("pooled_p99_ms", p99(&mut all).into()));
        let q = laps.total_satisfied().max(1);
        out.put("msgs_per_query", packets as f64 / q as f64, q);
        out.put("bytes_per_query", bytes as f64 / q as f64, q);
        out.put("peak_rss_mb", peak_rss, harness::SETUP_REPS as u64);
        return out;
    }

    // Traced pass, on one boot.
    let Loaded {
        mut fleet,
        watched,
        mut next_op,
    } = boots.next_loaded();
    out.facts.push(("base_port", u64::from(fleet.port).into()));
    let reference = harness::timed_laps(cfg, TRACE_LAPS, &watched, |_| {
        lap(
            &mut fleet,
            &mut next_op,
            n,
            tracer,
            &mut Outcome::new("reference", "wall"),
            &mut Samples::default(),
        )
    });
    let before = fleet.status().unwrap_or_default();
    tracer.enable();
    let traced = harness::timed_laps(cfg, TRACE_LAPS, &watched, |_| {
        lap(&mut fleet, &mut next_op, n, tracer, &mut out, &mut s)
    });
    let after = fleet.status().unwrap_or_default();
    let q = traced.total_satisfied().max(1) as f64;
    harness::put_traced(&mut out, tracer, &reference, &traced);
    out.put_layer(
        "tcp.release_share",
        s.after_ms / 1e3 / traced.total_wall_s().max(1e-9),
    );
    if let Some((_, tail)) = crate::stats::p50_and_tail(&mut s.lat_ms) {
        out.put_layer("tcp.pooled_p99_ms", tail.value);
    }
    out.put_layer("tcp.commit_polls", s.commit_polls as f64);
    out.put_layer(
        "tcp.setup_query_attempts",
        f64::from(fleet.setup_query_attempts),
    );
    out.put_layer("tcp.reboots", f64::from(boots.reboots));
    out.put_layer("tcp.converge_s", fleet.converge_s);
    out.put_layer(
        "tcp.dropped_frames",
        (after.dropped_frames - before.dropped_frames) as f64,
    );
    let d = |f: fn(&DropStats) -> u64| (f(&after.drops) - f(&before.drops)) as f64;
    out.put_layer("tcp.drop_outbound_full", d(|s| s.outbound_full));
    out.put_layer("tcp.drop_write_cap", d(|s| s.write_cap));
    out.put_layer("tcp.drop_connect_exhausted", d(|s| s.connect_exhausted));
    out.put_layer("tcp.drop_conn_closed", d(|s| s.conn_closed));
    out.put_layer("tcp.drop_unresolvable", d(|s| s.unresolvable));
    out.put_layer(
        "store.wal_appends_per_query",
        (after.wal_appends - before.wal_appends) as f64 / q,
    );
    // Ctrl round-trip on idle daemons (a one-member `Status`, the cheapest
    // request): what the harness itself adds to every step of an operation.
    let mut rtt_us: Vec<f64> = (0..400u32)
        .filter_map(|i| {
            let member = NodeAddr((i % procs()) * PER_PROC + 1);
            let t = Instant::now();
            fleet.committed_on(member).ok()?;
            Some(t.elapsed().as_secs_f64() * 1e6)
        })
        .collect();
    if let Some((p50, _)) = crate::stats::p50_and_tail(&mut rtt_us) {
        out.put_layer("ctrl.roundtrip_us", p50);
    }
    // Idle window: loopback bytes of quiet maintenance sweeps. Differs by
    // half from one boot to the next (the overlay converges to one of two
    // traffic levels), which is why it is not an end-to-end metric.
    let idle0 = procfs::loopback_traffic().0;
    std::thread::sleep(Duration::from_secs_f64(SWEEP_S * IDLE_SWEEPS as f64));
    let idle1 = procfs::loopback_traffic().0;
    out.put_layer(
        "tcp.idle_bytes_per_node_round",
        (idle1 - idle0) as f64 / (f64::from(AGENTS) * IDLE_SWEEPS as f64),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_tree_has_two_holders_in_each_process_and_shares_none() {
        let mut all = BTreeSet::new();
        for tree in 0..TREES {
            let hs: Vec<NodeAddr> = (0..HOLDERS_PER_TREE).map(|j| holder(tree, j)).collect();
            let in_first = hs.iter().filter(|h| proc_of(**h, PER_PROC) == 0).count();
            assert_eq!(in_first, 2, "tree {tree}: {hs:?}");
            assert!(hs.iter().all(|h| h.0 < AGENTS));
            for h in hs {
                assert!(all.insert(h), "{h:?} holds two trees");
            }
        }
    }

    #[test]
    fn answers_are_checked_against_the_tree_they_asked() {
        let cand = |addr: NodeAddr| Candidate {
            id: pastry::NodeId(u128::from(addr.0)),
            addr,
            site: simnet::SiteId(0),
            sort_key: None,
        };
        let good: Vec<Candidate> = (0..3).map(|j| cand(holder(2, j))).collect();
        assert_eq!(check_candidates(2, &good), Ok(()));
        assert!(
            check_candidates(3, &good).is_err(),
            "holders of another tree"
        );
        assert!(check_candidates(2, &good[..2]).is_err(), "too few");
        let dup = vec![good[0].clone(), good[0].clone(), good[1].clone()];
        assert!(check_candidates(2, &dup).is_err(), "duplicate");
    }
}
