//! `rbay-node` — one process hosting one *or many* RBAY federation
//! members (agent packing, the paper's ~100-agents-per-VM deployment
//! shape).
//!
//! Process `index` hosts the contiguous overlay addresses
//! `index*per .. min((index+1)*per, agents)` in a [`rbay_core::Pack`],
//! listening on `127.0.0.1:(base_port + index)`. Messages between
//! co-hosted members loop back in-process; everything else rides the
//! single event-loop [`TcpBus`], multiplexed by the `[from][to]` frame
//! header. Process 0's first member seeds the overlay; every other
//! member's slot-0 sibling joins through it, and remaining members join
//! through their local sibling — spreading join load off the bootstrap.
//!
//! Operator tools (the `cluster` harness) drive it over control
//! connections speaking [`rbay_bench::cluster::CtrlMsg`]; requests for a
//! specific member arrive wrapped in [`CtrlMsg::To`].
//!
//! With `--data-dir`, every hosted member journals its durable state
//! (attributes, handler sources, subscriptions, commits) to a
//! write-ahead log under `<dir>/member-<addr>` and restores it on boot —
//! re-linting recovered handler sources under the current policy and
//! re-joining its trees through the overlay.
//!
//! ```text
//! rbay-node --index 0 --agents 1000 [--agents-per-proc 100] \
//!     [--base-port 21100] [--num-sites 1] [--tick-ms 150] \
//!     [--data-dir /var/lib/rbay] [--fsync always|batch|never]
//! ```

use rbay_bench::cluster::{self, CtrlMsg};
use rbay_bench::flag_value;
use rbay_core::{
    FrontdoorConfig, FrontdoorResponse, FrontdoorStats, Op, Pack, QueryId, RbayConfig, RbayMsg,
};
use rbay_query::parse_query;
use rbay_store::{FsyncPolicy, Store, StoreStats};
use rbay_wire::{decode_frame, encode_frame, Inbound, TcpBus};
use scribe::TopicId;
use simnet::{NodeAddr, SimDuration};
use std::path::PathBuf;
use std::sync::mpsc::{Receiver, RecvTimeoutError, TryRecvError};
use std::time::{Duration, Instant};

/// Unjoined members (re-)sending their Pastry join per tick, bounding the
/// thundering herd on the bootstrap at high packing factors.
const JOIN_BATCH: usize = 16;
/// Inbound frames drained per wakeup before pumping loopback again.
const RECV_BATCH: usize = 4096;
/// Ticks one full maintenance sweep over the pack is spread across, so a
/// 100-member pack maintains ~10 members per tick instead of all of them
/// (per-member maintenance cadence stays bounded; CPU per tick is O(per /
/// MAINT_SWEEP_TICKS), which is what keeps 160 packed daemons viable on a
/// small host).
const MAINT_SWEEP_TICKS: u32 = 10;

struct Args {
    index: u32,
    agents: u32,
    per: u32,
    base_port: u16,
    num_sites: u16,
    tick: Duration,
    frontdoor: bool,
    data_dir: Option<PathBuf>,
    fsync: FsyncPolicy,
}

fn parse_args() -> Args {
    let mut args = Args {
        index: 0,
        agents: 1,
        per: 1,
        base_port: cluster::DEFAULT_BASE_PORT,
        num_sites: 1,
        tick: Duration::from_millis(150),
        frontdoor: false,
        data_dir: None,
        fsync: FsyncPolicy::Batch,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--index" => args.index = flag_value(&argv, i),
            "--agents" => args.agents = flag_value(&argv, i),
            "--agents-per-proc" => args.per = flag_value(&argv, i),
            "--base-port" => args.base_port = flag_value(&argv, i),
            "--num-sites" => args.num_sites = flag_value(&argv, i),
            "--tick-ms" => args.tick = Duration::from_millis(flag_value(&argv, i)),
            "--data-dir" => args.data_dir = Some(PathBuf::from(flag_value::<String>(&argv, i))),
            "--fsync" => {
                let v: String = flag_value(&argv, i);
                args.fsync = FsyncPolicy::parse(&v).unwrap_or_else(|| {
                    eprintln!("bad value for --fsync: {v} (want always|batch|never)");
                    std::process::exit(2);
                });
            }
            "--frontdoor" => {
                args.frontdoor = true;
                i += 1;
                continue;
            }
            other => {
                eprintln!(
                    "unknown flag {other}\nusage: rbay-node --index <i> --agents <n> \
                     [--agents-per-proc <m>] [--base-port <p>] [--num-sites <s>] [--tick-ms <ms>] \
                     [--data-dir <dir>] [--fsync always|batch|never] [--frontdoor]"
                );
                std::process::exit(2);
            }
        }
        i += 2;
    }
    if args.per == 0 {
        eprintln!("--agents-per-proc must be >= 1");
        std::process::exit(2);
    }
    if args.index.saturating_mul(args.per) >= args.agents {
        eprintln!("--index hosts no members (index * per >= agents)");
        std::process::exit(2);
    }
    args
}

fn main() {
    let args = parse_args();
    let start = args.index * args.per;
    let end = (start + args.per).min(args.agents);
    let (bus, rx) = TcpBus::start(
        cluster::proc_sock(args.base_port, args.index),
        NodeAddr(start),
        cluster::packed_resolver(args.base_port, args.agents, args.per),
    )
    .unwrap_or_else(|e| {
        eprintln!("rbay-node[{}]: cannot listen: {e}", args.index);
        std::process::exit(1);
    });
    let cfg = RbayConfig {
        frontdoor_invalidation: args.frontdoor,
        ..RbayConfig::default()
    };
    let members = (start..end)
        .map(|a| cluster::build_node(a, args.agents, args.num_sites, cfg.clone()))
        .collect();
    let mut pack = Pack::new(start, members);
    if start == 0 {
        pack.member_mut(0).seed_as_bootstrap();
    }
    if let Some(dir) = &args.data_dir {
        restore_members(&mut pack, dir, args.fsync, args.index);
    }
    eprintln!(
        "rbay-node[{}]: hosting members {start}..{end} on {}",
        args.index,
        bus.local_addr(),
    );
    run(&mut pack, bus, &rx, &args);
}

/// Opens (or creates) each member's durable store under
/// `<data-dir>/member-<addr>` and replays it into the member: attributes
/// land back in the key-value map, handler sources are re-linted under
/// the *current* policy before re-installation, and tree subscriptions
/// are queued for re-join through the normal retry machinery.
fn restore_members(pack: &mut Pack, dir: &std::path::Path, fsync: FsyncPolicy, index: u32) {
    let mut attrs = 0usize;
    let mut handlers = 0usize;
    let mut quarantined = 0usize;
    let mut subs = 0usize;
    let mut records = 0u64;
    let mut micros = 0u64;
    for slot in 0..pack.len() {
        let member_dir = dir.join(format!("member-{}", pack.addr_of(slot).0));
        if let Err(e) = std::fs::create_dir_all(&member_dir) {
            eprintln!(
                "rbay-node[{index}]: cannot create {}: {e}; member runs in-memory",
                member_dir.display()
            );
            continue;
        }
        match Store::open(&member_dir, fsync) {
            Ok((store, report)) => {
                if report.snapshot_corrupt {
                    eprintln!(
                        "rbay-node[{index}]: corrupt snapshot in {} discarded; \
                         recovered from WAL alone",
                        member_dir.display()
                    );
                }
                let summary = pack.member_mut(slot).host.attach_store(Box::new(store));
                attrs += summary.attrs;
                handlers += summary.handlers;
                quarantined += summary.quarantined;
                subs += summary.subs;
                records += summary.replay_records;
                micros += summary.replay_micros;
            }
            Err(e) => eprintln!(
                "rbay-node[{index}]: cannot open store in {}: {e}; member runs in-memory",
                member_dir.display()
            ),
        }
    }
    if records > 0 || attrs > 0 {
        eprintln!(
            "rbay-node[{index}]: restored {attrs} attr(s), {handlers} handler(s) \
             ({quarantined} quarantined), {subs} sub(s) from {records} WAL record(s) \
             in {micros} us"
        );
    }
}

/// The daemon's main loop: fire due timers, run the per-tick join and
/// maintenance work, drain loopback, answer finished queries, then block
/// on the inbound queue until the next deadline.
fn run(pack: &mut Pack, bus: TcpBus, rx: &Receiver<Inbound>, args: &Args) {
    let mut sink = bus.clone();
    // Queries issued over a control connection, awaiting completion:
    // `(member slot, query, ctrl conn to answer)`.
    let mut pending: Vec<(u32, QueryId, u64)> = Vec::new();
    let mut next_tick = Instant::now() + args.tick;
    let maint_batch = pack.len().div_ceil(MAINT_SWEEP_TICKS).max(1);
    let mut maint_cursor = 0u32;
    loop {
        pack.fire_due(&mut sink);
        if Instant::now() >= next_tick {
            tick_joins(pack, &mut sink);
            for _ in 0..maint_batch {
                pack.maintenance_round(&mut sink, maint_cursor);
                maint_cursor = (maint_cursor + 1) % pack.len();
            }
            // Under `--fsync batch` one sync_data per dirty member per
            // tick bounds the window a power failure can lose to a tick.
            flush_stores(pack, args.index);
            next_tick = Instant::now() + args.tick;
        }
        while pack.has_loopback() {
            pack.pump(&mut sink);
        }
        answer_finished_queries(pack, &bus, &mut pending);

        let mut wait = next_tick.saturating_duration_since(Instant::now());
        if let Some(deadline) = pack.next_deadline() {
            let until = Duration::from_micros(deadline.saturating_since(pack.now()).as_micros());
            wait = wait.min(until);
        }
        match rx.recv_timeout(wait.max(Duration::from_millis(1))) {
            Ok(first) => {
                if on_inbound(pack, &mut sink, &bus, &mut pending, first, args) {
                    bus.shutdown();
                    return;
                }
                // Batch-drain whatever else arrived before pumping again.
                for _ in 0..RECV_BATCH {
                    match rx.try_recv() {
                        Ok(msg) => {
                            if on_inbound(pack, &mut sink, &bus, &mut pending, msg, args) {
                                bus.shutdown();
                                return;
                            }
                        }
                        Err(TryRecvError::Empty) => break,
                        Err(TryRecvError::Disconnected) => return,
                    }
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// Sends (or re-sends) Pastry joins for not-yet-joined members, at most
/// [`JOIN_BATCH`] per tick. Slot 0 joins the global bootstrap
/// (`NodeAddr(0)`); later slots wait for slot 0 and then join through it
/// locally, so the bootstrap process sees O(procs) joiners, not
/// O(agents).
fn tick_joins(pack: &mut Pack, sink: &mut TcpBus) {
    let slot0_joined = pack.member(0).pastry.is_joined();
    let mut sent = 0;
    for slot in 0..pack.len() {
        if sent >= JOIN_BATCH {
            break;
        }
        if pack.member(slot).pastry.is_joined() {
            continue; // covers the seeded bootstrap member too
        }
        let bootstrap = if slot == 0 {
            NodeAddr(0)
        } else if slot0_joined {
            pack.addr_of(0)
        } else {
            continue; // wait for the local gateway member first
        };
        pack.join_member(sink, slot, bootstrap);
        sent += 1;
    }
}

/// Handles one inbound bus event; returns `true` when the daemon should
/// exit.
fn on_inbound(
    pack: &mut Pack,
    sink: &mut TcpBus,
    bus: &TcpBus,
    pending: &mut Vec<(u32, QueryId, u64)>,
    msg: Inbound,
    args: &Args,
) -> bool {
    match msg {
        Inbound::Peer { from, to, frame } => match decode_frame::<RbayMsg>(&frame) {
            Ok(msg) => {
                if !pack.on_message(sink, from, to, msg) {
                    eprintln!(
                        "rbay-node[{}]: frame for unhosted member {to:?}",
                        args.index
                    );
                }
            }
            Err(e) => eprintln!("rbay-node[{}]: bad frame from {from:?}: {e}", args.index),
        },
        Inbound::Ctrl { conn, frame } => {
            return on_ctrl(pack, sink, bus, pending, conn, &frame, args);
        }
        Inbound::CtrlClosed { conn } => pending.retain(|(_, _, c)| *c != conn),
    }
    false
}

/// Handles one control request; returns `true` when the daemon should
/// exit.
fn on_ctrl(
    pack: &mut Pack,
    sink: &mut TcpBus,
    bus: &TcpBus,
    pending: &mut Vec<(u32, QueryId, u64)>,
    conn: u64,
    frame: &[u8],
    args: &Args,
) -> bool {
    let reply = |msg: &CtrlMsg| {
        if let Err(e) = bus.send_ctrl(conn, &encode_frame(msg)) {
            eprintln!("rbay-node[{}]: ctrl reply failed: {e}", args.index);
        }
    };
    let msg = match decode_frame::<CtrlMsg>(frame) {
        Ok(m) => m,
        Err(e) => {
            reply(&CtrlMsg::Err { msg: e.to_string() });
            return false;
        }
    };
    // Unwrap member addressing; bare requests target the first member.
    let (slot, msg) = match msg {
        CtrlMsg::To { member, msg } => match pack.slot_of(member) {
            Some(slot) => (slot, *msg),
            None => {
                reply(&CtrlMsg::Err {
                    msg: format!("member {member:?} not hosted here"),
                });
                return false;
            }
        },
        msg => (0, msg),
    };
    match msg {
        CtrlMsg::Post { attr, value } => {
            pack.with_member(sink, slot, |node, _| node.host.post_resource(&attr, value));
            reply(&CtrlMsg::Ok);
        }
        CtrlMsg::InstallNodeAa { src } => {
            let res = pack.with_member(sink, slot, |node, _| node.host.install_node_aa(&src));
            match res {
                Ok(()) => reply(&CtrlMsg::Ok),
                Err(e) => reply(&CtrlMsg::Err { msg: e.to_string() }),
            }
        }
        CtrlMsg::IssueQuery { zql, password } => match parse_query(&zql) {
            Ok(q) => {
                // Route through the front door: a no-op pass-through on
                // members where it is not enabled.
                let resp =
                    pack.with_member(sink, slot, |node, _| node.host.frontdoor_query(q, password));
                match resp {
                    FrontdoorResponse::Cached { result, satisfied } => {
                        reply(&CtrlMsg::QueryDone {
                            satisfied,
                            results: result,
                            unknown_sites: Vec::new(),
                        });
                    }
                    FrontdoorResponse::Pending { id, .. } => pending.push((slot, id, conn)),
                    FrontdoorResponse::Shed { retry_after } => {
                        reply(&CtrlMsg::QueryShed {
                            retry_after_ms: retry_after.as_micros() / 1000,
                        });
                    }
                }
            }
            Err(e) => reply(&CtrlMsg::Err { msg: e.to_string() }),
        },
        CtrlMsg::EnableFrontdoor {
            ttl_ms,
            capacity,
            max_pending,
        } => {
            pack.with_member(sink, slot, |node, _| {
                node.host.enable_frontdoor(FrontdoorConfig {
                    cache_ttl: SimDuration::from_millis(ttl_ms),
                    cache_capacity: capacity as usize,
                    max_pending: max_pending as usize,
                    retry_after: SimDuration::from_millis(100),
                });
            });
            reply(&CtrlMsg::Ok);
        }
        CtrlMsg::Status => {
            let node = pack.member(slot);
            let attached = node
                .scribe
                .topics()
                .filter(|(_, st)| st.is_attached())
                .count() as u32;
            reply(&CtrlMsg::StatusReply {
                addr: node.pastry.info().addr,
                site: node.host.site,
                joined: node.pastry.is_joined(),
                known_peers: node.pastry.known_peers().len() as u32,
                topics: node.scribe.topics().count() as u32,
                attached,
                committed: node.host.committed.len() as u32,
            });
        }
        CtrlMsg::ProcStatus => {
            let mut joined = 0;
            let mut attached_members = 0;
            let mut topics = 0;
            let mut committed = 0;
            let mut min_known_peers = u32::MAX;
            let mut frontdoor = FrontdoorStats::default();
            let mut store = StoreStats::default();
            for slot in 0..pack.len() {
                let node = pack.member(slot);
                if node.pastry.is_joined() {
                    joined += 1;
                }
                if node.scribe.topics().any(|(_, st)| st.is_attached()) {
                    attached_members += 1;
                }
                topics += node.scribe.topics().count() as u32;
                committed += node.host.committed.len() as u32;
                min_known_peers = min_known_peers.min(node.pastry.known_peers().len() as u32);
                if let Some(fd) = &node.host.frontdoor {
                    frontdoor.merge(&fd.stats);
                }
                if let Some(s) = &node.host.store {
                    store.merge(&s.stats());
                }
            }
            reply(&CtrlMsg::ProcStatusReply {
                members: pack.len(),
                joined,
                attached_members,
                topics,
                committed,
                dropped_frames: bus.dropped_frames() + pack.loopback_dropped(),
                min_known_peers: if pack.is_empty() { 0 } else { min_known_peers },
                drops: bus.drop_stats(),
                frontdoor,
                store,
            });
        }
        CtrlMsg::Release => {
            pack.with_member(sink, slot, |node, _| node.host.release_reservation());
            reply(&CtrlMsg::Ok);
        }
        CtrlMsg::Shutdown => {
            eprintln!("rbay-node[{}]: shutdown requested", args.index);
            graceful_leave(pack, sink, bus, args.index);
            reply(&CtrlMsg::Ok);
            // The ack itself must clear the event loop before shutdown
            // tears it down, or the harness reads a dead socket.
            bus.flush(Duration::from_millis(500));
            return true;
        }
        other => reply(&CtrlMsg::Err {
            msg: format!("unexpected request: {other:?}"),
        }),
    }
    false
}

/// Flushes every member's WAL (one `sync_data` per dirty store under the
/// batch fsync policy; a no-op otherwise).
fn flush_stores(pack: &mut Pack, index: u32) {
    for slot in 0..pack.len() {
        if let Some(store) = pack.member_mut(slot).host.store.as_mut() {
            if let Err(e) = store.flush() {
                eprintln!("rbay-node[{index}]: WAL flush failed: {e}");
            }
        }
    }
}

/// Graceful-exit ordering: every member leaves its trees (so peers prune
/// it immediately instead of waiting out failure detection), the Leave
/// traffic is pumped out of loopback, the WAL is flushed, and the bus
/// drains its staged outbound frames — all *before* the shutdown ack.
///
/// Leaves deliberately bypass the WAL: the departure is an artifact of
/// the restart, not a durable intent, so the store keeps the `SubAdd`
/// records and the next boot re-joins every tree.
fn graceful_leave(pack: &mut Pack, sink: &mut TcpBus, bus: &TcpBus, index: u32) {
    for slot in 0..pack.len() {
        let topics: Vec<TopicId> = pack
            .member(slot)
            .scribe
            .topics()
            .filter(|(_, st)| st.subscribed)
            .map(|(t, _)| *t)
            .collect();
        if topics.is_empty() {
            continue;
        }
        pack.with_member(sink, slot, |node, _| {
            for topic in topics {
                node.host.ops.push_back(Op::Unsubscribe { topic });
            }
        });
    }
    while pack.has_loopback() {
        pack.pump(sink);
    }
    flush_stores(pack, index);
    if !bus.flush(Duration::from_secs(2)) {
        eprintln!("rbay-node[{index}]: outbound frames still staged at shutdown deadline");
    }
}

/// Sends [`CtrlMsg::QueryDone`] for every pending query whose record has
/// completed, dropping it from the wait list.
fn answer_finished_queries(pack: &mut Pack, bus: &TcpBus, pending: &mut Vec<(u32, QueryId, u64)>) {
    pending.retain(|&(slot, id, conn)| {
        let Some(rec) = pack.member(slot).host.queries.get(&id) else {
            return false;
        };
        if rec.completed_at.is_none() {
            return true;
        }
        let done = CtrlMsg::QueryDone {
            satisfied: rec.satisfied,
            results: rec.result.clone(),
            unknown_sites: rec.unknown_sites.clone(),
        };
        if let Err(e) = bus.send_ctrl(conn, &encode_frame(&done)) {
            eprintln!("rbay-node: query answer failed: {e}");
        }
        false
    });
}
