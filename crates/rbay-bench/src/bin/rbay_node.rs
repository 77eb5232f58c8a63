//! `rbay-node` — one process hosting one *or many* RBAY federation
//! members (agent packing, the paper's ~100-agents-per-VM deployment
//! shape).
//!
//! Process `index` hosts the contiguous overlay addresses
//! `index*per .. min((index+1)*per, agents)` in a [`rbay_core::Pack`],
//! listening on `127.0.0.1:(base_port + index)`. Messages between
//! co-hosted members loop back in-process; everything else rides one
//! [`BusLoop`], multiplexed by the `[from][to]` frame header. The daemon
//! is one thread: its main loop fires the pack's timers and turns the
//! bus, and every frame a turn reads is decoded and handled right there.
//! Process 0's first member seeds the overlay; every other process's
//! first member joins through it, and the remaining members join through
//! their local first member — spreading join load off the bootstrap.
//! Joins are paced by their replies, not by the tick: up to
//! `JOIN_BATCH` are in flight, a completed one starts the next in the
//! same turn, and one unanswered for a tick is re-sent. A join completes
//! only once its leaf set is confirmed (`PastryNode::join`), so
//! concurrent joins leave every leaf set exact. A restarted process 0
//! does not seed again: its first member rejoins through another
//! process's first member, trying each in turn, and seeds only once every
//! one has handed its join back — none has joined, so no overlay is
//! left.
//!
//! Operator tools (the `cluster` harness) drive it over control
//! connections speaking [`rbay_bench::cluster::CtrlMsg`]; requests for a
//! specific member arrive wrapped in [`CtrlMsg::To`]. A `Shutdown`
//! leaves gracefully and exits 0, or 1 if its outbound frames did not
//! drain before the deadline.
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
    FrameSink, FrontdoorConfig, FrontdoorResponse, FrontdoorStats, Op, Pack, QueryId, RbayConfig,
    RbayMsg,
};
use rbay_query::{parse_query, ParseQueryError, Query};
use rbay_store::{FsyncPolicy, Store, StoreStats};
use rbay_wire::{decode_frame, encode_frame, BusLoop, Inbound};
use scribe::TopicId;
use simnet::{NodeAddr, SimDuration};
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Pastry joins a daemon keeps in flight, bounding the herd on the
/// bootstrap at high packing factors; each completed join starts the
/// next at once.
const JOIN_BATCH: usize = 16;
/// Re-sends a restarted daemon 0 spends on a gateway that does not answer
/// its first member's join before it tries the next daemon's.
const GATEWAY_RESENDS: u32 = 3;
/// Ticks one full maintenance sweep over the pack is spread across, so a
/// 100-member pack maintains ~10 members per tick instead of all of them
/// (per-member maintenance cadence stays bounded; CPU per tick is O(per /
/// MAINT_SWEEP_TICKS), which is what keeps 160 packed daemons viable on a
/// small host).
const MAINT_SWEEP_TICKS: u32 = 10;
/// Distinct ZQL texts whose parse the daemon keeps, so every query record
/// of one text shares one `Rc<Query>`; the map is cleared when full.
const PARSED_QUERIES: usize = 64;

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

fn main() -> ExitCode {
    let args = parse_args();
    let start = args.index * args.per;
    let end = (start + args.per).min(args.agents);
    let mut bus = BusLoop::bind(
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
    let restarted = args
        .data_dir
        .as_ref()
        .is_some_and(|dir| restore_members(&mut pack, dir, args.fsync, args.index));
    // Daemon 0's first member seeds a fresh overlay. Restarted — its store
    // existed before this boot — it rejoins the overlay the other daemons
    // kept, through their first members in turn.
    let joins = if start > 0 {
        JoinWindow::new(vec![NodeAddr(0)], false)
    } else if restarted && end < args.agents {
        let others = (end..args.agents).step_by(args.per as usize);
        JoinWindow::new(others.map(NodeAddr).collect(), true)
    } else {
        pack.member_mut(0).seed_as_bootstrap();
        JoinWindow::new(vec![NodeAddr(0)], false)
    };
    eprintln!(
        "rbay-node[{}]: hosting members {start}..{end} on {}",
        args.index,
        bus.local_addr(),
    );
    run(&mut pack, &mut bus, &args, joins)
}

/// Opens (or creates) each member's durable store under
/// `<data-dir>/member-<addr>` and replays it into the member: attributes
/// land back in the key-value map, handler sources are re-linted under
/// the *current* policy before re-installation, and tree subscriptions
/// are queued for re-join through the normal retry machinery. Returns
/// whether the first member's store existed before this boot.
fn restore_members(pack: &mut Pack, dir: &std::path::Path, fsync: FsyncPolicy, index: u32) -> bool {
    let mut restarted = false;
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
                restarted |= slot == 0 && !report.fresh;
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
    restarted
}

/// What the ctrl handlers keep between turns.
struct CtrlState {
    /// Queries issued over a control connection, awaiting completion:
    /// `(member slot, query, ctrl conn to answer)`.
    pending: Vec<(u32, QueryId, u64)>,
    /// Parsed queries by ZQL text.
    parsed: HashMap<String, Rc<Query>>,
}

impl CtrlState {
    /// The parse of `zql`, shared with every earlier query of that text.
    fn parse(&mut self, zql: &str) -> Result<Rc<Query>, ParseQueryError> {
        if let Some(q) = self.parsed.get(zql) {
            return Ok(Rc::clone(q));
        }
        let q = Rc::new(parse_query(zql)?);
        if self.parsed.len() >= PARSED_QUERIES {
            self.parsed.clear();
        }
        self.parsed.insert(zql.to_owned(), Rc::clone(&q));
        Ok(q)
    }
}

/// The daemon's main loop: fire due timers, run the per-tick maintenance
/// work, refill the join window and drain loopback, answer finished
/// queries, then turn the bus — writing what all that sent and waiting no
/// longer than the next deadline — and handle the frames the turn read.
/// Returns the exit status once a `Shutdown` has been handled.
fn run(pack: &mut Pack, bus: &mut BusLoop, args: &Args, mut joins: JoinWindow) -> ExitCode {
    let mut ctrl = CtrlState {
        pending: Vec::new(),
        parsed: HashMap::new(),
    };
    let mut batch = Vec::new();
    let mut next_tick = Instant::now() + args.tick;
    let maint_batch = pack.len().div_ceil(MAINT_SWEEP_TICKS).max(1);
    let mut maint_cursor = 0u32;
    loop {
        pack.fire_due(bus);
        if Instant::now() >= next_tick {
            for _ in 0..maint_batch {
                pack.maintenance_round(bus, maint_cursor);
                maint_cursor = (maint_cursor + 1) % pack.len();
            }
            // Under `--fsync batch` one sync_data per dirty member per
            // tick bounds the window a power failure can lose to a tick.
            flush_stores(pack, args.index);
            next_tick = Instant::now() + args.tick;
        }
        // A join that completes over loopback frees its place this turn.
        loop {
            joins.turn(pack, bus, Instant::now(), args.tick);
            if !pack.has_loopback() {
                break;
            }
            while pack.has_loopback() {
                pack.pump(bus);
            }
        }
        answer_finished_queries(pack, bus, &mut ctrl.pending);

        let wake = joins
            .next_resend(args.tick)
            .map_or(next_tick, |resend| resend.min(next_tick));
        let mut wait = wake.saturating_duration_since(Instant::now());
        if let Some(deadline) = pack.next_deadline() {
            let until = Duration::from_micros(deadline.saturating_since(pack.now()).as_micros());
            wait = wait.min(until);
        }
        // `epoll` counts whole milliseconds: round up, so a deadline under
        // a millisecond away is slept to, not spun to.
        let wait = Duration::from_millis(wait.as_micros().div_ceil(1000) as u64);
        if let Err(e) = bus.turn(wait, &mut batch) {
            eprintln!("rbay-node[{}]: event loop failed: {e}", args.index);
            return ExitCode::FAILURE;
        }
        for msg in batch.drain(..) {
            if let Some(code) = on_inbound(pack, bus, &mut ctrl, msg, args) {
                return code;
            }
        }
    }
}

/// The members' Pastry joins in flight: at most [`JOIN_BATCH`], each with
/// when it was last sent. Slot 0 joins through a gateway — the global
/// bootstrap `NodeAddr(0)`, or, when daemon 0 rejoins, every other
/// daemon's first member in turn — and later slots wait for slot 0, then
/// join through it locally, so the bootstrap sees O(procs) joiners, not
/// O(agents).
struct JoinWindow {
    /// The gateways slot 0 tries, in turn.
    gateways: Vec<NodeAddr>,
    /// The gateway in use, and slot 0's re-sends through it so far.
    at: usize,
    tries: u32,
    /// Which gateways handed slot 0's join back.
    refused: Vec<bool>,
    /// Whether slot 0 seeds the overlay once every gateway has handed its
    /// join back: a restarted daemon 0's does, since the others' first
    /// members join only through it, so none of them has joined and no
    /// overlay is left to rejoin.
    seeds: bool,
    in_flight: Vec<(u32, Instant)>,
    /// The next slot that has not joined or been sent a join.
    next: u32,
}

impl JoinWindow {
    fn new(gateways: Vec<NodeAddr>, seeds: bool) -> JoinWindow {
        JoinWindow {
            refused: vec![false; gateways.len()],
            gateways,
            at: 0,
            tries: 0,
            seeds,
            in_flight: Vec::with_capacity(JOIN_BATCH),
            next: 0,
        }
    }

    /// Re-sends each join unanswered for a `tick`, forgets completed
    /// joins, and fills the free places with the next members.
    fn turn<S: FrameSink>(&mut self, pack: &mut Pack, sink: &mut S, now: Instant, tick: Duration) {
        let local = pack.addr_of(0);
        for i in 0..self.in_flight.len() {
            let (slot, sent) = self.in_flight[i];
            if now < sent + tick || pack.member(slot).pastry.is_joined() {
                continue;
            }
            let via = if slot > 0 {
                local
            } else if let Some(gateway) =
                self.next_gateway(pack.member(0).pastry.join_handed_back_by())
            {
                gateway
            } else {
                pack.member_mut(0).seed_as_bootstrap();
                continue;
            };
            pack.join_member(sink, slot, via);
            self.in_flight[i].1 = now;
        }
        self.in_flight
            .retain(|&(slot, _)| !pack.member(slot).pastry.is_joined());
        while self.in_flight.len() < JOIN_BATCH && self.next < pack.len() {
            let slot = self.next;
            if slot > 0 && !pack.member(0).pastry.is_joined() {
                break; // the local gateway member goes first
            }
            self.next += 1;
            if !pack.member(slot).pastry.is_joined() {
                let via = if slot == 0 {
                    self.gateways[self.at]
                } else {
                    local
                };
                pack.join_member(sink, slot, via);
                self.in_flight.push((slot, now));
            }
        }
    }

    /// The gateway slot 0's join is re-sent through, given who handed its
    /// last send back: the one in use, or the next once that one handed
    /// the join back or went [`GATEWAY_RESENDS`] re-sends unanswered.
    /// `None` — seed — once every gateway of a seeding window refused.
    fn next_gateway(&mut self, handed_back_by: Option<NodeAddr>) -> Option<NodeAddr> {
        let refused = handed_back_by == Some(self.gateways[self.at]);
        self.refused[self.at] |= refused;
        self.tries += 1;
        if refused || self.tries >= GATEWAY_RESENDS {
            if self.seeds && self.refused.iter().all(|&r| r) {
                return None;
            }
            self.at = (self.at + 1) % self.gateways.len();
            self.tries = 0;
        }
        Some(self.gateways[self.at])
    }

    /// When the oldest join in flight is due to be re-sent.
    fn next_resend(&self, tick: Duration) -> Option<Instant> {
        self.in_flight.iter().map(|&(_, sent)| sent + tick).min()
    }
}

/// Handles one frame a turn read; returns the exit status once the
/// daemon should exit.
fn on_inbound(
    pack: &mut Pack,
    bus: &mut BusLoop,
    ctrl: &mut CtrlState,
    msg: Inbound,
    args: &Args,
) -> Option<ExitCode> {
    match msg {
        Inbound::Peer { from, to, frame } => match decode_frame::<RbayMsg>(&frame) {
            Ok(msg) => {
                if !pack.on_message(bus, from, to, msg) {
                    eprintln!(
                        "rbay-node[{}]: frame for unhosted member {to:?}",
                        args.index
                    );
                }
            }
            Err(e) => eprintln!("rbay-node[{}]: bad frame from {from:?}: {e}", args.index),
        },
        Inbound::Ctrl { conn, frame } => return on_ctrl(pack, bus, ctrl, conn, &frame, args),
        Inbound::CtrlClosed { conn } => ctrl.pending.retain(|(_, _, c)| *c != conn),
    }
    None
}

/// Queues `msg` on control connection `conn`.
fn reply(bus: &mut BusLoop, conn: u64, msg: &CtrlMsg, index: u32) {
    if let Err(e) = bus.send_ctrl(conn, &encode_frame(msg)) {
        eprintln!("rbay-node[{index}]: ctrl reply failed: {e}");
    }
}

/// Handles one control request; returns the exit status once the daemon
/// should exit.
fn on_ctrl(
    pack: &mut Pack,
    bus: &mut BusLoop,
    ctrl: &mut CtrlState,
    conn: u64,
    frame: &[u8],
    args: &Args,
) -> Option<ExitCode> {
    let index = args.index;
    let msg = match decode_frame::<CtrlMsg>(frame) {
        Ok(m) => m,
        Err(e) => {
            reply(bus, conn, &CtrlMsg::Err { msg: e.to_string() }, index);
            return None;
        }
    };
    // Unwrap member addressing; bare requests target the first member.
    let (slot, msg) = match msg {
        CtrlMsg::To { member, msg } => match pack.slot_of(member) {
            Some(slot) => (slot, *msg),
            None => {
                let msg = format!("member {member:?} not hosted here");
                reply(bus, conn, &CtrlMsg::Err { msg }, index);
                return None;
            }
        },
        msg => (0, msg),
    };
    let answer = match msg {
        CtrlMsg::Post { attr, value } => {
            pack.with_member(bus, slot, |node, _| node.host.post_resource(&attr, value));
            CtrlMsg::Ok
        }
        CtrlMsg::InstallNodeAa { src } => {
            match pack.with_member(bus, slot, |node, _| node.host.install_node_aa(&src)) {
                Ok(()) => CtrlMsg::Ok,
                Err(e) => CtrlMsg::Err { msg: e.to_string() },
            }
        }
        CtrlMsg::IssueQuery { zql, password } => match ctrl.parse(&zql) {
            Ok(q) => {
                // Route through the front door: a no-op pass-through on
                // members where it is not enabled.
                let resp =
                    pack.with_member(bus, slot, |node, _| node.host.frontdoor_query(q, password));
                match resp {
                    FrontdoorResponse::Cached { result, satisfied } => CtrlMsg::QueryDone {
                        satisfied,
                        results: result,
                        unknown_sites: Vec::new(),
                    },
                    FrontdoorResponse::Pending { id, .. } => {
                        ctrl.pending.push((slot, id, conn));
                        return None;
                    }
                    FrontdoorResponse::Shed { retry_after } => CtrlMsg::QueryShed {
                        retry_after_ms: retry_after.as_micros() / 1000,
                    },
                }
            }
            Err(e) => CtrlMsg::Err { msg: e.to_string() },
        },
        CtrlMsg::EnableFrontdoor {
            ttl_ms,
            capacity,
            max_pending,
        } => {
            pack.with_member(bus, slot, |node, _| {
                node.host.enable_frontdoor(FrontdoorConfig {
                    cache_ttl: SimDuration::from_millis(ttl_ms),
                    cache_capacity: capacity as usize,
                    max_pending: max_pending as usize,
                    retry_after: SimDuration::from_millis(100),
                });
            });
            CtrlMsg::Ok
        }
        CtrlMsg::Status => {
            let node = pack.member(slot);
            let attached = node
                .scribe
                .topics()
                .filter(|(_, st)| st.is_attached())
                .count() as u32;
            CtrlMsg::StatusReply {
                addr: node.pastry.info().addr,
                site: node.host.site,
                joined: node.pastry.is_joined(),
                known_peers: node.pastry.known_peers().len() as u32,
                topics: node.scribe.topics().count() as u32,
                attached,
                committed: node.host.commits as u32,
            }
        }
        CtrlMsg::ProcStatus => proc_status(pack, bus),
        CtrlMsg::LeafSets => CtrlMsg::LeafSetsReply {
            first: pack.addr_of(0),
            sets: (0..pack.len())
                .map(|slot| {
                    let leaf = pack.member(slot).pastry.leaf_set();
                    leaf.members().map(|m| m.addr).collect()
                })
                .collect(),
        },
        CtrlMsg::Release => {
            pack.with_member(bus, slot, |node, _| node.host.release_reservation());
            CtrlMsg::Ok
        }
        CtrlMsg::Shutdown => {
            eprintln!("rbay-node[{index}]: shutdown requested");
            let left = graceful_leave(pack, bus, index);
            reply(bus, conn, &CtrlMsg::Ok, index);
            // The ack itself must leave before the bus closes, or the
            // harness reads a dead socket.
            let acked = bus.flush(Duration::from_millis(500));
            if !acked {
                eprintln!("rbay-node[{index}]: shutdown ack still staged at its deadline");
            }
            return Some(if left && acked {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            });
        }
        other => CtrlMsg::Err {
            msg: format!("unexpected request: {other:?}"),
        },
    };
    reply(bus, conn, &answer, index);
    None
}

/// The process-wide [`CtrlMsg::ProcStatusReply`].
fn proc_status(pack: &Pack, bus: &BusLoop) -> CtrlMsg {
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
        committed += node.host.commits as u32;
        min_known_peers = min_known_peers.min(node.pastry.known_peers().len() as u32);
        if let Some(fd) = &node.host.frontdoor {
            frontdoor.merge(&fd.stats);
        }
        if let Some(s) = &node.host.store {
            store.merge(&s.stats());
        }
    }
    CtrlMsg::ProcStatusReply {
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
    }
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
/// Returns whether the bus drained before its deadline.
///
/// Leaves deliberately bypass the WAL: the departure is an artifact of
/// the restart, not a durable intent, so the store keeps the `SubAdd`
/// records and the next boot re-joins every tree.
fn graceful_leave(pack: &mut Pack, bus: &mut BusLoop, index: u32) -> bool {
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
        pack.with_member(bus, slot, |node, _| {
            for topic in topics {
                node.host.ops.push_back(Op::Unsubscribe { topic });
            }
        });
    }
    while pack.has_loopback() {
        pack.pump(bus);
    }
    flush_stores(pack, index);
    let drained = bus.flush(Duration::from_secs(2));
    if !drained {
        eprintln!("rbay-node[{index}]: outbound frames still staged at shutdown deadline");
    }
    drained
}

/// Sends [`CtrlMsg::QueryDone`] for every pending query whose record has
/// completed, and [`CtrlMsg::Err`] for one whose record is gone, dropping
/// it from the wait list.
fn answer_finished_queries(
    pack: &mut Pack,
    bus: &mut BusLoop,
    pending: &mut Vec<(u32, QueryId, u64)>,
) {
    pending.retain(|&(slot, id, conn)| {
        let answer = match pack.member(slot).host.queries.get(&id) {
            None => CtrlMsg::Err {
                msg: format!("query {id} has no record"),
            },
            Some(rec) if rec.completed_at.is_none() => return true,
            Some(rec) => CtrlMsg::QueryDone {
                satisfied: rec.satisfied,
                results: rec.result.clone(),
                unknown_sites: rec.unknown_sites.clone(),
            },
        };
        if let Err(e) = bus.send_ctrl(conn, &encode_frame(&answer)) {
            eprintln!("rbay-node: query answer failed: {e}");
        }
        false
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// Captures off-process frames as `(from, to)`.
    #[derive(Default)]
    struct Frames(Vec<(NodeAddr, NodeAddr)>);

    impl FrameSink for Frames {
        fn send_frame(&mut self, from: NodeAddr, to: NodeAddr, _: Vec<u8>) {
            self.0.push((from, to));
        }
    }

    /// Slot 0 joins first and alone; a join unanswered for a tick is
    /// re-sent; no more than `JOIN_BATCH` are ever in flight, and one that
    /// completes is replaced in the same turn.
    #[test]
    fn join_window_paces_joins_by_their_completion() {
        // Daemon 1 of two 40-member daemons: slot 0 joins across the bus.
        let members = (40..80)
            .map(|a| cluster::build_node(a, 80, 1, RbayConfig::default()))
            .collect();
        let mut pack = Pack::new(40, members);
        let mut sink = Frames::default();
        let mut joins = JoinWindow::new(vec![NodeAddr(0)], false);
        let tick = Duration::from_millis(150);
        let t0 = Instant::now();
        let slots = |j: &JoinWindow| j.in_flight.iter().map(|&(s, _)| s).collect::<Vec<_>>();

        joins.turn(&mut pack, &mut sink, t0, tick);
        assert_eq!(slots(&joins), [0], "slot 0 goes alone");
        assert_eq!(sink.0, [(NodeAddr(40), NodeAddr(0))]);
        joins.turn(&mut pack, &mut sink, t0 + tick / 2, tick);
        assert_eq!(sink.0.len(), 1, "no re-send inside a tick");
        assert_eq!(joins.next_resend(tick), Some(t0 + tick));
        joins.turn(&mut pack, &mut sink, t0 + tick, tick);
        assert_eq!(sink.0.len(), 2, "re-sent after a tick");

        // Slot 0 joined: the window fills through it, over loopback.
        pack.member_mut(0).seed_as_bootstrap();
        let t1 = t0 + tick;
        joins.turn(&mut pack, &mut sink, t1, tick);
        assert_eq!(slots(&joins), (1..=16).collect::<Vec<u32>>());
        assert_eq!(sink.0.len(), 2, "later slots join locally");
        assert!(pack.has_loopback());

        // One completes: its place is refilled in the same turn.
        pack.member_mut(3).seed_as_bootstrap();
        joins.turn(&mut pack, &mut sink, t1, tick);
        assert_eq!(joins.in_flight.len(), JOIN_BATCH);
        assert!(!slots(&joins).contains(&3));
        assert_eq!(slots(&joins).last(), Some(&17));
        assert_eq!(joins.next_resend(tick), Some(t1 + tick));
    }

    /// A restarted daemon 0 moves its first member's join to the next
    /// daemon's gateway once the one in use hands it back or goes
    /// `GATEWAY_RESENDS` re-sends unanswered, and seeds only once every
    /// gateway has handed it back. Any other daemon never seeds.
    #[test]
    fn a_rejoining_daemon_0_tries_each_gateway_and_seeds_when_all_refuse() {
        let (g1, g2) = (NodeAddr(40), NodeAddr(80));
        let mut joins = JoinWindow::new(vec![g1, g2], true);
        assert_eq!(joins.next_gateway(None), Some(g1));
        assert_eq!(joins.next_gateway(None), Some(g1));
        assert_eq!(joins.next_gateway(None), Some(g2), "g1 unanswered");
        // A late hand-back from g1 is not held against g2.
        assert_eq!(joins.next_gateway(Some(g1)), Some(g2));
        assert_eq!(joins.next_gateway(Some(g2)), Some(g1), "g2 refused");
        assert_eq!(joins.next_gateway(None), Some(g1));
        assert_eq!(joins.next_gateway(Some(g1)), None, "both refused: seed");

        let mut joins = JoinWindow::new(vec![NodeAddr(0)], false);
        for _ in 0..10 {
            assert_eq!(joins.next_gateway(Some(NodeAddr(0))), Some(NodeAddr(0)));
        }
    }

    /// Two `IssueQuery` frames of one ZQL text: two records, one parse.
    #[test]
    fn equal_query_texts_share_one_parse() {
        let args = Args {
            index: 0,
            agents: 2,
            per: 2,
            base_port: 0,
            num_sites: 1,
            tick: Duration::from_millis(150),
            frontdoor: false,
            data_dir: None,
            fsync: FsyncPolicy::Never,
        };
        let members = (0..2)
            .map(|a| cluster::build_node(a, 2, 1, RbayConfig::default()))
            .collect();
        let mut pack = Pack::new(0, members);
        let mut bus = BusLoop::bind(
            "127.0.0.1:0".parse().unwrap(),
            NodeAddr(0),
            Arc::new(|_| None),
        )
        .unwrap();
        let mut ctrl = CtrlState {
            pending: Vec::new(),
            parsed: HashMap::new(),
        };
        let issue = encode_frame(&CtrlMsg::IssueQuery {
            zql: "SELECT 1 FROM * WHERE GPU = true".into(),
            password: None,
        });
        for _ in 0..2 {
            assert!(on_ctrl(&mut pack, &mut bus, &mut ctrl, 0, &issue, &args).is_none());
        }
        let [(_, a, _), (_, b, _)] = ctrl.pending[..] else {
            panic!("want two pending queries: {:?}", ctrl.pending);
        };
        assert_ne!(a, b);
        let queries = &pack.member(0).host.queries;
        assert!(Rc::ptr_eq(&queries[&a].query, &queries[&b].query));
    }
}
