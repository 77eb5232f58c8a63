//! `rbay-node` — one process hosting one *or many* RBAY federation
//! members (agent packing, the paper's ~100-agents-per-VM deployment
//! shape).
//!
//! Process `index` hosts the contiguous overlay addresses
//! `index*per .. min((index+1)*per, agents)` in a [`rbay_core::Pack`],
//! listening on `127.0.0.1:(base_port + index)`. Messages between
//! co-hosted members loop back in-process; everything else rides one
//! [`BusLoop`], multiplexed by the `[from][to]` frame header.
//!
//! The pack runs itself ([`Pack::start`]): it boots its members into the
//! overlay — process 0's first member seeds a fresh overlay, every other
//! process's first member joins through the other processes' first
//! members in turn, process 0's first, and the remaining members join
//! through their local first member — and every `--tick-ms` it runs one
//! stride of maintenance rounds and flushes its WALs. Join re-sends,
//! that tick and the members' protocol timers all live in the pack's one
//! timer queue. The pack keeps no clock: the daemon sets its time from an
//! `Instant` of its own ([`Pack::advance_to`]). The daemon is one thread,
//! and its loop is: set the pack's time, fire what is due, pump loopback,
//! answer finished queries, turn the bus until the pack's next deadline or
//! a frame, set the pack's time again, and handle the frames the turn
//! read, so no handler runs at a time older than its input.
//!
//! Operator tools (the `cluster` harness) drive it over control
//! connections speaking [`rbay_bench::cluster::CtrlMsg`]; requests for a
//! specific member arrive wrapped in [`CtrlMsg::To`]. A `Shutdown`
//! leaves gracefully ([`Pack::leave`]) and exits 0, or 1 if its outbound
//! frames did not drain before the deadline.
//!
//! With `--data-dir`, the daemon keeps one write-ahead log, in
//! `<dir>/pack-<first member>` so daemons may share the directory, into
//! which every hosted member journals its durable state (attributes,
//! handler sources, subscriptions, commits), each record naming its
//! member, and restores it on boot ([`Pack::open_stores`]) — re-linting
//! recovered handler sources under the current policy and re-joining its
//! trees through the overlay. A `--data-dir` that cannot be opened, or
//! that holds an earlier format's store, fails the boot: the daemon names
//! it and exits 1. A restarted process 0 does not seed again: it rejoins
//! the overlay the others kept, and seeds only once every other process's
//! first member has handed its join back.
//!
//! `--fsync` sets when the log reaches the disk: `always` syncs at every
//! write, `batch` (the default) syncs once per tick for the whole daemon,
//! however many members wrote, and `never` leaves it to the page cache,
//! which a killed process does not lose.
//!
//! ```text
//! rbay-node --index 0 --agents 1000 [--agents-per-proc 100] \
//!     [--base-port 21100] [--num-sites 1] [--tick-ms 150] \
//!     [--data-dir /var/lib/rbay] [--fsync always|batch|never]
//! ```

use rbay_bench::cluster::{self, CtrlMsg};
use rbay_bench::flag_value;
use rbay_core::{
    FrontdoorConfig, FrontdoorResponse, FrontdoorStats, Pack, QueryId, RbayConfig, RbayMsg,
    RbayNode,
};
use rbay_query::{parse_query, ParseQueryError, Query};
use rbay_store::FsyncPolicy;
use rbay_wire::{decode_frame, encode_frame, BusLoop, Inbound};
use simnet::{NodeAddr, SimDuration, SimTime};
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Distinct ZQL texts whose parse the daemon keeps, so every query record
/// of one text shares one `Rc<Query>`; the map is cleared when full.
const PARSED_QUERIES: usize = 64;

struct Args {
    index: u32,
    agents: u32,
    per: u32,
    base_port: u16,
    num_sites: u16,
    tick: SimDuration,
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
        tick: SimDuration::from_millis(150),
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
            "--tick-ms" => args.tick = SimDuration::from_millis(flag_value(&argv, i)),
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
                     [--data-dir <dir>] [--fsync always|batch|never] [--frontdoor]\n\
                     --fsync: `always` syncs the log at every write, `batch` (the default) \
                     once per tick for the whole daemon, `never` leaves it to the page cache"
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
    if let Err(e) = cluster::check_sites(args.agents, args.num_sites) {
        eprintln!("{e}");
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
    let index = args.index;
    let start = index * args.per;
    let end = (start + args.per).min(args.agents);
    let cfg = RbayConfig {
        frontdoor_invalidation: args.frontdoor,
        ..RbayConfig::default()
    };
    let topology = cluster::daemon_topology(args.agents, args.num_sites);
    let member = RbayNode::members(&topology, Rc::new(cfg));
    let members = (start..end).map(|a| member(NodeAddr(a))).collect();
    let epoch = Instant::now();
    let mut pack = Pack::new(start, members);
    if let Some(dir) = &args.data_dir {
        if let Err(e) = pack.open_stores(dir, args.fsync) {
            eprintln!(
                "rbay-node[{index}]: cannot open --data-dir {}: {e}",
                dir.display()
            );
            return ExitCode::FAILURE;
        }
        report_restore(&pack, index);
    }
    let mut bus = BusLoop::bind(
        cluster::proc_sock(args.base_port, index),
        NodeAddr(start),
        cluster::packed_resolver(args.base_port, args.agents, args.per),
    )
    .unwrap_or_else(|e| {
        eprintln!("rbay-node[{index}]: cannot listen: {e}");
        std::process::exit(1);
    });
    // Every other process's first member, process 0's first.
    let gateways = (0..args.agents)
        .step_by(args.per as usize)
        .filter(|&first| first != start)
        .map(NodeAddr)
        .collect();
    pack.advance_to(since(epoch));
    pack.start(&mut bus, args.tick, gateways);
    eprintln!(
        "rbay-node[{index}]: hosting members {start}..{end} on {}",
        bus.local_addr(),
    );
    run(&mut pack, &mut bus, index, epoch)
}

/// The daemon's clock: time since `epoch`.
fn since(epoch: Instant) -> SimTime {
    SimTime::from_micros(epoch.elapsed().as_micros() as u64)
}

/// Prints what the pack's store gave back at open: the members' restored
/// attributes, handlers and subscriptions, and the replay's counters
/// ([`Pack::store_stats`]). Silent after a fresh open.
fn report_restore(pack: &Pack, index: u32) {
    let (mut attrs, mut handlers, mut subs) = (0, 0, 0);
    for slot in 0..pack.len() {
        let host = &pack.member(slot).host;
        attrs += host.attrs.len();
        handlers += host.attr_aas.len() + usize::from(host.node_aa.is_some());
        subs += host.sub_requested.len();
    }
    let s = pack.store_stats();
    if s.replay_records > 0 || attrs > 0 {
        eprintln!(
            "rbay-node[{index}]: restored {attrs} attr(s), {handlers} handler(s) ({} quarantined), \
             {subs} sub(s) from {} WAL record(s) in {} us",
            s.relint_rejects, s.replay_records, s.replay_micros
        );
    }
}

/// What the ctrl handlers keep between turns.
#[derive(Default)]
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

/// The daemon's main loop: set the pack's time, fire what is due, pump
/// loopback, answer finished queries, then turn the bus — writing what all
/// that sent and waiting no longer than the pack's next deadline — set the
/// time again and handle the frames the turn read. Returns the exit status
/// once a `Shutdown` has been handled.
fn run(pack: &mut Pack, bus: &mut BusLoop, index: u32, epoch: Instant) -> ExitCode {
    let mut ctrl = CtrlState::default();
    let mut batch = Vec::new();
    loop {
        pack.advance_to(since(epoch));
        pack.fire_due(bus);
        pack.pump(bus);
        answer_finished_queries(pack, bus, &mut ctrl.pending, index);
        warn(pack, index);
        // A started pack always has its tick armed. `epoll` counts whole
        // milliseconds: round up, so a deadline under a millisecond away
        // is slept to, not spun to.
        let until = pack
            .next_deadline()
            .map_or(0, |at| at.saturating_since(since(epoch)).as_micros());
        if let Err(e) = bus.turn(Duration::from_millis(until.div_ceil(1000)), &mut batch) {
            eprintln!("rbay-node[{index}]: event loop failed: {e}");
            return ExitCode::FAILURE;
        }
        pack.advance_to(since(epoch));
        for msg in batch.drain(..) {
            if let Some(code) = on_inbound(pack, bus, &mut ctrl, msg, index) {
                return code;
            }
        }
    }
}

/// Prints the store failures the pack met since the last call.
fn warn(pack: &mut Pack, index: u32) {
    for warning in pack.take_warnings() {
        eprintln!("rbay-node[{index}]: {warning}");
    }
}

/// Handles one frame a turn read; returns the exit status once the
/// daemon should exit.
fn on_inbound(
    pack: &mut Pack,
    bus: &mut BusLoop,
    ctrl: &mut CtrlState,
    msg: Inbound,
    index: u32,
) -> Option<ExitCode> {
    match msg {
        Inbound::Peer { from, to, frame } => match decode_frame::<RbayMsg>(&frame) {
            Ok(msg) => {
                if !pack.on_message(bus, from, to, msg) {
                    eprintln!("rbay-node[{index}]: frame for unhosted member {to:?}");
                }
            }
            Err(e) => eprintln!("rbay-node[{index}]: bad frame from {from:?}: {e}"),
        },
        Inbound::Ctrl { conn, frame } => return on_ctrl(pack, bus, ctrl, conn, &frame, index),
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
    index: u32,
) -> Option<ExitCode> {
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
            // Leave, then drain what leaving sent, all before the ack.
            pack.leave(bus);
            warn(pack, index);
            let left = bus.flush(Duration::from_secs(2));
            if !left {
                eprintln!("rbay-node[{index}]: outbound frames still staged at shutdown deadline");
            }
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
        store: pack.store_stats(),
    }
}

/// Sends [`CtrlMsg::QueryDone`] for every pending query whose record has
/// completed, and [`CtrlMsg::Err`] for one whose record is gone, dropping
/// it from the wait list.
fn answer_finished_queries(
    pack: &Pack,
    bus: &mut BusLoop,
    pending: &mut Vec<(u32, QueryId, u64)>,
    index: u32,
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
        reply(bus, conn, &answer, index);
        false
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// Two `IssueQuery` frames of one ZQL text: two records, one parse.
    #[test]
    fn equal_query_texts_share_one_parse() {
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
        let mut ctrl = CtrlState::default();
        let issue = encode_frame(&CtrlMsg::IssueQuery {
            zql: "SELECT 1 FROM * WHERE GPU = true".into(),
            password: None,
        });
        for _ in 0..2 {
            assert!(on_ctrl(&mut pack, &mut bus, &mut ctrl, 0, &issue, 0).is_none());
        }
        let [(_, a, _), (_, b, _)] = ctrl.pending[..] else {
            panic!("want two pending queries: {:?}", ctrl.pending);
        };
        assert_ne!(a, b);
        let queries = &pack.member(0).host.queries;
        assert!(Rc::ptr_eq(&queries[&a].query, &queries[&b].query));
    }
}
