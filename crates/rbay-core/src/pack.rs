//! Agent packing: many federation members in one OS process.
//!
//! The paper scales to 16,000 agents by packing ~100 agents per VM (§IV).
//! This module is the equivalent for the real-socket deployment: a
//! [`Pack`] owns a contiguous block of [`RbayNode`] members
//! (`NodeAddr(base) .. NodeAddr(base + len)`) and runs them all on the
//! daemon's one thread over **one** shared bus connection per peer
//! process. That thread also turns the bus, so every input — a frame, a
//! due timer, a ctrl command — reaches the pack in turn order, and what
//! the pack sends is written by the next turn:
//!
//! * messages between two members of the same pack short-circuit through
//!   an in-process loopback queue — no codec, no socket, no copy of the
//!   (non-`Send`, `Rc`-bearing) message value;
//! * messages leaving the pack are encoded once and handed to a
//!   [`FrameSink`] together with their `(from, to)` overlay addresses, so
//!   the transport can multiplex every member over the same sockets;
//! * timers of every member share one queue ordered by `(deadline, arm
//!   order)` — the simulator's own [`CalendarQueue`] and ordering rule —
//!   whose entries carry the arming member's slot, so two members arming
//!   the same protocol token never collide. Each arm fires once; there is
//!   no cancel and no supersede (see [`Transport::set_timer`]).
//!
//! The pack keeps no clock: its time is what its owner last set
//! ([`Pack::advance_to`]), and every member reads and arms against it.
//! `rbay-node` sets it from its own wall clock; a simulated owner
//! sets it from [`Transport::now`], so the same pack runs on virtual
//! time. A pack whose time is never set stays at [`SimTime::ZERO`].
//!
//! A pack also runs itself once [`Pack::start`]ed, on that same queue and
//! clock: it boots its members into the overlay through a window of
//! `JOIN_BATCH` (16) joins in flight, re-sending one unanswered for a tick;
//! every tick it runs one stride of maintenance rounds and flushes the
//! write-ahead log its members share ([`Pack::open_stores`]). Its owner only
//! sets the time, fires what is due ([`Pack::fire_due`]), pumps loopback
//! ([`Pack::pump`]), and waits for the next deadline or frame. A pack
//! that is never started arms no timer of its own.
//!
//! Backpressure follows the transport's drop-not-block rule: the loopback
//! queue is bounded and overflow drops messages (counted via
//! [`Pack::loopback_dropped`]); protocols above already tolerate loss.

use crate::actor::{RbayMsg, RbayNode};
use crate::host::Op;
use rbay_store::{FsyncPolicy, Store, StoreStats};
use rbay_wire::encode_frame;
use simnet::{CalendarQueue, NodeAddr, SimDuration, SimTime, TimerToken, Transport};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::path::Path;
use std::rc::Rc;

/// Loopback queue cap (messages); overflow is dropped and counted.
const LOOPBACK_MAX: usize = 65_536;
/// Pastry joins a booting pack keeps in flight, bounding the herd on the
/// gateway at high packing factors; each completed join starts the next
/// at once.
const JOIN_BATCH: usize = 16;
/// Re-sends slot 0 spends on a gateway that neither answers its join nor
/// hands it back before it tries the next gateway.
const GATEWAY_RESENDS: u32 = 3;
/// Ticks one full maintenance sweep over the pack is spread across, so a
/// 100-member pack maintains ~10 members per tick instead of all of them
/// (per-member maintenance cadence stays bounded; CPU per tick is O(len /
/// MAINT_SWEEP_TICKS), which is what keeps 160 packed daemons viable on a
/// small host).
const MAINT_SWEEP_TICKS: u32 = 10;

/// Where a pack's outbound (off-process) frames go. Implemented by
/// `rbay_wire::BusLoop`, which the pack's owner turns on the same
/// thread; tests use an in-memory vector.
pub trait FrameSink {
    /// Queues one encoded frame from hosted member `from` to remote
    /// member `to`. Must not block.
    fn send_frame(&mut self, from: NodeAddr, to: NodeAddr, frame: Vec<u8>);
}

impl FrameSink for rbay_wire::BusLoop {
    fn send_frame(&mut self, from: NodeAddr, to: NodeAddr, frame: Vec<u8>) {
        self.send_from(from, to, frame);
    }
}

/// What one entry of the pack's timer queue fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fire {
    /// Member `slot`'s protocol timer.
    Member(u32, TimerToken),
    /// Member `slot`'s join, re-sent unless it has completed.
    Join(u32),
    /// One stride of maintenance rounds, then a WAL flush.
    Tick,
}

/// State every member's transport view borrows: the loopback queue, the
/// owner's time, and the timer queue.
struct PackShared {
    base: u32,
    len: u32,
    /// The time the owner last set ([`Pack::advance_to`]).
    now: SimTime,
    /// In-process deliveries: `(from, destination slot, message)`.
    loopback: VecDeque<(NodeAddr, u32, RbayMsg)>,
    /// Every armed timer, keyed `(deadline, arm sequence)`.
    timers: CalendarQueue<Fire>,
    /// Timers armed so far: the next arm's sequence number.
    armed: u64,
    loopback_dropped: u64,
}

impl PackShared {
    fn slot_of(&self, addr: NodeAddr) -> Option<u32> {
        (addr.0 >= self.base && addr.0 < self.base + self.len).then(|| addr.0 - self.base)
    }

    fn arm(&mut self, at: SimTime, fire: Fire) {
        self.timers.push(at, self.armed, fire);
        self.armed += 1;
    }

    /// Removes the earliest timer if it is due — its deadline at or
    /// before the pack's time — and was armed before arm number `before`.
    fn pop_due(&mut self, before: u64) -> Option<Fire> {
        let (at, seq) = self.timers.peek_key()?;
        (at <= self.now && seq < before).then(|| self.timers.pop().expect("peeked").2)
    }
}

/// The [`Transport`] a packed member sees: local destinations loop back
/// in-process, remote ones are encoded into the [`FrameSink`], and timers
/// land in the pack's shared queue under this member's slot.
pub struct MemberCtx<'a, S: FrameSink> {
    slot: u32,
    src: NodeAddr,
    shared: &'a mut PackShared,
    sink: &'a mut S,
}

impl<S: FrameSink> Transport<RbayMsg> for MemberCtx<'_, S> {
    fn send(&mut self, to: NodeAddr, msg: RbayMsg) {
        if let Some(slot) = self.shared.slot_of(to) {
            if self.shared.loopback.len() >= LOOPBACK_MAX {
                self.shared.loopback_dropped += 1;
            } else {
                self.shared.loopback.push_back((self.src, slot, msg));
            }
        } else {
            self.sink.send_frame(self.src, to, encode_frame(&msg));
        }
    }

    fn now(&self) -> SimTime {
        self.shared.now
    }

    fn set_timer(&mut self, delay: SimDuration, token: TimerToken) {
        let at = self.shared.now + delay;
        self.shared.arm(at, Fire::Member(self.slot, token));
    }
}

/// The members' Pastry joins while a started pack boots: at most
/// [`JOIN_BATCH`] in flight. Slot 0 joins through a gateway — the first
/// members of the other packs in turn, `NodeAddr(0)`'s first — and later
/// slots wait for slot 0, then join through it over loopback, so a
/// gateway sees O(packs) joiners, not O(members).
struct JoinWindow {
    /// The gateways slot 0 tries, in turn.
    gateways: Vec<NodeAddr>,
    /// The gateway in use, and slot 0's re-sends through it so far.
    at: usize,
    tries: u32,
    /// Which gateways handed slot 0's join back.
    refused: Vec<bool>,
    /// Whether slot 0 seeds the overlay once every gateway has handed its
    /// join back: only the pack hosting `NodeAddr(0)` may, and it does so
    /// when restarted, since then no member of any other pack has joined
    /// and no overlay is left to rejoin.
    seeds: bool,
    /// Slots whose join is in flight.
    in_flight: Vec<u32>,
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
}

/// A contiguous block of federation members hosted by one process.
pub struct Pack {
    members: Vec<RbayNode>,
    shared: PackShared,
    /// The join re-send interval and the maintenance period, once started.
    tick: SimDuration,
    /// The member the next maintenance stride starts at.
    maint_cursor: u32,
    /// The durable store every member journals into, once opened.
    store: Option<Rc<RefCell<Store>>>,
    /// Whether the store existed before this boot.
    restarted: bool,
    /// The joins of a booting pack; `None` before [`Pack::start`], once
    /// every member has joined, and after [`Pack::leave`].
    boot: Option<JoinWindow>,
    /// Store failures not yet taken by [`Pack::take_warnings`].
    warnings: Vec<String>,
}

impl Pack {
    /// Hosts `members` as overlay addresses `base .. base + members.len()`.
    ///
    /// # Panics
    ///
    /// Panics unless member `i`'s own address is `NodeAddr(base + i)`:
    /// otherwise it would receive another member's traffic.
    pub fn new(base: u32, members: Vec<RbayNode>) -> Pack {
        for (i, m) in members.iter().enumerate() {
            assert_eq!(m.host.addr, NodeAddr(base + i as u32), "pack member {i}");
        }
        let len = members.len() as u32;
        Pack {
            members,
            shared: PackShared {
                base,
                len,
                now: SimTime::ZERO,
                loopback: VecDeque::new(),
                timers: CalendarQueue::new(),
                armed: 0,
                loopback_dropped: 0,
            },
            tick: SimDuration::ZERO,
            maint_cursor: 0,
            store: None,
            restarted: false,
            boot: None,
            warnings: Vec::new(),
        }
    }

    /// Member `slot` and the transport view it runs under, borrowed side
    /// by side so the member's handlers can send and arm while running.
    fn ctx<'a, S: FrameSink>(
        &'a mut self,
        sink: &'a mut S,
        slot: u32,
    ) -> (&'a mut RbayNode, MemberCtx<'a, S>) {
        let ctx = MemberCtx {
            slot,
            src: NodeAddr(self.shared.base + slot),
            shared: &mut self.shared,
            sink,
        };
        (&mut self.members[slot as usize], ctx)
    }

    fn dispatch<S: FrameSink>(&mut self, sink: &mut S, slot: u32, from: NodeAddr, msg: RbayMsg) {
        let (node, mut ctx) = self.ctx(sink, slot);
        node.on_message_via(&mut ctx, from, msg);
    }

    /// Number of hosted members.
    pub fn len(&self) -> u32 {
        self.shared.len
    }

    /// Whether the pack hosts no members.
    pub fn is_empty(&self) -> bool {
        self.shared.len == 0
    }

    /// The overlay address of slot `slot`.
    pub fn addr_of(&self, slot: u32) -> NodeAddr {
        NodeAddr(self.shared.base + slot)
    }

    /// The slot hosting `addr`, if this pack hosts it.
    pub fn slot_of(&self, addr: NodeAddr) -> Option<u32> {
        self.shared.slot_of(addr)
    }

    /// Immutable member access.
    pub fn member(&self, slot: u32) -> &RbayNode {
        &self.members[slot as usize]
    }

    /// Sets the pack's time, which every member reads and arms against,
    /// to `now`; a `now` before it leaves it where it is.
    pub fn advance_to(&mut self, now: SimTime) {
        self.shared.now = self.shared.now.max(now);
    }

    /// Messages dropped on loopback overflow so far.
    pub fn loopback_dropped(&self) -> u64 {
        self.shared.loopback_dropped
    }

    /// Whether loopback deliveries are pending.
    pub fn has_loopback(&self) -> bool {
        !self.shared.loopback.is_empty()
    }

    /// Opens (or creates) the pack's one durable store, in
    /// `<dir>/pack-<base>` — one per daemon, so daemons may share `dir` —
    /// and hands each member the state it recovered for it: attributes
    /// land back in the key-value map, handler sources are re-linted under
    /// the *current* policy before re-installation, and tree subscriptions
    /// are queued for re-join through the normal retry machinery. Every
    /// member journals into that store from then on. A directory that
    /// cannot be opened, or that holds an earlier format's store, is an
    /// error, and nothing in it is read or replaced. Call before
    /// [`Pack::start`]: whether the store existed decides how the pack
    /// hosting `NodeAddr(0)` boots. What was replayed is then in
    /// [`Pack::store_stats`], what was restored in the members' hosts.
    pub fn open_stores(&mut self, dir: &Path, fsync: FsyncPolicy) -> std::io::Result<()> {
        // Format version 1 kept a store per member, in `member-<addr>`.
        let v1 = dir.join(format!("member-{}", self.shared.base));
        if v1.exists() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("{} holds a version-1 store per member", v1.display()),
            ));
        }
        let dir = dir.join(format!("pack-{}", self.shared.base));
        let (store, mut report) = Store::open(&dir, fsync)?;
        self.restarted = !report.fresh;
        if report.snapshot_corrupt {
            self.warnings.push(format!(
                "corrupt snapshot in {} discarded; recovered from WAL alone",
                dir.display()
            ));
        }
        let store = Rc::new(RefCell::new(store));
        for member in &mut self.members {
            let state = report.members.remove(&member.host.addr);
            member
                .host
                .attach_journal(Rc::clone(&store), state.unwrap_or_default());
        }
        self.store = Some(store);
        Ok(())
    }

    /// The store's counters, with the two its members keep themselves:
    /// the writes they skipped as repeats and the handlers they
    /// quarantined on restore. All 0 before [`Pack::open_stores`].
    pub fn store_stats(&self) -> StoreStats {
        let Some(store) = &self.store else {
            return StoreStats::default();
        };
        let mut stats = store.borrow().stats();
        for host in self.members.iter().map(|m| &m.host) {
            stats.dedup_skips += host.journal.as_ref().map_or(0, |j| j.dedup_skips);
            stats.relint_rejects += host.quarantined.len() as u64;
        }
        stats
    }

    /// Starts the pack running itself: boots its members into the overlay
    /// and arms its tick, which runs one maintenance stride and flushes
    /// the WAL every `tick`.
    ///
    /// Slot 0 joins through `gateways` — the first members of the other
    /// packs, `NodeAddr(0)`'s first — moving to the next once one hands
    /// the join back or leaves it unanswered for `GATEWAY_RESENDS` (3)
    /// re-sends; later slots join through slot 0. Only the pack hosting
    /// `NodeAddr(0)` may seed the overlay: at once when fresh (or alone),
    /// and, restarted ([`Pack::open_stores`] found a store), only
    /// once every gateway has handed its join back.
    ///
    /// # Panics
    ///
    /// Panics on an empty pack, or on one that cannot seed and has no
    /// gateway.
    pub fn start<S: FrameSink>(
        &mut self,
        sink: &mut S,
        tick: SimDuration,
        gateways: Vec<NodeAddr>,
    ) {
        assert!(!self.is_empty(), "an empty pack has nothing to start");
        let seeds = self.shared.base == 0;
        assert!(
            seeds || !gateways.is_empty(),
            "pack {} has no gateway",
            self.shared.base
        );
        if seeds && (!self.restarted || gateways.is_empty()) {
            self.members[0].seed_as_bootstrap();
        }
        self.tick = tick;
        self.boot = Some(JoinWindow::new(gateways, seeds));
        self.shared.arm(self.shared.now + tick, Fire::Tick);
        self.refill_joins(sink);
    }

    /// Delivers one decoded off-process message to the member hosting
    /// `to`. Returns `false` (message dropped) if `to` is not hosted here.
    pub fn on_message<S: FrameSink>(
        &mut self,
        sink: &mut S,
        from: NodeAddr,
        to: NodeAddr,
        msg: RbayMsg,
    ) -> bool {
        let Some(slot) = self.shared.slot_of(to) else {
            return false;
        };
        self.dispatch(sink, slot, from, msg);
        true
    }

    /// Drains the loopback queue to empty, deliveries enqueued along the
    /// way included. Returns the number dispatched. A booting pack also
    /// refills its join window, so a join that completed frees its place
    /// in the same turn.
    pub fn pump<S: FrameSink>(&mut self, sink: &mut S) -> usize {
        let mut n = 0;
        loop {
            while let Some((from, slot, msg)) = self.shared.loopback.pop_front() {
                self.dispatch(sink, slot, from, msg);
                n += 1;
            }
            self.refill_joins(sink);
            if !self.has_loopback() {
                return n;
            }
        }
    }

    /// Fires every timer due at the pack's time and armed before the
    /// call — so a handler re-arming with zero delay cannot spin the
    /// turn: members' protocol timers, and a started pack's join re-sends
    /// and tick. Returns how many fired.
    pub fn fire_due<S: FrameSink>(&mut self, sink: &mut S) -> usize {
        let before = self.shared.armed;
        let mut fired = 0;
        while let Some(fire) = self.shared.pop_due(before) {
            match fire {
                Fire::Member(slot, token) => {
                    let (node, mut ctx) = self.ctx(sink, slot);
                    node.on_timer_via(&mut ctx, token);
                }
                Fire::Join(slot) => self.resend_join(sink, slot),
                Fire::Tick => self.tick(sink),
            }
            fired += 1;
        }
        fired
    }

    /// The earliest armed deadline across all members, if any.
    pub fn next_deadline(&mut self) -> Option<SimTime> {
        self.shared.timers.peek_key().map(|(at, _)| at)
    }

    /// Runs one maintenance round for member `slot`.
    pub fn maintenance_round<S: FrameSink>(&mut self, sink: &mut S, slot: u32) {
        let (node, mut ctx) = self.ctx(sink, slot);
        node.maintenance_round_via(&mut ctx);
    }

    /// Runs `f` against member `slot` inside [`RbayNode::control`] with a
    /// live transport view: the member's clock is stamped first and its
    /// deferred operations are drained after. Use for control-plane
    /// actions (post, install, issue-query) that may send messages.
    pub fn with_member<S: FrameSink, R>(
        &mut self,
        sink: &mut S,
        slot: u32,
        f: impl FnOnce(&mut RbayNode, &mut MemberCtx<'_, S>) -> R,
    ) -> R {
        let (node, mut ctx) = self.ctx(sink, slot);
        node.control(&mut ctx, f)
    }

    /// The pack half of a graceful exit: the boot stops, every member
    /// leaves its trees (so peers prune it at once instead of waiting out
    /// failure detection), the Leave traffic is pumped out of loopback, and
    /// the WAL is flushed. What is left is for the owner to write out.
    ///
    /// Leaves deliberately bypass the WAL: the departure is an artifact of
    /// the restart, not a durable intent, so the store keeps the `SubAdd`
    /// records and the next boot re-joins every tree.
    pub fn leave<S: FrameSink>(&mut self, sink: &mut S) {
        self.boot = None;
        for slot in 0..self.len() {
            self.with_member(sink, slot, |node, _| {
                let subscribed = node.scribe.topics().filter(|(_, st)| st.subscribed);
                let leaves = subscribed.map(|(&topic, _)| Op::Unsubscribe { topic });
                node.host.ops.extend(leaves);
            });
        }
        self.pump(sink);
        self.flush_store();
    }

    /// The store failures met since the last call, one line each.
    pub fn take_warnings(&mut self) -> Vec<String> {
        std::mem::take(&mut self.warnings)
    }

    /// Sends member `slot`'s join through `via` and arms its re-send a
    /// tick later.
    fn send_join<S: FrameSink>(&mut self, sink: &mut S, slot: u32, via: NodeAddr) {
        let (node, mut ctx) = self.ctx(sink, slot);
        node.join_via(&mut ctx, via);
        self.shared
            .arm(self.shared.now + self.tick, Fire::Join(slot));
    }

    /// Forgets completed joins and fills the window's free places with the
    /// next members; the boot ends once every member has joined.
    fn refill_joins<S: FrameSink>(&mut self, sink: &mut S) {
        let Some(mut window) = self.boot.take() else {
            return;
        };
        let joined = |pack: &Pack, slot: u32| pack.members[slot as usize].pastry.is_joined();
        window.in_flight.retain(|&slot| !joined(self, slot));
        while window.in_flight.len() < JOIN_BATCH && window.next < self.len() {
            let slot = window.next;
            if slot > 0 && !joined(self, 0) {
                break; // the local gateway member goes first
            }
            window.next += 1;
            if !joined(self, slot) {
                let via = if slot == 0 {
                    window.gateways[window.at]
                } else {
                    self.addr_of(0)
                };
                self.send_join(sink, slot, via);
                window.in_flight.push(slot);
            }
        }
        if !window.in_flight.is_empty() || window.next < self.len() {
            self.boot = Some(window);
        }
    }

    /// Re-sends member `slot`'s join if the pack still boots and the join
    /// has not completed; slot 0's goes through the gateway
    /// [`JoinWindow::next_gateway`] picks, or slot 0 seeds.
    fn resend_join<S: FrameSink>(&mut self, sink: &mut S, slot: u32) {
        let Some(window) = self.boot.as_mut() else {
            return;
        };
        if self.members[slot as usize].pastry.is_joined() {
            return;
        }
        let via = if slot > 0 {
            self.addr_of(0)
        } else if let Some(gateway) =
            window.next_gateway(self.members[0].pastry.join_handed_back_by())
        {
            gateway
        } else {
            self.members[0].seed_as_bootstrap();
            return;
        };
        self.send_join(sink, slot, via);
    }

    /// One maintenance stride — `⌈len / MAINT_SWEEP_TICKS⌉` members,
    /// rotating — and a WAL flush; the next tick is armed a `tick` after
    /// the work.
    fn tick<S: FrameSink>(&mut self, sink: &mut S) {
        for _ in 0..self.len().div_ceil(MAINT_SWEEP_TICKS) {
            self.maintenance_round(sink, self.maint_cursor);
            self.maint_cursor = (self.maint_cursor + 1) % self.len();
        }
        // Under `FsyncPolicy::Batch` one sync_data per tick, whichever
        // members appended, bounds what a power failure can lose to a tick.
        self.flush_store();
        self.shared.arm(self.shared.now + self.tick, Fire::Tick);
    }

    /// Flushes the WAL (one `sync_data` if anything was appended under the
    /// batch fsync policy; a no-op otherwise).
    fn flush_store(&mut self) {
        if let Some(store) = &self.store {
            if let Err(e) = store.borrow_mut().flush() {
                self.warnings.push(format!("WAL flush failed: {e}"));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::tests::{node, node_with};
    use crate::{LintPolicy, RbayConfig};
    use simnet::{Simulation, Topology, TraceEvent};

    /// Captures off-process frames.
    #[derive(Default)]
    struct VecSink(Vec<(NodeAddr, NodeAddr, Vec<u8>)>);

    impl FrameSink for VecSink {
        fn send_frame(&mut self, from: NodeAddr, to: NodeAddr, frame: Vec<u8>) {
            self.0.push((from, to, frame));
        }
    }

    /// Sends member `slot`'s join toward `via` outside any boot.
    fn join(pack: &mut Pack, sink: &mut VecSink, slot: u32, via: NodeAddr) {
        pack.with_member(sink, slot, |node, ctx| node.pastry.join(ctx, via));
    }

    #[test]
    fn members_join_each_other_over_loopback() {
        let mut pack = Pack::new(0, (0..4).map(node).collect());
        let mut sink = VecSink::default();
        pack.members[0].seed_as_bootstrap();
        for slot in 1..4 {
            join(&mut pack, &mut sink, slot, NodeAddr(0));
        }
        // Joins and their replies ride the loopback queue only.
        let mut rounds = 0;
        while pack.has_loopback() {
            pack.pump(&mut sink);
            rounds += 1;
            assert!(rounds < 100, "loopback never quiesced");
        }
        for slot in 0..4 {
            assert!(
                pack.member(slot).pastry.is_joined(),
                "member {slot} not joined"
            );
        }
        assert!(
            sink.0.is_empty(),
            "intra-pack traffic must not reach the sink"
        );
        assert_eq!(pack.loopback_dropped(), 0);
    }

    #[test]
    fn remote_destinations_reach_the_sink_with_member_source() {
        let mut pack = Pack::new(10, vec![node(10), node(11)]);
        let mut sink = VecSink::default();
        // Member in slot 1 (addr 11) joins via a bootstrap outside the
        // pack: the join frame must leave through the sink, stamped with
        // the member's own address.
        join(&mut pack, &mut sink, 1, NodeAddr(500));
        assert_eq!(sink.0.len(), 1);
        let (from, to, frame) = &sink.0[0];
        assert_eq!(*from, NodeAddr(11));
        assert_eq!(*to, NodeAddr(500));
        assert!(
            rbay_wire::decode_frame::<RbayMsg>(frame).is_ok(),
            "sink frames are complete encoded messages"
        );
    }

    #[test]
    #[should_panic(expected = "pack member 1")]
    fn members_must_sit_at_base_plus_slot() {
        Pack::new(10, vec![node(10), node(12)]);
    }

    #[test]
    fn misdirected_messages_are_refused() {
        let mut pack = Pack::new(0, vec![node(0)]);
        let mut sink = VecSink::default();
        pack.members[0].seed_as_bootstrap();
        // Borrow a real message by round-tripping a join through the sink.
        let mut other = Pack::new(77, vec![node(77)]);
        join(&mut other, &mut sink, 0, NodeAddr(0));
        let (_, _, frame) = sink.0.pop().unwrap();
        let msg = rbay_wire::decode_frame::<RbayMsg>(&frame).unwrap();
        assert!(!pack.on_message(&mut sink, NodeAddr(77), NodeAddr(99), msg));
    }

    #[test]
    fn timers_are_keyed_per_slot() {
        let mut pack = Pack::new(0, vec![node(0), node(1)]);
        let mut sink = VecSink::default();
        // Both slots arm the *same* protocol token: with per-slot keying
        // both must stay live and both must fire.
        for slot in 0..2 {
            pack.with_member(&mut sink, slot, |_, ctx| {
                ctx.set_timer(SimDuration::from_micros(0), TimerToken(42));
            });
        }
        assert!(pack.next_deadline().is_some());
        let fired = pack.fire_due(&mut sink);
        assert_eq!(fired, 2, "one slot's timer clobbered the other's");
        assert_eq!(pack.next_deadline(), None);
    }

    /// Captures off-process frames as `(from, to)`.
    #[derive(Default)]
    struct Frames(Vec<(NodeAddr, NodeAddr)>);

    impl FrameSink for Frames {
        fn send_frame(&mut self, from: NodeAddr, to: NodeAddr, _: Vec<u8>) {
            self.0.push((from, to));
        }
    }

    /// The second of two 40-member packs, booting through `gateways`
    /// with a 150 ms tick: its join window open, its tick not armed.
    fn booting(gateways: Vec<NodeAddr>) -> (Pack, SimDuration) {
        let mut pack = Pack::new(40, (40..80).map(node).collect());
        let tick = SimDuration::from_millis(150);
        pack.tick = tick;
        pack.boot = Some(JoinWindow::new(gateways, false));
        (pack, tick)
    }

    fn in_flight(pack: &Pack) -> Vec<u32> {
        pack.boot
            .as_ref()
            .map_or(Vec::new(), |w| w.in_flight.clone())
    }

    /// Slot 0 joins first and alone; a join unanswered for a tick is
    /// re-sent; no more than `JOIN_BATCH` are ever in flight, and one that
    /// completes is replaced in the same turn.
    #[test]
    fn join_window_paces_joins_by_their_completion() {
        let (mut pack, tick) = booting(vec![NodeAddr(0)]);
        let mut sink = Frames::default();
        let t0 = SimTime::ZERO;

        pack.refill_joins(&mut sink);
        assert_eq!(in_flight(&pack), [0], "slot 0 goes alone");
        assert_eq!(sink.0, [(NodeAddr(40), NodeAddr(0))]);
        pack.advance_to(t0 + SimDuration::from_millis(75));
        pack.fire_due(&mut sink);
        assert_eq!(sink.0.len(), 1, "no re-send inside a tick");
        assert_eq!(pack.next_deadline(), Some(t0 + tick));
        let t1 = t0 + tick;
        pack.advance_to(t1);
        pack.fire_due(&mut sink);
        assert_eq!(sink.0.len(), 2, "re-sent after a tick");

        // Slot 0 joined: the window fills through it, over loopback.
        pack.members[0].seed_as_bootstrap();
        pack.refill_joins(&mut sink);
        assert_eq!(in_flight(&pack), (1..=16).collect::<Vec<u32>>());
        assert_eq!(sink.0.len(), 2, "later slots join locally");
        assert!(pack.has_loopback());

        // One completes: its place is refilled in the same turn.
        pack.members[3].seed_as_bootstrap();
        pack.refill_joins(&mut sink);
        assert_eq!(in_flight(&pack).len(), JOIN_BATCH);
        assert!(!in_flight(&pack).contains(&3));
        assert_eq!(in_flight(&pack).last(), Some(&17));
        assert_eq!(pack.next_deadline(), Some(t1 + tick));

        // Pumping answers the joins over loopback, and every completion
        // starts the next join within the same pump: the boot ends in one.
        pack.pump(&mut sink);
        assert!((0..40).all(|slot| pack.member(slot).pastry.is_joined()));
        assert!(pack.boot.is_none(), "the window closes once all joined");
        assert_eq!(sink.0.len(), 2, "later slots join locally");
    }

    /// A restarted first pack moves its first member's join to the next
    /// gateway once the one in use hands it back or goes
    /// `GATEWAY_RESENDS` re-sends unanswered, and seeds only once every
    /// gateway has handed it back. Any other pack never seeds.
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
        let mut joins = JoinWindow::new(vec![NodeAddr(0), g2], false);
        for _ in 0..10 {
            let via = joins.next_gateway(Some(joins.gateways[joins.at]));
            assert!(via.is_some(), "a pack off NodeAddr(0) never seeds");
        }
    }

    /// A pack other than the first, restarted while `NodeAddr(0)` is
    /// silent, sends its first member's join there `GATEWAY_RESENDS`
    /// times, then through the next pack's first member, and so on in
    /// turn; it never seeds an overlay of its own.
    #[test]
    fn a_later_pack_moves_past_a_silent_gateway_0_and_never_seeds() {
        let (g0, g2) = (NodeAddr(0), NodeAddr(80));
        let (mut pack, tick) = booting(vec![g0, g2]);
        let mut sink = Frames::default();
        pack.refill_joins(&mut sink);
        for n in 1..=9 {
            pack.advance_to(SimTime::ZERO + tick.saturating_mul(n));
            pack.fire_due(&mut sink);
        }
        let sent_to: Vec<NodeAddr> = sink.0.iter().map(|&(_, to)| to).collect();
        assert_eq!(sent_to, [g0, g0, g0, g2, g2, g2, g0, g0, g0, g2]);
        assert!(
            !pack.member(0).pastry.is_joined(),
            "no seed off NodeAddr(0)"
        );
        assert_eq!(in_flight(&pack), [0]);
    }

    /// A started pack arms its tick and nothing else a fresh first pack
    /// needs: it seeds at once and its window has nothing to join but
    /// its own later members, over loopback.
    #[test]
    fn a_fresh_first_pack_seeds_at_once_and_boots_over_loopback() {
        let mut pack = Pack::new(0, (0..40).map(node).collect());
        let mut sink = Frames::default();
        assert_eq!(pack.next_deadline(), None, "unstarted: nothing armed");
        pack.start(&mut sink, SimDuration::from_millis(150), vec![NodeAddr(40)]);
        assert!(pack.member(0).pastry.is_joined(), "seeded at start");
        pack.pump(&mut sink);
        assert!((0..40).all(|slot| pack.member(slot).pastry.is_joined()));
        assert!(sink.0.is_empty(), "a fresh first pack sends nothing out");
        assert!(pack.boot.is_none());
    }

    /// Every member journals into the pack's one store, in one directory,
    /// and one flush syncs what all of them appended: one `sync_data`,
    /// not one per member.
    #[test]
    fn one_flush_syncs_every_members_appends_once() {
        let dir = std::env::temp_dir().join(format!("rbay-pack-flush-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut pack = Pack::new(0, (0..8).map(node).collect());
        pack.open_stores(&dir, FsyncPolicy::Batch).unwrap();
        let mut sink = VecSink::default();
        for slot in 0..8 {
            pack.with_member(&mut sink, slot, |node, _| {
                node.host
                    .update_attr("CPU", rbay_query::AttrValue::Num(f64::from(slot)));
            });
        }
        let syncs = |pack: &Pack| pack.store.as_ref().unwrap().borrow().wal_syncs();
        assert_eq!((pack.store_stats().appends, syncs(&pack)), (8, 0));
        pack.flush_store();
        assert_eq!(syncs(&pack), 1, "eight dirty members, one sync");
        pack.flush_store();
        assert_eq!(syncs(&pack), 1, "nothing pending, no sync");
        let mut files: Vec<String> = std::fs::read_dir(dir.join("pack-0"))
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        files.sort();
        assert_eq!(files, ["MANIFEST", "wal-0.log"]);
        let packs: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert_eq!(packs.len(), 1, "one directory, the pack's");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A handler admitted under `Warn` and restored under `Deny` is
    /// quarantined, and the pack counts it once in `relint_rejects`.
    #[test]
    fn a_handler_quarantined_on_restore_is_counted_once() {
        let dir = std::env::temp_dir().join(format!("rbay-pack-relint-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let pack_under = |lint_policy| {
            let cfg = RbayConfig {
                lint_policy,
                ..RbayConfig::default()
            };
            let mut pack = Pack::new(0, (0..2).map(|i| node_with(i, cfg.clone())).collect());
            pack.open_stores(&dir, FsyncPolicy::Never).unwrap();
            pack
        };
        let mut pack = pack_under(LintPolicy::Warn);
        // `onGte` is a typo'd handler name: a warning under Warn, an
        // error under Deny.
        pack.with_member(&mut VecSink::default(), 1, |node, _| {
            node.host
                .install_node_aa("AA = { onGte = function(q) return true end }")
                .unwrap();
        });
        assert_eq!(pack.store_stats().relint_rejects, 0);
        drop(pack);
        let pack = pack_under(LintPolicy::Deny);
        assert_eq!(pack.store_stats().relint_rejects, 1);
        assert_eq!(pack.member(1).host.quarantined.len(), 1);
        assert!(pack.member(1).host.node_aa.is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// One arm script for both backends: `A` and `B` now, `A` again, `C`
    /// in an hour. All are tokens of kind 0, which the node ignores.
    const A: TimerToken = TimerToken(4);
    const B: TimerToken = TimerToken(8);
    const C: TimerToken = TimerToken(12);

    fn arm_script<T: Transport<RbayMsg>>(tr: &mut T) {
        for token in [A, B, A] {
            tr.set_timer(SimDuration::from_micros(0), token);
        }
        tr.set_timer(SimDuration::from_secs(3600), C);
    }

    /// "In what order do timers fire" has one answer on both backends:
    /// every arm fires once, by `(deadline, arm order)`; re-arming a live
    /// token supersedes nothing.
    #[test]
    fn both_backends_fire_every_arm_once_in_arm_order() {
        let mut sim = Simulation::new(Topology::single_site(1, 0.5), 1, |_| node(0));
        sim.enable_trace(8);
        sim.schedule_call(SimTime::ZERO, NodeAddr(0), |_, ctx| arm_script(ctx));
        let fired = |sim: &Simulation<RbayNode>| -> Vec<TimerToken> {
            let token = |e: &TraceEvent| match e {
                TraceEvent::Timer { token, .. } => Some(*token),
                TraceEvent::Deliver { .. } => None,
            };
            sim.trace().iter().filter_map(token).collect()
        };
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(fired(&sim), [A, B, A], "simulator; C pends");
        sim.run_until_idle();
        assert_eq!(fired(&sim), [A, B, A, C]);

        let mut pack = Pack::new(0, vec![node(0)]);
        let mut sink = VecSink::default();
        pack.with_member(&mut sink, 0, |_, ctx| arm_script(ctx));
        let before = pack.shared.armed;
        let fired: Vec<Fire> = std::iter::from_fn(|| pack.shared.pop_due(before)).collect();
        let fired: Vec<TimerToken> = fired
            .into_iter()
            .map(|fire| match fire {
                Fire::Member(_slot, token) => token,
                other => panic!("an unstarted pack fired {other:?}"),
            })
            .collect();
        assert_eq!(fired, [A, B, A], "pack");
        assert!(pack.next_deadline() > Some(SimTime::ZERO), "C pends");
        // And through the public path: three firings, not two.
        pack.with_member(&mut sink, 0, |_, ctx| arm_script(ctx));
        assert_eq!(pack.fire_due(&mut sink), 3);
    }
}
