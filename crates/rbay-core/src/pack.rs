//! Agent packing: many federation members in one OS process.
//!
//! The paper scales to 16,000 agents by packing ~100 agents per VM (§IV).
//! This module is the equivalent for the real-socket deployment: a
//! [`Pack`] owns a contiguous block of [`RbayNode`] members
//! (`NodeAddr(base) .. NodeAddr(base + len)`) and runs them all on the
//! daemon's main thread over **one** shared bus connection per peer
//! process:
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
//! Backpressure follows the transport's drop-not-block rule: the loopback
//! queue is bounded and overflow drops messages (counted via
//! [`Pack::loopback_dropped`]); protocols above already tolerate loss.

use crate::actor::{RbayMsg, RbayNode};
use rbay_wire::encode_frame;
use simnet::{CalendarQueue, NodeAddr, SimDuration, SimTime, TimerToken, Transport};
use std::collections::VecDeque;
use std::time::Instant;

/// Loopback queue cap (messages); overflow is dropped and counted.
const LOOPBACK_MAX: usize = 65_536;

/// Where a pack's outbound (off-process) frames go. Implemented by
/// `rbay_wire::tcp::TcpBus`; tests use an in-memory vector.
pub trait FrameSink {
    /// Queues one encoded frame from hosted member `from` to remote
    /// member `to`. Must not block.
    fn send_frame(&mut self, from: NodeAddr, to: NodeAddr, frame: Vec<u8>);
}

impl FrameSink for rbay_wire::TcpBus {
    fn send_frame(&mut self, from: NodeAddr, to: NodeAddr, frame: Vec<u8>) {
        self.send_from(from, to, frame);
    }
}

/// State every member's transport view borrows: the loopback queue, the
/// shared clock, and the timer queue.
struct PackShared {
    base: u32,
    len: u32,
    epoch: Instant,
    /// In-process deliveries: `(from, destination slot, message)`.
    loopback: VecDeque<(NodeAddr, u32, RbayMsg)>,
    /// Every armed timer as `(slot, token)`, keyed `(deadline, arm
    /// sequence)`.
    timers: CalendarQueue<(u32, TimerToken)>,
    /// Timers armed so far: the next arm's sequence number.
    armed: u64,
    loopback_dropped: u64,
}

impl PackShared {
    fn now(&self) -> SimTime {
        SimTime::from_micros(self.epoch.elapsed().as_micros() as u64)
    }

    fn slot_of(&self, addr: NodeAddr) -> Option<u32> {
        (addr.0 >= self.base && addr.0 < self.base + self.len).then(|| addr.0 - self.base)
    }

    /// Removes the earliest timer if its deadline is at or before `now`.
    fn pop_due(&mut self, now: SimTime) -> Option<(u32, TimerToken)> {
        let (at, _) = self.timers.peek_key()?;
        (at <= now).then(|| self.timers.pop().expect("peeked").2)
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
        self.shared.now()
    }

    fn set_timer(&mut self, delay: SimDuration, token: TimerToken) {
        let shared = &mut *self.shared;
        shared
            .timers
            .push(shared.now() + delay, shared.armed, (self.slot, token));
        shared.armed += 1;
    }
}

/// A contiguous block of federation members hosted by one process.
pub struct Pack {
    members: Vec<RbayNode>,
    shared: PackShared,
}

impl Pack {
    /// Hosts `members` as overlay addresses `base .. base + members.len()`
    /// (member `i`'s own address must be `NodeAddr(base + i)`).
    pub fn new(base: u32, members: Vec<RbayNode>) -> Pack {
        let len = members.len() as u32;
        Pack {
            members,
            shared: PackShared {
                base,
                len,
                epoch: Instant::now(),
                loopback: VecDeque::new(),
                timers: CalendarQueue::new(),
                armed: 0,
                loopback_dropped: 0,
            },
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

    /// First hosted overlay address.
    pub fn base(&self) -> u32 {
        self.shared.base
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

    /// Mutable member access (state inspection/mutation outside dispatch).
    pub fn member_mut(&mut self, slot: u32) -> &mut RbayNode {
        &mut self.members[slot as usize]
    }

    /// The pack's wall clock (shared by every member).
    pub fn now(&self) -> SimTime {
        self.shared.now()
    }

    /// Messages dropped on loopback overflow so far.
    pub fn loopback_dropped(&self) -> u64 {
        self.shared.loopback_dropped
    }

    /// Whether loopback deliveries are pending.
    pub fn has_loopback(&self) -> bool {
        !self.shared.loopback.is_empty()
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
    /// way included. Returns the number dispatched.
    pub fn pump<S: FrameSink>(&mut self, sink: &mut S) -> usize {
        let mut n = 0;
        while let Some((from, slot, msg)) = self.shared.loopback.pop_front() {
            self.dispatch(sink, slot, from, msg);
            n += 1;
        }
        n
    }

    /// Fires, on its owning member, every timer due at the instant of the
    /// call — read once, so a handler re-arming with zero delay cannot
    /// spin the turn. Returns how many fired.
    pub fn fire_due<S: FrameSink>(&mut self, sink: &mut S) -> usize {
        let now = self.shared.now();
        let mut fired = 0;
        while let Some((slot, token)) = self.shared.pop_due(now) {
            let (node, mut ctx) = self.ctx(sink, slot);
            node.on_timer_via(&mut ctx, token);
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

    /// (Re-)sends member `slot`'s Pastry join toward `bootstrap` (which
    /// may be another member of this pack — the join then rides loopback).
    pub fn join_member<S: FrameSink>(&mut self, sink: &mut S, slot: u32, bootstrap: NodeAddr) {
        let (node, mut ctx) = self.ctx(sink, slot);
        node.join_via(&mut ctx, bootstrap);
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::tests::node;
    use simnet::{Simulation, Topology, TraceEvent};

    /// Captures off-process frames.
    #[derive(Default)]
    struct VecSink(Vec<(NodeAddr, NodeAddr, Vec<u8>)>);

    impl FrameSink for VecSink {
        fn send_frame(&mut self, from: NodeAddr, to: NodeAddr, frame: Vec<u8>) {
            self.0.push((from, to, frame));
        }
    }

    #[test]
    fn members_join_each_other_over_loopback() {
        let mut pack = Pack::new(0, (0..4).map(node).collect());
        let mut sink = VecSink::default();
        pack.member_mut(0).seed_as_bootstrap();
        for slot in 1..4 {
            pack.join_member(&mut sink, slot, NodeAddr(0));
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
        pack.join_member(&mut sink, 1, NodeAddr(500));
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
    fn misdirected_messages_are_refused() {
        let mut pack = Pack::new(0, vec![node(0)]);
        let mut sink = VecSink::default();
        pack.member_mut(0).seed_as_bootstrap();
        // Borrow a real message by round-tripping a join through the sink.
        let mut other = Pack::new(77, vec![node(77)]);
        other.join_member(&mut sink, 0, NodeAddr(0));
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
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        let mut fired = 0;
        while fired < 2 {
            fired += pack.fire_due(&mut sink);
            assert!(std::time::Instant::now() < deadline, "timers never fired");
        }
        assert_eq!(fired, 2, "one slot's timer clobbered the other's");
        assert_eq!(pack.next_deadline(), None);
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
        let now = pack.now();
        let fired: Vec<TimerToken> = std::iter::from_fn(|| pack.shared.pop_due(now))
            .map(|(_slot, token)| token)
            .collect();
        assert_eq!(fired, [A, B, A], "pack");
        assert!(pack.next_deadline() > Some(now), "C pends");
        // And through the public path: three firings, not two.
        pack.with_member(&mut sink, 0, |_, ctx| arm_script(ctx));
        assert_eq!(pack.fire_due(&mut sink), 3);
    }
}
