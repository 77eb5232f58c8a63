//! Packs boot a federation by joins alone, through the pack-owned join
//! window and tick, exchanging frames in memory: the daemon's boot
//! without the sockets. At quiescence every leaf set must be exact.

use pastry::{exact_leaf_set, NodeInfo, PastryMsg};
use rbay_core::{FrameSink, Pack, RbayConfig, RbayMsg, RbayNode};
use rbay_wire::decode_frame;
use simnet::{NodeAddr, SimDuration, Topology};
use std::collections::BTreeSet;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Members per pack.
const PER: u32 = 40;
/// The packs' tick: join re-sends and maintenance strides.
const TICK: SimDuration = SimDuration::from_millis(2);

/// Frames a pack sends off-process, kept for the other packs.
#[derive(Default)]
struct Outbox(Vec<(NodeAddr, NodeAddr, Vec<u8>)>);

impl FrameSink for Outbox {
    fn send_frame(&mut self, from: NodeAddr, to: NodeAddr, frame: Vec<u8>) {
        self.0.push((from, to, frame));
    }
}

/// Packs of [`PER`] members, as that many daemons run them; a pack that
/// is down takes no turns and every frame sent to it is lost.
struct Packs {
    packs: Vec<Pack>,
    outboxes: Vec<Outbox>,
    down: Vec<bool>,
    /// `Join`s lost on their way to a pack that is down.
    joins_lost: usize,
}

/// Pack `p` of `n`'s members, fresh: the ids a daemon gives them, no state.
fn members(p: u32, n: u32) -> Vec<RbayNode> {
    let topology = Topology::single_site((n * PER) as usize, 0.0);
    let member = RbayNode::members(&topology, Rc::new(RbayConfig::default()));
    (p * PER..(p + 1) * PER)
        .map(|a| member(NodeAddr(a)))
        .collect()
}

/// Builds pack `p` of `n` afresh and starts it; its gateways are the
/// other packs' first members, pack 0's first, as `rbay-node` lists them.
fn started(p: u32, n: u32, outbox: &mut Outbox) -> Pack {
    let mut pack = Pack::new(p * PER, members(p, n));
    let gateways = (0..n).filter(|&q| q != p).map(|q| NodeAddr(q * PER));
    pack.start(outbox, TICK, gateways.collect());
    pack
}

fn addrs<'a>(members: impl Iterator<Item = &'a NodeInfo>) -> BTreeSet<NodeAddr> {
    members.map(|m| m.addr).collect()
}

impl Packs {
    fn start(n: u32) -> Packs {
        let mut outboxes: Vec<Outbox> = (0..n).map(|_| Outbox::default()).collect();
        let packs = (0..n).map(|p| started(p, n, &mut outboxes[p as usize]));
        Packs {
            packs: packs.collect(),
            outboxes,
            down: vec![false; n as usize],
            joins_lost: 0,
        }
    }

    /// Pack `p` restarts: fresh members under the same ids, which the
    /// other packs' members still hold.
    fn restart(&mut self, p: usize) {
        let n = self.packs.len() as u32;
        self.outboxes[p] = Outbox::default();
        self.packs[p] = started(p as u32, n, &mut self.outboxes[p]);
        self.down[p] = false;
    }

    /// One turn of each live pack as its daemon takes it: fire what is
    /// due, pump loopback, then deliver what the others sent.
    fn turn(&mut self) {
        for p in (0..self.packs.len()).filter(|&p| !self.down[p]) {
            self.packs[p].fire_due(&mut self.outboxes[p]);
            self.packs[p].pump(&mut self.outboxes[p]);
        }
        for p in 0..self.packs.len() {
            for (from, to, frame) in std::mem::take(&mut self.outboxes[p].0) {
                let msg = decode_frame::<RbayMsg>(&frame).expect("own frame decodes");
                let q = (to.0 / PER) as usize;
                if self.down[q] {
                    self.joins_lost += usize::from(matches!(msg, PastryMsg::Join { .. }));
                    continue;
                }
                assert!(self.packs[q].on_message(&mut self.outboxes[q], from, to, msg));
            }
        }
    }

    /// Members of live packs whose leaf set is not their true ring
    /// neighbourhood among the members of live packs.
    fn inexact(&self) -> Vec<NodeAddr> {
        let live = || {
            self.packs
                .iter()
                .zip(&self.down)
                .filter(|(_, &down)| !down)
                .flat_map(|(pack, _)| (0..pack.len()).map(|slot| &pack.member(slot).pastry))
        };
        let mut sorted: Vec<NodeInfo> = live().map(|node| node.info()).collect();
        sorted.sort_by_key(|info| info.id);
        live()
            .filter(|node| {
                let want = addrs(exact_leaf_set(&sorted, node.info()).members());
                !node.is_joined() || addrs(node.leaf_set().members()) != want
            })
            .map(|node| node.info().addr)
            .collect()
    }

    /// Members of pack `p` that have not joined.
    fn unjoined(&self, p: usize) -> Vec<NodeAddr> {
        let pack = &self.packs[p];
        (0..pack.len())
            .filter(|&slot| !pack.member(slot).pastry.is_joined())
            .map(|slot| pack.addr_of(slot))
            .collect()
    }

    /// Turns the packs until `done` holds; panics after `limit`, naming
    /// what `done` last reported.
    fn until(&mut self, what: &str, limit: Duration, done: impl Fn(&Packs) -> Vec<NodeAddr>) {
        let deadline = Instant::now() + limit;
        loop {
            self.turn();
            let left = done(self);
            if left.is_empty() {
                return;
            }
            assert!(
                Instant::now() < deadline,
                "{what}: {} member(s) left after {limit:?}, {} join(s) lost to \
                 down packs: {left:?}",
                left.len(),
                self.joins_lost
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Turns the packs until every live leaf set is exact; panics after
    /// 20 s.
    fn boot(&mut self, what: &str) {
        self.until(what, Duration::from_secs(20), Packs::inexact);
    }
}

#[test]
fn two_packs_boot_to_exact_leaf_sets() {
    let mut net = Packs::start(2);
    net.boot("boot");
}

/// The second pack restarts: fresh members under the same ids, which
/// the first pack's members still hold. It rejoins through the first
/// pack, and every leaf set is exact again.
#[test]
fn a_restarted_pack_rejoins_to_exact_leaf_sets() {
    let mut net = Packs::start(2);
    net.boot("boot");
    net.restart(1);
    assert!(
        !net.packs[1].member(0).pastry.is_joined(),
        "a later pack never seeds"
    );
    net.boot("rejoin");
}

/// Three packs boot; packs 0 and 2 go down, and pack 2 restarts fresh
/// while pack 0 stays down — no failure detector runs, as in the
/// daemon. Pack 2's first member should join through pack 1, and every
/// one of its members through it in turn.
///
/// It stalls: pack 1's first member routes the `Join` of pack 2's first
/// member to a member of pack 0, on every re-send, since nothing removes
/// a down member from the routing state without the detector. Every
/// `Join` lost is that member's, half to the down gateway and half on
/// that hop, and the pack's later members wait for it.
#[test]
#[ignore = "ROADMAP 7(a): a Join is routed to a down member on every re-send"]
fn a_pack_rejoins_while_another_is_down() {
    let mut net = Packs::start(3);
    net.boot("boot");
    net.down = vec![true, false, true];
    net.restart(2);
    net.until("rejoin", Duration::from_secs(10), |net| net.unjoined(2));
}
