//! Two packs boot a federation by joins alone, through the pack-owned
//! join window and tick, exchanging frames in memory: the daemon's boot
//! without the sockets. At quiescence every leaf set must be exact.

use aascript::SharedSandbox;
use pastry::{exact_leaf_set, NodeInfo};
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

/// Frames a pack sends off-process, kept for the other pack.
#[derive(Default)]
struct Outbox(Vec<(NodeAddr, NodeAddr, Vec<u8>)>);

impl FrameSink for Outbox {
    fn send_frame(&mut self, from: NodeAddr, to: NodeAddr, frame: Vec<u8>) {
        self.0.push((from, to, frame));
    }
}

/// Two packs of [`PER`] members, as two daemons run them.
struct TwoPacks {
    packs: [Pack; 2],
    outboxes: [Outbox; 2],
}

/// Pack `p`'s members, fresh: the ids a daemon gives them, no state.
fn members(p: u32) -> Vec<RbayNode> {
    let topology = Topology::single_site(2 * PER as usize, 0.0);
    let cfg = Rc::new(RbayConfig::default());
    (p * PER..(p + 1) * PER)
        .map(|a| RbayNode::member(&topology, NodeAddr(a), cfg.clone(), SharedSandbox::new()))
        .collect()
}

/// Builds pack `p` afresh and starts it; its gateway is the other
/// pack's first member.
fn started(p: u32, outbox: &mut Outbox) -> Pack {
    let mut pack = Pack::new(p * PER, members(p));
    pack.start(outbox, TICK, vec![NodeAddr((1 - p) * PER)]);
    pack
}

fn addrs<'a>(members: impl Iterator<Item = &'a NodeInfo>) -> BTreeSet<NodeAddr> {
    members.map(|m| m.addr).collect()
}

impl TwoPacks {
    fn start() -> TwoPacks {
        let mut outboxes = [Outbox::default(), Outbox::default()];
        let packs = [started(0, &mut outboxes[0]), started(1, &mut outboxes[1])];
        TwoPacks { packs, outboxes }
    }

    /// One turn of each pack as its daemon takes it: fire what is due,
    /// pump loopback, then deliver what the other pack sent.
    fn turn(&mut self) {
        for p in 0..2 {
            self.packs[p].fire_due(&mut self.outboxes[p]);
            self.packs[p].pump(&mut self.outboxes[p]);
        }
        for p in 0..2 {
            for (from, to, frame) in std::mem::take(&mut self.outboxes[p].0) {
                let msg = decode_frame::<RbayMsg>(&frame).expect("own frame decodes");
                assert!(self.packs[1 - p].on_message(&mut self.outboxes[1 - p], from, to, msg));
            }
        }
    }

    /// Members whose leaf set is not their true ring neighbourhood.
    fn inexact(&self) -> Vec<NodeAddr> {
        let mut sorted: Vec<NodeInfo> = self
            .packs
            .iter()
            .flat_map(|pack| (0..pack.len()).map(|slot| pack.member(slot).pastry.info()))
            .collect();
        sorted.sort_by_key(|info| info.id);
        let mut inexact = Vec::new();
        for pack in &self.packs {
            for slot in 0..pack.len() {
                let node = &pack.member(slot).pastry;
                let want = addrs(exact_leaf_set(&sorted, node.info()).members());
                if !node.is_joined() || addrs(node.leaf_set().members()) != want {
                    inexact.push(node.info().addr);
                }
            }
        }
        inexact
    }

    /// Turns both packs until every leaf set is exact; panics after 20 s.
    fn boot(&mut self, what: &str) {
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            self.turn();
            let inexact = self.inexact();
            if inexact.is_empty() {
                return;
            }
            assert!(
                Instant::now() < deadline,
                "{what}: {} leaf set(s) still inexact: {inexact:?}",
                inexact.len()
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

#[test]
fn two_packs_boot_to_exact_leaf_sets() {
    let mut net = TwoPacks::start();
    net.boot("boot");
}

/// The second pack restarts: fresh members under the same ids, which
/// the first pack's members still hold. It rejoins through the first
/// pack, and every leaf set is exact again.
#[test]
fn a_restarted_pack_rejoins_to_exact_leaf_sets() {
    let mut net = TwoPacks::start();
    net.boot("boot");
    net.outboxes[1] = Outbox::default();
    net.packs[1] = started(1, &mut net.outboxes[1]);
    assert!(
        !net.packs[1].member(0).pastry.is_joined(),
        "a later pack never seeds"
    );
    net.boot("rejoin");
}
