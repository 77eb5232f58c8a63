//! The protocol join under concurrency: many joins in flight over an
//! in-memory network that delivers each link's messages in order but
//! interleaves links at random, with no gossip to mend what the join
//! leaves behind. At quiescence every leaf set must be exact.

use pastry::{
    exact_leaf_set, seed_overlay, LeafSet, NodeId, NodeInfo, PastryApp, PastryMsg, PastryNode,
    RoutingTable, JOIN_PROBE_RESENDS,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use simnet::{NodeAddr, SimDuration, SimTime, SiteId, TimerToken, Transport};
use std::collections::{BTreeSet, HashMap, VecDeque};

type Msg = PastryMsg<()>;

/// An application that ignores every payload: joins carry none.
struct NoApp;

impl PastryApp<()> for NoApp {
    fn deliver<N: pastry::Net<()>>(
        &mut self,
        _: &mut PastryNode,
        _: &mut N,
        _: NodeId,
        _: (),
        _: u16,
    ) {
    }
    fn receive_direct<N: pastry::Net<()>>(
        &mut self,
        _: &mut PastryNode,
        _: &mut N,
        _: NodeAddr,
        _: (),
    ) {
    }
}

/// What one node sends while it handles one message.
struct Outbox(Vec<(NodeAddr, Msg)>);

impl Transport<Msg> for Outbox {
    fn send(&mut self, to: NodeAddr, msg: Msg) {
        self.0.push((to, msg));
    }
    fn now(&self) -> SimTime {
        SimTime::ZERO
    }
    fn set_timer(&mut self, _: SimDuration, _: TimerToken) {}
}

/// Nodes `NodeAddr(i)` at index `i`, and the messages between them: one
/// FIFO queue per `(from, to)` link, delivered from a link picked at
/// random. Messages to `dead` vanish.
struct Net {
    nodes: Vec<PastryNode>,
    links: HashMap<(NodeAddr, NodeAddr), VecDeque<Msg>>,
    /// Links with a message queued, in no particular order.
    busy: Vec<(NodeAddr, NodeAddr)>,
    dead: Option<NodeAddr>,
    rng: SmallRng,
}

impl Net {
    fn new(n: u32, seed: u64) -> Net {
        let nodes = (0..n)
            .map(|i| {
                PastryNode::new(NodeInfo {
                    id: NodeId::hash_of(format!("join-test:{i}").as_bytes()),
                    addr: NodeAddr(i),
                    site: SiteId(0),
                })
            })
            .collect();
        Net {
            nodes,
            links: HashMap::new(),
            busy: Vec::new(),
            dead: None,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Runs `f` on node `at` and queues what it sent.
    fn on(&mut self, at: NodeAddr, f: impl FnOnce(&mut PastryNode, &mut Outbox)) {
        let mut out = Outbox(Vec::new());
        f(&mut self.nodes[at.0 as usize], &mut out);
        for (to, msg) in out.0 {
            if Some(to) == self.dead {
                continue;
            }
            let queue = self.links.entry((at, to)).or_default();
            if queue.is_empty() {
                self.busy.push((at, to));
            }
            queue.push_back(msg);
        }
    }

    /// Delivers the head of one random busy link; false when none is.
    fn step(&mut self) -> bool {
        if self.busy.is_empty() {
            return false;
        }
        let pick = self.rng.gen_range(0..self.busy.len());
        let (from, to) = self.busy[pick];
        let queue = self.links.get_mut(&(from, to)).expect("busy link");
        let msg = queue.pop_front().expect("busy link has a message");
        if queue.is_empty() {
            self.busy.swap_remove(pick);
        }
        self.on(to, |node, out| node.on_message(out, &mut NoApp, from, msg));
        true
    }

    fn quiesce(&mut self) {
        while self.step() {}
    }

    /// Every node whose leaf set is not the exact one, with what it lacks.
    fn holes(&self) -> Vec<(NodeAddr, usize)> {
        let mut sorted: Vec<NodeInfo> = self.nodes.iter().map(PastryNode::info).collect();
        sorted.sort_by_key(|e| e.id);
        let addrs = |l: &LeafSet| l.members().map(|m| m.addr).collect::<BTreeSet<_>>();
        sorted
            .iter()
            .filter_map(|me| {
                let node = &self.nodes[me.addr.0 as usize];
                let want = addrs(&exact_leaf_set(&sorted, *me));
                let (have, site) = (addrs(node.leaf_set()), addrs(node.site_leaf_set()));
                (have != want || site != want).then(|| (me.addr, want.difference(&have).count()))
            })
            .collect()
    }
}

/// Joins `joiners` in order, with up to `window` joins in flight at once,
/// each through a random node of `joined`; a completed join is refilled
/// before the next delivery, and the joiner becomes a bootstrap too.
fn join_all(net: &mut Net, mut joined: Vec<NodeAddr>, joiners: &[NodeAddr], window: usize) {
    let mut in_flight: Vec<NodeAddr> = Vec::new();
    let mut queue = joiners.iter();
    loop {
        in_flight.retain(|a| {
            let done = net.nodes[a.0 as usize].is_joined();
            if done {
                joined.push(*a);
            }
            !done
        });
        while in_flight.len() < window {
            let Some(&joiner) = queue.next() else { break };
            let via = joined[net.rng.gen_range(0..joined.len())];
            net.on(joiner, |node, out| node.join(out, via));
            in_flight.push(joiner);
        }
        if !net.step() {
            assert!(
                in_flight.is_empty(),
                "window {window}: joins {in_flight:?} stalled with nothing in flight"
            );
            return;
        }
    }
}

/// Boots `n` nodes by protocol join: node 0 seeds the overlay and the
/// rest join through [`join_all`].
fn boot(n: u32, window: usize, seed: u64) -> Net {
    let mut net = Net::new(n, seed);
    let id0 = net.nodes[0].id();
    net.nodes[0].seed_state(
        RoutingTable::new(id0),
        LeafSet::new(id0),
        RoutingTable::new(id0),
        LeafSet::new(id0),
    );
    let joiners: Vec<NodeAddr> = (1..n).map(NodeAddr).collect();
    join_all(&mut net, vec![NodeAddr(0)], &joiners, window);
    net
}

#[test]
fn concurrent_joins_leave_every_leaf_set_exact() {
    for window in [1, 2, 4, 8, 16, 32] {
        for seed in 0..3 {
            let net = boot(240, window, seed);
            assert!(net.nodes.iter().all(PastryNode::is_joined));
            let holes = net.holes();
            assert!(
                holes.is_empty(),
                "window {window}, seed {seed}: {} of 240 leaf sets inexact \
                 (node, true neighbours missing): {holes:?}",
                holes.len()
            );
        }
    }
}

/// Restarted nodes come back with their old ids but no state, while the
/// rest of the ring still holds them: a join routed to one of them, or to
/// the joiner itself, must still reach a root that knows the ring — also
/// when a third of the ring restarted at once, and most joins meet a
/// restarted node that hands them back.
#[test]
fn restarted_nodes_rejoin_to_exact_leaf_sets() {
    let every_eighth: Vec<NodeAddr> = (0..240).step_by(8).map(NodeAddr).collect();
    let a_third: Vec<NodeAddr> = (0..80).map(NodeAddr).collect();
    for restarted in [every_eighth, a_third] {
        for seed in 0..3 {
            let mut net = Net::new(240, seed);
            seed_overlay(&mut net.nodes, |_, _| 0.0);
            for a in &restarted {
                let info = net.nodes[a.0 as usize].info();
                net.nodes[a.0 as usize] = PastryNode::new(info);
            }
            let live = (0..240)
                .map(NodeAddr)
                .filter(|a| !restarted.contains(a))
                .collect();
            join_all(&mut net, live, &restarted, 16);
            assert!(net.nodes.iter().all(PastryNode::is_joined));
            let holes = net.holes();
            assert!(
                holes.is_empty(),
                "{} restarted, seed {seed}: {} of 240 leaf sets inexact: {holes:?}",
                restarted.len(),
                holes.len()
            );
        }
    }
}

/// A leaf member that never answers holds the join open only until the
/// joiner has re-sent it `JOIN_PROBE_RESENDS` times; the join then
/// completes, and every live true neighbour is in its leaf set.
#[test]
fn a_silent_leaf_member_delays_the_join_a_bounded_number_of_resends() {
    let n = 65;
    let mut net = Net::new(n, 9);
    let (ring, joiner) = net.nodes.split_at_mut(n as usize - 1);
    seed_overlay(ring, |_, _| 0.0);
    // The joiner's second clockwise neighbour goes silent: in its leaf
    // set, but not the root its `Join` is routed to.
    let me = joiner[0].id();
    let mut clockwise: Vec<NodeInfo> = ring.iter().map(PastryNode::info).collect();
    clockwise.sort_by_key(|p| me.cw_distance(p.id));
    let silent = clockwise[1].addr;
    net.dead = Some(silent);
    let joiner = NodeAddr(n - 1);
    net.on(joiner, |node, out| node.join(out, NodeAddr(0)));
    net.quiesce();
    let mut resends = 0;
    while !net.nodes[joiner.0 as usize].is_joined() {
        assert!(
            resends <= JOIN_PROBE_RESENDS,
            "still joining after {resends} re-sends"
        );
        net.on(joiner, |node, out| node.join(out, NodeAddr(0)));
        net.quiesce();
        resends += 1;
    }
    assert_eq!(resends, JOIN_PROBE_RESENDS + 1);
    // The silent member keeps its slot: failure detection, not the join,
    // takes it out.
    let holes = net.holes();
    assert!(
        holes.iter().all(|(a, _)| *a != joiner),
        "the joiner's leaf set is inexact: {holes:?}"
    );
}

/// A join sent to a bootstrap that has not joined itself comes back to
/// the joiner, which must not answer it as an overlay of its own: it
/// stays unjoined, names the bootstrap as the one that handed it back,
/// and its re-send once the bootstrap has joined lands in the one ring.
#[test]
fn a_join_through_an_unjoined_bootstrap_waits_for_it() {
    let mut net = Net::new(40, 3);
    seed_overlay(&mut net.nodes[..38], |_, _| 0.0);
    let (gateway, joiner) = (NodeAddr(38), NodeAddr(39));
    net.on(joiner, |node, out| node.join(out, gateway));
    net.quiesce();
    let node = &net.nodes[joiner.0 as usize];
    assert!(!node.is_joined(), "answered its own join");
    assert_eq!(node.leaf_set().members().count(), 0);
    assert_eq!(node.join_handed_back_by(), Some(gateway));

    net.on(gateway, |node, out| node.join(out, NodeAddr(0)));
    net.quiesce();
    assert!(net.nodes[gateway.0 as usize].is_joined());
    net.on(joiner, |node, out| node.join(out, gateway));
    net.quiesce();
    let node = &net.nodes[joiner.0 as usize];
    assert!(node.is_joined());
    assert_eq!(node.join_handed_back_by(), None);
    let holes = net.holes();
    assert!(holes.is_empty(), "leaf sets inexact: {holes:?}");
}

/// A restart of every node, each first trying to join through another
/// that has not joined either: every join is handed back and no node
/// forms an overlay of its own. Once one seeds, every re-send through it
/// builds one ring with exact leaf sets.
#[test]
fn nodes_joining_through_each_other_form_one_overlay_once_one_seeds() {
    let n = 64;
    let mut net = Net::new(n, 5);
    // Node 0 and node 1 through each other, the rest through node 0.
    for a in 0..n {
        let via = NodeAddr(u32::from(a == 0));
        net.on(NodeAddr(a), |node, out| node.join(out, via));
    }
    net.quiesce();
    for (a, node) in net.nodes.iter().enumerate() {
        assert!(!node.is_joined(), "node {a} joined an overlay of its own");
        let via = NodeAddr(u32::from(a == 0));
        assert_eq!(node.join_handed_back_by(), Some(via), "node {a}");
    }

    let id0 = net.nodes[0].id();
    net.nodes[0].seed_state(
        RoutingTable::new(id0),
        LeafSet::new(id0),
        RoutingTable::new(id0),
        LeafSet::new(id0),
    );
    let rest: Vec<NodeAddr> = (1..n).map(NodeAddr).collect();
    join_all(&mut net, vec![NodeAddr(0)], &rest, 16);
    assert!(net.nodes.iter().all(PastryNode::is_joined));
    let holes = net.holes();
    assert!(holes.is_empty(), "leaf sets inexact: {holes:?}");
}
