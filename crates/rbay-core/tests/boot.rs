//! Packs boot a federation by joins alone, through the pack-owned join
//! window and tick, on the simulator: each pack is one simnet node, as
//! each daemon is one process, and its frames cross the simulated network
//! encoded. At quiescence every leaf set must be exact. A pack restarted
//! from its journal comes back with what its members journaled. Every
//! limit is simulated time, so each test replays per seed.

use pastry::{exact_leaf_set, NodeInfo, PastryMsg};
use rbay_core::{FrameSink, Hold, Pack, RbayConfig, RbayMsg, RbayNode};
use rbay_query::{parse_query, AttrValue};
use rbay_store::FsyncPolicy;
use rbay_wire::decode_frame;
use simnet::{
    Actor, Context, NodeAddr, SimDuration, SimTime, Simulation, TimerToken, Topology, Transport,
};
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::rc::Rc;

/// The round trip between two packs, in ms: loopback, as between the
/// daemons `cluster` runs on one host.
const RTT_MS: f64 = 0.2;
/// The seed every test runs at.
const SEED: u64 = 42;
/// How often [`Net::until`] checks whether it is done.
const STEP: SimDuration = SimDuration::from_millis(10);
/// How long a boot or rejoin may take to reach exact leaf sets.
const BOOT_LIMIT: SimDuration = SimDuration::from_secs(20);
/// The pack's one simnet timer, armed for its next deadline.
const ALARM: TimerToken = TimerToken(0);

/// How many members each pack has, and the packs' tick: join re-sends
/// and maintenance strides.
#[derive(Clone, Copy)]
struct Shape {
    per: u32,
    tick: SimDuration,
}

/// Packs of 40 members on a 2 ms tick.
const SMALL: Shape = Shape {
    per: 40,
    tick: SimDuration::from_millis(2),
};

/// One frame between packs: the sending member, the receiving member and
/// the encoded message.
type Frame = (NodeAddr, NodeAddr, Vec<u8>);

/// One daemon as `rbay-node` runs it, on simulated time.
struct Daemon {
    pack: Pack,
    per: u32,
    /// The earliest [`ALARM`] pending, if one is.
    alarm: Option<SimTime>,
    /// `Join` frames sent, by destination pack, since it last went down.
    joins_sent: Vec<usize>,
}

/// A daemon's frame sink: a frame goes to the node of the pack hosting
/// its destination.
struct Sink<'a, 'c> {
    ctx: &'a mut Context<'c, Frame>,
    per: u32,
    joins_sent: &'a mut [usize],
}

impl FrameSink for Sink<'_, '_> {
    fn send_frame(&mut self, from: NodeAddr, to: NodeAddr, frame: Vec<u8>) {
        let pack = to.0 / self.per;
        let msg = decode_frame::<RbayMsg>(&frame);
        self.joins_sent[pack as usize] += usize::from(matches!(msg, Ok(PastryMsg::Join { .. })));
        self.ctx.send(NodeAddr(pack), (from, to, frame));
    }
}

/// Pack `p` of `n`'s members, fresh: the ids a daemon gives them, no state.
fn members(p: u32, n: u32, per: u32) -> Vec<RbayNode> {
    let topology = Topology::single_site((n * per) as usize, 0.0);
    let member = RbayNode::members(&topology, Rc::new(RbayConfig::default()));
    (p * per..(p + 1) * per)
        .map(|a| member(NodeAddr(a)))
        .collect()
}

impl Daemon {
    /// One turn of the daemon's loop around `input`: set the pack's time,
    /// handle the input, fire what is due and pump loopback; then arm the
    /// alarm for the pack's next deadline unless one as early is pending.
    fn turn<R>(
        &mut self,
        ctx: &mut Context<'_, Frame>,
        input: impl FnOnce(&mut Pack, &mut Sink<'_, '_>) -> R,
    ) -> R {
        let now = ctx.now();
        self.pack.advance_to(now);
        let mut sink = Sink {
            ctx,
            per: self.per,
            joins_sent: &mut self.joins_sent,
        };
        let out = input(&mut self.pack, &mut sink);
        self.pack.fire_due(&mut sink);
        self.pack.pump(&mut sink);
        if let Some(at) = self.pack.next_deadline() {
            if self.alarm.is_none_or(|alarm| at < alarm) {
                ctx.set_timer(at.saturating_since(now), ALARM);
                self.alarm = Some(at);
            }
        }
        out
    }

    /// Pack `p` of `n`, built afresh, restored from its journal under
    /// `data` if given, and started; its gateways are the other packs'
    /// first members, pack 0's first, as `rbay-node` lists them.
    fn boot(
        &mut self,
        ctx: &mut Context<'_, Frame>,
        tick: SimDuration,
        p: u32,
        n: u32,
        data: Option<&Path>,
    ) {
        let per = self.per;
        self.pack = Pack::new(p * per, members(p, n, per));
        if let Some(data) = data {
            let opened = self.pack.open_stores(data, FsyncPolicy::Never);
            opened.expect("open journal");
        }
        let gateways = (0..n).filter(|&q| q != p).map(|q| NodeAddr(q * per));
        self.turn(ctx, |pack, sink| pack.start(sink, tick, gateways.collect()));
    }
}

impl Actor for Daemon {
    type Msg = Frame;

    fn wire_size((_, _, frame): &Frame) -> usize {
        frame.len()
    }

    fn on_message(&mut self, ctx: &mut Context<'_, Frame>, _: NodeAddr, frame: Frame) {
        let (from, to, frame) = frame;
        let msg = decode_frame::<RbayMsg>(&frame).expect("own frame decodes");
        self.turn(ctx, |pack, sink| {
            assert!(pack.on_message(sink, from, to, msg))
        });
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Frame>, _: TimerToken) {
        if self.alarm.is_some_and(|alarm| alarm <= ctx.now()) {
            self.alarm = None;
        }
        self.turn(ctx, |_, _| ());
    }
}

fn addrs<'a>(members: impl Iterator<Item = &'a NodeInfo>) -> BTreeSet<NodeAddr> {
    members.map(|m| m.addr).collect()
}

/// Packs of one [`Shape`], one simnet node each, as that many daemons run
/// them on one host. A pack that is down is a failed node.
struct Net {
    shape: Shape,
    sim: Simulation<Daemon>,
    /// Where the packs journal, if anywhere.
    data: Option<PathBuf>,
}

impl Net {
    /// `n` packs of [`SMALL`], journaling nowhere.
    fn start(n: u32) -> Net {
        Net::shaped(SMALL, n, None)
    }

    /// `n` packs of `shape`, each journaling under `data` if given.
    fn shaped(shape: Shape, n: u32, data: Option<PathBuf>) -> Net {
        let topology = Topology::single_site(n as usize, RTT_MS);
        let sim = Simulation::new(topology, SEED, |addr| Daemon {
            pack: Pack::new(addr.0 * shape.per, Vec::new()),
            per: shape.per,
            alarm: None,
            joins_sent: vec![0; n as usize],
        });
        let mut net = Net { shape, sim, data };
        for p in 0..n {
            net.restart(p);
        }
        net
    }

    fn packs(&self) -> u32 {
        self.sim.topology().node_count() as u32
    }

    fn pack(&self, p: u32) -> &Pack {
        &self.sim.actor(NodeAddr(p)).pack
    }

    /// Pack `p` (re)starts now: fresh members under the same ids, which
    /// the other packs' members still hold, restored from its journal if
    /// it keeps one.
    fn restart(&mut self, p: u32) {
        let (tick, n, data) = (self.shape.tick, self.packs(), self.data.clone());
        self.sim.revive_node(NodeAddr(p));
        self.sim
            .schedule_call(self.sim.now(), NodeAddr(p), move |d, ctx| {
                d.boot(ctx, tick, p, n, data.as_deref());
            });
        self.sim.run_until(self.sim.now());
    }

    /// Pack `p` goes down: it takes no turns, and every frame sent to it
    /// is lost.
    fn down(&mut self, p: u32) {
        self.sim.fail_node(NodeAddr(p));
        for q in 0..self.packs() {
            self.sim.actor_mut(NodeAddr(q)).joins_sent[p as usize] = 0;
        }
    }

    /// The daemons of packs that are up.
    fn live(&self) -> impl Iterator<Item = &Daemon> {
        let up = self.sim.actors().filter(|(a, _)| !self.sim.is_failed(*a));
        up.map(|(_, d)| d)
    }

    /// `Join` frames the live packs sent to packs that are down.
    fn joins_lost(&self) -> usize {
        let sent = self.live().flat_map(|d| d.joins_sent.iter().enumerate());
        let lost = sent.filter(|&(q, _)| self.sim.is_failed(NodeAddr(q as u32)));
        lost.map(|(_, n)| n).sum()
    }

    /// Runs `f` on member `slot` of pack `p` now, as a ctrl command does,
    /// and returns what it returned.
    fn with<R: 'static>(
        &mut self,
        p: u32,
        slot: u32,
        f: impl FnOnce(&mut RbayNode) -> R + 'static,
    ) -> R {
        let out = Rc::new(RefCell::new(None));
        let put = Rc::clone(&out);
        self.sim
            .schedule_call(self.sim.now(), NodeAddr(p), move |d, ctx| {
                let r = d.turn(ctx, |pack, sink| {
                    pack.with_member(sink, slot, |node, _| f(node))
                });
                *put.borrow_mut() = Some(r);
            });
        self.sim.run_until(self.sim.now());
        out.take().expect("the call ran")
    }

    /// Every member of a live pack whose leaf set is not its true ring
    /// neighbourhood among the members of live packs, with the members its
    /// leaf set lacks and those it holds in excess.
    fn gaps(&self) -> Vec<(NodeAddr, BTreeSet<NodeAddr>, BTreeSet<NodeAddr>)> {
        let live = || {
            let packs = self.live().map(|d| &d.pack);
            packs.flat_map(|pack| (0..pack.len()).map(|slot| &pack.member(slot).pastry))
        };
        let mut sorted: Vec<NodeInfo> = live().map(|node| node.info()).collect();
        sorted.sort_by_key(|info| info.id);
        live()
            .filter_map(|node| {
                let want = addrs(exact_leaf_set(&sorted, node.info()).members());
                let have = addrs(node.leaf_set().members());
                let exact = node.is_joined() && have == want;
                (!exact).then(|| (node.info().addr, &want - &have, &have - &want))
            })
            .collect()
    }

    /// Members of pack `p` that have not joined.
    fn unjoined(&self, p: u32) -> Vec<NodeAddr> {
        let pack = self.pack(p);
        (0..pack.len())
            .filter(|&slot| !pack.member(slot).pastry.is_joined())
            .map(|slot| pack.addr_of(slot))
            .collect()
    }

    /// Runs the simulation until `done` reports nothing left, checking
    /// every [`STEP`], and returns the simulated time that took; or, past
    /// `limit`, what `done` last reported.
    fn until(
        &mut self,
        limit: SimDuration,
        done: impl Fn(&Net) -> Vec<NodeAddr>,
    ) -> Result<SimDuration, Vec<NodeAddr>> {
        let start = self.sim.now();
        loop {
            let left = done(self);
            let took = self.sim.now().saturating_since(start);
            if left.is_empty() {
                return Ok(took);
            }
            if took >= limit {
                return Err(left);
            }
            self.sim.run_for(STEP);
        }
    }

    /// Runs until every live leaf set is exact and returns the simulated
    /// time that took; past [`BOOT_LIMIT`], says how many are not, and
    /// what the first one lacks and holds in excess.
    fn exact(&mut self) -> Result<SimDuration, String> {
        let inexact = |net: &Net| net.gaps().into_iter().map(|(addr, ..)| addr).collect();
        self.until(BOOT_LIMIT, inexact).map_err(|_| {
            let gaps = self.gaps();
            let (first, missing, extra) = &gaps[0];
            format!(
                "{} leaf set(s) inexact after {BOOT_LIMIT}; the first, {first}'s, lacks \
                 {missing:?} and holds {extra:?} in excess",
                gaps.len()
            )
        })
    }

    /// [`Net::exact`], panicking past its limit.
    fn boot(&mut self, what: &str) -> SimDuration {
        self.exact().unwrap_or_else(|e| panic!("{what}: {e}"))
    }

    /// Every member's leaf set, pack by pack.
    fn leaf_sets(&self) -> Vec<BTreeSet<NodeAddr>> {
        let packs = self.sim.actors().map(|(_, d)| &d.pack);
        packs
            .flat_map(|pack| {
                (0..pack.len()).map(|slot| addrs(pack.member(slot).pastry.leaf_set().members()))
            })
            .collect()
    }
}

/// Runs until member `slot` of pack `p` has attached to a tree.
fn until_attached(net: &mut Net, what: &str, p: u32, slot: u32) {
    let detached = |net: &Net| {
        let node = net.pack(p).member(slot);
        let attached = node.scribe.topics().any(|(_, st)| st.is_attached());
        if attached {
            Vec::new()
        } else {
            vec![net.pack(p).addr_of(slot)]
        }
    };
    net.until(BOOT_LIMIT, detached)
        .unwrap_or_else(|_| panic!("{what}: not attached after {BOOT_LIMIT}"));
}

/// A fresh directory for a test's journals.
fn data_dir(name: &str) -> PathBuf {
    let data = std::env::temp_dir().join(format!("rbay-boot-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data);
    data
}

#[test]
fn two_packs_boot_to_exact_leaf_sets() {
    let mut net = Net::start(2);
    net.boot("boot");
}

/// The second pack restarts: fresh members under the same ids, which
/// the first pack's members still hold. It rejoins through the first
/// pack, and every leaf set is exact again.
#[test]
fn a_restarted_pack_rejoins_to_exact_leaf_sets() {
    let mut net = Net::start(2);
    net.boot("boot");
    net.restart(1);
    assert!(
        !net.pack(1).member(0).pastry.is_joined(),
        "a later pack never seeds"
    );
    net.boot("rejoin");
}

/// One boot and one restart, run twice at the same seed, send the same
/// frames, reach exact leaf sets at the same simulated times, and end with
/// the same leaf sets.
#[test]
fn a_boot_and_a_restart_replay_per_seed() {
    let run = || {
        let mut net = Net::start(2);
        let boot = net.boot("boot");
        net.restart(1);
        let rejoin = net.boot("rejoin");
        let stats = net.sim.stats();
        (stats.sent(), stats.bytes(), boot, rejoin, net.leaf_sets())
    };
    assert_eq!(run(), run());
}

/// Two packs on a daemon's 150 ms tick, and the first restarts from its
/// journal: at 2 × 250, and at 2 × 100. Half the ring restarts at once,
/// so runs of its members longer than half a leaf set lie between the
/// other pack's, and no survivor's leaf set reaches across them. Every
/// leaf set should be exact again within the boot's 20 s, not after the
/// half minute anti-entropy takes to heal the gaps.
///
/// It is not: restarted members join with leaf sets full of far
/// restarted members, and `cluster` over sockets leaves the same members
/// inexact after a restart of the same shape.
#[test]
#[ignore = "ROADMAP 17(c): half the ring restarted rejoins with inexact leaf sets for ~30 s"]
fn half_the_ring_restarted_at_once_rejoins_to_exact_leaf_sets() {
    let failed: Vec<String> = [250, 100]
        .into_iter()
        .filter_map(|per| {
            let data = data_dir(&format!("half-{per}"));
            let shape = Shape {
                per,
                tick: SimDuration::from_millis(150),
            };
            let mut net = Net::shaped(shape, 2, Some(data.clone()));
            net.boot("boot");
            net.restart(0);
            let rejoin = net.exact();
            std::fs::remove_dir_all(&data).unwrap();
            rejoin.err().map(|e| format!("2 × {per}: {e}"))
        })
        .collect();
    assert!(failed.is_empty(), "rejoin: {}", failed.join("; "));
}

/// Pack 1 restarts from its journal: the attribute and subscription a
/// member posted, the commit a query took on it and its commit count all
/// come back, with no operator re-posting, and the member re-attaches to
/// its tree.
#[test]
fn a_pack_restarted_from_its_journal_gets_its_state_back() {
    let data = data_dir("journal");
    let mut net = Net::shaped(SMALL, 2, Some(data.clone()));
    net.boot("boot");
    // The only holder of GPU = true: pack 1's member in slot 3.
    let holder = 3;
    net.with(1, holder, |node| {
        node.host.post_resource("GPU", AttrValue::Bool(true));
        node.host.update_attr("CPU", AttrValue::Num(35.0));
    });
    until_attached(&mut net, "holder attached", 1, holder);
    // Pack 0's first member queries until the holder is committed to it.
    let query = Rc::new(parse_query("SELECT 1 FROM * WHERE GPU = true").unwrap());
    let issue = |net: &mut Net| {
        let q = Rc::clone(&query);
        net.with(0, 0, |node| node.host.issue_query(q, None))
    };
    let mut id = issue(&mut net);
    let deadline = net.sim.now() + BOOT_LIMIT;
    while !matches!(net.pack(1).member(holder).host.hold, Some(Hold::Committed { by }) if by == id)
    {
        assert!(net.sim.now() < deadline, "no commit on the holder");
        net.sim.run_for(STEP);
        let rec = &net.pack(0).member(0).host.queries[&id];
        if rec.completed_at.is_some() && !rec.satisfied {
            id = issue(&mut net);
        }
    }
    assert_eq!(net.pack(1).member(holder).host.commits, 1);

    net.restart(1);
    let host = &net.pack(1).member(holder).host;
    assert_eq!(host.attrs.get("GPU"), Some(&AttrValue::Bool(true)));
    assert_eq!(host.attrs.get("CPU"), Some(&AttrValue::Num(35.0)));
    assert_eq!(host.sub_requested.len(), 1, "the GPU=true tree, queued");
    assert_eq!(host.hold, Some(Hold::Committed { by: id }));
    assert_eq!(host.commits, 1);
    let untouched = &net.pack(1).member(holder + 1).host;
    assert!(untouched.attrs.is_empty() && untouched.hold.is_none());
    let stats = net.pack(1).store_stats();
    assert!(stats.replay_records >= 4, "{stats:?}");
    net.boot("rejoin");
    until_attached(&mut net, "holder re-attached", 1, holder);
    std::fs::remove_dir_all(&data).unwrap();
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
    let mut net = Net::start(3);
    net.boot("boot");
    net.down(0);
    net.down(2);
    net.restart(2);
    let limit = SimDuration::from_secs(10);
    if let Err(left) = net.until(limit, |net| net.unjoined(2)) {
        panic!(
            "rejoin: {} member(s) unjoined after {limit}, {} join(s) lost to down packs: {left:?}",
            left.len(),
            net.joins_lost()
        );
    }
}
