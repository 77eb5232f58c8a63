//! Shared pieces of the real-socket deployment: node construction, the
//! loopback address plan, the control protocol the `cluster` harness
//! speaks to `rbay-node` daemons, and the client side of it ([`Ctrl`],
//! [`Daemon`]).
//!
//! Address plan: an `n`-agent deployment packs `per` members into each
//! daemon process; process `p` hosts the contiguous overlay addresses
//! `p*per .. min((p+1)*per, n)` and listens on `127.0.0.1:(base_port + p)`.
//! With `per = 1` this degenerates to the original one-agent-per-process
//! plan (daemon `i` = `NodeAddr(i)` on `base_port + i`). Sites are
//! contiguous blocks of indices (`ceil(n / num_sites)` each) named
//! `site0..`, with each site's three lowest addresses as its border
//! routers — the same layout `Federation` uses in simulation, so a
//! converged TCP deployment and a simulated one answer queries through
//! identical gateway logic.

use rbay_core::{Candidate, RbayConfig, RbayNode};
use rbay_wire::{
    decode_frame, encode_frame, read_frame, wire_enum, write_frame, Hello, Resolver, MAX_FRAME_LEN,
};
use simnet::{NodeAddr, SiteId, SiteSpec, Topology};
use std::io;
use std::net::{IpAddr, Ipv4Addr, SocketAddr, TcpStream};
use std::process::Child;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Default first TCP port of a local deployment; daemon `i` listens on
/// `base + i`. Kept below the Linux ephemeral range (32768..61000 by
/// default): a big fleet opens thousands of outbound bus connections
/// whose kernel-assigned source ports would otherwise collide with
/// later daemons' listen ports.
pub const DEFAULT_BASE_PORT: u16 = 21_100;

/// The daemon-process index hosting overlay address `addr` when `per`
/// members are packed per process.
pub fn proc_of(addr: NodeAddr, per: u32) -> u32 {
    addr.0 / per
}

/// The listening socket of daemon process `proc`.
pub fn proc_sock(base_port: u16, proc: u32) -> SocketAddr {
    SocketAddr::new(IpAddr::V4(Ipv4Addr::LOCALHOST), base_port + proc as u16)
}

/// A [`Resolver`] for an `n`-agent loopback deployment packing `per`
/// members per process: every member of a process resolves to that
/// process's one listening socket.
pub fn packed_resolver(base_port: u16, count: u32, per: u32) -> Resolver {
    Arc::new(move |addr: NodeAddr| {
        if addr.0 < count {
            Some(proc_sock(base_port, proc_of(addr, per)))
        } else {
            None
        }
    })
}

/// A [`Resolver`] for an `n`-daemon deployment with one agent per process.
pub fn resolver(base_port: u16, count: u32) -> Resolver {
    packed_resolver(base_port, count, 1)
}

/// The layout of a `count`-daemon, `num_sites`-site deployment: sites
/// named `site{s}`, each a contiguous block of `ceil(count / num_sites)`
/// daemons but the last, which takes what is left.
pub fn daemon_topology(count: u32, num_sites: u16) -> Topology {
    let per = count.div_ceil(num_sites as u32);
    let sites = (0..num_sites as u32)
        .map(|s| SiteSpec {
            name: format!("site{s}"),
            nodes: per.min(count.saturating_sub(s * per)) as usize,
            instability: 1.0,
        })
        .collect();
    Topology::new(
        sites,
        vec![vec![0.0; num_sites as usize]; num_sites as usize],
    )
}

/// Whether [`daemon_topology`] gives each of `num_sites` sites at least one
/// of `count` members — the rule [`RbayNode::members`] asserts, since a
/// site without members has no gateway for queries to enter through. The
/// blocks are filled in order, so too many sites leave the last ones
/// empty: 9 members over 4 sites are sites of 3, 3, 3 and 0.
pub fn check_sites(count: u32, num_sites: u16) -> Result<(), String> {
    let sites = u64::from(num_sites);
    let per = u64::from(count).div_ceil(sites.max(1));
    if sites == 0 || per * (sites - 1) >= u64::from(count) {
        return Err(format!(
            "--num-sites {num_sites} leaves a site without members: {count} agent(s) fill \
             sites of {per} in order"
        ));
    }
    Ok(())
}

/// Builds daemon `index`'s [`RbayNode`] as the simulated `Federation`
/// builds its members ([`RbayNode::members`]), over [`daemon_topology`].
/// A daemon hosting many members builds them with one
/// [`RbayNode::members`] instead, so they share one context.
pub fn build_node(index: u32, count: u32, num_sites: u16, cfg: RbayConfig) -> RbayNode {
    RbayNode::members(&daemon_topology(count, num_sites), Rc::new(cfg))(NodeAddr(index))
}

/// The control protocol between the `cluster` harness (or any operator
/// tool) and a `rbay-node` daemon. Requests flow harness → daemon;
/// [`CtrlMsg::QueryDone`], [`CtrlMsg::StatusReply`], [`CtrlMsg::Ok`] and
/// [`CtrlMsg::Err`] flow back.
#[derive(Debug, Clone, PartialEq)]
pub enum CtrlMsg {
    /// Post a resource attribute on the daemon (it joins the matching
    /// aggregation tree).
    Post {
        /// Attribute name.
        attr: String,
        /// Attribute value.
        value: rbay_query::AttrValue,
    },
    /// Install a node-level active-attribute script (`onGet` guards).
    InstallNodeAa {
        /// AAScript source.
        src: String,
    },
    /// Parse and issue a Zql query; the daemon answers with
    /// [`CtrlMsg::QueryDone`] once the query completes.
    IssueQuery {
        /// The query text.
        zql: String,
        /// Password presented to `onGet` handlers.
        password: Option<String>,
    },
    /// A query this connection issued has completed.
    QueryDone {
        /// Whether `k` candidates were committed.
        satisfied: bool,
        /// The committed candidates.
        results: Vec<Candidate>,
        /// FROM-clause site names that did not resolve.
        unknown_sites: Vec<String>,
    },
    /// The front door refused a query under overload ([`CtrlMsg::IssueQuery`]
    /// answer when admission control sheds).
    QueryShed {
        /// Suggested client backoff before retrying.
        retry_after_ms: u64,
    },
    /// Enable the query front door on the addressed member (sent to each
    /// gateway after convergence).
    EnableFrontdoor {
        /// Cache entry TTL.
        ttl_ms: u64,
        /// Cache capacity (entries).
        capacity: u32,
        /// Admission-control bound on concurrent leader walks.
        max_pending: u32,
    },
    /// Ask for the daemon's overlay/application state.
    Status,
    /// Answer to [`CtrlMsg::Status`].
    StatusReply {
        /// The daemon's overlay address.
        addr: NodeAddr,
        /// Its site.
        site: SiteId,
        /// Whether its Pastry join completed.
        joined: bool,
        /// Distinct peers in its routing state.
        known_peers: u32,
        /// Scribe topics it holds state for.
        topics: u32,
        /// Topics it is attached to (root or parented).
        attached: u32,
        /// Queries committed *on* this daemon (it was reserved and chosen).
        committed: u32,
    },
    /// Generic success acknowledgement.
    Ok,
    /// Generic failure answer.
    Err {
        /// Human-readable reason.
        msg: String,
    },
    /// Ask the daemon to exit cleanly.
    Shutdown,
    /// Address a request to one member of a packed daemon (which hosts
    /// many overlay addresses). Unwrapped requests go to the daemon's
    /// first member.
    To {
        /// The hosted member the inner request targets.
        member: NodeAddr,
        /// The request itself.
        msg: Box<CtrlMsg>,
    },
    /// Ask for process-level aggregate state (cheap at any packing
    /// factor, unlike per-member [`CtrlMsg::Status`] sweeps).
    ProcStatus,
    /// Answer to [`CtrlMsg::ProcStatus`].
    ProcStatusReply {
        /// Members hosted by this process.
        members: u32,
        /// Members whose Pastry join completed.
        joined: u32,
        /// Members attached to at least one aggregation tree.
        attached_members: u32,
        /// Scribe topics across all members.
        topics: u32,
        /// Queries committed across all members.
        committed: u32,
        /// Frames dropped by this process (bus + loopback overflow).
        dropped_frames: u64,
        /// Smallest per-member routing-state size, a convergence signal.
        min_known_peers: u32,
        /// The bus's dropped frames broken down by cause.
        drops: rbay_wire::DropStats,
        /// Front-door counters summed over this process's members.
        frontdoor: rbay_core::FrontdoorStats,
        /// Durable-store counters summed over this process's members
        /// (all-zero when the daemon runs without `--data-dir`).
        store: rbay_store::StoreStats,
    },
    /// Release the member's current reservation (commits hold inventory
    /// for an hour otherwise — benchmark loops release between queries).
    Release,
    /// Ask for every hosted member's global leaf set (the ring check).
    LeafSets,
    /// Answer to [`CtrlMsg::LeafSets`].
    LeafSetsReply {
        /// The first hosted member; `sets[i]` is member `first + i`'s.
        first: NodeAddr,
        /// Each hosted member's leaf-set members, by address.
        sets: Vec<Vec<NodeAddr>>,
    },
}

// Tags are in order of introduction and frozen (golden bytes in the test
// module): old harnesses and new daemons must keep understanding each other.
wire_enum!(CtrlMsg {
    0 => Post { attr, value },
    1 => InstallNodeAa { src },
    2 => IssueQuery { zql, password },
    3 => QueryDone { satisfied, results, unknown_sites },
    4 => Status,
    5 => StatusReply { addr, site, joined, known_peers, topics, attached, committed },
    6 => Ok,
    7 => Err { msg },
    8 => Shutdown,
    9 => To { member, msg },
    10 => ProcStatus,
    11 => ProcStatusReply {
        members,
        joined,
        attached_members,
        topics,
        committed,
        dropped_frames,
        min_known_peers,
        drops,
        frontdoor,
        store,
    },
    12 => Release,
    13 => QueryShed { retry_after_ms },
    14 => EnableFrontdoor { ttl_ms, capacity, max_pending },
    15 => LeafSets,
    16 => LeafSetsReply { first, sets },
});

/// One control connection to a daemon.
// `bench/src/tcp_pack.rs` keeps its own copy until a benchmark PR may edit it.
pub struct Ctrl {
    stream: TcpStream,
}

impl Ctrl {
    /// Connects (with retries until `deadline`) and performs the control
    /// hello.
    pub fn connect(addr: SocketAddr, deadline: Instant) -> io::Result<Ctrl> {
        loop {
            match TcpStream::connect_timeout(&addr, Duration::from_millis(500)) {
                Ok(mut stream) => {
                    stream.set_nodelay(true).ok();
                    write_frame(&mut stream, &encode_frame(&Hello::Ctrl))?;
                    return Ok(Ctrl { stream });
                }
                Err(_) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(100));
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Sends one request without waiting for its answer.
    pub fn send(&mut self, msg: &CtrlMsg) -> io::Result<()> {
        write_frame(&mut self.stream, &encode_frame(msg))
    }

    /// Reads one control reply, failing after `timeout`.
    pub fn recv(&mut self, timeout: Duration) -> io::Result<CtrlMsg> {
        self.stream.set_read_timeout(Some(timeout))?;
        let frame = read_frame(&mut self.stream, MAX_FRAME_LEN)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "daemon closed ctrl"))?;
        decode_frame::<CtrlMsg>(&frame).map_err(io::Error::other)
    }

    /// [`send`](Ctrl::send) then [`recv`](Ctrl::recv).
    pub fn request(&mut self, msg: &CtrlMsg, timeout: Duration) -> io::Result<CtrlMsg> {
        self.send(msg)?;
        self.recv(timeout)
    }
}

/// Wraps a request for one specific member in its [`CtrlMsg::To`] envelope.
pub fn to(member: NodeAddr, msg: CtrlMsg) -> CtrlMsg {
    CtrlMsg::To {
        member,
        msg: Box::new(msg),
    }
}

/// A spawned daemon process, killed and reaped when dropped — a harness
/// that panics or returns early must not leave daemons squatting on the
/// port range.
pub struct Daemon(pub Child);

impl Daemon {
    /// Waits up to `timeout` for the process to exit on its own (after a
    /// `Shutdown`); an error unless it exited with status 0 in time.
    pub fn reap(&mut self, timeout: Duration) -> Result<(), String> {
        let deadline = Instant::now() + timeout;
        loop {
            match self.0.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                Ok(None) => return Err(format!("still running after {timeout:?}")),
                Err(e) => return Err(format!("cannot reap: {e}")),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pastry::NodeId;

    /// One value per [`CtrlMsg`] variant, in tag order, with the message
    /// bytes it encoded to at the commit before the codec became
    /// declarative. These vectors are never edited to make a change pass.
    /// They pin the message alone: its frame puts `WIRE_VERSION` in front
    /// (`rbay-wire`'s golden tests pin that byte), and a daemon refuses a
    /// frame of another version — the `Hello` that opens a control
    /// connection included — so a harness and the daemons it drives must
    /// be built at the same wire version.
    fn golden_ctrl_msgs() -> Vec<(CtrlMsg, &'static str)> {
        vec![
            (
                CtrlMsg::Post {
                    attr: "GPU".into(),
                    value: rbay_query::AttrValue::Bool(true),
                },
                "00034750550001",
            ),
            (
                CtrlMsg::InstallNodeAa {
                    src: "AA = {}".into(),
                },
                "01074141203d207b7d",
            ),
            (
                CtrlMsg::IssueQuery {
                    zql: "SELECT 3 FROM * WHERE GPU = true".into(),
                    password: Some("pw".into()),
                },
                "022053454c45435420332046524f4d202a20574845524520475055203d207472756501027077",
            ),
            (
                CtrlMsg::QueryDone {
                    satisfied: true,
                    results: vec![Candidate {
                        id: NodeId(7),
                        addr: NodeAddr(300),
                        site: SiteId(0),
                        sort_key: None,
                    }],
                    unknown_sites: vec!["atlantis".into()],
                },
                "03010107000000000000000000000000000000ac020000010861746c616e746973",
            ),
            (CtrlMsg::Status, "04"),
            (
                CtrlMsg::StatusReply {
                    addr: NodeAddr(499),
                    site: SiteId(1),
                    joined: true,
                    known_peers: 37,
                    topics: 8,
                    attached: 8,
                    committed: 2,
                },
                "05f303010125080802",
            ),
            (CtrlMsg::Ok, "06"),
            (
                CtrlMsg::Err {
                    msg: "no such member".into(),
                },
                "070e6e6f2073756368206d656d626572",
            ),
            (CtrlMsg::Shutdown, "08"),
            (
                CtrlMsg::To {
                    member: NodeAddr(123),
                    msg: Box::new(CtrlMsg::IssueQuery {
                        zql: "SELECT 1 FROM * WHERE GPU = true".into(),
                        password: None,
                    }),
                },
                "097b022053454c45435420312046524f4d202a20574845524520475055203d207472756500",
            ),
            (CtrlMsg::ProcStatus, "0a"),
            (
                CtrlMsg::ProcStatusReply {
                    members: 100,
                    joined: 99,
                    attached_members: 4,
                    topics: 7,
                    committed: 2,
                    dropped_frames: 1,
                    min_known_peers: 12,
                    drops: rbay_wire::DropStats {
                        unresolvable: 1,
                        outbound_full: 2,
                        write_cap: 3,
                        connect_exhausted: 4,
                        conn_closed: 5,
                    },
                    frontdoor: rbay_core::FrontdoorStats {
                        hits: 10,
                        misses: 4,
                        coalesced: 2,
                        shed: 1,
                        invalidations: 3,
                        evictions: 0,
                    },
                    store: rbay_store::StoreStats {
                        appends: 40,
                        dedup_skips: 3,
                        snapshots: 1,
                        replay_records: 17,
                        replay_micros: 250,
                        relint_rejects: 1,
                        wal_bytes: 4096,
                        wal_records: 23,
                    },
                },
                "0b6463040702010c01020304050a040201030028030111fa0101802017",
            ),
            (CtrlMsg::Release, "0c"),
            (
                CtrlMsg::QueryShed {
                    retry_after_ms: 100,
                },
                "0d64",
            ),
            (
                CtrlMsg::EnableFrontdoor {
                    ttl_ms: 10_000,
                    capacity: 1024,
                    max_pending: 256,
                },
                "0e904e80088002",
            ),
            (CtrlMsg::LeafSets, "0f"),
            (
                CtrlMsg::LeafSetsReply {
                    first: NodeAddr(300),
                    sets: vec![vec![NodeAddr(1), NodeAddr(299)], vec![]],
                },
                "10ac02020201ab0200",
            ),
        ]
    }

    #[test]
    fn ctrl_msgs_encode_to_golden_bytes() {
        let vectors = golden_ctrl_msgs();
        for (m, hex) in &vectors {
            let got: String = rbay_wire::Wire::encode(m)
                .iter()
                .map(|b| format!("{b:02x}"))
                .collect();
            assert_eq!(&got, hex, "encoding moved for {m:?}");
            assert_eq!(rbay_wire::Wire::encoded_len(m) * 2, hex.len());
            assert_eq!(&decode_frame::<CtrlMsg>(&encode_frame(m)).unwrap(), m);
        }
        // One vector per declared tag: a new variant needs a new vector.
        rbay_wire::assert_tags_covered(vectors.into_iter().map(|(m, _)| m));
    }

    #[test]
    fn nested_to_wrappers_hit_the_depth_guard() {
        // A hostile chain of To-wrappers must error out, not recurse
        // unboundedly.
        let mut msg = CtrlMsg::Status;
        for _ in 0..100 {
            msg = CtrlMsg::To {
                member: NodeAddr(0),
                msg: Box::new(msg),
            };
        }
        assert!(decode_frame::<CtrlMsg>(&encode_frame(&msg)).is_err());
    }

    /// A control socket takes bytes from anyone: random frames, every
    /// strict prefix and every single-bit flip of each golden frame decode
    /// to a value or a `WireError`, never a panic, and a length beyond
    /// the frame is refused before anything is reserved for it.
    #[test]
    fn corrupt_ctrl_frames_error_not_panic() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        use rbay_wire::{Sink, WireError, WIRE_VERSION};
        for (m, _) in golden_ctrl_msgs() {
            let frame = encode_frame(&m);
            for cut in 0..frame.len() {
                assert!(decode_frame::<CtrlMsg>(&frame[..cut]).is_err());
            }
            for bit in 0..frame.len() * 8 {
                let mut flipped = frame.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                if let Ok(back) = decode_frame::<CtrlMsg>(&flipped) {
                    let _ = encode_frame(&back);
                }
            }
        }
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..4096 {
            let len = rng.gen_range(0..96);
            let bytes: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
            let _ = decode_frame::<CtrlMsg>(&bytes);
        }
        // A `QueryDone` announcing 2^40 results in a nine-byte frame.
        let mut hostile = vec![WIRE_VERSION, 3, 1];
        hostile.varint(1 << 40);
        assert!(matches!(
            decode_frame::<CtrlMsg>(&hostile),
            Err(WireError::BadLength { len, .. }) if len == 1 << 40
        ));
    }

    #[test]
    fn packed_address_plan_is_consistent() {
        // 10 agents, 4 per process: procs host [0..4), [4..8), [8..10).
        assert_eq!(proc_of(NodeAddr(0), 4), 0);
        assert_eq!(proc_of(NodeAddr(3), 4), 0);
        assert_eq!(proc_of(NodeAddr(4), 4), 1);
        assert_eq!(proc_of(NodeAddr(9), 4), 2);
        let r = packed_resolver(50_000, 10, 4);
        assert_eq!(r(NodeAddr(5)), Some(proc_sock(50_000, 1)));
        assert_eq!(r(NodeAddr(9)), Some(proc_sock(50_000, 2)));
        assert_eq!(r(NodeAddr(10)), None);
        // per = 1 matches the historical one-agent-per-process plan.
        let r1 = resolver(50_000, 3);
        assert_eq!(r1(NodeAddr(2)), Some(proc_sock(50_000, 2)));
    }

    /// The check refuses exactly the shapes whose layout leaves a site
    /// empty, and no sites at all.
    #[test]
    fn site_check_refuses_every_layout_with_an_empty_site() {
        assert!(check_sites(9, 4).is_err(), "sites of 3, 3, 3 and 0");
        assert!(check_sites(12, 3).is_ok());
        for count in 0..40 {
            assert!(check_sites(count, 0).is_err(), "{count} agents, 0 sites");
            for sites in 1..12u16 {
                let topo = daemon_topology(count, sites);
                let full = (0..sites).all(|s| topo.site(SiteId(s)).nodes > 0);
                assert_eq!(
                    check_sites(count, sites).is_ok(),
                    full,
                    "{count} over {sites}"
                );
            }
        }
    }

    #[test]
    fn layout_matches_across_daemons() {
        // 10 nodes over 2 sites: 0..4 in site0, 5..9 in site1.
        let topo = daemon_topology(10, 2);
        assert_eq!(topo.site_of(NodeAddr(4)), SiteId(0));
        assert_eq!(topo.site_of(NodeAddr(5)), SiteId(1));
        assert_eq!(topo.node_count(), 10);
        // 9 nodes over 4 sites: blocks of 3, and the last site is empty.
        let sizes = |t: &Topology| (0..4).map(|s| t.site(SiteId(s)).nodes).collect::<Vec<_>>();
        assert_eq!(sizes(&daemon_topology(9, 4)), [3, 3, 3, 0]);
        let a = build_node(0, 10, 2, RbayConfig::default());
        let b = build_node(7, 10, 2, RbayConfig::default());
        assert_eq!(a.host.gateways, b.host.gateways);
        assert_eq!(a.host.site_names, b.host.site_names);
        assert_eq!(
            a.host.gateways[1],
            vec![NodeAddr(5), NodeAddr(6), NodeAddr(7)]
        );
        // The simulator builds the same members.
        let fed = rbay_core::Federation::new(topo, 1);
        for i in 0..10 {
            let (sim, tcp) = (
                fed.sim().actor(NodeAddr(i)),
                build_node(i, 10, 2, RbayConfig::default()),
            );
            assert_eq!(sim.pastry.info(), tcp.pastry.info());
            assert_eq!(sim.host.gateways, tcp.host.gateways);
            assert_eq!(sim.host.site_names, tcp.host.site_names);
        }
    }
}
