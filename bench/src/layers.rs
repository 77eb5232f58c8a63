//! Micro-probes: one layer at a time, timed through its public calls.
//!
//! Each probe builds the smallest thing that exercises the layer the way
//! the workloads do, runs it for a fixed number of operations and reports
//! a per-operation cost. The numbers say which layer got cheaper or dearer;
//! only the end-to-end metrics say whether that mattered.

use crate::report::Outcome;
use crate::stats;
use pastry::{seed_overlay, NodeId, NodeInfo, PastryMsg, PastryNode};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rbay_bench::cluster::build_node;
use rbay_core::{
    query_key, Candidate, FrameSink, Pack, QueryId, RbayConfig, RbayMsg, RbayPayload, SearchState,
};
use rbay_query::{parse_query, AttrValue};
use rbay_store::{FsyncPolicy, Store, WalRecord};
use rbay_wire::{decode_frame, encode_frame, Inbound, Resolver, TcpBus, Transport};
use rbay_workloads::{
    aws8_site_names, instance_query_population, password_aa_script, QueryGen, ZipfWorkload,
    WORKLOAD_PASSWORD,
};
use scribe::{AggValue, ScribeMsg, TopicId};
use simnet::{CalendarQueue, NodeAddr, SimDuration, SimTime, SiteId};
use std::collections::HashMap;
use std::hint::black_box;
use std::net::SocketAddr;
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Batches each timed loop is split into; the median batch is reported.
const BATCHES: usize = 7;

/// Median nanoseconds per call of `f` over [`BATCHES`] batches of `iters`.
fn ns_per_op(iters: usize, mut f: impl FnMut()) -> f64 {
    let per_batch: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_secs_f64() * 1e9 / iters as f64
        })
        .collect();
    stats::median(&per_batch)
}

/// Runs every probe and stores its metrics in `out`.
pub fn run_probes(seed: u64, out: &mut Outcome) {
    probe_queue(out);
    probe_next_hop(out);
    probe_aascript(out);
    probe_query_and_key(seed, out);
    probe_generators(seed, out);
    probe_wire(out);
    probe_pack(out);
    probe_store(out);
    if let Err(e) = probe_tcp(out) {
        eprintln!("bench: tcp probe skipped: {e}");
    }
}

/// `simnet.queue_ns_per_op`: hold model on the engine's event queue at
/// 100k pending — pop the earliest, push a replacement 0–2 s out.
fn probe_queue(out: &mut Outcome) {
    let mut rng = SmallRng::seed_from_u64(7);
    let mut q: CalendarQueue<()> = CalendarQueue::new();
    let mut seq = 0u64;
    for _ in 0..100_000 {
        q.push(
            SimTime::from_micros(rng.gen_range(0..2_000_000u64)),
            seq,
            (),
        );
        seq += 1;
    }
    let ns = ns_per_op(50_000, || {
        let (at, _, ()) = q.pop().expect("queue stays full");
        let delay = SimDuration::from_micros(rng.gen_range(0..2_000_000u64));
        q.push(at + delay, seq, ());
        seq += 1;
    });
    out.put_layer("simnet.queue_ns_per_op", ns);
}

/// `pastry.next_hop_ns`: routing decisions on a converged 1,000-node
/// overlay, random keys, rotating over the nodes.
fn probe_next_hop(out: &mut Outcome) {
    let mut nodes: Vec<PastryNode> = (0..1_000u32)
        .map(|i| {
            PastryNode::new(NodeInfo {
                id: NodeId::hash_of(format!("n{i}").as_bytes()),
                addr: NodeAddr(i),
                site: SiteId(0),
            })
        })
        .collect();
    seed_overlay(&mut nodes, |_, _| 0.5);
    let keys: Vec<NodeId> = (0..256)
        .map(|k| NodeId::hash_of(format!("key{k}").as_bytes()))
        .collect();
    let mut i = 0usize;
    let ns = ns_per_op(100_000, || {
        i += 1;
        black_box(nodes[i % nodes.len()].next_hop(keys[i % keys.len()], None));
    });
    out.put_layer("pastry.next_hop_ns", ns);
}

/// `aascript.onget_ns` and `aascript.install_us`: the Fig. 5 password
/// handler — one `onGet` call, and compile + lint + instantiate.
fn probe_aascript(out: &mut Outcome) {
    let src = password_aa_script();
    let sandbox = aascript::SharedSandbox::new();
    let budget = RbayConfig::default().aa_budget;
    let install = || {
        let script = aascript::Script::compile(&src).expect("workload script compiles");
        black_box(script.analyze(&aascript::analysis::LintOptions::default()));
        script
            .instantiate(&sandbox, budget)
            .expect("workload script instantiates")
    };
    let aa = install();
    let args = [
        aascript::Value::str("7"),
        aascript::Value::str(WORKLOAD_PASSWORD),
    ];
    let ns = ns_per_op(50_000, || {
        black_box(aa.invoke("onGet", &args, budget).expect("onGet runs"));
    });
    out.put_layer("aascript.onget_ns", ns);
    let ns = ns_per_op(300, || {
        black_box(install());
    });
    out.put_layer("aascript.install_us", ns / 1e3);
}

/// The query texts the workloads issue: the Zipf population and a sample
/// of `sim_geo` composites.
fn workload_texts(seed: u64) -> Vec<String> {
    let mut texts =
        instance_query_population(crate::sim_zipf_rw::DISTINCT, crate::sim_geo::EXTRA_ATTRS);
    let mut qg = QueryGen::new(seed, aws8_site_names(), crate::sim_geo::EXTRA_ATTRS);
    for i in 0..64u16 {
        texts.push(qg.composite(
            SiteId(i % 8),
            1 + usize::from(i % 8),
            1 + u32::from(i % 2) * 2,
        ));
    }
    texts
}

/// `rbay-query.parse_ns` and `frontdoor.key_ns` over the workloads' texts.
fn probe_query_and_key(seed: u64, out: &mut Outcome) {
    let texts = workload_texts(seed);
    let mut i = 0usize;
    let ns = ns_per_op(20_000, || {
        i += 1;
        black_box(parse_query(black_box(&texts[i % texts.len()])).expect("workload text parses"));
    });
    out.put_layer("rbay-query.parse_ns", ns);
    let parsed: Vec<_> = texts
        .iter()
        .map(|t| parse_query(t).expect("workload text parses"))
        .collect();
    let ns = ns_per_op(20_000, || {
        i += 1;
        black_box(query_key(black_box(&parsed[i % parsed.len()])));
    });
    out.put_layer("frontdoor.key_ns", ns);
}

/// `workloads.gen_ns_per_op`: the generators alone, mean of the Zipf
/// read/write stream and the composite generator — shows the harness is
/// not what the workloads measure.
fn probe_generators(seed: u64, out: &mut Outcome) {
    let mut wl = ZipfWorkload::new(
        seed,
        instance_query_population(crate::sim_zipf_rw::DISTINCT, crate::sim_geo::EXTRA_ATTRS),
        crate::sim_zipf_rw::SKEW,
        crate::sim_zipf_rw::READ_RATIO,
        crate::sim_zipf_rw::WRITE_ATTRS
            .iter()
            .map(|a| (*a).to_owned())
            .collect(),
    );
    let zipf = ns_per_op(20_000, || {
        black_box(wl.next_op());
    });
    let mut qg = QueryGen::new(seed, aws8_site_names(), crate::sim_geo::EXTRA_ATTRS);
    let mut i = 0u16;
    let composite = ns_per_op(20_000, || {
        i = i.wrapping_add(1);
        black_box(qg.composite(SiteId(i % 8), 1 + usize::from(i % 8), 3));
    });
    out.put_layer("workloads.gen_ns_per_op", (zipf + composite) / 2.0);
}

/// A search walk carrying `slots` filled candidate slots.
fn search_msg(slots: usize) -> RbayMsg {
    let query = Rc::new(
        parse_query(
            r#"SELECT 4 FROM * WHERE instance = "c3.8xlarge" AND attr3 >= 0 AND CPU_utilization < 100"#,
        )
        .expect("query parses"),
    );
    let state = SearchState {
        query_id: QueryId(0x2a_0000_0001),
        reply_to: NodeAddr(7),
        query,
        password: Some(WORKLOAD_PASSWORD.into()),
        slots: (0..slots)
            .map(|i| Candidate {
                id: NodeId::hash_of(format!("cand{i}").as_bytes()),
                addr: NodeAddr(i as u32),
                site: SiteId(0),
                sort_key: None,
            })
            .collect(),
    };
    PastryMsg::Route {
        key: NodeId::hash_of(b"instance=c3.8xlarge"),
        payload: ScribeMsg::AnycastStep {
            topic: TopicId::new("instance=c3.8xlarge", "rbay"),
            payload: RbayPayload::Search(state),
            origin: NodeAddr(7),
            visited: (0..slots as u32).map(NodeAddr).collect(),
            stack: (0..4).map(NodeAddr).collect(),
        },
        hops: 3,
        scope: Some(SiteId(0)),
    }
}

/// An aggregate update rolling up eight topics' statistics.
fn agg_msg() -> RbayMsg {
    let multi = AggValue::Multi(
        (0..8u32)
            .map(|i| AggValue::Mean {
                sum: f64::from(i) * 12.5,
                count: u64::from(i) + 1,
            })
            .collect(),
    );
    PastryMsg::Direct(ScribeMsg::AggUpdate {
        topic: TopicId::new("instance=c3.8xlarge", "rbay"),
        value: multi,
    })
}

/// `wire.*`: encode and decode of the two frames that dominate traffic.
fn probe_wire(out: &mut Outcome) {
    for (msg, enc, dec, bytes) in [
        (
            search_msg(4),
            "wire.encode_ns",
            "wire.decode_ns",
            "wire.frame_bytes",
        ),
        (
            agg_msg(),
            "wire.agg_encode_ns",
            "wire.agg_decode_ns",
            "wire.agg_frame_bytes",
        ),
    ] {
        let frame = encode_frame(&msg);
        out.put_layer(bytes, frame.len() as f64);
        out.put_layer(
            enc,
            ns_per_op(20_000, || {
                black_box(encode_frame(black_box(&msg)));
            }),
        );
        out.put_layer(
            dec,
            ns_per_op(20_000, || {
                black_box(decode_frame::<RbayMsg>(black_box(&frame)).expect("frame decodes"));
            }),
        );
    }
}

/// Frames a pack wants to send off-process, kept for the other pack.
#[derive(Default)]
struct Outbox(Vec<(NodeAddr, NodeAddr, Vec<u8>)>);

impl FrameSink for Outbox {
    fn send_frame(&mut self, from: NodeAddr, to: NodeAddr, frame: Vec<u8>) {
        self.0.push((from, to, frame));
    }
}

/// Two packs exchanging frames in memory: a two-process federation
/// without the sockets.
struct TwoPacks {
    packs: [Pack; 2],
    outboxes: [Outbox; 2],
    /// Nanoseconds inside `Pack::pump` and `Pack::on_message`.
    busy_ns: u64,
    /// Messages those calls dispatched.
    msgs: u64,
}

impl TwoPacks {
    const PER_PACK: u32 = 100;

    fn new() -> TwoPacks {
        let total = 2 * Self::PER_PACK;
        let cfg = RbayConfig {
            commit_results: false,
            ..RbayConfig::default()
        };
        let mut members: Vec<_> = (0..total)
            .map(|i| build_node(i, total, 1, cfg.clone()))
            .collect();
        let mut overlay: Vec<PastryNode> = members
            .iter()
            .map(|m| PastryNode::new(m.pastry.info()))
            .collect();
        seed_overlay(&mut overlay, |_, _| 0.5);
        for (m, p) in members.iter_mut().zip(overlay) {
            m.pastry = p;
        }
        let second = members.split_off(Self::PER_PACK as usize);
        TwoPacks {
            packs: [Pack::new(0, members), Pack::new(Self::PER_PACK, second)],
            outboxes: [Outbox::default(), Outbox::default()],
            busy_ns: 0,
            msgs: 0,
        }
    }

    /// Runs `f` on overlay member `addr` with its pack's transport.
    fn with<R>(&mut self, addr: NodeAddr, f: impl FnOnce(&mut rbay_core::RbayNode) -> R) -> R {
        let p = (addr.0 / Self::PER_PACK) as usize;
        let slot = addr.0 % Self::PER_PACK;
        self.packs[p].with_member(&mut self.outboxes[p], slot, |node, ctx| {
            node.host.now = ctx.now();
            f(node)
        })
    }

    /// Pumps loopback and carries frames across until nothing moves.
    fn settle(&mut self) {
        loop {
            let mut moved = false;
            for p in 0..2 {
                let t = Instant::now();
                while self.packs[p].has_loopback() {
                    self.msgs += self.packs[p].pump(&mut self.outboxes[p]) as u64;
                    moved = true;
                }
                self.busy_ns += t.elapsed().as_nanos() as u64;
                for (from, to, frame) in std::mem::take(&mut self.outboxes[p].0) {
                    let msg = decode_frame::<RbayMsg>(&frame).expect("own frame decodes");
                    let t = Instant::now();
                    self.packs[1 - p].on_message(&mut self.outboxes[1 - p], from, to, msg);
                    self.busy_ns += t.elapsed().as_nanos() as u64;
                    self.msgs += 1;
                    moved = true;
                }
            }
            if !moved {
                return;
            }
        }
    }

    /// One maintenance round on every member; returns mean microseconds
    /// per `Pack::maintenance_round` call.
    fn maintenance(&mut self) -> f64 {
        let mut ns = 0u128;
        for p in 0..2 {
            for slot in 0..Self::PER_PACK {
                let t = Instant::now();
                self.packs[p].maintenance_round(&mut self.outboxes[p], slot);
                ns += t.elapsed().as_nanos();
            }
        }
        self.settle();
        ns as f64 / 1e3 / f64::from(2 * Self::PER_PACK)
    }
}

/// `pack.*`: message dispatch and maintenance of a 100-member pack.
fn probe_pack(out: &mut Outcome) {
    let mut net = TwoPacks::new();
    let script = password_aa_script();
    for i in (0..2 * TwoPacks::PER_PACK).step_by(5) {
        net.with(NodeAddr(i), |node| {
            node.host
                .install_node_aa(&script)
                .expect("workload script installs");
            node.host.post_resource("GPU", AttrValue::Bool(true));
        });
    }
    net.settle();
    let mut round_us = Vec::new();
    for _ in 0..5 {
        round_us.push(net.maintenance());
    }
    (net.busy_ns, net.msgs) = (0, 0);
    let q = parse_query("SELECT 3 FROM * WHERE GPU = true").expect("static query");
    let mut satisfied = 0;
    let queries = 400u32;
    for n in 0..queries {
        let from = NodeAddr((37 * n + 3) % (2 * TwoPacks::PER_PACK));
        let id = net.with(from, |node| {
            node.host
                .issue_query(q.clone(), Some(WORKLOAD_PASSWORD.into()))
        });
        net.settle();
        satisfied += u32::from(net.with(from, |node| node.host.queries[&id].satisfied));
    }
    if satisfied < queries {
        eprintln!("bench: pack probe: only {satisfied} of {queries} queries satisfied");
    }
    out.put_layer(
        "pack.pump_ns_per_msg",
        net.busy_ns as f64 / net.msgs.max(1) as f64,
    );
    out.put_layer("pack.maintenance_round_us", stats::median(&round_us));
    out.put_layer(
        "pack.loopback_dropped",
        net.packs.iter().map(Pack::loopback_dropped).sum::<u64>() as f64,
    );
}

/// `store.*`: WAL append (commit/release pairs, no fsync), replay of the
/// resulting 100k-record log, and a snapshot.
fn probe_store(out: &mut Outcome) {
    let dir = crate::out_dir().join(format!("tmp/store-probe-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let result = (|| -> std::io::Result<()> {
        let (mut store, _) = Store::open(&dir, FsyncPolicy::Never)?;
        // Keep the whole log: compaction would empty what replay measures.
        store.set_snapshot_thresholds(u64::MAX, u64::MAX);
        for a in 0..50 {
            store.append(&WalRecord::AttrPut {
                attr: format!("attr{a}"),
                value: AttrValue::Num(f64::from(a)),
            })?;
        }
        let pairs = 50_000u64;
        let t = Instant::now();
        for query in 0..pairs {
            store.append(&WalRecord::Commit { query })?;
            store.append(&WalRecord::Release { query })?;
        }
        out.put_layer(
            "store.append_ns",
            t.elapsed().as_secs_f64() * 1e9 / (2 * pairs) as f64,
        );
        drop(store);
        let t = Instant::now();
        let (mut store, report) = Store::open(&dir, FsyncPolicy::Never)?;
        out.put_layer(
            "store.replay_records_per_s",
            report.wal_records as f64 / t.elapsed().as_secs_f64().max(1e-9),
        );
        let t = Instant::now();
        store.snapshot()?;
        out.put_layer("store.snapshot_ms", t.elapsed().as_secs_f64() * 1e3);
        Ok(())
    })();
    if let Err(e) = result {
        eprintln!("bench: store probe skipped: {e}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `tcp.roundtrip_us` and `tcp.frames_per_s`: two `TcpBus`es in this
/// process, over loopback — a ping-pong and a windowed one-way burst.
fn probe_tcp(out: &mut Outcome) -> Result<(), String> {
    let addrs: Arc<Mutex<HashMap<NodeAddr, SocketAddr>>> = Arc::default();
    let lookup = Arc::clone(&addrs);
    let resolver: Resolver = Arc::new(move |a| {
        lookup
            .lock()
            .expect("resolver map poisoned")
            .get(&a)
            .copied()
    });
    let any: SocketAddr = "127.0.0.1:0".parse().expect("literal address");
    let mut buses = Vec::new();
    for i in 0..2u32 {
        let (bus, rx) = TcpBus::start(any, NodeAddr(i), Arc::clone(&resolver))
            .map_err(|e| format!("cannot start bus {i}: {e}"))?;
        addrs
            .lock()
            .expect("resolver map poisoned")
            .insert(NodeAddr(i), bus.local_addr());
        buses.push((bus, rx));
    }
    let frame = encode_frame(&agg_msg());
    let wait = Duration::from_secs(5);
    let recv_peer = |i: usize| -> Result<(), String> {
        loop {
            match buses[i].1.recv_timeout(wait) {
                Ok(Inbound::Peer { .. }) => return Ok(()),
                Ok(_) => {}
                Err(e) => return Err(format!("bus {i} received nothing: {e}")),
            }
        }
    };
    let result = (|| -> Result<(), String> {
        let mut rtt_us = Vec::with_capacity(2_000);
        for i in 0..2_200 {
            let t = Instant::now();
            buses[0].0.send_to(NodeAddr(1), frame.clone());
            recv_peer(1)?;
            buses[1].0.send_to(NodeAddr(0), frame.clone());
            recv_peer(0)?;
            if i >= 200 {
                rtt_us.push(t.elapsed().as_secs_f64() * 1e6);
            }
        }
        if let Some((p50, _)) = stats::p50_and_tail(&mut rtt_us) {
            out.put_layer("tcp.roundtrip_us", p50);
        }
        // One-way burst in windows well under the bus's staging bound, so
        // nothing is shed: the bus drops rather than blocks.
        let (windows, window) = (40, 500);
        let t = Instant::now();
        for _ in 0..windows {
            for _ in 0..window {
                buses[0].0.send_to(NodeAddr(1), frame.clone());
            }
            for _ in 0..window {
                recv_peer(1)?;
            }
        }
        out.put_layer(
            "tcp.frames_per_s",
            f64::from(windows * window) / t.elapsed().as_secs_f64(),
        );
        Ok(())
    })();
    for (bus, _) in &buses {
        bus.shutdown();
    }
    result
}
