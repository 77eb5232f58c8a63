//! `sim_zipf_rw`: a Zipf read/write mix through the query front door.
//!
//! The `sim_geo` federation with front-door invalidation on and a gateway
//! cache of 32 entries per site. Clients rotating over the eight sites draw
//! from 64 distinct queries (twice the cache, so entries are evicted) with
//! Zipf skew 1.1; one operation in twenty is an attribute write, half of
//! them to `attr3`, which a fifth of the queries depend on, half to
//! `CPU_utilization`, which none do. The front door and its invalidation
//! multicast do most of the work and the trees little: a tree-path change
//! should move nothing here, a front-door change only here.

use crate::harness::{self, TRACE_LAPS};
use crate::procfs::Proc;
use crate::report::{Outcome, RunCfg};
use crate::sim_geo::{instance_trees, EXTRA_ATTRS, NODES_PER_SITE};
use crate::simcommon::{self, ROUND};
use crate::trace::Tracer;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use rbay_core::frontdoor::query_attrs;
use rbay_core::{Federation, FrontdoorConfig, FrontdoorOutcome, FrontdoorStats, RbayConfig};
use rbay_query::{parse_query, Query};
use rbay_workloads::{
    instance_query_population, populate_ec2_federation, ScenarioConfig, WorkloadOp, ZipfWorkload,
    WORKLOAD_PASSWORD,
};
use simnet::{NodeAddr, SimDuration, Topology};
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// Distinct queries (cache keys) in the population.
pub const DISTINCT: usize = 64;
/// Gateway cache capacity, entries.
pub const CACHE_CAPACITY: usize = 32;
/// Admission bound on concurrent leader walks.
pub const MAX_PENDING: usize = 64;
/// Zipf exponent.
pub const SKEW: f64 = 1.1;
/// Share of operations that are reads.
pub const READ_RATIO: f64 = 0.95;
/// Attributes the write stream cycles over.
pub const WRITE_ATTRS: [&str; 2] = ["attr3", "CPU_utilization"];
/// Operations (reads and writes) per lap, frozen: about a quarter second
/// on the reference host.
pub const OPS_PER_LAP: usize = 6_000;

/// The federation, the generator, and what the staleness check remembers.
pub struct ZipfRw {
    /// The federation with front doors enabled.
    pub fed: Federation,
    wl: ZipfWorkload,
    parsed: Vec<Query>,
    rank_of: HashMap<String, usize>,
    ops: u64,
    /// Samples the client–gateway hop from the topology's latency model.
    hop_rng: SmallRng,
    /// Operation number at which `(site, rank)` was last filled by a walk.
    filled_at: BTreeMap<(u16, usize), u64>,
    /// Operation number of the last write to each attribute.
    written_at: BTreeMap<String, u64>,
}

/// What a lap adds to the run's samples.
#[derive(Default)]
pub struct Samples {
    /// Client latency of reads on the simulated clock, ms: the sampled
    /// round trip between client and gateway, plus the walk on a miss.
    pub lat_ms: Vec<f64>,
    /// Wall microseconds of `frontdoor_query` calls answered from cache.
    pub hit_us: Vec<f64>,
    /// Wall microseconds of `update_attr` + `settle`.
    pub write_us: Vec<f64>,
    /// Simulated milliseconds until a write's invalidations have landed.
    pub write_sim_ms: Vec<f64>,
    /// Reads served from cache although a dependent write came later.
    pub stale_reads: u64,
    /// Engine attempts over reads that walked.
    pub attempts: u64,
}

impl ZipfRw {
    /// Builds and warms the federation, then enables the front doors.
    pub fn build(seed: u64) -> ZipfRw {
        let cfg = RbayConfig {
            commit_results: false,
            frontdoor_invalidation: true,
            ..RbayConfig::default()
        };
        let mut fed = Federation::with_config(Topology::aws_ec2_8_sites(NODES_PER_SITE), seed, cfg);
        let scenario = ScenarioConfig {
            extra_attrs_per_node: EXTRA_ATTRS,
            ..ScenarioConfig::default()
        };
        populate_ec2_federation(&mut fed, seed ^ 0xA5A5, &scenario);
        fed.run_maintenance(5, ROUND);
        fed.settle();
        fed.enable_frontdoor(FrontdoorConfig {
            cache_ttl: SimDuration::from_secs(24 * 3600),
            cache_capacity: CACHE_CAPACITY,
            max_pending: MAX_PENDING,
            retry_after: SimDuration::from_millis(5),
        });
        fed.settle();

        let queries = instance_query_population(DISTINCT, EXTRA_ATTRS);
        let parsed = queries
            .iter()
            .map(|q| parse_query(q).expect("population queries parse"))
            .collect();
        let rank_of = queries
            .iter()
            .enumerate()
            .map(|(rank, q)| (q.clone(), rank))
            .collect();
        let wl = ZipfWorkload::new(
            seed ^ 0x51F7,
            queries,
            SKEW,
            READ_RATIO,
            WRITE_ATTRS.iter().map(|a| (*a).to_owned()).collect(),
        );
        ZipfRw {
            fed,
            wl,
            parsed,
            rank_of,
            ops: 0,
            hop_rng: SmallRng::seed_from_u64(seed ^ 0x40B),
            filled_at: BTreeMap::new(),
            written_at: BTreeMap::new(),
        }
    }

    /// Runs `n` operations; returns the reads answered correctly.
    pub fn lap(
        &mut self,
        n: usize,
        tracer: &mut Tracer,
        out: &mut Outcome,
        s: &mut Samples,
    ) -> u64 {
        let total = NODES_PER_SITE * 8;
        let mut satisfied = 0;
        for _ in 0..n {
            let i = self.ops;
            self.ops += 1;
            out.tally.attempt();
            // Clients rotate across sites; offset 5 skips the gateways.
            let client =
                NodeAddr(((i as usize % 8) * NODES_PER_SITE + 5 + (i as usize / 8) % 3) as u32);
            match self.wl.next_op() {
                WorkloadOp::Query(text) => {
                    let rank = self.rank_of[&text];
                    match self.read(client, &text, rank, i, tracer, s) {
                        Ok(()) => satisfied += 1,
                        Err(e) => out.tally.fail(format!("op {i} read `{text}`: {e}")),
                    }
                }
                WorkloadOp::Update { attr, value } => {
                    let holder = NodeAddr((i as usize * 13 % total) as u32);
                    let sim0 = self.fed.sim().now();
                    let t0 = Instant::now();
                    let op = tracer.begin("write", i);
                    tracer.span("update_attr", i, || {
                        self.fed.update_attr(holder, &attr, value);
                    });
                    tracer.span("settle", i, || self.fed.settle());
                    tracer.end(op);
                    s.write_us.push(t0.elapsed().as_secs_f64() * 1e6);
                    s.write_sim_ms
                        .push(self.fed.sim().now().saturating_since(sim0).as_millis_f64());
                    self.written_at.insert(attr, i);
                }
            }
        }
        satisfied
    }

    /// One read through the client's nearest front door, checked.
    fn read(
        &mut self,
        client: NodeAddr,
        text: &str,
        rank: usize,
        i: u64,
        tracer: &mut Tracer,
        s: &mut Samples,
    ) -> Result<(), String> {
        let site = self.fed.frontdoor_site_for(client).0;
        let gateway = self.fed.node(client).host.gateways[site as usize][0];
        let op = tracer.begin("read", i);
        let t0 = Instant::now();
        let outcome = tracer.span("frontdoor_query", i, || {
            self.fed
                .frontdoor_query(client, text, Some(WORKLOAD_PASSWORD))
        });
        let (result, sim_ms) = match outcome.map_err(|e| e.to_string()) {
            Ok(FrontdoorOutcome::Cached { result, satisfied }) => {
                tracer.end(op);
                s.hit_us.push(t0.elapsed().as_secs_f64() * 1e6);
                if !satisfied {
                    return Err("cached entry is unsatisfied".into());
                }
                // A hit is only legitimate if no attribute the query reads
                // was written after the walk that filled the entry.
                let filled = self.filled_at.get(&(site, rank)).copied();
                let stale = query_attrs(&self.parsed[rank]).iter().any(|a| {
                    match (self.written_at.get(a), filled) {
                        (Some(w), Some(f)) => w > &f,
                        (Some(_), None) => true,
                        (None, _) => false,
                    }
                });
                if stale {
                    s.stale_reads += 1;
                    return Err("served from cache after a dependent write".into());
                }
                (result, 0.0)
            }
            Ok(FrontdoorOutcome::Pending { id, .. }) => {
                tracer.span("settle", i, || self.fed.settle());
                tracer.end(op);
                let rec = self
                    .fed
                    .query_record(gateway, id)
                    .ok_or("walk left no record")?;
                let done = rec.completed_at.ok_or("walk never completed")?;
                s.attempts += u64::from(rec.attempts);
                if !rec.satisfied {
                    return Err("unsatisfied".into());
                }
                self.filled_at.insert((site, rank), i);
                (
                    rec.result.clone(),
                    done.saturating_since(rec.issued_at).as_millis_f64(),
                )
            }
            Ok(FrontdoorOutcome::Shed { .. }) => {
                tracer.end(op);
                return Err("shed by admission control".into());
            }
            Err(e) => {
                tracer.end(op);
                return Err(e);
            }
        };
        simcommon::check_result(&self.fed, &self.parsed[rank], &result)?;
        // `frontdoor_query` runs on the gateway itself; the client is
        // another node of the site, one modelled round trip away.
        let topo = self.fed.sim().topology();
        let hop_ms = topo
            .sample_latency(client, gateway, &mut self.hop_rng)
            .as_millis_f64()
            + topo
                .sample_latency(gateway, client, &mut self.hop_rng)
                .as_millis_f64();
        s.lat_ms.push(hop_ms + sim_ms);
        Ok(())
    }

    /// Front-door counters merged over every gateway.
    pub fn frontdoor_stats(&self) -> FrontdoorStats {
        let mut fd = FrontdoorStats::default();
        for n in 0..(NODES_PER_SITE * 8) as u32 {
            if let Some(s) = self.fed.frontdoor_stats(NodeAddr(n)) {
                fd.merge(&s);
            }
        }
        fd
    }
}

/// Runs the workload.
pub fn run(cfg: &RunCfg, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::new("sim_zipf_rw", "sim");
    out.facts.extend([
        ("nodes", (NODES_PER_SITE * 8).into()),
        ("distinct_queries", DISTINCT.into()),
        ("cache_capacity", CACHE_CAPACITY.into()),
        ("max_pending", MAX_PENDING.into()),
        ("zipf_s", SKEW.into()),
        ("read_ratio", READ_RATIO.into()),
        ("write_attrs", WRITE_ATTRS.join(",").into()),
        ("ops_per_lap", OPS_PER_LAP.into()),
        ("idle_rounds", simcommon::IDLE_ROUNDS.into()),
        ("loop", "closed, 1 client rotating over 8 sites".into()),
    ]);
    let (mut z, setup_walls) = harness::repeat_setup(cfg, || ZipfRw::build(cfg.seed));
    let me = [Proc::this()];
    let nodes = NODES_PER_SITE * 8;

    // Warm-up lap: same work, nothing kept; it fills the caches.
    let n = OPS_PER_LAP;
    z.lap(
        n,
        tracer,
        &mut Outcome::new("warmup", "sim"),
        &mut Samples::default(),
    );

    let mut s = Samples::default();
    if !cfg.trace {
        let before = z.fed.sim().stats().clone();
        let fd0 = z.frontdoor_stats();
        let laps = harness::timed_laps(cfg, harness::laps(cfg), &me, |_| {
            z.lap(n, tracer, &mut out, &mut s)
        });
        let delta = z.fed.sim().stats().since(&before);
        let fd1 = z.frontdoor_stats();
        harness::put_common(&mut out, &setup_walls, &laps);
        harness::put_latency(&mut out, &mut s.lat_ms);
        // Most reads are hits, and a hit's only latency is the hop the
        // harness samples itself: the median says nothing about RBAY.
        out.not_applicable.push((
            "query_p50_ms",
            "the median read is a cache hit, whose latency is the client-gateway round trip the harness samples itself",
        ));
        simcommon::put_traffic(&mut out, &delta, &laps);
        out.exact.push(("hits", (fd1.hits - fd0.hits) as f64));
        out.exact.push(("misses", (fd1.misses - fd0.misses) as f64));
        out.exact.push((
            "invalidations",
            (fd1.invalidations - fd0.invalidations) as f64,
        ));
        out.exact.push(("writes", s.write_us.len() as f64));
        out.exact.push(("stale_reads", s.stale_reads as f64));
        out.put("peak_rss_mb", me[0].peak_rss_mib(), 1);
        return out;
    }

    let reference = harness::timed_laps(cfg, TRACE_LAPS, &me, |_| {
        z.lap(
            n,
            tracer,
            &mut Outcome::new("reference", "sim"),
            &mut Samples::default(),
        )
    });
    z.fed.enable_obs(1 << 16);
    tracer.enable();
    let before = z.fed.sim().stats().clone();
    let fd0 = z.frontdoor_stats();
    let traced = harness::timed_laps(cfg, TRACE_LAPS, &me, |_| z.lap(n, tracer, &mut out, &mut s));
    let delta = z.fed.sim().stats().since(&before);
    let fd1 = z.frontdoor_stats();
    harness::put_traced(&mut out, tracer, &reference, &traced);
    simcommon::put_simnet_layer(&mut out, &delta, &traced);
    simcommon::put_engine_layer(&mut out, &mut s.lat_ms, s.attempts, None);
    simcommon::put_hops(&mut out, &z.fed, NODES_PER_SITE);

    let d = |a: u64, b: u64| (a - b) as f64;
    let reads = d(fd1.hits, fd0.hits) + d(fd1.misses, fd0.misses) + d(fd1.coalesced, fd0.coalesced);
    out.put_layer(
        "frontdoor.hit_share",
        d(fd1.hits, fd0.hits) / reads.max(1.0),
    );
    out.put_layer("frontdoor.coalesced", d(fd1.coalesced, fd0.coalesced));
    out.put_layer("frontdoor.shed", d(fd1.shed, fd0.shed));
    out.put_layer(
        "frontdoor.invalidations",
        d(fd1.invalidations, fd0.invalidations),
    );
    out.put_layer("frontdoor.evictions", d(fd1.evictions, fd0.evictions));
    out.put_layer("frontdoor.stale_reads", s.stale_reads as f64);
    out.put_layer("frontdoor.hit_us", harness::mean(&s.hit_us));
    out.put_layer("host.write_us", harness::mean(&s.write_us));
    out.put_layer("host.write_sim_ms", harness::mean(&s.write_sim_ms));

    let mut trees = instance_trees();
    trees.push(rbay_core::FRONTDOOR_TREE.to_owned());
    simcommon::put_federation_layers(&mut out, &mut z.fed, tracer, nodes, &trees);
    simcommon::put_subscribe_latency(&mut out, &z.fed);
    out
}
