//! `sim_geo`: the paper's Fig. 9/10 miss path on the simulated 8-site WAN.
//!
//! One virtual client issues composite queries (one instance type, two
//! residual predicates, a location predicate spanning 1–8 sites, k of 1
//! or 3) from a home site that rotates over the eight regions. Front door
//! off, no maintenance inside the laps: the Pastry route, the Scribe
//! anycast walk, probe/reserve/release in the engine and the `onGet`
//! handler do all the work. An idle window of maintenance rounds follows
//! the laps and prices the background traffic of 4,000 quiet nodes.

use crate::harness::{self, TRACE_LAPS};
use crate::procfs::Proc;
use crate::report::{Outcome, RunCfg};
use crate::simcommon::{self, ROUND};
use crate::trace::Tracer;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rbay_core::Federation;
use rbay_query::parse_query;
use rbay_workloads::{aws8_site_names, QueryGen, EC2_INSTANCE_TYPES, WORKLOAD_PASSWORD};
use simnet::{NodeAddr, SimDuration, SiteId};
use std::time::Instant;

/// Nodes per site (8 sites: 4,000 nodes).
pub const NODES_PER_SITE: usize = 500;
/// Passive attributes per node beside `instance` and `CPU_utilization`.
pub const EXTRA_ATTRS: usize = 5;
/// Simulated pause after each query, so reservations lapse.
pub const GAP: SimDuration = SimDuration::from_millis(2_500);
/// Queries per lap, frozen: about a quarter second on the reference host.
pub const OPS_PER_LAP: usize = 3_000;
/// Instance types queried: the Gaussian's centre band, where every site
/// holds enough nodes of a type for `k = 3` (a one-site query for a tail
/// type such as `hs1.8xlarge` can be unsatisfiable by construction).
pub const TYPE_BAND: (usize, usize) = (4, 18);

/// The federation and the generators that drive it.
pub struct Geo {
    /// The 8-site federation, populated and warmed.
    pub fed: Federation,
    qg: QueryGen,
    rng: SmallRng,
    site_nodes: Vec<Vec<NodeAddr>>,
    issued: u64,
}

/// What a lap adds to the run's samples.
#[derive(Default)]
pub struct Samples {
    /// Latency on the simulated WAN clock, milliseconds.
    pub lat_ms: Vec<f64>,
    /// Engine attempts summed over queries.
    pub attempts: u64,
    /// Wall microseconds inside `issue_parsed_query`, summed.
    pub issue_us: f64,
}

impl Geo {
    /// Builds the federation exactly as the figure harnesses do
    /// (`build_ec2_federation`: Table II topology, 23 Gaussian instance
    /// trees per site, password `onGet` on every node, five warm-up
    /// maintenance rounds) with site isolation on and commits off.
    pub fn build(seed: u64) -> Geo {
        let fed = rbay_bench::build_ec2_federation(NODES_PER_SITE, seed);
        let site_nodes = (0..8u16)
            .map(|s| fed.sim().topology().nodes_of_site(SiteId(s)))
            .collect();
        Geo {
            fed,
            qg: QueryGen::new(seed ^ 0x6E0, aws8_site_names(), EXTRA_ATTRS)
                .focus_popular(TYPE_BAND.0, TYPE_BAND.1),
            rng: SmallRng::seed_from_u64(seed ^ 0x6E0_51DE),
            site_nodes,
            issued: 0,
        }
    }

    /// Issues `n` queries one after the other; returns how many were
    /// satisfied with a correct answer.
    pub fn lap(
        &mut self,
        n: usize,
        tracer: &mut Tracer,
        out: &mut Outcome,
        s: &mut Samples,
    ) -> u64 {
        let mut satisfied = 0;
        for _ in 0..n {
            let i = self.issued;
            self.issued += 1;
            let home = SiteId((i % 8) as u16);
            let n_sites = self.rng.gen_range(1..=8usize);
            let k = if self.rng.gen_bool(0.5) { 1 } else { 3 };
            let text = self.qg.composite(home, n_sites, k);
            // Skip each site's three gateways; rotate through the rest.
            let nodes = &self.site_nodes[home.0 as usize];
            let origin = nodes[3 + (i as usize / 8) % (nodes.len() - 3)];

            out.tally.attempt();
            let op = tracer.begin("query", i);
            let q = tracer.span("parse_query", i, || parse_query(&text));
            let q = match q {
                Ok(q) => q,
                Err(e) => {
                    tracer.end(op);
                    out.tally.fail(format!("query {i}: {e}"));
                    continue;
                }
            };
            let t_issue = Instant::now();
            let id = tracer.span("issue_parsed_query", i, || {
                self.fed
                    .issue_parsed_query(origin, q, Some(WORKLOAD_PASSWORD))
            });
            s.issue_us += t_issue.elapsed().as_secs_f64() * 1e6;
            tracer.span("settle", i, || self.fed.settle());
            tracer.end(op);

            let rec = self
                .fed
                .query_record(origin, id)
                .expect("issued query has a record");
            s.attempts += u64::from(rec.attempts);
            match (rec.satisfied, rec.completed_at) {
                (true, Some(done)) => {
                    match simcommon::check_result(&self.fed, &rec.query, &rec.result) {
                        Ok(()) => {
                            s.lat_ms
                                .push(done.saturating_since(rec.issued_at).as_millis_f64());
                            satisfied += 1;
                        }
                        Err(e) => out.tally.fail(format!("query {i} `{text}`: {e}")),
                    }
                }
                _ => out.tally.fail(format!("query {i} `{text}`: unsatisfied")),
            }
            let horizon = self.fed.sim().now() + GAP;
            tracer.span("run_until", i, || self.fed.run_until(horizon));
        }
        satisfied
    }
}

/// Runs the workload.
pub fn run(cfg: &RunCfg, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::new("sim_geo", "sim");
    out.facts.extend([
        ("nodes", (NODES_PER_SITE * 8).into()),
        ("sites", 8u64.into()),
        ("extra_attrs", EXTRA_ATTRS.into()),
        (
            "type_band",
            format!("{}..={}", TYPE_BAND.0, TYPE_BAND.1).into(),
        ),
        ("gap_sim_ms", GAP.as_millis_f64().into()),
        ("ops_per_lap", OPS_PER_LAP.into()),
        ("idle_rounds", simcommon::IDLE_ROUNDS.into()),
        ("loop", "closed, 1 client".into()),
    ]);
    let (mut geo, setup_walls) = harness::repeat_setup(cfg, || Geo::build(cfg.seed));
    let me = [Proc::this()];
    let nodes = NODES_PER_SITE * 8;

    // Warm-up lap: same work, nothing kept.
    let n = OPS_PER_LAP;
    geo.lap(
        n,
        tracer,
        &mut Outcome::new("warmup", "sim"),
        &mut Samples::default(),
    );

    let mut s = Samples::default();
    if !cfg.trace {
        let before = geo.fed.sim().stats().clone();
        let laps = harness::timed_laps(cfg, harness::laps(cfg), &me, |_| {
            geo.lap(n, tracer, &mut out, &mut s)
        });
        let delta = geo.fed.sim().stats().since(&before);
        harness::put_common(&mut out, &setup_walls, &laps);
        harness::put_latency(&mut out, &mut s.lat_ms);
        simcommon::put_traffic(&mut out, &delta, &laps);
        out.put("peak_rss_mb", me[0].peak_rss_mib(), 1);
        return out;
    }

    // Traced pass: untraced reference laps, then laps with spans and the
    // observability plane on.
    let reference = harness::timed_laps(cfg, TRACE_LAPS, &me, |_| {
        geo.lap(
            n,
            tracer,
            &mut Outcome::new("reference", "sim"),
            &mut Samples::default(),
        )
    });
    geo.fed.enable_obs(1 << 16);
    tracer.enable();
    let before = geo.fed.sim().stats().clone();
    let traced = harness::timed_laps(cfg, TRACE_LAPS, &me, |_| {
        geo.lap(n, tracer, &mut out, &mut s)
    });
    let delta = geo.fed.sim().stats().since(&before);
    harness::put_traced(&mut out, tracer, &reference, &traced);
    simcommon::put_simnet_layer(&mut out, &delta, &traced);
    simcommon::put_engine_layer(&mut out, &mut s.lat_ms, s.attempts, Some(s.issue_us));
    simcommon::put_hops(&mut out, &geo.fed, NODES_PER_SITE);
    simcommon::put_federation_layers(&mut out, &mut geo.fed, tracer, nodes, &instance_trees());
    simcommon::put_subscribe_latency(&mut out, &geo.fed);
    put_probe_latency(&mut out, &mut geo);
    out
}

/// The anchor trees of the EC2 workload, by name.
pub fn instance_trees() -> Vec<String> {
    EC2_INSTANCE_TYPES
        .iter()
        .map(|t| format!("instance={t}"))
        .collect()
}

/// `engine.probe_ms`: the tree-size probe round-trip from a Virginia node
/// to the root of the busiest instance tree in each remote site, mean on
/// the simulated clock — the share of a composite query's latency spent
/// before the search starts.
fn put_probe_latency(out: &mut Outcome, geo: &mut Geo) {
    let prober = geo.site_nodes[0][7];
    let tree = "instance=c3.8xlarge";
    let mut total_ms = 0.0;
    for site in 1..8u16 {
        let t0 = geo.fed.sim().now();
        geo.fed.probe_tree_stats(prober, tree, SiteId(site));
        geo.fed.settle();
        let answered = geo.fed.node(prober).host.tree_stats.get(tree).map(|s| s.2);
        total_ms += answered
            .unwrap_or_else(|| geo.fed.sim().now())
            .saturating_since(t0)
            .as_millis_f64();
        geo.fed.run_until(geo.fed.sim().now() + ROUND);
    }
    out.put_layer("engine.probe_ms", total_ms / 7.0);
}
