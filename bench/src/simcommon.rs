//! Pieces the three simulator workloads share: output checks on query
//! results, traffic accounting from `NetStats`, the idle window, and the
//! observability counters a traced pass folds into per-layer metrics.

use crate::harness::LapStats;
use crate::report::Outcome;
use crate::trace::Tracer;
use rbay_core::{Candidate, Federation};
use rbay_query::{FromClause, Query};
use scribe::TopicId;
use simnet::{NetStats, NodeAddr, SimDuration, SiteId};
use std::collections::{BTreeMap, BTreeSet};

/// Maintenance rounds in the idle window that follows the timed laps.
pub const IDLE_ROUNDS: u32 = 20;
/// Interval between maintenance rounds (the repository's standard).
pub const ROUND: SimDuration = SimDuration::from_millis(250);

/// Checks one satisfied query's answer: exactly `k` candidates, all
/// distinct, each at a site the FROM clause allows and each matching
/// every predicate against the node's attributes *now*.
pub fn check_result(fed: &Federation, q: &Query, result: &[Candidate]) -> Result<(), String> {
    if result.len() != q.k as usize {
        return Err(format!("{} candidates, wanted {}", result.len(), q.k));
    }
    let distinct: BTreeSet<NodeAddr> = result.iter().map(|c| c.addr).collect();
    if distinct.len() != result.len() {
        return Err("duplicate candidate".into());
    }
    let topo = fed.sim().topology();
    for c in result {
        if let FromClause::Sites(names) = &q.from {
            let site = &topo.site(c.site).name;
            if !names.iter().any(|n| n == site) {
                return Err(format!("{:?} is at {site}, outside FROM", c.addr));
            }
        }
        if fed.sim().is_failed(c.addr) {
            return Err(format!("{:?} is a crashed node", c.addr));
        }
        let attrs = &fed.node(c.addr).host.attrs;
        if !q.matches_all(|a| attrs.get(a)) {
            return Err(format!("{:?} does not match the predicate", c.addr));
        }
    }
    Ok(())
}

/// Fills the traffic metrics from the `NetStats` delta over the timed
/// laps: `msgs_per_query`, `bytes_per_query`, and the values that must
/// repeat exactly per seed.
pub fn put_traffic(out: &mut Outcome, delta: &NetStats, laps: &LapStats) {
    let q = laps.total_satisfied().max(1);
    let per = |x: u64| x as f64 / q as f64;
    out.put("msgs_per_query", per(delta.sent()), q);
    out.put("bytes_per_query", per(delta.bytes()), q);
    out.exact.push(("lap_msgs", delta.sent() as f64));
    out.exact.push(("lap_bytes", delta.bytes() as f64));
    out.exact
        .push(("lap_wan_bytes", delta.cross_site_bytes() as f64));
    out.exact.push(("lap_events", delta.events() as f64));
    out.exact.push(("lap_satisfied", q as f64));
}

/// Per-layer figures of the engine that come from the same delta.
pub fn put_simnet_layer(out: &mut Outcome, delta: &NetStats, laps: &LapStats) {
    let q = laps.total_satisfied().max(1) as f64;
    let wall_s = laps.total_wall_s();
    out.put_layer("simnet.events_per_query", delta.events() as f64 / q);
    out.put_layer(
        "simnet.cancelled_timers_per_query",
        delta.cancelled_timers() as f64 / q,
    );
    out.put_layer(
        "simnet.events_per_wall_s",
        delta.events() as f64 / wall_s.max(1e-9),
    );
    out.put_layer(
        "simnet.wan_bytes_per_query",
        delta.cross_site_bytes() as f64 / q,
    );
}

/// Runs [`IDLE_ROUNDS`] maintenance rounds with no queries and fills the
/// background-traffic figures of `live` quiet nodes: bytes per node and
/// round from `NetStats`, message counts by kind from the recorder.
fn idle_window(fed: &mut Federation, tracer: &mut Tracer, live: usize, out: &mut Outcome) {
    let before = fed.sim().stats().clone();
    let obs_before = fed.recorder().snapshot();
    tracer.span("run_maintenance", 0, || {
        fed.run_maintenance(IDLE_ROUNDS, ROUND);
    });
    let delta = fed.sim().stats().since(&before);
    let obs_after = fed.recorder().snapshot();
    let d = |kind: &str| obs_after.count(kind).saturating_sub(obs_before.count(kind)) as f64;
    let node_rounds = (live as f64 * f64::from(IDLE_ROUNDS)).max(1.0);
    out.put_layer(
        "simnet.idle_bytes_per_node_round",
        delta.bytes() as f64 / node_rounds,
    );
    out.put_layer("pastry.hb_msgs_per_node_round", d("hb_send") / node_rounds);
    out.put_layer(
        "scribe.agg_msgs_per_node_round",
        d("agg_update_recv") / node_rounds,
    );
    out.put_layer(
        "scribe.replica_sync_msgs_per_round",
        d("replica_sync_send") / f64::from(IDLE_ROUNDS),
    );
}

/// What a traced pass reads off the federation once its laps are done: the
/// idle window, repair counters, Pastry state, AA counters and the shape of
/// the named trees.
pub fn put_federation_layers(
    out: &mut Outcome,
    fed: &mut Federation,
    tracer: &mut Tracer,
    live: usize,
    trees: &[String],
) {
    idle_window(fed, tracer, live, out);
    put_repair_counters(out, fed);
    put_pastry_state(out, fed);
    put_aa_counters(out, fed);
    put_tree_shape(out, fed, trees);
}

/// Means of per-node Pastry state over the live nodes.
fn put_pastry_state(out: &mut Outcome, fed: &Federation) {
    let (mut peers, mut bytes, mut n) = (0usize, 0usize, 0usize);
    for (addr, a) in fed.sim().actors() {
        if fed.sim().is_failed(addr) {
            continue;
        }
        peers += a.pastry.known_peers().len();
        bytes += a.pastry.state_bytes();
        n += 1;
    }
    let n = n.max(1) as f64;
    out.put_layer("pastry.known_peers_mean", peers as f64 / n);
    out.put_layer("pastry.state_bytes_mean", bytes as f64 / n);
}

/// Hop statistics of the recorder's route histogram, beside the analytic
/// log16 N of prefix routing (Kong et al.).
pub fn put_hops(out: &mut Outcome, fed: &Federation, ring_nodes: usize) {
    let mean = fed.recorder().snapshot().mean_hops();
    if mean.is_finite() {
        out.put_layer("pastry.route_hops_mean", mean);
        let model = (ring_nodes.max(2) as f64).ln() / 16f64.ln();
        out.put_layer("pastry.hops_over_log16n", mean / model);
    }
}

/// AA handler denials and errors summed over every node (both must stay
/// 0: every query presents the right password).
fn put_aa_counters(out: &mut Outcome, fed: &Federation) {
    let (mut denials, mut errors) = (0u64, 0u64);
    for (_, a) in fed.sim().actors() {
        denials += a.host.aa_denials;
        errors += a.host.aa_errors;
    }
    out.put_layer("aascript.denials", denials as f64);
    out.put_layer("aascript.errors", errors as f64);
}

/// Engine figures of a traced lap: simulated-clock latency percentiles,
/// attempts per query and the mean wall cost of the issuing call.
pub fn put_engine_layer(
    out: &mut Outcome,
    sim_ms: &mut [f64],
    attempts: u64,
    issue_us: Option<f64>,
) {
    let n = sim_ms.len().max(1) as f64;
    if let Some((p50, tail)) = crate::stats::p50_and_tail(sim_ms) {
        out.put_layer("engine.sim_p50_ms", p50);
        out.put_layer("engine.sim_p99_ms", tail.value);
    }
    out.put_layer("engine.attempts_per_query", attempts as f64 / n);
    if let Some(us) = issue_us {
        out.put_layer("engine.issue_us", us / n);
    }
}

/// Tree-repair counters of the observability plane (all exactly 0 on a
/// workload without failures).
fn put_repair_counters(out: &mut Outcome, fed: &Federation) {
    let snap = fed.recorder().snapshot();
    out.put_layer("scribe.rejoin_retries", snap.count("rejoin_retry") as f64);
    out.put_layer(
        "scribe.replica_promotions",
        snap.count("replica_promote") as f64,
    );
    out.put_layer("scribe.orphan_rejoins", snap.count("orphan_rejoin") as f64);
}

/// Deepest tree and largest number of simultaneous live roots over the
/// named trees in every site (a healthy tree has exactly one root).
fn put_tree_shape(out: &mut Outcome, fed: &Federation, trees: &[String]) {
    let sites = fed.sim().topology().site_count() as u16;
    let host = &fed.node(NodeAddr(0)).host;
    let topics: Vec<TopicId> = (0..sites)
        .flat_map(|s| trees.iter().map(move |t| (t, SiteId(s))))
        .map(|(t, s)| host.tree_topic(t, s))
        .collect();
    let mut roots: BTreeMap<TopicId, u64> = BTreeMap::new();
    for (addr, a) in fed.sim().actors() {
        if fed.sim().is_failed(addr) {
            continue;
        }
        for (topic, st) in a.scribe.topics() {
            if st.is_root {
                *roots.entry(*topic).or_insert(0) += 1;
            }
        }
    }
    let depth = topics.iter().map(|t| fed.tree_max_depth(*t)).max();
    let max_roots = topics.iter().filter_map(|t| roots.get(t)).max();
    out.put_layer("scribe.tree_depth_max", depth.unwrap_or(0) as f64);
    out.put_layer(
        "scribe.tree_roots_max",
        max_roots.copied().unwrap_or(0) as f64,
    );
}

/// Median tree-attach latency of set-up's subscriptions, simulated clock.
pub fn put_subscribe_latency(out: &mut Outcome, fed: &Federation) {
    let all: Vec<f64> = rbay_bench::subscribe_latencies_by_site(fed)
        .into_iter()
        .flatten()
        .collect();
    if !all.is_empty() {
        out.put_layer("scribe.subscribe_p50_ms", crate::stats::median(&all));
    }
}
