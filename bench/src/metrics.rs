//! The benchmark's vocabulary: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics. `BENCHMARK.json` is rendered
//! from these tables (`bench manifest`), and a unit test keeps the file
//! at the repository root equal to them.

use crate::json::{obj, Value};

/// How long one run measures, in seconds (`run_seconds` of the manifest
/// and the default of `--seconds`).
pub const RUN_SECONDS: u64 = 10;

/// A workload and why it exists.
pub struct WorkloadDef {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// One line on what it stresses and what it bypasses.
    pub why: &'static str,
}

/// The four workloads.
pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "sim_geo",
        why: "8-site WAN miss path: route, anycast walk, reserve/release and onGet do all the work; no maintenance, no front door",
    },
    WorkloadDef {
        name: "sim_zipf_rw",
        why: "Zipf reads through a 32-entry front door over 64 keys plus 5% writes: the cache and its invalidation do most of the work, the trees little",
    },
    WorkloadDef {
        name: "sim_churn",
        why: "1000 nodes losing 5% per epoch, queried open loop during repair: heartbeats, ReplicaSync and rejoin do most of the work",
    },
    WorkloadDef {
        name: "tcp_pack",
        why: "two rbay-node daemons x 500 agents on loopback TCP with WALs: codec, TcpBus, Pack demux, ctrl protocol and store are on the path",
    },
];

/// Whether a larger or a smaller value is the better one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The manifest spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric: its name, unit and direction; end-to-end metrics also
/// carry the share of the baseline median by which they may worsen.
pub struct MetricDef {
    /// Name, unique across both tables.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Allowed relative worsening (end-to-end metrics only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

/// End-to-end metrics: what a user of the federation sees. Every workload
/// reports every one of them, none is ever zero, and each must repeat from
/// run to run within its bound on every workload — which is why
/// `failed_share` appears here as its complement `ok_share`, and why the
/// WAN-only `wan_bytes_per_query` and the idle-window traffic (bimodal from
/// boot to boot on `tcp_pack`) are per-layer metrics instead.
///
/// The bound here is the one `BENCHMARK.json` carries and the driver
/// applies *across seeds*: one per name has to serve all four workloads and
/// both clocks, so it follows the noisiest cell — about three times the
/// widest spread (interquartile distance over median, ten seeds) seen on
/// the reference host, capped at the 0.25 the contract allows. `bench
/// compare`, which sets runs of *one* seed side by side, judges every cell
/// against the tighter [`EXACT_BOUND`] or [`WALL_BOUND`] instead.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("queries_per_wall_s", "1/s", Better::Higher, 0.25),
    e2e("query_p50_ms", "ms", Better::Lower, 0.25),
    e2e("query_p99_ms", "ms", Better::Lower, 0.25),
    e2e("query_mean_ms", "ms", Better::Lower, 0.25),
    e2e("ok_share", "ratio", Better::Higher, 0.001),
    e2e("cpu_ms_per_query", "ms", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.15),
    e2e("msgs_per_query", "count", Better::Lower, 0.05),
    e2e("bytes_per_query", "B", Better::Lower, 0.10),
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// Per-layer metrics, named `<crate or module>.<what>`. A traced run
/// (`--trace 1`) reports all of them; one a workload cannot produce reads
/// 0 there. bench/README.md says how each is taken and which end-to-end
/// metric it should move.
pub const PER_LAYER: &[MetricDef] = &[
    // simnet
    layer("simnet.events_per_query", "count", Lower),
    layer("simnet.cancelled_timers_per_query", "count", Lower),
    layer("simnet.events_per_wall_s", "1/s", Higher),
    layer("simnet.queue_ns_per_op", "ns", Lower),
    layer("simnet.wan_bytes_per_query", "B", Lower),
    layer("simnet.idle_bytes_per_node_round", "B", Lower),
    // pastry
    layer("pastry.route_hops_mean", "count", Lower),
    layer("pastry.hops_over_log16n", "ratio", Lower),
    layer("pastry.next_hop_ns", "ns", Lower),
    layer("pastry.hb_msgs_per_node_round", "count", Lower),
    layer("pastry.known_peers_mean", "count", Lower),
    layer("pastry.state_bytes_mean", "B", Lower),
    layer("pastry.fd_latency_ms", "ms", Lower),
    layer("pastry.false_positives", "count", Lower),
    // scribe
    layer("scribe.tree_depth_max", "count", Lower),
    layer("scribe.tree_roots_max", "count", Lower),
    layer("scribe.agg_msgs_per_node_round", "count", Lower),
    layer("scribe.replica_sync_msgs_per_round", "count", Lower),
    layer("scribe.repair_rounds", "count", Lower),
    layer("scribe.rejoin_retries", "count", Lower),
    layer("scribe.replica_promotions", "count", Lower),
    layer("scribe.orphan_rejoins", "count", Lower),
    layer("scribe.subscribe_p50_ms", "ms", Lower),
    // aascript
    layer("aascript.onget_ns", "ns", Lower),
    layer("aascript.install_us", "us", Lower),
    layer("aascript.denials", "count", Lower),
    layer("aascript.errors", "count", Lower),
    // rbay-query
    layer("rbay-query.parse_ns", "ns", Lower),
    // rbay-core: engine, front door, host, pack
    layer("engine.probe_ms", "ms", Lower),
    layer("engine.attempts_per_query", "count", Lower),
    layer("engine.issue_us", "us", Lower),
    layer("engine.sim_p50_ms", "ms", Lower),
    layer("engine.sim_p99_ms", "ms", Lower),
    layer("frontdoor.hit_share", "ratio", Higher),
    layer("frontdoor.coalesced", "count", Higher),
    layer("frontdoor.shed", "count", Lower),
    layer("frontdoor.invalidations", "count", Lower),
    layer("frontdoor.evictions", "count", Lower),
    layer("frontdoor.stale_reads", "count", Lower),
    layer("frontdoor.key_ns", "ns", Lower),
    layer("frontdoor.hit_us", "us", Lower),
    layer("host.write_us", "us", Lower),
    layer("host.write_sim_ms", "ms", Lower),
    layer("pack.pump_ns_per_msg", "ns", Lower),
    layer("pack.maintenance_round_us", "us", Lower),
    layer("pack.loopback_dropped", "count", Lower),
    // rbay-wire
    layer("wire.encode_ns", "ns", Lower),
    layer("wire.decode_ns", "ns", Lower),
    layer("wire.frame_bytes", "B", Lower),
    layer("wire.agg_encode_ns", "ns", Lower),
    layer("wire.agg_decode_ns", "ns", Lower),
    layer("wire.agg_frame_bytes", "B", Lower),
    layer("tcp.roundtrip_us", "us", Lower),
    layer("tcp.frames_per_s", "1/s", Higher),
    layer("tcp.dropped_frames", "count", Lower),
    layer("tcp.drop_outbound_full", "count", Lower),
    layer("tcp.drop_write_cap", "count", Lower),
    layer("tcp.drop_connect_exhausted", "count", Lower),
    layer("tcp.drop_conn_closed", "count", Lower),
    layer("tcp.drop_unresolvable", "count", Lower),
    // ctrl protocol and the tcp_pack harness
    layer("ctrl.roundtrip_us", "us", Lower),
    layer("tcp.pooled_p99_ms", "ms", Lower),
    layer("tcp.release_share", "ratio", Lower),
    layer("tcp.commit_polls", "count", Lower),
    layer("tcp.setup_query_attempts", "count", Lower),
    layer("tcp.reboots", "count", Lower),
    layer("tcp.converge_s", "s", Lower),
    layer("tcp.idle_bytes_per_node_round", "B", Lower),
    // rbay-store
    layer("store.append_ns", "ns", Lower),
    layer("store.snapshot_ms", "ms", Lower),
    layer("store.replay_records_per_s", "1/s", Higher),
    layer("store.wal_appends_per_query", "count", Lower),
    // the harness itself
    layer("workloads.gen_ns_per_op", "ns", Lower),
    layer("trace.overhead_share", "ratio", Lower),
    layer("trace.spans", "count", Lower),
    layer("harness.failed_share", "ratio", Lower),
    layer("harness.lap_spread", "ratio", Lower),
    // self time of each traced call, as a share of the traced lap's wall
    layer("self.parse_query_share", "ratio", Lower),
    layer("self.frontdoor_query_share", "ratio", Lower),
    layer("self.issue_parsed_query_share", "ratio", Lower),
    layer("self.settle_share", "ratio", Lower),
    layer("self.run_until_share", "ratio", Lower),
    layer("self.update_attr_share", "ratio", Lower),
    layer("self.run_maintenance_share", "ratio", Lower),
    layer("self.crash_epoch_share", "ratio", Lower),
    layer("self.ctrl_issue_query_share", "ratio", Lower),
    layer("self.ctrl_status_share", "ratio", Lower),
    layer("self.ctrl_release_share", "ratio", Lower),
];

/// What `bench compare` allows a metric that repeats exactly per seed —
/// simulated-clock latencies and simulator counts — to worsen by.
pub const EXACT_BOUND: f64 = 0.01;
/// What `bench compare` allows a wall-clock metric to worsen by. A cell
/// whose run-to-run spread is wider reads `unresolved`; the cure is longer
/// runs (`--seconds`, `--runs`), never a wider bound.
pub const WALL_BOUND: f64 = 0.10;

/// End-to-end metrics that repeat exactly for one seed on a workload whose
/// clock is `sim`: latencies on the simulated clock, `NetStats` counts, and
/// the share of operations that passed their checks.
const EXACT_ON_SIM: [&str; 6] = [
    "query_p50_ms",
    "query_p99_ms",
    "query_mean_ms",
    "ok_share",
    "msgs_per_query",
    "bytes_per_query",
];

/// Whether `metric` repeats exactly per seed on a workload with this clock.
pub fn is_exact(workload_clock: &str, metric: &str) -> bool {
    workload_clock == "sim" && EXACT_ON_SIM.contains(&metric)
}

/// The bound `bench compare` judges a cell by: never looser than the
/// manifest's (`ok_share` keeps its 0.001).
pub fn compare_bound(def: &MetricDef, exact: bool) -> f64 {
    def.bound.min(if exact { EXACT_BOUND } else { WALL_BOUND })
}

/// Looks an end-to-end metric up by name.
pub fn end_to_end(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// `BENCHMARK.json`, rendered from the tables above.
pub fn manifest() -> Value {
    let command: Vec<Value> = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--offline",
        "--manifest-path",
        "bench/Cargo.toml",
        "--",
        "run",
    ]
    .into_iter()
    .map(Value::from)
    .collect();
    obj([
        ("command", command.into()),
        ("paths", vec![Value::from("bench")].into()),
        ("run_seconds", RUN_SECONDS.into()),
        (
            "workloads",
            WORKLOADS
                .iter()
                .map(|w| obj([("name", w.name.into()), ("why", w.why.into())]))
                .collect::<Vec<_>>()
                .into(),
        ),
        (
            "end_to_end",
            END_TO_END
                .iter()
                .map(|m| {
                    obj([
                        ("name", m.name.into()),
                        ("unit", m.unit.into()),
                        ("better", m.better.as_str().into()),
                        ("bound", m.bound.into()),
                    ])
                })
                .collect::<Vec<_>>()
                .into(),
        ),
        (
            "per_layer",
            PER_LAYER
                .iter()
                .map(|m| {
                    obj([
                        ("name", m.name.into()),
                        ("unit", m.unit.into()),
                        ("better", m.better.as_str().into()),
                    ])
                })
                .collect::<Vec<_>>()
                .into(),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_meet_the_manifest_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut seen = BTreeSet::new();
        for w in WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "{} used twice", w.name);
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}: {}", m.name, m.unit);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = end_to_end("setup_s").expect("setup_s is mandatory");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(manifest().render().len() <= 64 * 1024);
    }

    #[test]
    fn benchmark_json_at_the_root_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let on_disk = crate::json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            on_disk,
            manifest(),
            "regenerate with `bench manifest > BENCHMARK.json`"
        );
    }
}
